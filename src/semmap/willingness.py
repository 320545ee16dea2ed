"""Interaction-willingness accumulator per tracked person.

A bounded value loads while the person's head faces the robot and unloads
more slowly while it does not, so brief distractions do not reset progress.
Reaching 1.0 latches a trigger; the latch clears only after the value drops
below a reset threshold (hysteresis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import PipelineConfig
from .errors import ClockWentBackwards, NegativeDt
from .headpose import HeadPose


@dataclass(frozen=True)
class WillingnessState:
    rate_up: float
    rate_down: float
    value: float = 0.0
    triggered: bool = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("value must stay in [0, 1]")
        if not self.rate_up > self.rate_down > 0.0:
            raise ValueError("rates must satisfy rate_up > rate_down > 0")


def update(state: WillingnessState, attending: bool, dt: float,
           reset_threshold: float) -> WillingnessState:
    """Advance one interval; loads at rate_up when attending, else unloads."""
    if dt < 0:
        raise NegativeDt(f"dt = {dt}")
    rate = state.rate_up if attending else -state.rate_down
    value = min(1.0, max(0.0, state.value + rate * dt))
    triggered = state.triggered
    if value >= 1.0:
        triggered = True
    elif value < reset_threshold:
        triggered = False
    return replace(state, value=value, triggered=triggered)


@dataclass
class Person:
    """What is kept about one person: its willingness, and its last
    accepted head pose, from which its next solve starts (None: cold)."""
    willingness: WillingnessState
    pose: HeadPose | None = None


class PersonWillingnessMap:
    """One `Person` record per person track id, on one clock: the time of
    the map's last step. `prune` is the one place a record is dropped."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.persons: dict[int, Person] = {}
        self.t: float | None = None  # time of the last step

    def step_frame(self, observations, t_now: float) -> list[int]:
        """Advance every known person by the time since the last step;
        returns ids that triggered this step.

        `observations` lists (person_track_id, attending), no id twice.
        Known persons not listed are treated as not attending. Unknown
        listed persons are created at value 0, after the step.
        """
        self.check_clock(t_now)
        attending_by_id = {}
        for pid, attending in observations:
            if pid in attending_by_id:
                raise ValueError(f"person {pid!r} observed twice in one step")
            attending_by_id[pid] = attending
        dt = 0.0 if self.t is None else t_now - self.t
        self.t = t_now
        config = self.config
        triggers = []
        for pid, person in self.persons.items():
            old = person.willingness
            person.willingness = update(old, attending_by_id.get(pid, False),
                                        dt, config.willingness_reset)
            if person.willingness.triggered and not old.triggered:
                triggers.append(pid)
        for pid in attending_by_id:
            if pid not in self.persons:
                self.persons[pid] = Person(WillingnessState(
                    config.willingness_rate_up, config.willingness_rate_down))
        return triggers

    def check_clock(self, t_now: float):
        """ValueError unless `t_now` is finite; ClockWentBackwards if it
        precedes the last step."""
        if not -math.inf < t_now < math.inf:  # NaN fails both
            raise ValueError(f"t={t_now} is not finite")
        if self.t is not None and t_now < self.t:
            raise ClockWentBackwards(f"t={t_now} before last step {self.t}")

    def prune(self, live_ids):
        """Drop the records of person tracks that no longer exist."""
        live = set(live_ids)
        self.persons = {k: p for k, p in self.persons.items() if k in live}
