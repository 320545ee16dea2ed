import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semmap.config import PipelineConfig
from semmap.errors import ClockWentBackwards, NegativeDt
from semmap.willingness import (
    PersonWillingnessMap,
    WillingnessState,
    update,
)

# the rates and reset threshold of the states below
RATE_UP, RATE_DOWN, RESET = 1.0 / 3.0, 1.0 / 9.0, 0.5


def state_at(value=0.0):
    """A state holding `value`, at RATE_UP and RATE_DOWN."""
    return WillingnessState(RATE_UP, RATE_DOWN, value)


def run_schedule(schedule, dt=0.01):
    """Advance a fresh state through (duration, attending) segments."""
    state = state_at()
    trigger_times = []
    t = 0.0
    for duration, attending in schedule:
        for _ in range(round(duration / dt)):
            prev = state
            state = update(state, attending, dt, RESET)
            t += dt
            if state.triggered and not prev.triggered:
                trigger_times.append(t)
    return state, trigger_times


class TestUpdate:
    def test_loads_at_rate_up(self):
        state = update(state_at(), True, 1.0, RESET)
        assert state.value == pytest.approx(1.0 / 3.0)

    def test_unloads_at_rate_down(self):
        state = update(state_at(0.5), False, 1.0, RESET)
        assert state.value == pytest.approx(0.5 - 1.0 / 9.0)

    def test_clamped_at_zero(self):
        state = update(state_at(), False, 100.0, RESET)
        assert state.value == 0.0

    def test_triggers_at_saturation(self):
        state = update(state_at(0.9), True, 10.0, RESET)
        assert state.value == 1.0
        assert state.triggered

    def test_negative_dt_rejected(self):
        with pytest.raises(NegativeDt):
            update(state_at(), True, -0.1, RESET)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            WillingnessState(rate_up=0.1, rate_down=0.2)

    @given(value=st.floats(0, 1), attending=st.booleans(),
           dt=st.floats(0, 100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_clamp_law(self, value, attending, dt):
        state = update(state_at(value), attending, dt, RESET)
        assert 0.0 <= state.value <= 1.0
        rate = 1.0 / 3.0 if attending else -1.0 / 9.0
        expected = min(1.0, max(0.0, value + rate * dt))
        assert state.value == pytest.approx(expected, abs=1e-12)

    @given(value=st.floats(0, 1), dt=st.floats(0, 10, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_attending_dominates(self, value, dt):
        up = update(state_at(value), True, dt, RESET)
        down = update(state_at(value), False, dt, RESET)
        assert up.value >= down.value


class TestSchedules:
    def test_three_seconds_to_trigger(self):
        state, times = run_schedule([(5.0, True)])
        assert len(times) == 1
        assert times[0] == pytest.approx(3.0, abs=0.011)

    def test_never_attending_stays_zero(self):
        state, times = run_schedule([(10.0, False)])
        assert state.value == 0.0
        assert times == []

    def test_distraction_unloads_slowly(self):
        state, _ = run_schedule([(2.0, True)])
        assert state.value == pytest.approx(2.0 / 3.0, abs=1e-9)
        state2, _ = run_schedule([(2.0, True), (1.0, False)])
        assert state2.value == pytest.approx(2.0 / 3.0 - 1.0 / 9.0, abs=1e-9)

    def test_resume_time_closed_form(self):
        # after d seconds distracted, re-triggering needs (r_down/r_up) d
        # extra attending time on top of the remaining load
        d = 1.5
        _, times = run_schedule([(2.0, True), (d, False), (10.0, True)])
        expected = 2.0 + d + (3.0 - 2.0) + (1.0 / 9.0) / (1.0 / 3.0) * d
        assert len(times) == 1
        assert times[0] == pytest.approx(expected, abs=0.011)

    def test_single_trigger_per_hysteresis_cycle(self):
        # stays above the reset threshold, so no second trigger
        _, times = run_schedule([(4.0, True), (2.0, False), (2.0, True)])
        assert len(times) == 1

    def test_retrigger_after_full_reset(self):
        _, times = run_schedule([(4.0, True), (6.0, False), (4.0, True)])
        assert len(times) == 2


class TestPersonMap:
    def test_trigger_frame_at_ten_hz(self):
        m = PersonWillingnessMap()
        trigger_frames = []
        for frame in range(60):
            out = m.step_frame([(7, True)], frame * 0.1)
            if out:
                trigger_frames.append(frame)
        # created at frame 0 with value 0; ~30 attending steps load to 1.0
        # (float accumulation may land one step late)
        assert len(trigger_frames) == 1
        assert trigger_frames[0] in (30, 31)

    def test_unseen_person_decays(self):
        m = PersonWillingnessMap()
        for frame in range(10):
            m.step_frame([(1, True)], frame * 0.1)
        loaded = m.persons[1].willingness.value
        m.step_frame([], 2.0)
        assert m.persons[1].willingness.value < loaded

    def test_two_persons_independent(self):
        m = PersonWillingnessMap()
        triggers = []
        for frame in range(70):
            triggers += m.step_frame([(1, True), (2, frame >= 20)],
                                     frame * 0.1)
        assert triggers == [1, 2]

    def test_clock_backwards_rejected(self):
        m = PersonWillingnessMap()
        m.step_frame([(1, True)], 1.0)
        with pytest.raises(ClockWentBackwards):
            m.step_frame([(1, True)], 0.5)

    def test_id_observed_twice_in_one_step_rejected(self):
        # the last observation silently won
        m = PersonWillingnessMap()
        m.step_frame([(1, True)], 0.0)
        with pytest.raises(ValueError, match="person 1 observed twice"):
            m.step_frame([(1, True), (2, True), (1, False)], 0.1)
        assert m.t == 0.0 and set(m.persons) == {1}

    def test_prune_drops_dead_tracks(self):
        m = PersonWillingnessMap()
        m.step_frame([(1, True), (2, True)], 0.0)
        m.prune([2])
        assert set(m.persons) == {2}

    @given(times=st.lists(
               st.one_of(st.integers(0, 200).map(lambda n: n / 10),
                         st.floats(0, 20)), min_size=1, max_size=40)
           .map(sorted),
           seen=st.lists(st.dictionaries(st.sampled_from([1, 2]),
                                         st.booleans()), min_size=40,
                         max_size=40))
    @example(times=[0.3, 0.9, 0.9], seen=[{1: True}] * 40)
    @settings(max_examples=200, deadline=None)
    def test_values_follow_the_recurrence(self, times, seen):
        """Over a non-decreasing timeline, with repeated times and gaps,
        each person's value is the clamp recurrence with dt = t_k - t_k-1
        from the step after the person's first."""
        m = PersonWillingnessMap()
        values = {}
        for k, (t, observed) in enumerate(zip(times, seen)):
            dt = t - times[k - 1] if k else 0.0
            for pid in values:
                rate = 1.0 / 3.0 if observed.get(pid) else -1.0 / 9.0
                values[pid] = min(1.0, max(0.0, values[pid] + rate * dt))
            for pid in observed:
                values.setdefault(pid, 0.0)
            m.step_frame(list(observed.items()), t)
            assert {pid: p.willingness.value
                    for pid, p in m.persons.items()} == values

    def test_clock_backwards_rejected_before_any_person(self):
        m = PersonWillingnessMap()
        m.step_frame([], 1.0)
        with pytest.raises(ClockWentBackwards):
            m.step_frame([], 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_time_rejected(self, t, first):
        m = PersonWillingnessMap()
        if not first:
            m.step_frame([(1, True)], 0.0)
        before = (m.t, {pid: p.willingness for pid, p in m.persons.items()})
        with pytest.raises(ValueError, match="not finite"):
            m.step_frame([(1, True), (2, True)], t)
        assert (m.t, {pid: p.willingness
                      for pid, p in m.persons.items()}) == before

    def test_custom_rates(self):
        m = PersonWillingnessMap(PipelineConfig(willingness_rate_up=1.0,
                                                willingness_rate_down=0.5))
        triggers = m.step_frame([(1, True)], 0.0)
        assert triggers == []
        triggers = m.step_frame([(1, True)], 1.0)
        assert triggers == [1]
