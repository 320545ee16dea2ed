"""Extreme values at the scenario load boundary fail loudly or run cleanly.

Every numeric leaf of a scenario's `trajectory`, `drift`, `persons` and
`noise`, one at a time, is set to each of `VALUES`. The scenario must then
either be rejected with `ScenarioError`, or load and run its first frames
through `Pipeline.step` without a warning: a numpy overflow warning means
bad input ran on into arithmetic that the load should have refused. The
integer fields `frames` and `start_frame` are left alone: a frame count
near its cap is accepted, and allocates gigabytes.
"""

import copy
import json
import warnings
from pathlib import Path

import pytest

from semmap.errors import ScenarioError
from semmap.pipeline import FrameInput, Pipeline
from semmap.simulator import Scenario, synthesize_frame_data

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "configs" / "scenarios").glob("*.json")) + [
    ROOT / "tests" / "data" / f"{name}.json"
    for name in ("tabletop_sweep", "cluttered_drift", "attention_crowd")]
SECTIONS = ("trajectory", "drift", "persons", "noise")
VALUES = (-1e308, -1e154, -1, 0, 1e-300, 1e154, 1e308)
SIZES = {"frames", "start_frame"}
FRAMES = 3


def numeric_leaves(value, path=()):
    """(path, number) of each number under `value`, in document order."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, value
        return
    for key, item in items:
        if key not in SIZES:
            yield from numeric_leaves(item, path + (key,))


def cases():
    for path in SCENARIOS:
        d = json.loads(path.read_text())
        for section in SECTIONS:
            for leaf, _ in numeric_leaves(d.get(section), (section,)):
                name = path.stem + ":" + ".".join(map(str, leaf))
                for value in VALUES:
                    yield pytest.param(path, leaf, value,
                                       id=f"{name}={value!r}")


def with_value(d: dict, leaf: tuple, value) -> dict:
    d = copy.deepcopy(d)
    parent = d
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    return d


@pytest.mark.parametrize("path, leaf, value", cases())
def test_rejected_or_runs_without_warning(path, leaf, value):
    d = with_value(json.loads(path.read_text()), leaf, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sc = Scenario.from_dict(d)
        except ScenarioError:
            return
        pipeline = Pipeline(sc.intrinsics)
        for i in range(min(FRAMES, sc.num_frames)):
            data = synthesize_frame_data(sc, i)
            pipeline.step(FrameInput(
                i, i / sc.fps, data.detections, data.depth,
                data.pose_estimate, list(data.landmarks.values()), []))
