"""Extreme values at the scenario load boundary fail loudly or run cleanly.

Every numeric leaf of a scenario, one at a time, is set to each of
`VALUES`: the leaves of its `intrinsics`, `world_objects`, `trajectory`,
`drift`, `persons`, `noise` and `correction_events`, and its top-level
`seed`, `fps`, `max_range` and `background_depth`. The scenario must then
either be rejected with `ScenarioError`, or load and run its first frames
through `Pipeline.step` without a warning: a numpy overflow warning means
bad input ran on into arithmetic that the load should have refused. The
sizing fields `frames`, `start_frame`, `width`, `height`, `sample_count`
and a correction's `frame` are left alone: a size near its cap is
accepted, and allocates gigabytes.

The shipped corrections are all "true", so no correction pose has a leaf
to set. The short scenario below gets explicit correction poses instead,
and each of their translation leaves is set to each of `VALUES`; every
case runs through the correction frame, where the map moves and merges
the sightings of the corrected keyframes, and on to the map metrics.

Likewise every `PipelineConfig` field, one at a time, at each of
`CONFIG_VALUES`: `semmap run --config` on a short scenario must exit with
a config error, or succeed without a warning.
"""

import copy
import dataclasses
import json
import warnings
from pathlib import Path

import pytest

from semmap.cli import EXIT_CONFIG, EXIT_OK, main
from semmap.config import PipelineConfig
from semmap.errors import ScenarioError
from semmap.pipeline import Pipeline
from semmap.simulator import (
    Scenario,
    run_scenario_detailed,
    synthesize_frame_data,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "configs" / "scenarios").glob("*.json")) + [
    ROOT / "tests" / "data" / f"{name}.json"
    for name in ("tabletop_sweep", "cluttered_drift", "attention_crowd")]
SECTIONS = ("intrinsics", "world_objects", "trajectory", "drift", "persons",
            "noise", "correction_events", "seed", "fps", "max_range",
            "background_depth")
VALUES = (-1e308, -1e154, -1, 0, 1e-300, 1e154, 1e308)
SIZES = {"frames", "start_frame", "width", "height", "sample_count", "frame"}
# frames run per case: three for the sections whose values change from
# frame to frame (pose, drift, attention, draws), one for the rest, which
# load checks and every frame reads alike
FRAMES = {"trajectory": 3, "drift": 3, "persons": 3, "noise": 3}


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
    """`d`, a freshly parsed scenario, with `value` at `leaf`, in place."""
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
        for i in range(min(FRAMES.get(leaf[0], 1), sc.num_frames)):
            pipeline.step(synthesize_frame_data(sc, i)[0])


# `semmap run --config` with one PipelineConfig field at each extreme value
CONFIG_VALUES = (-1e308, -1, 0, 1e-300, 0.5, 1e154, 1e308, 2**62)
CONFIG_FRAMES = 20


@pytest.fixture(scope="module")
def short_scenario(tmp_path_factory) -> Path:
    """The interaction scene cut to CONFIG_FRAMES frames at 5 fps, from two
    camera poses, with pose drift and a "true" correction, so that every
    stage runs: see `test_short_scenario_runs_every_stage`."""
    d = json.loads((ROOT / "configs" / "scenarios" /
                    "interaction.json").read_text())
    half = CONFIG_FRAMES // 2
    d["fps"] = 5
    d["trajectory"]["segments"] = [
        {"position": [0, 0, 1.5], "look_at": [0, 2.0, 1.5], "frames": half},
        {"position": [0.6, 0.5, 1.5], "look_at": [0, 2.0, 1.5],
         "frames": half}]
    d["persons"][0]["attention_windows"] = [[0.0, 4.0]]
    d["drift"] = {"start_frame": 4, "translation_per_frame": [0.05, 0, 0]}
    d["correction_events"] = [{"frame": CONFIG_FRAMES - 2, "poses": "true"}]
    path = tmp_path_factory.mktemp("config_sweep") / "short.json"
    path.write_text(json.dumps(d))
    return path


def test_short_scenario_runs_every_stage(short_scenario):
    """Under the default config, the cup registers twice (the second time,
    drifted, as a new object), the correction merges the two, head pose
    runs on both persons, and person 0 triggers."""
    _, metrics, events = run_scenario_detailed(
        Scenario.from_json(short_scenario))
    registered = [r["object"] for e in events for r in e["registered"]]
    assert registered == [0, 1]
    assert events[CONFIG_FRAMES - 2]["merges"][0]["pairs"] == [[0, 1]]
    assert {p["person"] for e in events for p in e["persons"]} == {0, 1}
    assert [t["person_index"]
            for t in metrics.willingness_trigger_times] == [0]


@pytest.mark.parametrize("value", CONFIG_VALUES, ids=repr)
@pytest.mark.parametrize("name", [
    f.name for f in dataclasses.fields(PipelineConfig)])
def test_config_rejected_or_runs_without_warning(short_scenario, tmp_path,
                                                 capsys, name, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--scenario", str(short_scenario),
                     "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ")
    else:
        assert (code, err) == (EXIT_OK, "")


# the keyframes of the short scenario's two sightings of the cup, which
# its correction merges
CORRECTED_KEYFRAMES = (4, 14)


@pytest.fixture(scope="module")
def explicit_correction(short_scenario) -> dict:
    """The short scenario, its "true" correction replaced by explicit
    poses: the true poses of CORRECTED_KEYFRAMES."""
    d = json.loads(short_scenario.read_text())
    trajectory = Scenario.from_dict(d).trajectory
    d["correction_events"][0]["poses"] = {
        str(k): trajectory[k].to_dict() for k in CORRECTED_KEYFRAMES}
    return d


def test_explicit_correction_merges_the_sightings(explicit_correction):
    _, _, events = run_scenario_detailed(
        Scenario.from_dict(explicit_correction))
    assert [r["object"] for e in events for r in e["registered"]] == [0, 1]
    assert events[CONFIG_FRAMES - 2]["merges"][0]["pairs"] == [[0, 1]]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("keyframe", CORRECTED_KEYFRAMES)
def test_correction_pose_rejected_or_runs_without_warning(
        explicit_correction, keyframe, axis, value):
    # ±1e308 (and 1e200, which VALUES lacks) loaded and died in the run:
    # a squared gap or a centroid's sum overflowed
    d = copy.deepcopy(explicit_correction)
    d["correction_events"][0]["poses"][str(keyframe)]["translation"][axis] \
        = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sc = Scenario.from_dict(d)
        except ScenarioError:
            return
        run_scenario_detailed(sc)
