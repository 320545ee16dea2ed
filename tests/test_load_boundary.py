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

Beside these fixed extremes, each range that a schema class declares
with `config.bound` is tried at each of its finite ends, read from the
same table that `config.check_bounds` reads: the last value inside it
loads, and the first value outside it (one integer, or one float by
`np.nextafter`) makes `semmap run` exit with a scenario or config error
and write nothing. The sizing bounds are only loaded, never run. Every
numeric field of the schema classes declares a bound or is listed in
`UNBOUNDED` with the reason it needs none, and the README names each
declared bound. So is each cap on a scenario's total: its frames, over
all segments or poses, and its surface samples, over all objects.
"""

import copy
import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from semmap import cli
from semmap.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCENARIO, main
from semmap.config import PipelineConfig, _annotations, bounds
from semmap.errors import ScenarioError
from semmap.geometry import CameraIntrinsics, RigidPose
from semmap.pipeline import Pipeline
from semmap.simulator import (
    MAX_FRAMES,
    MAX_SAMPLE_COUNT,
    CorrectionEvent,
    DriftModel,
    NoiseModel,
    Orbit,
    PersonSpec,
    Poses,
    Scenario,
    Segment,
    Segments,
    Sight,
    WorldObject,
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


# every dataclass that `config.build` makes from a JSON object
SCHEMA = (PipelineConfig, Scenario, CameraIntrinsics, WorldObject,
          PersonSpec, NoiseModel, DriftModel, CorrectionEvent, Orbit, Sight,
          Segment, Segments, Poses, RigidPose, cli.FaceRecord,
          cli.Observation, cli.TimelineRecord)
NUMERIC = {"int", "float", "float | None", "Vector3"}
# each numeric schema field that declares no bound, by its declaring
# class, and why it needs none; "cross-ruled" names the hand-written rule
# that checks it against other fields instead
UNBOUNDED = {
    "PipelineConfig.willingness_rate_up":
        "cross-ruled: it must exceed willingness_rate_down",
    "Scenario.seed": "any int64 seeds the random generators",
    "CameraIntrinsics.cx": "cross-ruled: the principal point lies in "
                           "the image",
    "CameraIntrinsics.cy": "cross-ruled: the principal point lies in "
                           "the image",
    "WorldObject.centroid": "cross-ruled: the box lies within "
                            "±MAX_COORDINATE",
    "PersonSpec.position": "any head position: one out of range or "
                           "behind the camera is not seen",
    "PersonSpec.away_yaw_deg": "any angle: a rotation wraps",
    "DriftModel.start_frame": "cross-ruled: it lies in [0, num_frames)",
    "DriftModel.translation_per_frame":
        "cross-ruled: each drifted estimate is finite and within "
        "±MAX_COORDINATE",
    "DriftModel.rotation_deg_per_frame":
        "cross-ruled: each drifted estimate is finite and within "
        "±MAX_COORDINATE",
    "CorrectionEvent.frame": "cross-ruled: it lies in [0, num_frames)",
    "Orbit.center": "cross-ruled: each camera lies within ±MAX_COORDINATE",
    "Orbit.height": "cross-ruled: each camera lies within ±MAX_COORDINATE",
    "Orbit.start_deg": "any angle: the orbit wraps",
    "Sight.position": "cross-ruled: each camera lies within "
                      "±MAX_COORDINATE",
    "Sight.look_at": "cross-ruled: it lies at least 1e-12 m from the "
                     "camera",
    "RigidPose.translation": "cross-ruled: a camera or a corrected "
                             "keyframe lies within ±MAX_COORDINATE",
    "TimelineRecord.t": "any time: the willingness clock rejects one "
                        "that goes backwards",
}


def owner(cls, name: str) -> str:
    """"Class.field" of the class in `cls`'s MRO that declares `name`."""
    klass = next(k for k in cls.__mro__
                 if name in vars(k).get("__annotations__", {}))
    return f"{klass.__name__}.{name}"


def test_every_numeric_schema_field_is_bounded_or_listed():
    numeric = {owner(cls, name) for cls in SCHEMA
               for name, annotation in _annotations(cls).items()
               if annotation in NUMERIC}
    declared = {owner(cls, name) for cls in SCHEMA for name in bounds(cls)}
    assert sorted(numeric - declared - set(UNBOUNDED)) == []
    assert sorted(set(UNBOUNDED) & declared) == []
    assert sorted(set(UNBOUNDED) - numeric) == []


def test_readme_names_each_declared_bound():
    readme = " ".join((ROOT / "README.md").read_text().split())
    missing = [f"`{name}` in `{text}`" for cls in SCHEMA
               for name, text in bounds(cls).items()
               if f"`{name}` in `{text}`" not in readme]
    assert missing == []


# a one-frame scenario that each bound's ends leave valid: the principal
# point at the origin fits a 1 px image, one frame has a finite time at
# any fps, and the orbit's camera stays clear of its center at radius 0
EDGE_SCENARIO = {
    "seed": 0,
    "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 0.0, "cy": 0.0,
                   "width": 640, "height": 480},
    "world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                       "extents": [0.1, 0.1, 0.1]}],
    "trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                   "radius": 2.0, "frames": 1, "height": 2.0},
    "noise": {},
}
SEGMENTS = {"kind": "segments", "segments": [
    {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0],
     "frames": 1}]}
# where each bounded scenario class's fields lie in EDGE_SCENARIO
FIELDS_AT = {Scenario: (), CameraIntrinsics: ("intrinsics",),
             WorldObject: ("world_objects", 0), NoiseModel: ("noise",),
             Orbit: ("trajectory",),
             Segment: ("trajectory", "segments", 0)}


def ends(text: str, integer: bool):
    """(last value inside, first value outside) at each finite end of the
    interval `text`: one integer, or one float by `np.nextafter`, apart."""
    def step(value, toward):
        return value + (1 if toward > 0 else -1) if integer \
            else float(np.nextafter(value, toward))
    lo, hi = map(float, text[1:-1].split(", "))
    for end, closed, outward in ((lo, text[0] == "[", -np.inf),
                                 (hi, text[-1] == "]", np.inf)):
        if np.isfinite(end):
            end = int(end) if integer else end
            yield (end, step(end, outward)) if closed \
                else (step(end, -outward), end)


def edge_cases():
    """(class, field, component or None, value, whether it lies inside)
    at each finite end of each declared bound."""
    for cls in SCHEMA:
        types = _annotations(cls)
        for name, text in bounds(cls).items():
            components = range(3) if types[name] == "Vector3" else [None]
            for pair in ends(text, types[name] == "int"):
                for i in components:
                    label = name if i is None else f"{name}[{i}]"
                    for value, inside in zip(pair, (True, False)):
                        yield pytest.param(
                            cls, name, i, value, inside,
                            id=f"{cls.__name__}.{label}={value!r}:"
                               f"{'loads' if inside else 'rejected'}")


def with_edge(cls, name, component, value) -> dict:
    """A config or scenario document with `value` in field `name` of `cls`,
    in its `component`th entry if that is not None."""
    if cls is PipelineConfig:
        return {name: value}
    d = copy.deepcopy(EDGE_SCENARIO)
    if cls is Segment:
        d["trajectory"] = copy.deepcopy(SEGMENTS)
    fields = d
    for key in FIELDS_AT[cls]:
        fields = fields[key]
    if component is None:
        fields[name] = value
    else:
        fields[name][component] = value
    return d


@pytest.mark.parametrize("cls, name, component, value, inside",
                         edge_cases())
def test_declared_bound_edge(tmp_path, capsys, cls, name, component, value,
                             inside):
    d = with_edge(cls, name, component, value)
    if inside:  # loaded only: a sizing bound run would take gigabytes
        (PipelineConfig if cls is PipelineConfig else Scenario).from_dict(d)
        return
    path = tmp_path / "input.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    if cls is PipelineConfig:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(EDGE_SCENARIO))
        argv, code, prefix = ["--scenario", str(scenario), "--config",
                              str(path)], EXIT_CONFIG, "config error: "
    else:
        argv, code, prefix = ["--scenario", str(path)], EXIT_SCENARIO, \
            "scenario error: "
    assert main(["run", *argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    label = name if component is None else f"{name}[{component}]"
    assert err.startswith(prefix)
    assert f"{label} must be in {bounds(cls)[name]}, got " in err
    assert not out.exists()


def with_total(what: str, total: int) -> dict:
    """EDGE_SCENARIO with `total` frames in two segments, or `total`
    surface samples in two objects, each within its own bound."""
    d = copy.deepcopy(EDGE_SCENARIO)
    halves = (total // 2, total - total // 2)
    if what == "frames":
        d["trajectory"] = dict(SEGMENTS, segments=[
            dict(SEGMENTS["segments"][0], frames=n) for n in halves])
    else:
        d["world_objects"] = [dict(d["world_objects"][0], sample_count=n)
                              for n in halves]
    return d


@pytest.mark.parametrize("what, cap", [("frames", MAX_FRAMES),
                                       ("surface samples", MAX_SAMPLE_COUNT)])
def test_scenario_total_edge(tmp_path, capsys, what, cap):
    # three segments of MAX_FRAMES each loaded 324,000 frames, and three
    # objects of MAX_SAMPLE_COUNT each 3,000,000 samples
    Scenario.from_dict(with_total(what, cap))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(with_total(what, cap + 1)))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) \
        == EXIT_SCENARIO
    assert capsys.readouterr().err == (
        f"scenario error: scenario has {cap + 1} {what}, more than {cap}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["list", "poses"])
def test_explicit_trajectory_total_capped(kind):
    poses = [{"rotation": np.eye(3).tolist(),
              "translation": [0.0, 0.0, 0.0]}] * (MAX_FRAMES + 1)
    d = dict(EDGE_SCENARIO, trajectory=poses if kind == "list"
             else {"kind": "poses", "poses": poses})
    with pytest.raises(ScenarioError, match=f"scenario has {MAX_FRAMES + 1} "
                                            f"frames, more than {MAX_FRAMES}"):
        Scenario.from_dict(d)


def test_constructed_scenario_total_capped():
    sc = Scenario.from_dict(EDGE_SCENARIO)
    with pytest.raises(ScenarioError, match=f"scenario has {MAX_FRAMES + 1} "
                                            f"frames, more than {MAX_FRAMES}"):
        dataclasses.replace(sc, trajectory=sc.trajectory * (MAX_FRAMES + 1))
