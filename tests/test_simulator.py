import dataclasses
import importlib.util
import json
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semmap import simulator
from semmap.cli import EXIT_SCENARIO, main
from semmap.errors import FrameOutOfRange, PointBehindCamera, ScenarioError
from semmap.geometry import MAX_IMAGE_SIDE, RigidPose
from semmap.headpose import rotation_from_euler
from semmap.pipeline import Pipeline
from semmap.simulator import (
    MAX_COORDINATE,
    MAX_FALSE_POSITIVE_RATE,
    MAX_FRAMES,
    MAX_LANDMARK_JITTER_PX,
    MAX_SAMPLE_COUNT,
    CorrectionEvent,
    Orbit,
    Scenario,
    _clamped_boxes,
    _jittered_boxes,
    _sample_box_surface,
    compute_map_metrics,
    look_at,
    run_scenario_detailed,
    synthesize_frame_data,
)

from conftest import (
    _jittered_bbox,
    object_samples,
    per_object_frame_reference,
    reference_estimated_pose,
    reference_look_at,
    reference_orbit,
    reference_world_to_camera,
    rodrigues,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "configs" / "scenarios"

BASE = {
    "seed": 7,
    "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                   "width": 640, "height": 480},
    "world_objects": [
        {"class": "cup", "centroid": [0.0, 0.0, 1.0],
         "extents": [0.1, 0.1, 0.12]},
    ],
    "trajectory": {"kind": "segments", "segments": [
        {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0],
         "frames": 12},
    ]},
}


COORD = st.floats(-1e3, 1e3)


def scenario(**overrides):
    d = dict(BASE)
    d.update(overrides)
    return Scenario.from_dict(d)


class TestLookAt:
    def test_optical_axis_hits_target(self):
        pose = look_at([0, -2, 1], [0, 0, 1])
        target_cam = pose.inverse().transform(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(target_cam, [0, 0, 2], atol=1e-12)

    def test_rotation_orthonormal(self):
        pose = look_at([3, 1, 2], [0, 0, 0.5])
        r = pose.rotation
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_coincident_target_rejected(self):
        with pytest.raises(ScenarioError):
            look_at([1, 1, 1], [1, 1, 1])

    # a view `tilt` rad off vertical, up or down: under 1e-9 rad (and at 0)
    # look_at takes its (0, 1, 0) × z branch, above it down × z
    @given(position=st.tuples(COORD, COORD, COORD),
           offset=st.one_of(
               st.tuples(COORD, COORD, COORD),
               st.builds(lambda tilt, azimuth, dist: (
                   dist * tilt * math.cos(azimuth),
                   dist * tilt * math.sin(azimuth), dist),
                   st.one_of(st.just(0.0), st.floats(0.0, 1e-9),
                             st.floats(0.0, 1e-6)),
                   st.floats(0.0, 2 * math.pi),
                   st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3)))))
    @example(position=(0.5, -2.0, 1.0), offset=(0.0, 0.0, 3.0))
    @example(position=(0.5, -2.0, 1.0), offset=(0.0, 0.0, -3.0))
    @example(position=(0.0, 0.0, 1.0), offset=(1e-6, 0.0, -1.0))
    @example(position=(0.0, 0.0, 1.0), offset=(0.0, -1e-10, 1.0))
    def test_frame_is_a_rotation_by_construction(self, position, offset):
        # what the public RigidPose check enforced before look_at skipped it
        target = np.add(position, offset)
        assume(np.linalg.norm(target - position) >= 1e-6)
        pose = look_at(position, target)
        r = pose.rotation
        assert np.isfinite(r).all()
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(r) > 0
        assert pose.translation.tolist() == list(position)
        # the one-row stack gives the per-pose reference's bytes
        rotation, translation = reference_look_at(position, target)
        assert r.tobytes() == rotation.tobytes()
        assert pose.translation.tobytes() == translation.tobytes()

    @given(position=st.tuples(COORD, COORD, COORD),
           axis=st.integers(0, 2), sign=st.sampled_from([-1.0, 1.0]),
           far=st.floats(1.4e154, np.finfo(float).max))
    @example(position=(0.0, 0.0, 1.0), axis=0, sign=1.0,
             far=np.finfo(float).max)
    def test_overflowing_distance_rejected_without_warning(
            self, position, axis, sign, far):
        target = list(position)
        target[axis] = sign * far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="look_at"):
                look_at(position, target)
            # from the mirrored position: near the top of the float range
            # the difference itself overflows
            with pytest.raises(ScenarioError, match="look_at"):
                look_at(np.negative(target), target)


def orbit_specs():
    """(name, orbit spec) of every orbit in the shipped scenarios, in
    tests/data, and in the benchmark workloads of seeds 1-3."""
    paths = sorted(SCENARIO_DIR.glob("*.json")) + sorted(
        (ROOT / "tests" / "data").glob("*.json"))
    scenarios = [(p.stem, json.loads(p.read_text())) for p in paths]
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.GENERATORS:
        for seed in (1, 2, 3):
            scenarios += [(f"{name}-{seed}-{i}", d) for i, d
                          in enumerate(workloads.generate(name, seed))]
    for name, d in scenarios:
        trajectory = d["trajectory"]
        if isinstance(trajectory, dict) and trajectory["kind"] == "orbit":
            yield name, {k: v for k, v in trajectory.items() if k != "kind"}


def same_poses(poses, reference) -> bool:
    """The poses' rotations and translations, byte for byte, in order."""
    return len(poses) == len(reference) and all(
        p.rotation.tobytes() == r.tobytes() and p.translation.tobytes()
        == t.tobytes() for p, (r, t) in zip(poses, reference))


def assert_as_reference(make, reference):
    """`make()` gives the reference's poses byte for byte, or raises a
    ScenarioError with the reference's message; warnings are errors."""
    def outcome(f):
        try:
            return f()
        except ScenarioError as e:
            return str(e)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = outcome(make), outcome(reference)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_poses(got, want)


class TestOrbitMatchesScalarLoop:
    """The stacked look_at kernel against the per-pose loop it replaced
    (`conftest.reference_orbit` and `reference_look_at`), byte for byte."""

    ORBITS = dict(orbit_specs())

    def test_every_scenario_orbit_is_covered(self):
        assert len(self.ORBITS) == 63

    @pytest.mark.parametrize("name", sorted(ORBITS))
    def test_scenario_orbits(self, name):
        orbit = Orbit(**self.ORBITS[name])
        assert same_poses(orbit.trajectory(), reference_orbit(orbit))

    @settings(max_examples=200, deadline=None)
    @given(center=st.tuples(COORD, COORD, COORD),
           radius=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
           frames=st.integers(1, 40),
           height=st.one_of(st.none(), COORD),
           start_deg=st.floats(-1e6, 1e6),
           sweep_deg=st.floats(-simulator.MAX_SWEEP_DEG,
                               simulator.MAX_SWEEP_DEG))
    # straight down and straight up at the centre: the (0, 1, 0) × z branch
    @example(center=(0.5, -0.2, 0.9), radius=0.0, frames=4, height=2.4,
             start_deg=0.0, sweep_deg=360.0)
    @example(center=(0.5, -0.2, 0.9), radius=0.0, frames=4, height=-0.6,
             start_deg=30.0, sweep_deg=90.0)
    # a circle too small to leave the vertical branch, and one just past it
    @example(center=(0.0, 0.0, 1.0), radius=1e-10, frames=8, height=2.0,
             start_deg=0.0, sweep_deg=360.0)
    @example(center=(0.0, 0.0, 1.0), radius=1e-8, frames=8, height=2.0,
             start_deg=0.0, sweep_deg=360.0)
    # zero distance: the camera sits at the centre
    @example(center=(1.0, 2.0, 3.0), radius=0.0, frames=3, height=None,
             start_deg=0.0, sweep_deg=360.0)
    def test_random_orbits(self, center, radius, frames, height, start_deg,
                           sweep_deg):
        orbit = Orbit(center, radius, frames, height, start_deg, sweep_deg)
        assert_as_reference(orbit.trajectory, lambda: reference_orbit(orbit))

    @pytest.mark.parametrize("radius, height, message", [
        (0.0, None, "look_at distance 0.0 m outside [1e-12, inf)"),
        (1e-13, None, "look_at distance 1e-13 m outside [1e-12, inf)"),
        (1e308, None, "look_at distance inf m outside [1e-12, inf)"),
        (0.0, 1.5e154, "look_at distance inf m outside [1e-12, inf)"),
    ])
    def test_bad_distance_raises_as_the_loop(self, radius, height, message):
        orbit = Orbit((0.0, 0.0, 1.0), radius, 12, height)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make in (orbit.trajectory, lambda: reference_orbit(orbit)):
                with pytest.raises(ScenarioError) as e:
                    make()
                assert str(e.value) == message

    @given(sights=st.lists(st.one_of(
        st.none(), st.tuples(st.tuples(COORD, COORD, COORD),
                             st.tuples(COORD, COORD, COORD))), max_size=8))
    @example(sights=[((0.0, 0.0, 1.0), (0.0, 0.0, 3.0)), None,
                     ((0.0, -2.0, 1.0), (0.0, 0.0, 1.0))])
    @example(sights=[((0.0, -2.0, 1.0), (0.0, 0.0, 1.0)), None,
                     ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))])
    def test_poses_kind(self, sights):
        # None: a pose dict between the sights
        pose = RigidPose(rotation_from_euler(10.0, 20.0, 30.0), [1.0, 2, 3])
        spec = {"kind": "poses", "poses": [
            pose.to_dict() if s is None else
            {"position": list(s[0]), "look_at": list(s[1])} for s in sights]}
        assert_as_reference(lambda: simulator._trajectory(spec), lambda: [
            (pose.rotation, pose.translation) if s is None
            else reference_look_at(*s) for s in sights])

    def test_poses_are_distinct_frozen_objects(self):
        poses = Orbit((0.0, 0.0, 1.0), 2.0, 5).trajectory()
        assert len({id(p) for p in poses}) == 5
        for p in poses:
            assert not p.rotation.flags.writeable
            assert not p.translation.flags.writeable
            assert p.rotation.flags.c_contiguous


class TestBoxSampling:
    def test_points_lie_on_surface(self):
        rng = np.random.default_rng(0)
        c = np.array([1.0, -2.0, 0.5])
        e = np.array([0.2, 0.4, 0.6])
        pts = _sample_box_surface(c, e, 500, rng)
        rel = np.abs(pts - c) / (0.5 * e)
        assert np.all(rel.max(axis=1) == pytest.approx(1.0, abs=1e-12))
        assert np.all(rel <= 1.0 + 1e-12)


def frame_scenario(seed=0, objects=(), max_range=15.0, background_depth=0.0,
                   noise=None, persons=()):
    """One frame seen from (0, 0, 1) along +y through a 160x120 camera.

    objects: (right, ahead, up, extents, sample_count), placed relative to
    the camera; persons: (right, ahead) of a head at the camera's height.
    """
    return Scenario.from_dict({
        "seed": seed,
        "intrinsics": {"fx": 120.0, "fy": 120.0, "cx": 80.0, "cy": 60.0,
                       "width": 160, "height": 120},
        "world_objects": [
            {"class": f"c{i % 3}", "centroid": [right, ahead, 1.0 + up],
             "extents": list(extents), "sample_count": count}
            for i, (right, ahead, up, extents, count) in enumerate(objects)],
        "persons": [{"position": [right, ahead, 1.0],
                     "attention_windows": [[0.0, 1.0]]}
                    for right, ahead in persons],
        "trajectory": {"kind": "segments", "segments": [
            {"position": [0.0, 0.0, 1.0], "look_at": [0.0, 1.0, 1.0],
             "frames": 1}]},
        "max_range": max_range,
        "background_depth": background_depth,
        "noise": noise or {},
    })


FRAME_OBJECT = st.tuples(
    st.floats(-4.0, 4.0),  # right: wide offsets leave the image
    st.floats(-2.0, 20.0),  # ahead: behind the camera to beyond max_range
    st.floats(-1.5, 1.5),
    st.tuples(*[st.floats(0.02, 1.5)] * 3),
    st.integers(1, 300),
)
FRAME_NOISE = st.fixed_dictionaries({
    "bbox_jitter_px": st.sampled_from([0.0, 1.5]),
    "depth_noise_m": st.sampled_from([0.0, 0.02]),
    "dropout_prob": st.sampled_from([0.0, 0.3]),
    "false_positive_rate": st.sampled_from([0.0, 1.5]),
})
CUBE = (0.1, 0.1, 0.1)
BIG_CUBE = (1.0, 1.0, 1.0)
# image corners and edge midpoints of frame_scenario's camera, (u, v)
EDGE_SPOTS = ((0, 0), (160, 0), (0, 120), (160, 120),
              (80, 0), (80, 120), (0, 60), (160, 60))
FAR_EDGE_SPOTS = ((160, 120), (80, 120), (160, 60))  # right and bottom only


def edge_cubes(count, spots=EDGE_SPOTS, side=0.2, ahead=2.0):
    """frame_scenario objects: one cube of `count` samples centred on the
    ray through each of `spots`, `ahead` metres out, so that each straddles
    the image border."""
    return [(round((u - 80) / 120 * ahead, 4), ahead,
             round((60 - v) / 120 * ahead, 4), (side,) * 3, count)
            for u, v in spots]


# (seed, samples per cube, spots, footprint) of the edge examples below
EDGE_EXAMPLES = ((0, 500, EDGE_SPOTS, 2), (93, 150, EDGE_SPOTS, 3),
                 (88, 15, EDGE_SPOTS, 8), (187, 10, EDGE_SPOTS, 9),
                 (1, 150, FAR_EDGE_SPOTS, 3), (3, 10, FAR_EDGE_SPOTS, 9))


class TestSynthesizeFrame:
    @given(seed=st.integers(0, 2**16),
           objects=st.lists(FRAME_OBJECT, max_size=6),
           max_range=st.sampled_from([4.0, 15.0]),
           background_depth=st.sampled_from([0.0, 6.0]), noise=FRAME_NOISE,
           persons=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                      st.floats(1.0, 4.0)), max_size=1))
    # zero objects
    @example(seed=1, objects=[], max_range=15.0, background_depth=6.0,
             noise={}, persons=[])
    # footprint 1 (many samples, far), and the clip at 9 (five samples of
    # a metre cube, near); no noise, then depth noise and background
    @example(seed=2, objects=[(0.0, 6.0, 0.0, CUBE, 300),
                              (0.0, 1.5, 0.0, BIG_CUBE, 5)],
             max_range=15.0, background_depth=0.0, noise={}, persons=[])
    @example(seed=3, objects=[(0.0, 6.0, 0.0, CUBE, 300),
                              (0.0, 1.5, 0.0, BIG_CUBE, 5)],
             max_range=15.0, background_depth=6.0,
             noise={"depth_noise_m": 0.02}, persons=[])
    # partly off the image, behind the camera, beyond max_range; dropout
    # and false positives
    @example(seed=4, objects=[(1.5, 2.0, 0.0, BIG_CUBE, 200),
                              (0.0, -1.0, 0.0, CUBE, 50),
                              (0.0, 5.0, 0.0, CUBE, 50),
                              (-0.2, 2.5, -0.3, (0.3, 0.2, 0.1), 120)],
             max_range=4.0, background_depth=0.0,
             noise={"bbox_jitter_px": 1.5, "dropout_prob": 0.3,
                    "false_positive_rate": 1.5}, persons=[(0.5, 2.0)])
    # even counts whose two middle depths straddle a footprint step: the
    # upper (first) or the lower (second) middle value alone gives another
    # footprint than their mean
    @example(seed=70, objects=[(-0.49, 1.78, 0.0, (0.09, 0.41, 0.2), 76)],
             max_range=15.0, background_depth=0.0, noise={}, persons=[])
    @example(seed=16, objects=[(0.09, 1.22, 0.0, (0.39, 0.06, 0.11), 28)],
             max_range=15.0, background_depth=0.0, noise={}, persons=[])
    # footprints 2, 3, 8 and 9, with windows past every image edge and
    # corner, then 3 and 9 past the right and bottom edges alone
    # (TestEdgeExamples checks that they are). An even footprint's window
    # is asymmetric: offsets -f//2 .. f-1-f//2
    @example(seed=0, objects=edge_cubes(500), max_range=15.0,
             background_depth=0.0, noise={}, persons=[])
    @example(seed=93, objects=edge_cubes(150), max_range=15.0,
             background_depth=6.0, noise={}, persons=[])
    @example(seed=88, objects=edge_cubes(15), max_range=15.0,
             background_depth=0.0, noise={}, persons=[])
    @example(seed=187, objects=edge_cubes(10), max_range=15.0,
             background_depth=6.0, noise={}, persons=[])
    @example(seed=1, objects=edge_cubes(150, FAR_EDGE_SPOTS),
             max_range=15.0, background_depth=0.0, noise={}, persons=[])
    @example(seed=3, objects=edge_cubes(10, FAR_EDGE_SPOTS),
             max_range=15.0, background_depth=6.0, noise={}, persons=[])
    @settings(max_examples=60, deadline=None)
    def test_matches_per_object_reference(self, seed, objects, max_range,
                                          background_depth, noise, persons):
        sc = frame_scenario(seed, objects, max_range, background_depth, noise,
                            persons)
        got, got_provenance = synthesize_frame_data(sc, 0)
        want, want_provenance = per_object_frame_reference(sc, 0)
        assert got.depth.data.shape == want.depth.data.shape
        assert got.depth.data.tobytes() == want.depth.data.tobytes()
        assert [(d.bbox, d.class_label, d.kind, d.score)
                for d in got.detections] \
            == [(d.bbox, d.class_label, d.kind, d.score)
                for d in want.detections]
        assert got_provenance == want_provenance
        assert [(f.face_id, f.landmarks) for f in got.faces] \
            == [(f.face_id, f.landmarks) for f in want.faces]

    def test_landmark_projection_fault_propagates(self, monkeypatch):
        # only a face behind the camera is dropped; any other fault in
        # project_model is a defect, and was silently dropped with the face
        def broken(*args):
            raise ValueError("broken projection")

        monkeypatch.setattr(simulator, "project_model", broken)
        sc = scenario(persons=[{"position": [0.0, 0.0, 1.3],
                                "attention_windows": [[0.0, 10.0]]}])
        with pytest.raises(ValueError, match="broken projection"):
            synthesize_frame_data(sc, 0)

    def test_face_behind_camera_is_dropped(self, monkeypatch):
        def behind(*args):
            raise PointBehindCamera("model point at non-positive depth")

        monkeypatch.setattr(simulator, "project_model", behind)
        sc = scenario(persons=[{"position": [0.0, 0.0, 1.3],
                                "attention_windows": [[0.0, 10.0]]}])
        inp, _ = synthesize_frame_data(sc, 0)
        assert inp.faces == []
        assert [d.kind for d in inp.detections] == ["object", "person"]

    def test_object_samples_are_views_of_one_array(self):
        sc = frame_scenario(objects=[(0.0, 2.0, 0.0, CUBE, 30),
                                     (0.5, 3.0, 0.0, CUBE, 20)])
        assert sc.samples.shape == (50, 3)
        assert [len(s) for s in object_samples(sc)] == [30, 20]
        assert all(s.base is sc.samples for s in object_samples(sc))
        assert sc.sample_starts.tolist() == [0, 30]

    def test_noiseless_bbox_is_sample_hull(self):
        sc = scenario()
        inp, _ = synthesize_frame_data(sc, 0)
        dets = inp.detections
        assert len(dets) == 1
        cam = inp.pose_estimate.inverse().transform(object_samples(sc)[0])
        u = sc.intrinsics.cx + sc.intrinsics.fx * cam[:, 0] / cam[:, 2]
        v = sc.intrinsics.cy + sc.intrinsics.fy * cam[:, 1] / cam[:, 2]
        x0, y0, x1, y1 = dets[0].bbox
        assert x0 == pytest.approx(u.min() - 0.5)
        assert y0 == pytest.approx(v.min() - 0.5)
        assert x1 == pytest.approx(u.max() + 0.5)
        assert y1 == pytest.approx(v.max() + 0.5)

    def test_depth_inside_bbox_matches_range(self):
        sc = scenario()
        inp, _ = synthesize_frame_data(sc, 0)
        x0, y0, x1, y1 = inp.detections[0].bbox
        patch = inp.depth.data[int(y0) + 1:int(y1), int(x0) + 1:int(x1)]
        valid = patch[patch > 0]
        assert valid.size > 0
        # camera sits 2 m from the cup centroid
        assert np.all((valid > 1.8) & (valid < 2.2))

    def test_full_dropout_removes_detections(self):
        sc = scenario(noise={"dropout_prob": 1.0})
        assert synthesize_frame_data(sc, 0)[0].detections == []

    def test_fixed_seed_bitwise_identity(self):
        noisy = dict(BASE, noise={"bbox_jitter_px": 1.0, "depth_noise_m": 0.01,
                                  "false_positive_rate": 0.5})
        a = Scenario.from_dict(noisy)
        b = Scenario.from_dict(noisy)
        for i in range(3):
            da, _ = synthesize_frame_data(a, i)
            db, _ = synthesize_frame_data(b, i)
            assert [d.bbox for d in da.detections] \
                == [d.bbox for d in db.detections]
            np.testing.assert_array_equal(da.depth.data, db.depth.data)

    def test_noise_changes_the_frame(self):
        clean = synthesize_frame_data(scenario(), 0)[0].detections[0].bbox
        noisy = synthesize_frame_data(
            scenario(noise={"bbox_jitter_px": 2.0}), 0)[0].detections[0].bbox
        assert clean != noisy

    def test_frame_out_of_range(self):
        sc = scenario()
        with pytest.raises(FrameOutOfRange):
            synthesize_frame_data(sc, sc.num_frames)
        with pytest.raises(FrameOutOfRange):
            synthesize_frame_data(sc, -1)

    def test_person_landmarks_present_when_visible(self):
        sc = scenario(persons=[{"position": [0.0, 0.0, 1.3],
                                "attention_windows": [[0.0, 10.0]]}])
        inp, _ = synthesize_frame_data(sc, 0)
        assert [f.face_id for f in inp.faces] == [0]
        assert sc.attending_gt(0, 0) is True
        kinds = sorted(d.kind for d in inp.detections)
        assert kinds == ["object", "person"]


# box corners: sub-pixel boxes and boxes past each edge of a 1-3 px image,
# wide boxes, ±inf (a head far off the axis projects there) and signed zeros
BOX_COORD = st.one_of(st.floats(-4.0, 8.0), st.floats(-1e4, 1e4),
                      st.sampled_from([math.inf, -math.inf, 0.0, -0.0]))
SIDE = st.one_of(st.integers(1, 3), st.integers(1, MAX_IMAGE_SIDE))
INF = math.inf


def box_bits(boxes) -> bytes:
    return np.array(boxes, dtype=np.float64).reshape(-1, 4).tobytes()


class TestJitteredBoxes:
    @given(boxes=st.lists(st.tuples(*[BOX_COORD] * 4), max_size=6),
           seed=st.integers(0, 2**32 - 1),
           sigma=st.one_of(st.just(0.0), st.floats(1e-3, 50.0)),
           dropout=st.floats(0.0, 1.0), width=SIDE, height=SIDE)
    @example(boxes=[(-INF, -INF, INF, INF), (5.0, 5.0, 0.5, 0.5),
                    (0.2, 0.3, 0.4, 0.5), (0.0, -0.0, -0.0, 0.0)],
             seed=0, sigma=0.0, dropout=0.0, width=1, height=1)
    @example(boxes=[(INF, -INF, -INF, INF), (-0.0, -0.0, 0.0, 0.0)],
             seed=1, sigma=0.0, dropout=0.5, width=2, height=3)
    @example(boxes=[(INF, 0.5, -INF, 2.5), (3.0, -1.0, 2.2, 0.1)],
             seed=2, sigma=1.5, dropout=0.5, width=3, height=2)
    @example(boxes=[], seed=3, sigma=1.5, dropout=0.5, width=1, height=1)
    def test_matches_one_box_at_a_time(self, boxes, seed, sigma, dropout,
                                       width, height):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        jittered, dropped = _jittered_boxes(
            np.array(boxes, dtype=np.float64).reshape(-1, 4), rng, sigma,
            dropout)
        got = _clamped_boxes(jittered, width, height)
        want, want_dropped = [], []
        for box in boxes:
            want.append(_jittered_bbox(box, ref_rng, sigma, width, height))
            want_dropped.append(ref_rng.uniform() < dropout)
        assert box_bits(got) == box_bits(want)
        assert all(type(c) is float for box in got for c in box)
        assert dropped == want_dropped
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_every_box_lies_in_a_tiny_image(self, width, height):
        # x0 is held to max(width - 2, 0): width - 2 is -1 on a 1 px side
        sc = scenario(
            intrinsics={"fx": 1.0, "fy": 1.0, "cx": width / 2,
                        "cy": height / 2, "width": width, "height": height},
            persons=[{"position": [0.2, 0.0, 1.3],
                      "attention_windows": [[0.0, 10.0]]}],
            noise={"bbox_jitter_px": 1.0, "false_positive_rate": 2.0})
        kinds = set()
        for i in range(sc.num_frames):
            inp, provenance = synthesize_frame_data(sc, i)
            for det, (kind, _) in zip(inp.detections, provenance):
                kinds.add(kind)
                x0, y0, x1, y1 = det.bbox
                assert 0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height, \
                    (i, kind, det.bbox)
        assert kinds == {"object", "person", "fp"}


class TestDepthNotAliased:
    # a frame whose windows pass every image edge takes the padded buffer;
    # one cube in the middle of the image does not
    @staticmethod
    def padded(seed, background_depth):
        return frame_scenario(seed, edge_cubes(150),
                              background_depth=background_depth)

    @staticmethod
    def unpadded(seed, background_depth):
        return frame_scenario(seed, [(0.0, 2.0, 0.0, CUBE, 300)],
                              background_depth=background_depth)

    @pytest.mark.parametrize("held", ["padded", "unpadded"])
    def test_held_depth_survives_later_frames(self, held):
        make = getattr(self, held)
        depth = synthesize_frame_data(make(0, 0.0), 0)[0].depth.data
        before = depth.tobytes()
        # other samples and another background fill every later buffer
        synthesize_frame_data(self.padded(1, 6.0), 0)
        synthesize_frame_data(self.unpadded(1, 6.0), 0)
        assert depth.tobytes() == before
        assert before == synthesize_frame_data(make(0, 0.0), 0)[0] \
            .depth.data.tobytes()
        assert not depth.flags.writeable


HELD_SCENARIOS = {
    "interaction": SCENARIO_DIR / "interaction.json",
    "drift_loop": SCENARIO_DIR / "drift_loop.json",
    "attention_crowd": ROOT / "tests" / "data" / "attention_crowd.json",
}


def frame_key(frame) -> tuple:
    """Every field of a (FrameInput, provenance) pair, depth as bytes."""
    inp, provenance = frame
    return (inp.frame, inp.t, inp.depth.data.shape, inp.depth.data.tobytes(),
            [(d.bbox, d.class_label, d.kind, d.score)
             for d in inp.detections],
            inp.pose_estimate, [(f.face_id, f.landmarks) for f in inp.faces],
            inp.corrections, provenance)


@pytest.fixture(scope="module")
def held_frames():
    """The HELD_SCENARIOS by name, and the `frame_key` of the per-object
    reference of each of their frames, by (name, frame)."""
    scenarios = {name: Scenario.from_json(path)
                 for name, path in HELD_SCENARIOS.items()}
    return scenarios, {
        (name, i): frame_key(per_object_frame_reference(sc, i))
        for name, sc in scenarios.items() for i in range(sc.num_frames)}


def count_renders(monkeypatch) -> list:
    """The frame index of each `_render` call from now on."""
    calls = []
    render = simulator._render

    def counted(scenario, frame_idx):
        calls.append(frame_idx)
        return render(scenario, frame_idx)

    monkeypatch.setattr(simulator, "_render", counted)
    return calls


def held_person_scenario(position, windows):
    """BASE's 12 held frames (1.2 s) with one person and jittered boxes
    and landmarks."""
    return scenario(persons=[{"position": position,
                              "attention_windows": windows}],
                    noise={"bbox_jitter_px": 1.0, "landmark_jitter_px": 1.0})


class TestHeldView:
    @pytest.mark.parametrize("order", ["in order", "reverse", "shuffled",
                                       "interleaved"])
    def test_every_frame_matches_per_object_reference(self, held_frames,
                                                      order):
        scenarios, reference = held_frames
        keys = list(reference)  # scenario by scenario, frames in order
        if order == "reverse":
            keys.reverse()
        elif order == "shuffled":
            keys = [keys[i] for i in np.random.default_rng(3).permutation(
                len(keys))]
        elif order == "interleaved":
            names = list(scenarios)
            keys.sort(key=lambda key: (key[1], names.index(key[0])))
        mismatches = [
            key for key in keys if reference[key] != frame_key(
                synthesize_frame_data(scenarios[key[0]], key[1]))]
        assert mismatches == []

    def test_depth_noise_renders_every_frame_and_holds_nothing(
            self, monkeypatch):
        sc = scenario(noise={"depth_noise_m": 0.02})
        calls = count_renders(monkeypatch)
        for i in range(sc.num_frames):
            assert frame_key(synthesize_frame_data(sc, i)) \
                == frame_key(per_object_frame_reference(sc, i))
            assert simulator._held is None
        assert calls == list(range(sc.num_frames))

    @pytest.mark.parametrize("position, windows", [
        ([1.4, 0.0, 1.0], [[0.0, 10.0]]),  # landmarks leave the image
        ([0.0, -3.0, 1.0], [[0.0, 10.0]]),  # behind the camera
        ([0.0, 0.0, 1.3], [[0.55, 10.0]]),  # attention opens at frame 6
    ])
    def test_held_person_matches_per_object_reference(self, position,
                                                      windows):
        sc = held_person_scenario(position, windows)
        assert [frame_key(synthesize_frame_data(sc, i))
                for i in range(sc.num_frames)] \
            == [frame_key(per_object_frame_reference(sc, i))
                for i in range(sc.num_frames)]

    def test_landmarks_leaving_the_image_are_held_as_none(self):
        sc = held_person_scenario([1.4, 0.0, 1.0], [[0.0, 10.0]])
        for i in range(2):
            inp, provenance = synthesize_frame_data(sc, i)
            assert inp.faces == []
            assert provenance[-1] == ("person", 0)
        assert simulator._held[2].faces == {(0, True): None}

    def test_person_behind_the_camera_is_not_in_the_view(self):
        sc = held_person_scenario([0.0, -3.0, 1.0], [[0.0, 10.0]])
        inp, provenance = synthesize_frame_data(sc, 0)
        assert inp.faces == []
        assert provenance == [("object", 0)]
        assert simulator._held[2].persons == []

    def test_window_opening_mid_segment_uses_both_faces(self):
        sc = held_person_scenario([0.0, 0.0, 1.3], [[0.55, 10.0]])
        frames = [synthesize_frame_data(sc, i)[0] for i in range(11)]
        assert not sc.attending_gt(0, 5) and sc.attending_gt(0, 6)
        view = simulator._held[2]
        assert view.faces.keys() == {(0, False), (0, True)}
        assert all(f.depth is view.depth for f in frames)
        away, facing = view.faces[0, False], view.faces[0, True]
        assert away != facing
        assert all([f.face_id for f in inp.faces] == [0] for inp in frames)

    @pytest.mark.parametrize("name, renders", [
        ("interaction.json", 1), ("drift_loop.json", 3),
        ("desk_orbit.json", 100)])
    def test_renders_per_run_and_nothing_held_after(self, monkeypatch, name,
                                                    renders):
        sc = Scenario.from_json(SCENARIO_DIR / name)
        calls = count_renders(monkeypatch)
        _, _, events = run_scenario_detailed(sc)
        assert len(events) == sc.num_frames
        assert len(calls) == renders
        assert simulator._held is None

    def test_repeated_pose_dict_renders_every_frame(self, monkeypatch):
        # each entry of a poses trajectory is its own pose object, so no
        # frame holds its predecessor's pose, equal as they are
        pose = {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0]}
        sc = scenario(trajectory={"kind": "poses", "poses": [pose] * 4})
        calls = count_renders(monkeypatch)
        for i in range(sc.num_frames):
            synthesize_frame_data(sc, i)
        assert calls == [0, 1, 2, 3]
        assert simulator._held is None


class TestEdgeExamples:
    @pytest.mark.parametrize("seed, count, spots, footprint", EDGE_EXAMPLES)
    def test_each_cube_has_the_footprint_and_reaches_its_edges(
            self, seed, count, spots, footprint):
        sc = frame_scenario(seed, edge_cubes(count, spots))
        k = sc.intrinsics
        lo, hi = footprint // 2, footprint - 1 - footprint // 2
        for (u0, v0), pts, spacing in zip(spots, object_samples(sc),
                                          sc.sample_spacing):
            cam = sc.trajectory[0].inverse().transform(pts)
            u = k.cx + k.fx * cam[:, 0] / cam[:, 2]
            v = k.cy + k.fy * cam[:, 1] / cam[:, 2]
            inb = (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
            median = np.median(cam[inb, 2])
            assert np.clip(np.ceil(k.fx * spacing / median), 1, 9) \
                == footprint
            us, vs = u[inb].astype(int), v[inb].astype(int)
            # the window reaches past the edge, or (no reach on that side
            # of an even window) the sample lies on it
            reach = np.ones(us.size, dtype=bool)
            if u0 == 0:
                reach &= (us < lo) | (us == 0)
            if u0 == k.width:
                reach &= (us + hi >= k.width) | (us == k.width - 1)
            if v0 == 0:
                reach &= (vs < lo) | (vs == 0)
            if v0 == k.height:
                reach &= (vs + hi >= k.height) | (vs == k.height - 1)
            assert reach.any()


class TestSchema:
    def test_missing_seed(self):
        d = dict(BASE)
        del d["seed"]
        with pytest.raises(ScenarioError):
            Scenario.from_dict(d)

    def test_unknown_trajectory_kind(self):
        with pytest.raises(ScenarioError):
            scenario(trajectory={"kind": "spiral"})

    def test_empty_trajectory(self):
        with pytest.raises(ScenarioError):
            scenario(trajectory=[])

    def test_bad_correction_poses(self):
        with pytest.raises(ScenarioError):
            scenario(correction_events=[{"frame": 3, "poses": "guess"}])

    @pytest.mark.parametrize("frame", [-1, 12, 500])
    def test_correction_frame_out_of_range(self, frame):
        with pytest.raises(ScenarioError, match="correction frame"):
            scenario(correction_events=[{"frame": frame, "poses": "true"}])

    @pytest.mark.parametrize("keyframe", [-1, 4])
    def test_correction_names_keyframe_outside_range(self, keyframe):
        pose = RigidPose.identity().to_dict()
        with pytest.raises(ScenarioError, match="keyframes"):
            scenario(correction_events=[
                {"frame": 3, "poses": {"0": pose, str(keyframe): pose}}])

    @pytest.mark.parametrize("key", [
        " 1", "1 ", "+2", "1_0", "01", "00", "-0", "\uff11", "\u0663",
        "1.0", "1e0", "0x1", "a", ""])
    def test_keyframe_key_takes_only_canonical_decimals(self, key):
        # int() read the first nine ("1_0" as 10, "01" as 1) and rejected
        # the rest with its own message
        pose = RigidPose.identity().to_dict()
        with pytest.raises(ScenarioError,
                           match=f"keyframe id {re.escape(json.dumps(key))} "
                                 f"is not an integer"):
            scenario(correction_events=[{"frame": 11, "poses": {key: pose}}])

    def test_two_keys_naming_one_keyframe_rejected(self):
        # "1" and "01" both named keyframe 1, and the last one silently won
        d = json.loads((SCENARIO_DIR / "drift_loop.json").read_text())
        first, second = (dict(RigidPose.identity().to_dict(),
                              translation=[x, 0.0, 0.0]) for x in (1.0, 2.0))
        d["correction_events"] = [{"frame": 45, "poses": {"1": first,
                                                          "01": second}}]
        with pytest.raises(ScenarioError, match='keyframe id "01"'):
            Scenario.from_dict(d)

    def test_keyframe_keys_canonical_or_int_accepted(self):
        pose = RigidPose.identity()
        event = CorrectionEvent(11, {"0": pose, "10": pose, 7: pose,
                                     "-3": pose})
        assert list(event.poses) == [0, 10, 7, -3]
        with pytest.raises(ScenarioError, match="keyframe id true"):
            CorrectionEvent(11, {True: pose})

    @pytest.mark.parametrize("rate", [0.0, 2.0, MAX_FALSE_POSITIVE_RATE])
    def test_false_positive_rate_up_to_cap_accepted(self, rate):
        sc = scenario(noise={"false_positive_rate": rate})
        assert sc.noise.false_positive_rate == rate

    @pytest.mark.parametrize("rate", [
        -1.0, math.nextafter(MAX_FALSE_POSITIVE_RATE, math.inf), 1e6])
    def test_false_positive_rate_past_cap_rejected(self, rate):
        # 1e6 ran for minutes; 1e308 died in the Poisson draw
        with pytest.raises(ScenarioError, match="false_positive_rate"):
            scenario(noise={"false_positive_rate": rate})

    @pytest.mark.parametrize("jitter", [1.0, MAX_LANDMARK_JITTER_PX])
    def test_landmark_jitter_up_to_cap_runs(self, jitter):
        d = json.loads((ROOT / "tests" / "data" / "attention_crowd.json")
                       .read_text())
        d["noise"] = {"landmark_jitter_px": jitter}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, events = run_scenario_detailed(Scenario.from_dict(d))
        assert len(events) == 45

    def test_away_rotations_are_frozen(self):
        sc = scenario(persons=[{"position": [0.0, 0.0, 1.5],
                                "away_yaw_deg": 30.0}])
        rot, = sc.away_rotations
        assert not rot.flags.writeable
        assert np.array_equal(rot, rotation_from_euler(30.0, 0.0, 0.0))

    def test_correction_at_last_frame_accepted(self):
        pose = RigidPose.identity().to_dict()
        sc = scenario(correction_events=[
            {"frame": 11, "poses": {"0": pose, "11": pose}}])
        assert [ev.frame for ev in sc.correction_events] == [11]

    @pytest.mark.parametrize("overrides", [
        {"correction_event": [{"frame": 3, "poses": "true"}]},
        {"drift": {"start_frame": 0, "translation": [0.1, 0.0, 0.0]}},
        {"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                            "extents": [0.1, 0.1, 0.12], "samples": 50}]},
        {"persons": [{"position": [0.0, 0.0, 1.5], "away_yaw": 30.0}]},
        {"correction_events": [{"frame": 3, "pose": "true"}]},
        {"intrinsics": dict(BASE["intrinsics"], k1=0.1)},
        {"noise": {"bbox_jitter": 1.0}},
        {"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                        "radius": 2.0, "frames": 12, "sweep": 90}},
        {"trajectory": {"kind": "segments", "segments": [
            {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0],
             "frames": 12, "speed": 1.0}]}},
        {"trajectory": {"kind": "segments", "segments": [], "loop": True}},
        {"trajectory": {"kind": "poses", "poses": [
            {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0],
             "up": [0.0, 0.0, 1.0]}]}},
        {"trajectory": [dict(RigidPose.identity().to_dict(), scale=1.0)]},
        {"correction_events": [{"frame": 3, "poses": {
            "0": dict(RigidPose.identity().to_dict(), scale=1.0)}}]},
    ])
    def test_unknown_key_rejected(self, overrides):
        with pytest.raises(ScenarioError, match="unknown .* keys"):
            scenario(**overrides)

    @pytest.mark.parametrize("overrides, key", [
        ({"seed": 7.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"intrinsics": dict(BASE["intrinsics"], width=640.5)}, "width"),
        ({"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                             "extents": [0.1, 0.1, 0.12],
                             "sample_count": 50.5}]}, "sample_count"),
        ({"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                         "radius": 2.0, "frames": 12.5}}, "frames"),
        ({"drift": {"start_frame": 1.5}}, "start_frame"),
        ({"correction_events": [{"frame": 3.5, "poses": "true"}]}, "frame"),
    ], ids=["seed_float", "seed_bool", "width", "sample_count", "frames",
            "start_frame", "correction_frame"])
    def test_integer_field_takes_only_json_integers(self, overrides, key):
        # these were truncated by int() before
        with pytest.raises(ScenarioError, match=f"JSON integers: {key}"):
            scenario(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"world_objects": 5}, {"persons": [5]}, {"noise": [0.1]},
        {"trajectory": 5}, {"trajectory": {"kind": "orbit"}},
        {"trajectory": {"kind": "orbit", "center": [0.0, 0.0],
                        "radius": 2.0, "frames": 12}},
        {"trajectory": {"kind": "poses", "poses": [5]}},
        {"correction_events": [{"frame": 3, "poses": {"a": {}}}]},
        {"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                        "radius": 2.0, "frames": 12, "height": True}},
    ], ids=["objects_not_list", "person_not_object", "noise_not_object",
            "trajectory_not_object", "orbit_incomplete", "orbit_center_2d",
            "pose_not_object", "keyframe_id_not_integer", "orbit_height_true"])
    def test_malformed_value_is_a_scenario_error(self, overrides):
        with pytest.raises(ScenarioError):
            scenario(**overrides)

    @pytest.mark.parametrize("trajectory, field", [
        ({"kind": "segments", "segments": [
            {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0],
             "frames": 5},
            {"position": [0.0, -1.0, 1.0], "look_at": [0.0, 0.0, 1.0],
             "frames": frames}]}, "segment frames")
        for frames in (-3, 0)] + [
        ({"kind": "orbit", "center": [0.0, 0.0, 1.0], "radius": 2.0,
          "frames": frames}, "orbit frames") for frames in (-2, 0)] + [
        ({"kind": "orbit", "center": [0.0, 0.0, 1.0], "radius": -2.0,
          "frames": 12}, "orbit radius")],
        ids=["segment_negative_frames", "segment_zero_frames",
             "orbit_negative_frames", "orbit_zero_frames",
             "orbit_negative_radius"])
    def test_trajectory_range_checked(self, trajectory, field):
        # these were dropped without a word, or (the radius) mirrored
        with pytest.raises(ScenarioError, match=field):
            scenario(trajectory=trajectory)

    @pytest.mark.parametrize("start", [-5, 12, 500])
    def test_drift_start_out_of_range(self, start):
        with pytest.raises(ScenarioError, match="start_frame"):
            scenario(drift={"start_frame": start,
                            "translation_per_frame": [0.1, 0, 0]})

    def test_orbit_height_may_be_null(self):
        sc = scenario(trajectory={"kind": "orbit", "center": [0.0, 0.0, 1.0],
                                  "radius": 2.0, "frames": 12, "height": None})
        assert sc.trajectory[0].translation[2] == 1.0

    def test_drift_start_at_last_frame_accepted(self):
        sc = scenario(drift={"start_frame": 11,
                             "translation_per_frame": [0.1, 0, 0]})
        np.testing.assert_allclose(sc.estimated_pose(11).translation
                                   - sc.trajectory[11].translation,
                                   [0.1, 0, 0])

    def test_bad_noise_field(self):
        with pytest.raises(ScenarioError):
            scenario(noise={"dropout_prob": 1.5})

    @pytest.mark.parametrize("window", [
        [1.0, 2.0, 3.0], [1.0], [], [3.0, 1.0], [2.0, 2.0],
        [float("nan"), 2.0]])
    def test_bad_attention_window_rejected(self, window):
        with pytest.raises(ScenarioError, match="attention window"):
            scenario(persons=[{"position": [0.0, 0.0, 1.5],
                               "attention_windows": [[0.0, 0.5], window]}])

    @pytest.mark.parametrize("overrides, field", [
        ({"fps": 0}, "fps"),
        ({"fps": -10}, "fps"),
        ({"fps": float("inf")}, "fps"),
        ({"max_range": -1.0}, "max_range"),
        ({"max_range": 0.05}, "max_range"),
        ({"background_depth": -1.0}, "background_depth"),
        ({"background_depth": float("inf")}, "background_depth"),
        ({"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                             "extents": [0.1, 0.1, 0.12],
                             "sample_count": 0}]}, "sample_count"),
        ({"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                             "extents": [0.1, 0.0, 0.12]}]}, "extents"),
        ({"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                             "extents": [0.1, -0.1, 0.12]}]}, "extents"),
        ({"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                             "extents": [0.1, 0.1]}]}, "extents"),
        ({"noise": {"bbox_jitter_px": -1.0}}, "bbox_jitter_px"),
        ({"noise": {"bbox_jitter_px": float("nan")}}, "bbox_jitter_px"),
        ({"noise": {"depth_noise_m": -0.01}}, "depth_noise_m"),
        ({"noise": {"depth_noise_m": float("inf")}}, "depth_noise_m"),
        ({"noise": {"landmark_jitter_px": -1.0}}, "landmark_jitter_px"),
        # a vector of another length, a boolean or a non-finite component
        # loaded, and the run died on it mid-run
        ({"persons": [{"position": [0.0, 0.0]}]}, "person position"),
        ({"persons": [{"position": [0.0, 0.0, 1.5, 1.0]}]}, "person position"),
        ({"persons": [{"position": [0.0, True, 1.5]}]}, "person position"),
        ({"persons": [{"position": 1.5}]}, "person position"),
        ({"drift": {"translation_per_frame": [0.1, 0.0]}},
         "translation_per_frame"),
        ({"drift": {"rotation_deg_per_frame": [0.0, 0.0, float("nan")]}},
         "rotation_deg_per_frame"),
        ({"drift": {"rotation_deg_per_frame": "abc"}},
         "rotation_deg_per_frame"),
        # finite drift that overflows by the last frame loaded, and the
        # run died at a drifted frame
        ({"drift": {"translation_per_frame": [1e308, 0.0, 0.0]}},
         "pose of frame 1 has no finite drifted estimate"),
        ({"drift": {"rotation_deg_per_frame": [0.0, 1e308, 0.0]}},
         "pose of frame 0 has no finite drifted estimate"),
        ({"drift": {"rotation_deg_per_frame": [1e200, 0.0, 0.0]}},
         "pose of frame 0 has no finite drifted estimate"),
        # fields that size work or memory, one past their caps: they
        # loaded, and sized the frame source's arrays or the trajectory
        ({"world_objects": [{"class": "cup", "centroid": [0.0, 0.0, 1.0],
                             "extents": [0.1, 0.1, 0.12],
                             "sample_count": MAX_SAMPLE_COUNT + 1}]},
         "sample_count"),
        ({"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                         "radius": 2.0, "frames": MAX_FRAMES + 1}},
         "orbit frames"),
        ({"trajectory": {"kind": "segments", "segments": [
            {"position": [0.0, -2.0, 1.0], "look_at": [0.0, 0.0, 1.0],
             "frames": MAX_FRAMES + 1}]}}, "segment frames"),
        ({"intrinsics": dict(BASE["intrinsics"], width=MAX_IMAGE_SIDE + 1)},
         "width"),
        ({"intrinsics": dict(BASE["intrinsics"], height=MAX_IMAGE_SIDE + 1)},
         "height"),
        # more than a turn a frame loaded; near the largest float the frame
        # angles overflowed, and the load warned
        ({"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                         "radius": 2.0, "frames": 12, "sweep_deg": 1e308}},
         "orbit sweep_deg"),
        # a jitter past the widest image loaded; near the largest float its
        # draws overflowed, and the run died on a non-finite landmark
        ({"noise": {"landmark_jitter_px": math.nextafter(
            MAX_LANDMARK_JITTER_PX, math.inf)}}, "landmark_jitter_px"),
    ])
    def test_out_of_range_field_rejected(self, overrides, field):
        with pytest.raises(ScenarioError, match=field):
            scenario(**overrides)

    @pytest.mark.parametrize("overrides, key", [
        ({"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                         "radius": 2.0, "frames": 12, "height": 10**400}},
         "height"),
        ({"trajectory": {"kind": "orbit", "center": [0.0, 0.0, 1.0],
                         "radius": -10**400, "frames": 12}}, "radius"),
        ({"noise": {"depth_noise_m": 10**400}}, "depth_noise_m"),
        ({"persons": [{"position": [0.0, 0.0, 1.5],
                       "away_yaw_deg": 10**400}]}, "away_yaw_deg"),
    ], ids=["orbit_height", "orbit_radius", "depth_noise", "away_yaw"])
    def test_number_beyond_float_range_rejected(self, overrides, key):
        with pytest.raises(ScenarioError,
                           match=f"finite JSON numbers( or null)?: {key}"):
            scenario(**overrides)

    def test_integer_background_depth_keeps_depths_in_metres(self):
        # np.full takes the z-buffer's dtype from its fill value: an int
        # background truncated every depth to whole metres
        sc = Scenario.from_json(SCENARIO_DIR / "desk_orbit.json")
        depth = synthesize_frame_data(sc, 0)[0].depth.data
        as_int = synthesize_frame_data(
            dataclasses.replace(sc, background_depth=8), 0)[0].depth.data
        np.testing.assert_array_equal(as_int, depth)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            Scenario.from_json(path)

    def test_non_object_json_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ScenarioError, match="must be a JSON object"):
            Scenario.from_json(path)

    def test_equal_loads_compare_equal(self):
        d = json.loads((SCENARIO_DIR / "desk_orbit.json").read_text())
        assert Scenario.from_dict(d) == Scenario.from_dict(d)
        assert Scenario.from_dict(d) != Scenario.from_dict(
            dict(d, seed=d["seed"] + 1))
        moved = {"kind": "segments", "segments": [
            {"position": [0.0, -2.5, 1.0], "look_at": [0.0, 0.0, 1.0],
             "frames": 12}]}
        assert scenario() != scenario(trajectory=moved)

    def test_shipped_scenarios_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = Scenario.from_json(path)
            assert sc.num_frames > 0


class TestDrift:
    def test_no_drift_before_start(self):
        sc = scenario(drift={"start_frame": 5,
                             "translation_per_frame": [0.1, 0, 0]})
        assert sc.estimated_pose(4) is sc.trajectory[4]
        np.testing.assert_allclose(sc.estimated_pose(6).translation
                                   - sc.trajectory[6].translation,
                                   [0.2, 0, 0])

    @pytest.mark.parametrize("rate", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0],
                                      [0.0, 0.5, 0.0]])
    def test_rotation_is_rodrigues_bit_for_bit(self, rate):
        # a zero rotation skips rodrigues, whose result is the identity
        sc = scenario(drift={"start_frame": 2,
                             "translation_per_frame": [0.01, 0.0, 0.0],
                             "rotation_deg_per_frame": rate})
        for frame in (2, 7, 11):
            got = sc.estimated_pose(frame).rotation
            want = rodrigues(np.radians(np.asarray(rate)) * (frame - 1)) \
                @ sc.trajectory[frame].rotation
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable

    def test_estimated_pose_composes_world_side(self):
        sc = scenario(drift={"start_frame": 0,
                             "translation_per_frame": [0.0, 0.0, 0.1]})
        true = sc.trajectory[3]
        est = sc.estimated_pose(3)
        np.testing.assert_allclose(est.translation - true.translation,
                                   [0, 0, 0.4], atol=1e-12)
        np.testing.assert_allclose(est.rotation, true.rotation)

    # three frames at [1.3e308, 1.3e308, 1]: every inverse is finite, and
    # each drift alone stays finite by the last frame. Such a camera lies
    # beyond MAX_COORDINATE, rejected after these checks, so the drift
    # that loads moves cameras at the bound, and towards the origin: the
    # drifted estimate is held to the same bound
    @pytest.mark.parametrize("drift, frame, loads", [
        ({"translation_per_frame": [4e307, 0.0, 0.0]}, 1, False),
        ({"rotation_deg_per_frame": [0.0, 0.0, 45.0]}, 0, False),
        ({"start_frame": 1, "rotation_deg_per_frame": [0.0, 0.0, 45.0]}, 1,
         False),
        ({"translation_per_frame": [-1e149, 0.0, 0.0]}, None, True),
    ], ids=["translation", "rotation", "rotation_from_frame_1", "in_range"])
    def test_estimate_that_overflows_rejected_at_load(self, drift, frame,
                                                       loads):
        trajectory = [{"rotation": np.eye(3).tolist(),
                       "translation": [1.3e308, 1.3e308, 1.0]}] * 3
        if not loads:
            # each died mid-run, at the frame the error names
            with pytest.raises(ScenarioError, match=f"pose of frame {frame} "
                               "has no finite drifted estimate"):
                scenario(trajectory=trajectory, drift=drift)
            return
        at_bound = [MAX_COORDINATE, MAX_COORDINATE, 1.0]
        trajectory = [{"rotation": np.eye(3).tolist(),
                       "translation": at_bound}] * 3
        sc = scenario(trajectory=trajectory, drift=drift)
        for i in range(sc.num_frames):
            assert np.isfinite(sc.estimated_pose(i).translation).all()


ROTATING_DRIFT = {"start_frame": 3,
                  "translation_per_frame": [0.004, -0.0, 0.002],
                  "rotation_deg_per_frame": [-0.0, 0.3, -0.0]}


class TestDerivedPoses:
    """The poses the load derives, against the frame source's old forms in
    conftest (rodrigues, then compose; inverse()), bit for bit, on every
    frame: -0.0 and 0.0 compare equal, so equality would miss a sign."""

    @pytest.fixture(params=["drift_loop", "cluttered_drift", "rotating",
                            "rotating_three_axes"])
    def derived(self, request):
        name = request.param
        path = (ROOT / "tests" / "data" / "cluttered_drift.json"
                if name == "cluttered_drift"
                else SCENARIO_DIR / "drift_loop.json")
        d = json.loads(path.read_text())
        if name == "rotating":
            d["drift"] = ROTATING_DRIFT
        elif name == "rotating_three_axes":
            d["drift"] = dict(d["drift"],
                              rotation_deg_per_frame=[0.2, -0.15, 0.1])
        return Scenario.from_dict(d)

    @staticmethod
    def assert_same_bits(got, want):
        assert got.rotation.tobytes() == want.rotation.tobytes()
        assert got.translation.tobytes() == want.translation.tobytes()
        for arr in (got.rotation, got.translation):
            assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_estimated_pose(self, derived):
        sc = derived
        assert sc.drift is not None
        for i in range(sc.num_frames):
            got = sc.estimated_pose(i)
            if i < sc.drift.start_frame:
                assert got is sc.trajectory[i]
            self.assert_same_bits(got, reference_estimated_pose(sc, i))

    def test_render_sees_through_the_inverse(self, derived, monkeypatch):
        sc = derived
        seen = []
        trusted = simulator._trusted

        def recorded(cls, **fields):
            obj = trusted(cls, **fields)
            if cls is RigidPose:
                seen.append(obj)
            return obj

        monkeypatch.setattr(simulator, "_trusted", recorded)
        for i in range(sc.num_frames):
            simulator._render(sc, i)
            to_cam, = seen
            seen.clear()
            self.assert_same_bits(to_cam, reference_world_to_camera(sc, i))


def fake_registry(objects):
    """objects: list of (class_label, centroid)."""
    return SimpleNamespace(objects={
        i: SimpleNamespace(class_label=cls,
                           centroid=np.asarray(c, dtype=np.float64))
        for i, (cls, c) in enumerate(objects)
    })


def oracle_metrics(gt, objs, radius=0.5):
    """Brute-force greedy matcher over (class, centroid) lists."""
    claimed = set()
    matched = 0
    duplicates = 0
    for cls, c in objs:
        cands = sorted(
            (np.linalg.norm(np.subtract(c, gc)), gi)
            for gi, (gcls, gc) in enumerate(gt)
            if gcls == cls and np.linalg.norm(np.subtract(c, gc)) <= radius
        )
        free = [gi for _, gi in cands if gi not in claimed]
        if free:
            claimed.add(free[0])
            matched += 1
        elif cands:
            duplicates += 1
    n = len(objs)
    return (matched / n if n else 1.0,
            len(claimed) / len(gt) if gt else 1.0,
            duplicates)


class TestMetrics:
    def test_empty_world_empty_registry(self):
        sc = scenario(world_objects=[])
        report = compute_map_metrics(sc, fake_registry([]), [])
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.duplicate_count == 0

    def test_duplicate_counted(self):
        sc = scenario()
        reg = fake_registry([("cup", [0, 0, 1.0]), ("cup", [0.1, 0, 1.0])])
        report = compute_map_metrics(sc, reg, [])
        assert report.duplicate_count == 1
        assert report.recall == 1.0
        assert report.precision == pytest.approx(0.5)

    def test_far_object_neither_match_nor_duplicate(self):
        sc = scenario()
        reg = fake_registry([("cup", [3.0, 0, 1.0])])
        report = compute_map_metrics(sc, reg, [])
        assert report.duplicate_count == 0
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_report_names_the_radius_it_matched_at(self):
        # the report said 0.5 whatever radius the recall was measured at
        sc = scenario()
        reg = fake_registry([("cup", [0.1, 0, 1.0])])
        report = compute_map_metrics(sc, reg, [], match_radius=0.05)
        assert report.recall == 0.0
        assert report.to_dict()["match_radius_m"] == 0.05

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        classes = ["cup", "book", "bottle"]
        for _ in range(30):
            gt = [(classes[int(rng.integers(3))], rng.uniform(-2, 2, 3))
                  for _ in range(int(rng.integers(0, 6)))]
            objs = [(classes[int(rng.integers(3))], rng.uniform(-2, 2, 3))
                    for _ in range(int(rng.integers(0, 6)))]
            sc = scenario(world_objects=[
                {"class": cls, "centroid": list(map(float, c)),
                 "extents": [0.1, 0.1, 0.1]} for cls, c in gt
            ] or [])
            report = compute_map_metrics(sc, fake_registry(objs), [])
            p, r, dup = oracle_metrics(gt, objs)
            assert report.precision == pytest.approx(p)
            assert report.recall == pytest.approx(r)
            assert report.duplicate_count == dup


class TestRunScenario:
    def test_single_object_orbit_accuracy(self):
        sc = Scenario.from_dict({
            "seed": 3,
            "intrinsics": BASE["intrinsics"],
            "world_objects": [{"class": "cup", "centroid": [0, 0, 0.8],
                               "extents": [0.04, 0.04, 0.04]}],
            "trajectory": {"kind": "orbit", "center": [0, 0, 0.8],
                           "radius": 2.0, "frames": 50},
        })
        _, metrics, events = run_scenario_detailed(sc)
        assert metrics.registered_count == 1
        assert metrics.recall == 1.0
        assert metrics.centroid_rmse_m < 0.02
        assert len(events) == 50

    def test_event_log_is_json_serializable(self):
        sc = scenario()
        _, metrics, events = run_scenario_detailed(sc)
        json.dumps(events, sort_keys=True)
        json.dumps(metrics.to_dict(), sort_keys=True)

    def test_drift_scenario_merges_after_correction(self):
        sc = Scenario.from_json(SCENARIO_DIR / "drift_loop.json")
        registry, metrics, events = run_scenario_detailed(sc)
        correction_frame = sc.correction_events[0].frame
        pre = events[correction_frame - 1]["registry_size"]
        post = events[correction_frame]["registry_size"]
        assert pre == metrics.gt_object_count + 1  # one drift duplicate
        assert post == metrics.gt_object_count
        merge_pairs = events[correction_frame]["merges"][0]["pairs"]
        assert len(merge_pairs) == 1
        assert metrics.duplicate_count == 0

    def test_interaction_trigger_timing(self):
        sc = Scenario.from_json(SCENARIO_DIR / "interaction.json")
        _, metrics, _ = run_scenario_detailed(sc)
        times = [ev["t"] for ev in metrics.willingness_trigger_times]
        assert times, "expected at least one willingness trigger"
        window_start = sc.persons[0].attention_windows[0][0]
        # 3 s of sustained attention after the window opens
        assert times[0] == pytest.approx(window_start + 3.0, abs=0.2)


def shifted_pose(x: float) -> dict:
    """The identity pose moved `x` m along the world x axis, as JSON."""
    return dict(RigidPose.identity().to_dict(), translation=[x, 0.0, 0.0])


def two_cups(x: float) -> dict:
    """Two cups, at the origin and `x` m along the world x axis, each seen
    by one segment of a two-segment trajectory."""
    cup = BASE["world_objects"][0]
    far = [x, 0.0, 1.0]
    return dict(
        BASE, world_objects=[cup, dict(cup, centroid=far)],
        trajectory={"kind": "segments", "segments": [
            BASE["trajectory"]["segments"][0],
            {"position": [x, -2.0, 1.0], "look_at": far, "frames": 12}]})


class TestCoordinateBound:
    """World objects, camera positions and their drifted estimates farther
    than MAX_COORDINATE are rejected at load: past it, the map metrics'
    distances and centroid sums overflow mid-run."""

    def test_far_drifted_estimate_exits_3(self, tmp_path):
        # loaded, then died in `compute_map_metrics` (overflow in dot)
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(dict(
            BASE, drift={"translation_per_frame": [1e154, 0.0, 0.0]})))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == EXIT_SCENARIO

    # a drift of `step` m a frame from frame `start` of 12: frame f's
    # estimate lies f - start + 1 steps from the camera, at x = 0; at
    # ±MAX_COORDINATE / 12 the last one lies on the bound
    @pytest.mark.parametrize("start, step, frame", [
        (0, 1e154, 0), (4, 1e154, 4), (0, -1e149, 10), (3, 1.2e149, 11),
        (0, MAX_COORDINATE / 12, None), (0, -MAX_COORDINATE / 12, None)])
    def test_drifted_estimate_bound_names_the_frame(self, start, step,
                                                    frame):
        drift = {"start_frame": start, "translation_per_frame": [step, 0, 0]}
        if frame is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, metrics, _ = run_scenario_detailed(scenario(drift=drift))
            assert metrics.registered_count >= 1
            return
        with pytest.raises(ScenarioError, match=re.escape(
                f"drifted estimate of frame {frame} lies beyond ±1e+150 m")):
            scenario(drift=drift)

    @pytest.mark.parametrize("x", [1e155, -1e155])
    def test_far_cups_exit_3(self, tmp_path, x):
        # died in `associate`'s squared AABB gap (overflow in matmul)
        path = tmp_path / "two_cups.json"
        path.write_text(json.dumps(two_cups(x)))
        assert main(["run", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_SCENARIO

    @pytest.mark.parametrize("x", [MAX_COORDINATE, -MAX_COORDINATE])
    def test_cups_at_the_bound_run(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            registry, metrics, _ = run_scenario_detailed(
                Scenario.from_dict(two_cups(x)))
        assert len(registry.objects) == 2
        assert metrics.recall == 1.0

    # the box reaches |centroid| + extent / 2 on an axis
    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("centre, extent, loads", [
        (MAX_COORDINATE, 0.1, True),
        (-MAX_COORDINATE, 0.1, True),
        (float(np.nextafter(MAX_COORDINATE, np.inf)), 0.1, False),
        (-1e308, 0.1, False),
        (0.0, 2 * MAX_COORDINATE, True),
        (0.0, float(np.nextafter(2 * MAX_COORDINATE, np.inf)), False),
        (1e308, 1e308, False)])
    def test_object_bound_names_the_object(self, centre, extent, loads,
                                           axis):
        book = {"class": "book", "centroid": [0.0, 0.0, 1.0],
                "extents": [0.1, 0.1, 0.1]}
        book["centroid"][axis] = centre
        book["extents"][axis] = extent
        objects = BASE["world_objects"] + [book]
        if loads:
            sc = scenario(world_objects=objects)
            assert sc.world_objects[1].centroid[axis] == centre
            return
        with pytest.raises(ScenarioError, match=re.escape(
                "world object 1 ('book') reaches beyond ±1e+150 m")):
            scenario(world_objects=objects)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("x, loads", [
        (MAX_COORDINATE, True),
        (-MAX_COORDINATE, True),
        (float(np.nextafter(MAX_COORDINATE, np.inf)), False),
        (-1e200, False), (1e308, False)])
    def test_camera_bound_names_the_frame(self, x, loads, axis):
        far = RigidPose.identity().to_dict()
        far["translation"][axis] = x
        trajectory = [RigidPose.identity().to_dict()] * 2 + [far]
        if loads:
            sc = scenario(trajectory=trajectory)
            assert sc.trajectory[2].translation[axis] == x
            return
        with pytest.raises(ScenarioError, match=re.escape(
                "camera of frame 2 lies beyond ±1e+150 m")):
            scenario(trajectory=trajectory)


class TestFrameSource:
    """What the frame source hands the pipeline beyond the picture: the
    frame's time and its corrections, and when it is asked for a frame."""

    @pytest.mark.parametrize("path", [
        SCENARIO_DIR / "drift_loop.json",
        ROOT / "tests" / "data" / "cluttered_drift.json"],
        ids=lambda path: path.stem)
    def test_true_correction_hands_over_the_trajectory_poses(self, path):
        sc = Scenario.from_json(path)
        frames = {ev.frame for ev in sc.correction_events}
        assert frames
        for i in range(sc.num_frames):
            inp, _ = synthesize_frame_data(sc, i)
            assert (inp.frame, inp.t) == (i, i / sc.fps)
            if i not in frames:
                assert inp.corrections == []
                continue
            correction, = inp.corrections
            assert [k for k, _ in correction] == list(range(i + 1))
            # the very objects: a correction skips unchanged poses by `is`
            assert all(pose is sc.trajectory[k] for k, pose in correction)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_events_at_one_frame_keep_file_order(self, reverse):
        true = {"frame": 5, "poses": "true"}
        explicit = {"frame": 5, "poses": {str(k): shifted_pose(k)
                                          for k in (4, 0, 2)}}
        events = [true, explicit, {"frame": 2, "poses": "true"}]
        if reverse:
            events.reverse()
        sc = scenario(correction_events=events)
        poses = next(ev.poses for ev in sc.correction_events
                     if ev.poses != "true")
        want = [list(enumerate(sc.trajectory[:6])),
                [(k, poses[k]) for k in (0, 2, 4)]]
        if reverse:
            want.reverse()
        got = synthesize_frame_data(sc, 5)[0].corrections
        assert got == want
        assert all(a is b for c, d in zip(got, want)
                   for (_, a), (_, b) in zip(c, d))
        assert synthesize_frame_data(sc, 2)[0].corrections \
            == [list(enumerate(sc.trajectory[:3]))]
        assert synthesize_frame_data(sc, 3)[0].corrections == []

    def test_explicit_poses_sorted_by_keyframe(self):
        sc = scenario(correction_events=[{"frame": 11, "poses": {
            str(k): shifted_pose(k) for k in (10, 3, 0, 7)}}])
        correction, = synthesize_frame_data(sc, 11)[0].corrections
        assert [k for k, _ in correction] == [0, 3, 7, 10]
        assert [pose.translation[0] for _, pose in correction] \
            == [0.0, 3.0, 7.0, 10.0]

    def test_runner_takes_each_frame_as_its_step_needs_it(self, monkeypatch):
        # the benchmark times the frame source by wrapping this module
        # global: one call a frame, never ahead of the pipeline's step
        calls = []
        source, step = simulator.synthesize_frame_data, Pipeline.step

        def recorded_source(scenario, frame_idx):
            calls.append(("synthesize", frame_idx))
            return source(scenario, frame_idx)

        def recorded_step(pipeline, inp):
            calls.append(("step", inp.frame))
            return step(pipeline, inp)

        monkeypatch.setattr(simulator, "synthesize_frame_data",
                            recorded_source)
        monkeypatch.setattr(Pipeline, "step", recorded_step)
        sc = Scenario.from_json(SCENARIO_DIR / "drift_loop.json")
        run_scenario_detailed(sc)
        assert calls == [(name, i) for i in range(sc.num_frames)
                         for name in ("synthesize", "step")]


class TestCorrectionBound:
    """Explicit correction poses farther than MAX_COORDINATE are rejected
    at load: past it, the map metrics' distances and centroid sums overflow
    mid-run."""

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("x, loads", [
        (MAX_COORDINATE, True),
        (-MAX_COORDINATE, True),
        (float(np.nextafter(MAX_COORDINATE, np.inf)), False),
        (-1e200, False), (1e308, False)])
    def test_bound_names_frame_and_keyframe(self, x, loads, axis):
        far = RigidPose.identity().to_dict()
        far["translation"][axis] = x
        events = [{"frame": 2, "poses": "true"},
                  {"frame": 5, "poses": {"1": shifted_pose(1.0), "4": far,
                                         "3": far}}]
        if loads:
            sc = scenario(correction_events=events)
            assert sc.corrections_at[5][0].poses[3].translation[axis] == x
            return
        with pytest.raises(ScenarioError, match=re.escape(
                "correction at frame 5 moves keyframe 3 beyond ±1e+150 m")):
            scenario(correction_events=events)

    @pytest.mark.parametrize("x, loads", [(1e150, True), (1e200, False),
                                          (1e308, False)])
    def test_moved_drift_loop_rejected_or_runs(self, x, loads):
        # keyframes 0-45 at [x, 0, 0]: 1e200 died in `associate` (overflow
        # in dot), 1e308 in the map metrics' centroid (overflow in reduce)
        d = json.loads((SCENARIO_DIR / "drift_loop.json").read_text())
        d["correction_events"] = [{"frame": 45, "poses": {
            str(k): shifted_pose(x) for k in range(46)}}]
        if not loads:
            with pytest.raises(ScenarioError,
                               match="frame 45 moves keyframe 0 beyond"):
                Scenario.from_dict(d)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario_detailed(Scenario.from_dict(d))
