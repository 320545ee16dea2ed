import ctypes
import dataclasses
import json
import platform
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semmap.errors import FrameOutOfRange, ScenarioError
from semmap.geometry import RigidPose
from semmap.simulator import (
    Scenario,
    _sample_box_surface,
    compute_map_metrics,
    keep_freed_heap,
    look_at,
    run_scenario_detailed,
    synthesize_frame_data,
)

from conftest import per_object_frame_reference

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"

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
    @settings(max_examples=60, deadline=None)
    def test_matches_per_object_reference(self, seed, objects, max_range,
                                          background_depth, noise, persons):
        sc = frame_scenario(seed, objects, max_range, background_depth, noise,
                            persons)
        got = synthesize_frame_data(sc, 0)
        want = per_object_frame_reference(sc, 0)
        assert got.depth.data.shape == want.depth.data.shape
        assert got.depth.data.tobytes() == want.depth.data.tobytes()
        assert [(d.bbox, d.class_label, d.kind, d.score)
                for d in got.detections] \
            == [(d.bbox, d.class_label, d.kind, d.score)
                for d in want.detections]
        assert got.provenance == want.provenance
        assert {p: lm.landmarks for p, lm in got.landmarks.items()} \
            == {p: lm.landmarks for p, lm in want.landmarks.items()}
        assert got.attending_gt == want.attending_gt

    def test_object_samples_are_views_of_one_array(self):
        sc = frame_scenario(objects=[(0.0, 2.0, 0.0, CUBE, 30),
                                     (0.5, 3.0, 0.0, CUBE, 20)])
        assert sc.samples.shape == (50, 3)
        assert [len(s) for s in sc.object_samples] == [30, 20]
        assert all(s.base is sc.samples for s in sc.object_samples)
        assert sc.sample_owner.tolist() == [0] * 30 + [1] * 20

    def test_noiseless_bbox_is_sample_hull(self):
        sc = scenario()
        data = synthesize_frame_data(sc, 0)
        dets = data.detections
        assert len(dets) == 1
        cam = data.pose_estimate.inverse().transform(sc.object_samples[0])
        u = sc.intrinsics.cx + sc.intrinsics.fx * cam[:, 0] / cam[:, 2]
        v = sc.intrinsics.cy + sc.intrinsics.fy * cam[:, 1] / cam[:, 2]
        x0, y0, x1, y1 = dets[0].bbox
        assert x0 == pytest.approx(u.min() - 0.5)
        assert y0 == pytest.approx(v.min() - 0.5)
        assert x1 == pytest.approx(u.max() + 0.5)
        assert y1 == pytest.approx(v.max() + 0.5)

    def test_depth_inside_bbox_matches_range(self):
        sc = scenario()
        data = synthesize_frame_data(sc, 0)
        x0, y0, x1, y1 = data.detections[0].bbox
        patch = data.depth.data[int(y0) + 1:int(y1), int(x0) + 1:int(x1)]
        valid = patch[patch > 0]
        assert valid.size > 0
        # camera sits 2 m from the cup centroid
        assert np.all((valid > 1.8) & (valid < 2.2))

    def test_full_dropout_removes_detections(self):
        sc = scenario(noise={"dropout_prob": 1.0})
        assert synthesize_frame_data(sc, 0).detections == []

    def test_fixed_seed_bitwise_identity(self):
        noisy = dict(BASE, noise={"bbox_jitter_px": 1.0, "depth_noise_m": 0.01,
                                  "false_positive_rate": 0.5})
        a = Scenario.from_dict(noisy)
        b = Scenario.from_dict(noisy)
        for i in range(3):
            da = synthesize_frame_data(a, i)
            db = synthesize_frame_data(b, i)
            assert [d.bbox for d in da.detections] \
                == [d.bbox for d in db.detections]
            np.testing.assert_array_equal(da.depth.data, db.depth.data)

    def test_noise_changes_the_frame(self):
        clean = synthesize_frame_data(scenario(), 0).detections[0].bbox
        noisy = synthesize_frame_data(
            scenario(noise={"bbox_jitter_px": 2.0}), 0).detections[0].bbox
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
        data = synthesize_frame_data(sc, 0)
        assert 0 in data.landmarks
        assert data.attending_gt[0] is True
        kinds = sorted(d.kind for d in data.detections)
        assert kinds == ["object", "person"]


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
    ], ids=["objects_not_list", "person_not_object", "noise_not_object",
            "trajectory_not_object", "orbit_incomplete", "orbit_center_2d",
            "pose_not_object", "keyframe_id_not_integer"])
    def test_malformed_value_is_a_scenario_error(self, overrides):
        with pytest.raises(ScenarioError):
            scenario(**overrides)

    @pytest.mark.parametrize("start", [-5, 12, 500])
    def test_drift_start_out_of_range(self, start):
        with pytest.raises(ScenarioError, match="start_frame"):
            scenario(drift={"start_frame": start,
                            "translation_per_frame": [0.1, 0, 0]})

    def test_drift_start_at_last_frame_accepted(self):
        sc = scenario(drift={"start_frame": 11,
                             "translation_per_frame": [0.1, 0, 0]})
        np.testing.assert_allclose(sc.drift_pose(11).translation,
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
    ])
    def test_out_of_range_field_rejected(self, overrides, field):
        with pytest.raises(ScenarioError, match=field):
            scenario(**overrides)

    def test_integer_background_depth_keeps_depths_in_metres(self):
        # np.full takes the z-buffer's dtype from its fill value: an int
        # background truncated every depth to whole metres
        sc = Scenario.from_json(SCENARIO_DIR / "desk_orbit.json")
        depth = synthesize_frame_data(sc, 0).depth.data
        as_int = synthesize_frame_data(
            dataclasses.replace(sc, background_depth=8), 0).depth.data
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

    def test_shipped_scenarios_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = Scenario.from_json(path)
            assert sc.num_frames > 0


class TestDrift:
    def test_no_drift_before_start(self):
        sc = scenario(drift={"start_frame": 5,
                             "translation_per_frame": [0.1, 0, 0]})
        assert np.abs(sc.drift_pose(4).translation).max() == 0.0
        np.testing.assert_allclose(sc.drift_pose(6).translation,
                                   [0.2, 0, 0])

    def test_estimated_pose_composes_world_side(self):
        sc = scenario(drift={"start_frame": 0,
                             "translation_per_frame": [0.0, 0.0, 0.1]})
        true = sc.trajectory[3]
        est = sc.estimated_pose(3)
        np.testing.assert_allclose(est.translation - true.translation,
                                   [0, 0, 0.4], atol=1e-12)
        np.testing.assert_allclose(est.rotation, true.rotation)


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


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


class TestKeepFreedHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="mallopt thresholds are glibc's")
    def test_large_array_stays_on_heap_after_free(self):
        mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
        if mallinfo2 is None:
            pytest.skip("glibc before 2.33 has no mallinfo2")
        mallinfo2.argtypes = ()
        mallinfo2.restype = _MallInfo2
        assert keep_freed_heap()
        before = mallinfo2()
        block = np.ones(1 << 20)  # 8 MiB: mmapped under the defaults
        held = mallinfo2()
        del block
        after = mallinfo2()
        assert held.hblkhd == before.hblkhd  # from the heap, not mmap
        assert after.arena >= held.arena  # and not trimmed when freed

    def test_runs_without_mallopt(self, monkeypatch):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert keep_freed_heap() is False
        _, _, events = run_scenario_detailed(scenario())
        assert len(events) == 12
