import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from semmap import headpose
from semmap import pipeline as pipeline_module
from semmap.config import PipelineConfig
from semmap.errors import (
    ClockWentBackwards,
    NoConvergence,
    NonMonotonicFrame,
    UnknownKeyframe,
)
from semmap.geometry import DepthImage, RigidPose
from semmap.headpose import (
    FaceModel3D,
    HeadPose,
    LandmarkSet2D,
    lm_solve_poses,
    project_model,
    rotation_from_euler,
)
from semmap.pipeline import FrameInput, Pipeline
from semmap.simulator import (
    Scenario,
    run_scenario_detailed,
    synthesize_frame_data,
)
from semmap.tracker import KIND_PERSON, Detection2D

from conftest import load_workloads, warm_poses

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"


def without_person(row):
    return dict(row, persons=[{k: v for k, v in p.items() if k != "person"}
                              for p in row["persons"]])


def test_faces_need_no_labels_or_order():
    sc = Scenario.from_json(SCENARIO_DIR / "interaction.json")
    assert not sc.correction_events
    _, _, want = run_scenario_detailed(sc)
    pipeline = Pipeline(sc.intrinsics)
    got = []
    for i in range(sc.num_frames):
        inp, _ = synthesize_frame_data(sc, i)
        faces = [LandmarkSet2D(lm.landmarks, face_id=f"face-{lm.face_id}")
                 for lm in reversed(inp.faces)]
        got.append(pipeline.step(dataclasses.replace(inp, faces=faces)))
    assert [without_person(row) for row in got] \
        == [without_person(row) for row in want]
    rows = [(p, q) for g, w in zip(got, want)
            for p, q in zip(g["persons"], w["persons"])]
    assert len(rows) > 100
    assert all(p["person"] == f"face-{q['person']}" for p, q in rows)


class TestFaceToTrack:
    """One frame, with person detections and faces placed by hand."""

    def face(self, intrinsics, x, face_id=0):
        lmks = project_model(FaceModel3D.default(), np.eye(3),
                             np.array([x, 0.0, 1.5]), intrinsics)
        return LandmarkSet2D(lmks, face_id=face_id)

    def step(self, intrinsics, bboxes, faces):
        pipeline = Pipeline(intrinsics)
        depth = DepthImage(np.zeros((intrinsics.height, intrinsics.width)))
        dets = [Detection2D(b, "person", kind=KIND_PERSON) for b in bboxes]
        return pipeline.step(FrameInput(0, 0.0, dets, depth,
                                        RigidPose.identity(), faces, []))

    def test_face_in_one_bbox_is_solved(self, intrinsics):
        row = self.step(intrinsics, [(200, 100, 440, 400)],
                        [self.face(intrinsics, 0.0, face_id="anyone")])
        assert [p["person"] for p in row["persons"]] == ["anyone"]
        assert row["persons"][0]["yaw"] == pytest.approx(0.0, abs=1e-6)

    def test_face_in_two_bboxes_is_not_solved(self, intrinsics):
        row = self.step(intrinsics, [(100, 100, 400, 400),
                                     (240, 100, 540, 400)],
                        [self.face(intrinsics, 0.0)])
        assert row["persons"] == []
        assert row["triggers"] == []

    def test_bbox_with_two_faces_is_not_solved(self, intrinsics):
        row = self.step(intrinsics, [(0, 0, 640, 480)],
                        [self.face(intrinsics, -0.3, 0),
                         self.face(intrinsics, 0.3, 1)])
        assert row["persons"] == []
        assert row["triggers"] == []

    def test_face_outside_every_bbox_is_not_solved(self, intrinsics):
        row = self.step(intrinsics, [(0, 0, 200, 480)],
                        [self.face(intrinsics, 0.0)])
        assert row["persons"] == []



class SolverSpy:
    """Stands in for the pipeline's `lm_solve_poses`: records the size of
    each batch and (init, pose or exception) per face, can make faces fail,
    and can report a given rms instead of the fitted one."""

    def __init__(self):
        self.batches = []
        self.calls = []
        self.fail = None  # None, "warm" or "all"
        self.fake_rms = []  # rms reported by the next solved faces, in order

    def __call__(self, faces, *args, inits=None, **kwargs):
        self.batches.append(len(faces))
        inits = inits or [None] * len(faces)
        poses = lm_solve_poses(faces, *args, inits=inits, **kwargs)
        for j, (init, pose) in enumerate(zip(inits, poses)):
            if self.fail == "all" or (self.fail == "warm" and init is not None):
                pose = NoConvergence("made to fail")
            elif self.fake_rms and isinstance(pose, HeadPose):
                pose = dataclasses.replace(pose,
                                           rms_residual=self.fake_rms.pop(0))
            self.calls.append((init, pose))
            poses[j] = pose
        return poses

    def cold(self):
        """Per face solved, whether it was a cold solve."""
        return [init is None for init, _ in self.calls]


class TestHeadPoseState:
    """Per-track warm starts, seen through a spy on the solver."""

    BBOX = (200, 100, 440, 400)
    MOVED = (100, 100, 340, 400)  # IoU with BBOX below 0.5: a new track

    @pytest.fixture
    def spy(self, monkeypatch):
        spy = SolverSpy()
        monkeypatch.setattr(pipeline_module, "lm_solve_poses", spy)
        return spy

    def run(self, pipeline, frames):
        """Step one frame per (person bbox or None, yaw of the one face);
        returns the rows."""
        k = pipeline.intrinsics
        depth = DepthImage(np.zeros((k.height, k.width)))
        rows = []
        for bbox, yaw in frames:
            dets = [] if bbox is None else [
                Detection2D(bbox, "person", kind=KIND_PERSON)]
            face = LandmarkSet2D(project_model(
                FaceModel3D.default(), rotation_from_euler(yaw, -5.0, 0.0),
                np.array([0.0, 0.0, 1.5]), k))
            i = len(pipeline.registry.keyframes)  # the next frame index
            rows.append(pipeline.step(FrameInput(
                i, i / 10, dets, depth, RigidPose.identity(), [face], [])))
        return rows

    def test_second_solve_starts_from_first(self, intrinsics, spy):
        self.run(Pipeline(intrinsics), [(self.BBOX, 30.0), (self.BBOX, 33.0)])
        (init0, first), (init1, second) = spy.calls
        assert init0 is None
        assert init1.tobytes() == np.concatenate(
            (first.axis_angle, first.translation)).tobytes()
        assert second.yaw == pytest.approx(33.0, abs=1e-6)

    def test_warm_and_new_track_solve_in_one_batch(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        depth = DepthImage(np.zeros((intrinsics.height, intrinsics.width)))
        boxes = {-0.3: (120, 100, 300, 400), 0.3: (340, 100, 520, 400)}
        faces = {x: LandmarkSet2D(project_model(
            FaceModel3D.default(), rotation_from_euler(20.0, -5.0, 0.0),
            np.array([x, 0.0, 1.5]), intrinsics)) for x in boxes}
        for i, xs in enumerate([(-0.3,), (-0.3, 0.3)]):
            pipeline.step(FrameInput(
                i, i / 10, [Detection2D(boxes[x], "person", kind=KIND_PERSON)
                            for x in xs], depth, RigidPose.identity(),
                [faces[x] for x in xs], []))
        assert spy.batches == [1, 2]
        assert spy.cold() == [True, False, True]
        for (init, pose), x in zip(spy.calls[1:], (-0.3, 0.3)):
            alone, = lm_solve_poses([faces[x]], pipeline.face_model,
                                    intrinsics, [init], pipeline.config)
            for name in ("rotation", "translation", "axis_angle"):
                assert getattr(pose, name).tobytes() \
                    == getattr(alone, name).tobytes()
            assert (pose.yaw, pose.pitch, pose.roll, pose.rms_residual) \
                == (alone.yaw, alone.pitch, alone.roll, alone.rms_residual)

    def test_frame_without_paired_face_makes_no_solve(self, intrinsics, spy):
        # no person track, then a track whose bbox misses the face
        self.run(Pipeline(intrinsics), [(None, 30.0), ((0, 0, 200, 480), 30.0)])
        assert spy.batches == []

    def test_failed_warm_fit_falls_back_to_cold(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        self.run(pipeline, [(self.BBOX, 30.0)])
        spy.fail = "warm"
        row, = self.run(pipeline, [(self.BBOX, 32.0)])
        assert spy.cold() == [True, False, True]
        assert row["persons"][0]["yaw"] == pytest.approx(32.0, abs=1e-6)
        assert warm_poses(pipeline)[row["persons"][0]["track"]] \
            is spy.calls[-1][1]

    @pytest.mark.parametrize("first_rms, warm_rms, cold_again", [
        (None, 2.9, False),  # below 3 px
        (None, 3.1, True),  # above 3 px and above twice ~0 px
        (4.0, 7.9, False),  # above 3 px, not above twice 4 px
        (4.0, 8.1, True),
    ])
    def test_warm_rms_rule(self, intrinsics, spy, first_rms, warm_rms,
                           cold_again):
        pipeline = Pipeline(intrinsics)
        spy.fake_rms = [first_rms] if first_rms is not None else []
        self.run(pipeline, [(self.BBOX, 30.0)])
        spy.fake_rms = [warm_rms]
        row, = self.run(pipeline, [(self.BBOX, 30.0)])
        assert spy.cold() == [True, False] + [True] * cold_again
        assert (row["persons"][0]["rms"] == warm_rms) != cold_again

    def test_failed_solve_drops_track_state(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        self.run(pipeline, [(self.BBOX, 30.0)])
        spy.fail = "all"
        row, = self.run(pipeline, [(self.BBOX, 30.0)])
        assert row["persons"][0]["error"] == "NoConvergence"
        assert warm_poses(pipeline) == {}
        spy.fail = None
        self.run(pipeline, [(self.BBOX, 30.0)])
        assert spy.cold() == [True, False, True, True]

    def test_pruned_or_new_track_starts_cold(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        gap = [(None, 30.0)] * (pipeline.config.track_ttl + 1)
        rows = self.run(pipeline, [(self.BBOX, 30.0), (self.MOVED, 30.0)]
                        + gap)
        assert warm_poses(pipeline) == {}  # both tracks pruned
        rows += self.run(pipeline, [(self.MOVED, 30.0), (self.MOVED, 30.0)])
        tracks = [row["persons"][0]["track"] for row in rows if row["persons"]]
        assert len(set(tracks[:3])) == 3 and tracks[3] == tracks[2]
        assert spy.cold() == [True, True, True, False]
        assert list(warm_poses(pipeline)) == [tracks[-1]]

    def test_failed_solve_keeps_willingness_not_warm_start(self, intrinsics,
                                                           spy):
        pipeline = Pipeline(intrinsics)
        rows = self.run(pipeline, [(self.BBOX, 0.0)] * 4)
        loaded = rows[-1]["persons"][0]["value"]
        assert loaded == pytest.approx(0.3 * (1.0 / 3.0))
        spy.fail = "all"
        row, = self.run(pipeline, [(self.BBOX, 0.0)])
        person, = pipeline.willingness.persons.values()
        assert person.pose is None
        unloaded = row["persons"][0]["value"]
        assert unloaded == person.willingness.value
        assert unloaded == pytest.approx(loaded - 0.1 / 9.0)
        spy.fail = None
        row, = self.run(pipeline, [(self.BBOX, 0.0)])
        assert spy.cold()[-1]
        assert row["persons"][0]["value"] == pytest.approx(
            unloaded + 0.1 / 3.0)

    def test_first_solve_failed_makes_no_record(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        spy.fail = "all"
        row, = self.run(pipeline, [(self.BBOX, 0.0)])
        person, = row["persons"]
        assert person["error"] == "NoConvergence"
        assert (person["value"], person["triggered"]) == (0.0, False)
        assert pipeline.willingness.persons == {}

    def test_dead_track_record_goes_at_the_one_prune(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        prunes = []

        def prune(live, _real=pipeline.willingness.prune):
            prunes.append(list(live))
            _real(live)

        pipeline.willingness.prune = prune
        ttl = pipeline.config.track_ttl
        rows = self.run(pipeline, [(self.BBOX, 0.0)] + [(None, 0.0)] * ttl)
        track = rows[0]["persons"][0]["track"]
        person, = pipeline.willingness.persons.values()
        assert person.pose is not None and person.willingness.value == 0.0
        self.run(pipeline, [(None, 0.0)])  # the track's last missed frame
        assert pipeline.willingness.persons == {}
        assert prunes == [[track]] * (ttl + 1) + [[]]


class TestRejectedFrame:
    """A frame that `step` rejects changes no state: the run goes on as if
    the frame had never been sent."""

    @staticmethod
    def run_with(sc, at, bad, error):
        """`sc`'s (map export, event rows), with `bad` sent before frame
        `at` and rejected with `error`."""
        pipeline = Pipeline(sc.intrinsics)
        events = []
        for i in range(sc.num_frames):
            if i == at:
                with pytest.raises(error):
                    pipeline.step(bad)
            events.append(pipeline.step(synthesize_frame_data(sc, i)[0]))
        return pipeline.registry.export(), events

    def test_repeated_frame_keeps_its_keyframe(self):
        # frame 4 again, at the identity pose: its keyframe took that pose,
        # and the map ended with 7 objects instead of 6
        sc = Scenario.from_json(DATA_DIR / "tabletop_sweep.json")
        registry, _, events = run_scenario_detailed(sc)
        bad = dataclasses.replace(synthesize_frame_data(sc, 4)[0],
                                  pose_estimate=RigidPose.identity())
        assert self.run_with(sc, 5, bad, NonMonotonicFrame) \
            == (registry.export(), events)

    def test_frame_before_the_clock_can_be_sent_again(self):
        # frame 6 at frame 3's time: the tracker had taken frame 6, so the
        # same frame at its own time was a NonMonotonicFrame
        sc = Scenario.from_json(DATA_DIR / "attention_crowd.json")
        registry, _, events = run_scenario_detailed(sc)
        bad = dataclasses.replace(synthesize_frame_data(sc, 6)[0],
                                  t=3 / sc.fps)
        assert self.run_with(sc, 6, bad, ClockWentBackwards) \
            == (registry.export(), events)

    @pytest.mark.parametrize("at, t", [(0, -math.inf), (6, math.nan),
                                       (6, math.inf)])
    def test_frame_at_a_non_finite_time_can_be_sent_again(self, at, t):
        # NaN became the clock and the next step reset every value to 0;
        # +inf made every later frame go back in time; -inf as the first
        # time made a person trigger on the next frame
        sc = Scenario.from_json(DATA_DIR / "attention_crowd.json")
        registry, _, events = run_scenario_detailed(sc)
        bad = dataclasses.replace(synthesize_frame_data(sc, at)[0], t=t)
        assert self.run_with(sc, at, bad, ValueError) \
            == (registry.export(), events)

    def test_depth_of_the_wrong_shape_can_be_sent_again(self):
        # the shape was first read at a confirmation: frame 4 raised after
        # the tracker and keyframe 4 had advanced
        sc = Scenario.from_json(DATA_DIR / "tabletop_sweep.json")
        registry, _, events = run_scenario_detailed(sc)
        bad = dataclasses.replace(synthesize_frame_data(sc, 4)[0],
                                  depth=DepthImage(np.ones((10, 10))))
        assert self.run_with(sc, 4, bad, ValueError) \
            == (registry.export(), events)

    def test_correction_of_an_unknown_keyframe_can_be_sent_again(self):
        # keyframe 999 raised only after the tracker, the map, the clock
        # and the warm poses had advanced
        sc = Scenario.from_json(DATA_DIR / "tabletop_sweep.json")
        registry, _, events = run_scenario_detailed(sc)
        bad = dataclasses.replace(
            synthesize_frame_data(sc, 10)[0],
            corrections=[[(999, RigidPose.identity())]])
        assert self.run_with(sc, 10, bad, UnknownKeyframe) \
            == (registry.export(), events)

    def test_correction_may_name_its_own_frame(self):
        sc = Scenario.from_json(DATA_DIR / "tabletop_sweep.json")
        pipeline = Pipeline(sc.intrinsics)
        for i in range(3):
            inp = synthesize_frame_data(sc, i)[0]
            corrections = [[(i, RigidPose.identity())]] if i == 2 else []
            pipeline.step(dataclasses.replace(inp, corrections=corrections))
        assert pipeline.registry.keyframes[2] == RigidPose.identity()


class TestNonFiniteCloud:
    """A confirmed object whose points overflow is recorded and not
    registered; the frame completes, and the run goes on."""

    # every valid depth at 1e307: the camera-frame points overflow. At
    # 1e305 they do not, but under a pose estimate at the largest float
    # their world points do
    @pytest.mark.parametrize("depth, translation", [
        (1e307, None), (1e305, [np.finfo(float).max] * 3)],
        ids=["camera_frame", "world"])
    def test_overflowing_object_is_recorded_and_the_next_frame_steps(
            self, depth, translation):
        # frame 10 confirms a plant with three objects in the map. Such a
        # frame raised ValueError after the tracker and its keyframe had
        # advanced, and the frame sent again raised NonMonotonicFrame
        sc = Scenario.from_json(DATA_DIR / "tabletop_sweep.json")
        pipeline = Pipeline(sc.intrinsics)
        for i in range(10):
            pipeline.step(synthesize_frame_data(sc, i)[0])
        before = pipeline.registry.export()
        assert len(before["objects"]) == 3
        inp = synthesize_frame_data(sc, 10)[0]
        data = inp.depth.data.copy()
        data[data > 0] = depth
        pose = inp.pose_estimate if translation is None \
            else RigidPose(inp.pose_estimate.rotation, translation)
        row = pipeline.step(dataclasses.replace(
            inp, depth=DepthImage(data), pose_estimate=pose))
        assert row["registered"] == [
            {"track": 15, "class": "plant", "error": "NonFiniteCloud"}]
        assert pipeline.registry.export() == before
        assert pipeline.step(synthesize_frame_data(sc, 11)[0])["frame"] == 11

    def test_overflowing_capped_cloud_is_recorded_and_registers_nothing(
            self):
        # one voxel holds every point of an object past the cap, and from
        # frame 10 the estimates sit 1.7e308 m out: frame 10's new box
        # overflows its voxel's sum. It raised ValueError and left object
        # 4 in the map with one observation and no AABB
        sc = Scenario.from_dict(
            load_workloads().generate("tabletop_sweep", 7)[0])
        pipeline = Pipeline(sc.intrinsics, PipelineConfig(
            max_cloud_points=5, voxel_leaf_m=1e300))
        for i in range(10):
            pipeline.step(synthesize_frame_data(sc, i)[0])
        before = pipeline.registry.export()
        assert len(before["objects"]) == 4
        rows = []
        for i in (10, 11):
            inp = synthesize_frame_data(sc, i)[0]
            pose = inp.pose_estimate
            rows.append(pipeline.step(dataclasses.replace(
                inp, pose_estimate=RigidPose(
                    pose.rotation, pose.translation + [1.7e308, 0, 0]))))
        assert rows[0]["registered"] == [
            {"track": 11, "class": "box", "error": "NonFiniteCloud"}]
        assert rows[1]["frame"] == 11
        assert pipeline.registry.export() == before
        assert sorted(pipeline.registry.objects) == [0, 1, 2, 3]


def interaction(jitter=0.0):
    """The shipped interaction scenario with `jitter` px landmark noise."""
    d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
    d["noise"] = {"landmark_jitter_px": jitter}
    return Scenario.from_dict(d)


def trigger_times(events, person):
    """Times at which a track carrying `person`'s face triggered."""
    return [row["t"] for row in events for p in row["persons"]
            if p["person"] == person and p["track"] in row["triggers"]]


def counted_run(monkeypatch, scenario):
    """(face-evaluations, events) of a run: the evaluations are the rows of
    every `_residuals` call."""
    evals = []

    def counted(params, *args, _real=headpose._residuals):
        evals.append(len(params))
        return _real(params, *args)

    with monkeypatch.context() as patch:
        patch.setattr(headpose, "_residuals", counted)
        _, _, events = run_scenario_detailed(scenario)
    return sum(evals), events


class TestLandmarkNoise:
    """Head-pose cost and attention on interaction.json under landmark
    noise. Counts only, no wall clock."""

    def test_noise_does_not_multiply_solver_work(self, monkeypatch):
        # With cold restarts on every noisy face this run made 33,470
        # face-evaluations, with warm starts and restarts 5,272, with one
        # closed-form start per cold face 3,213, and with the stop at the
        # noise floor 1,911; the clean run makes about 200
        evals, _ = counted_run(monkeypatch, interaction(5.0))
        assert evals <= 2400

    def test_stop_at_noise_floor_saves_work_not_attention(self, monkeypatch):
        # attention_crowd at 1 px: 1,379 face-evaluations without the stop
        # at the noise floor (K = 0) and 780 with it; yaw and pitch moved
        # by at most 0.22 degrees
        sc = Scenario.from_json(DATA_DIR / "attention_crowd.json")
        evals, events = counted_run(monkeypatch, sc)
        monkeypatch.setattr(headpose, "K", 0.0)
        exact_evals, exact_events = counted_run(monkeypatch, sc)
        assert evals <= 0.65 * exact_evals
        rows = [(p, q) for row, exact in zip(events, exact_events, strict=True)
                for p, q in zip(row["persons"], exact["persons"], strict=True)]
        assert sum("yaw" in p for p, _ in rows) > 100
        for p, q in rows:
            assert p["attending"] == q["attending"]
            if "yaw" in q:
                assert abs(p["yaw"] - q["yaw"]) <= 0.5
                assert abs(p["pitch"] - q["pitch"]) <= 0.5

    def test_clean_trigger_at_4s(self):
        _, _, events = run_scenario_detailed(interaction())
        assert trigger_times(events, 0) == [4.0]

    # Gates for attention from pose uncertainty (ROADMAP item 4). They fail
    # with a per-frame attention threshold and are not to be tuned.

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="per-frame attention at 1 px")
    def test_trigger_within_half_a_second_at_1px(self):
        _, _, events = run_scenario_detailed(interaction(1.0))
        times = trigger_times(events, 0)
        assert times and abs(times[0] - 4.0) <= 0.5

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="per-frame attention at 1 px")
    def test_attending_agrees_with_ground_truth_at_1px(self):
        sc = interaction(1.0)
        _, _, events = run_scenario_detailed(sc)
        rows = [(row["frame"], p) for row in events for p in row["persons"]]
        assert len(rows) == 160
        right = sum(p["attending"] == sc.attending_gt(p["person"], frame)
                    for frame, p in rows)
        assert right >= 150

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="per-frame attention at 2 px")
    def test_trigger_at_2px(self):
        _, _, events = run_scenario_detailed(interaction(2.0))
        assert trigger_times(events, 0)
