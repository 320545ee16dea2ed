import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from semmap import headpose
from semmap import pipeline as pipeline_module
from semmap.errors import NoConvergence
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

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"


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
        data = synthesize_frame_data(sc, i)
        faces = [LandmarkSet2D(lm.landmarks, face_id=f"face-{lm.face_id}")
                 for lm in reversed(data.landmarks.values())]
        got.append(pipeline.step(FrameInput(
            i, i / sc.fps, data.detections, data.depth, data.pose_estimate,
            faces, [])))
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
    """Stands in for the pipeline's `lm_solve_poses`: records (init, pose or
    exception) per face, can make faces fail, and can report a given rms
    instead of the fitted one."""

    def __init__(self):
        self.calls = []
        self.fail = None  # None, "warm" or "all"
        self.fake_rms = []  # rms reported by the next solved faces, in order

    def __call__(self, faces, *args, inits=None, **kwargs):
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

    def test_failed_warm_fit_falls_back_to_cold(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        self.run(pipeline, [(self.BBOX, 30.0)])
        spy.fail = "warm"
        row, = self.run(pipeline, [(self.BBOX, 32.0)])
        assert spy.cold() == [True, False, True]
        assert row["persons"][0]["yaw"] == pytest.approx(32.0, abs=1e-6)
        assert pipeline.head_poses[row["persons"][0]["track"]] \
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
        assert pipeline.head_poses == {}
        spy.fail = None
        self.run(pipeline, [(self.BBOX, 30.0)])
        assert spy.cold() == [True, False, True, True]

    def test_pruned_or_new_track_starts_cold(self, intrinsics, spy):
        pipeline = Pipeline(intrinsics)
        gap = [(None, 30.0)] * (pipeline.config.track_ttl + 1)
        rows = self.run(pipeline, [(self.BBOX, 30.0), (self.MOVED, 30.0)]
                        + gap)
        assert pipeline.head_poses == {}  # both tracks pruned
        rows += self.run(pipeline, [(self.MOVED, 30.0), (self.MOVED, 30.0)])
        tracks = [row["persons"][0]["track"] for row in rows if row["persons"]]
        assert len(set(tracks[:3])) == 3 and tracks[3] == tracks[2]
        assert spy.cold() == [True, True, True, False]
        assert list(pipeline.head_poses) == [tracks[-1]]


def interaction(jitter=0.0):
    """The shipped interaction scenario with `jitter` px landmark noise."""
    d = json.loads((SCENARIO_DIR / "interaction.json").read_text())
    d["noise"] = {"landmark_jitter_px": jitter}
    return Scenario.from_dict(d)


def trigger_times(events, person):
    """Times at which a track carrying `person`'s face triggered."""
    return [row["t"] for row in events for p in row["persons"]
            if p["person"] == person and p["track"] in row["triggers"]]


class TestLandmarkNoise:
    """Head-pose cost and attention on interaction.json under landmark
    noise. Counts only, no wall clock."""

    def test_noise_does_not_multiply_solver_work(self, monkeypatch):
        # face-evaluations: the rows of every `_residuals` call. With cold
        # restarts on every noisy face this run made 33,470, with warm
        # starts and restarts 5,272, and with one closed-form start per cold
        # face 3,210; the clean run makes about 200
        evals = []

        def counted(params, *args, _real=headpose._residuals):
            evals.append(len(params))
            return _real(params, *args)

        monkeypatch.setattr(headpose, "_residuals", counted)
        run_scenario_detailed(interaction(5.0))
        assert sum(evals) <= 4000

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
