from pathlib import Path

import numpy as np
import pytest

from semmap.geometry import DepthImage, RigidPose
from semmap.headpose import FaceModel3D, LandmarkSet2D, project_model
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
