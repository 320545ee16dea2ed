"""Per-frame perception pipeline: detections in, decisions out.

`Pipeline.step` takes what a robot's perception stack has at one frame
(detections, a depth image, its pose estimate, unlabelled face landmarks
and any trajectory correction) and runs tracking, object registration,
head pose and willingness on it, in the manner of tracking-by-detection.
It never sees where a detection came from: a face goes to a person track
by containment of its landmarks in the track's detection bbox.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import EmptyCloud, NonFiniteCloud
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    RigidPose,
    extract_object_cloud,
)
from .headpose import FaceModel3D, HeadPose, is_attending, lm_solve_poses
from .semantic_map import SemanticMap
from .tracker import KIND_OBJECT, KIND_PERSON, IoUTracker
from .willingness import PersonWillingnessMap


@dataclass
class FrameInput:
    """One frame from a robot's perception stack or the simulator."""

    frame: int
    t: float  # seconds
    detections: list  # Detection2D
    depth: DepthImage
    pose_estimate: RigidPose
    faces: list  # unlabelled LandmarkSet2D; face_id is only echoed
    corrections: list  # per correction: [(keyframe_id, RigidPose)]


def pair_faces(tracks, faces) -> list:
    """(track, face) for each face whose landmarks all lie in exactly one
    track's bbox, that bbox holding no other face; in track order."""
    if not tracks or not faces:
        return []
    inside = [[all(x0 <= u <= x1 and y0 <= v <= y1
                   for u, v in face.landmarks.values()) for face in faces]
              for x0, y0, x1, y1 in (track.last_bbox for track in tracks)]
    holders = [sum(col) for col in zip(*inside)]
    return [(track, faces[row.index(True)])
            for track, row in zip(tracks, inside)
            if sum(row) == 1 and holders[row.index(True)] == 1]


# a warm fit is kept unless its rms exceeds both this bound and twice the
# rms of the track's last accepted pose
WARM_RESTART_RMS_PX = 3.0


class Pipeline:
    """Tracker, semantic map, willingness and face model of one run."""

    def __init__(self, intrinsics: CameraIntrinsics,
                 config: PipelineConfig | None = None):
        self.intrinsics = intrinsics
        self.config = config = config or PipelineConfig()
        self.tracker = IoUTracker(config.iou_threshold,
                                  config.min_track_length, config.track_ttl)
        self.registry = SemanticMap(config)
        self.willingness = PersonWillingnessMap(config)
        self.face_model = FaceModel3D.default()

    def solve_faces(self, pairs) -> list:
        """Head pose of each (person track, face) pair as a per-track
        estimate; per pair a HeadPose or the solver exception.

        All faces descend in one batch, each from the last accepted pose in
        its track's person record, or from the closed-form start if the
        track has none. A warm fit that raised, or whose rms exceeds both
        WARM_RESTART_RMS_PX and twice the last pose's rms, is solved again
        from the closed-form start in a second batch.
        """
        if not pairs:
            return []
        faces = [face for _, face in pairs]
        persons = self.willingness.persons
        last = [person.pose if (person := persons.get(track.track_id))
                else None for track, _ in pairs]
        poses = lm_solve_poses(
            faces, self.face_model, self.intrinsics,
            inits=[None if pose is None
                   else np.concatenate((pose.axis_angle, pose.translation))
                   for pose in last], config=self.config)
        retry = [j for j, (pose, prev) in enumerate(zip(poses, last))
                 if prev is not None and not (
                     isinstance(pose, HeadPose) and pose.rms_residual <= max(
                         WARM_RESTART_RMS_PX, 2.0 * prev.rms_residual))]
        if retry:
            fits = lm_solve_poses([faces[j] for j in retry], self.face_model,
                                  self.intrinsics, config=self.config)
            for j, pose in zip(retry, fits):
                poses[j] = pose
        return poses

    def step(self, inp: FrameInput) -> dict:
        """Advance one frame; returns its `events.jsonl` row."""
        config, registry = self.config, self.registry
        willing = self.willingness
        i = inp.frame
        # a frame that any layer would reject changes no state
        self.tracker.check_frame(i)
        willing.check_clock(inp.t)
        self.intrinsics.check_depth(inp.depth)
        for poses in inp.corrections:
            registry.check_keyframes((kf_id for kf_id, _ in poses), (i,))
        registry.add_keyframe(i, inp.pose_estimate)
        confirmations = self.tracker.step(inp.detections, i)

        registered = []
        for track_id, det in confirmations:
            if det.kind != KIND_OBJECT:
                continue
            row = {"track": track_id, "class": det.class_label}
            try:
                local = extract_object_cloud(
                    det.bbox, inp.depth, self.intrinsics,
                    stride=config.extraction_stride)
                row["object"] = registry.register_candidate(
                    local, det.class_label, i)
            except EmptyCloud:  # extraction's: it gives no empty cloud
                continue
            except NonFiniteCloud as err:  # raised before the map changes
                row["error"] = type(err).__name__
            registered.append(row)

        # person tracks whose detection is in this frame
        person_tracks = [t for t in self.tracker.tracks
                         if t.kind == KIND_PERSON and t.misses == 0]
        person_rows = []
        observations = []
        pairs = pair_faces(person_tracks, inp.faces)
        poses = self.solve_faces(pairs)
        for (track, face), pose in zip(pairs, poses):
            row = {"track": track.track_id, "person": face.face_id}
            person_rows.append(row)
            if not isinstance(pose, HeadPose):
                # one bad face is recorded, not fatal; willingness sees
                # no observation for it this frame
                row.update(error=type(pose).__name__, attending=False)
                continue
            attending = is_attending(pose, config.attention_cone_deg)
            observations.append((track.track_id, attending))
            row.update(yaw=pose.yaw, pitch=pose.pitch, roll=pose.roll,
                       rms=pose.rms_residual, attending=attending)

        triggers = willing.step_frame(observations, inp.t)
        live = [t.track_id for t in self.tracker.tracks
                if t.kind == KIND_PERSON]
        willing.prune(live)
        # a paired track is live; a solve that raised drops its warm start
        for row, pose in zip(person_rows, poses):
            person = willing.persons.get(row["track"])
            if person is not None:
                person.pose = pose if isinstance(pose, HeadPose) else None
            state = person.willingness if person else None
            row["value"] = state.value if state else 0.0
            row["triggered"] = state.triggered if state else False

        merges = [registry.apply_trajectory_correction(poses).to_dict()
                  for poses in inp.corrections]
        return {
            "frame": i,
            "t": inp.t,
            "num_detections": len(inp.detections),
            "confirmations": [
                {"track": tid, "class": det.class_label, "kind": det.kind}
                for tid, det in confirmations
            ],
            "registered": registered,
            "registry_size": len(registry.objects),
            "merges": merges,
            "persons": person_rows,
            "triggers": triggers,
        }
