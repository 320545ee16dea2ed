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
from .errors import EmptyCloud
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
    """One frame as the robot's perception stack has it."""

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
        self.registry = SemanticMap(
            assoc_dist=config.assoc_dist_m,
            merge_overlap=config.merge_overlap_ratio,
            overlap_radius=config.overlap_radius_m,
            voxel_leaf=config.voxel_leaf_m,
            max_cloud_points=config.max_cloud_points,
        )
        self.willingness = PersonWillingnessMap(config.willingness_rate_up,
                                                config.willingness_rate_down,
                                                config.willingness_reset)
        self.face_model = FaceModel3D.default()
        self.lm_options = dict(lambda_init=config.lm_lambda_init,
                               step_tol=config.lm_step_tol,
                               cost_tol=config.lm_cost_tol,
                               max_iterations=config.lm_max_iterations,
                               accept_rms=config.lm_accept_rms_px)
        self.head_poses = {}  # person track id -> its last accepted HeadPose

    def solve_faces(self, pairs) -> list:
        """Head pose of each (person track, face) pair as a per-track
        estimate; per pair a HeadPose or the solver exception.

        Every face whose track has a last accepted pose descends from it,
        all in one batch. The faces that then need a cold solve (one
        descent from the closed-form start) solve in a second batch: those
        whose track has no pose, whose warm descent raised, or whose warm
        rms exceeds both WARM_RESTART_RMS_PX and twice the last pose's rms.
        A solve that raises leaves the track without a pose.
        """
        if not pairs:
            return []
        last = [self.head_poses.pop(track.track_id, None)
                for track, _ in pairs]
        poses = [None] * len(pairs)
        warm = [j for j, pose in enumerate(last) if pose is not None]
        if warm:
            fits = lm_solve_poses(
                [pairs[j][1] for j in warm], self.face_model, self.intrinsics,
                inits=[np.concatenate((last[j].axis_angle, last[j].translation))
                       for j in warm], **self.lm_options)
            for j, pose in zip(warm, fits):
                if isinstance(pose, HeadPose) and pose.rms_residual <= max(
                        WARM_RESTART_RMS_PX, 2.0 * last[j].rms_residual):
                    poses[j] = pose
        cold = [j for j, pose in enumerate(poses) if pose is None]
        if cold:
            fits = lm_solve_poses([pairs[j][1] for j in cold],
                                  self.face_model, self.intrinsics,
                                  **self.lm_options)
            for j, pose in zip(cold, fits):
                poses[j] = pose
        for (track, _), pose in zip(pairs, poses):
            if isinstance(pose, HeadPose):
                self.head_poses[track.track_id] = pose
        return poses

    def step(self, inp: FrameInput) -> dict:
        """Advance one frame; returns its `events.jsonl` row."""
        config, registry = self.config, self.registry
        willing = self.willingness
        i = inp.frame
        registry.add_keyframe(i, inp.pose_estimate)
        confirmations = self.tracker.step(inp.detections, i)

        registered = []
        for track_id, det in confirmations:
            if det.kind != KIND_OBJECT:
                continue
            try:
                cloud = extract_object_cloud(
                    det.bbox, inp.depth, inp.pose_estimate, self.intrinsics,
                    stride=config.extraction_stride)
            except EmptyCloud:
                continue
            obj_id = registry.register_candidate(cloud, det.class_label, i)
            registered.append({"track": track_id, "object": obj_id,
                               "class": det.class_label})

        # person tracks whose detection is in this frame
        person_tracks = [t for t in self.tracker.tracks
                         if t.kind == KIND_PERSON and t.last_frame == i]
        person_rows = []
        observations = []
        pairs = pair_faces(person_tracks, inp.faces)
        for (track, face), pose in zip(pairs, self.solve_faces(pairs)):
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
        self.head_poses = {tid: self.head_poses[tid] for tid in live
                           if tid in self.head_poses}
        for row in person_rows:
            state = willing.states.get(row["track"])
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
