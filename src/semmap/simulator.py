"""Deterministic scenario engine, end-to-end runner, and metrics.

Replaces the robot, cameras, and neural detectors with a seeded synthetic
world: box-shaped objects sampled on their surfaces, persons with scripted
attention windows, a scripted camera trajectory with optional pose drift,
and correction events that hand the pipeline the true keyframe poses.
All randomness derives from the scenario seed, so runs are reproducible
byte for byte. The runner feeds each frame to a `pipeline.Pipeline`, which
sees no ground truth; only the metrics compare against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig, build, read_json_object
from .errors import FrameOutOfRange, ScenarioError
from .geometry import CameraIntrinsics, DepthImage, RigidPose
from .headpose import (
    FaceModel3D,
    LandmarkSet2D,
    project_model,
    rotation_from_euler,
)
from .pipeline import FrameInput, Pipeline
from .semantic_map import SemanticMap
from .tracker import KIND_OBJECT, KIND_PERSON, Detection2D

NEAR_PLANE = 0.05
MIN_VISIBLE_SAMPLES = 5
MAX_FOOTPRINT_PX = 9  # side of the largest square a depth sample covers

_face_model_cache = None


def _default_face_model() -> FaceModel3D:
    global _face_model_cache
    if _face_model_cache is None:
        _face_model_cache = FaceModel3D.default()
    return _face_model_cache


def look_at(position, target, up=(0.0, 0.0, 1.0)) -> RigidPose:
    """Camera-to-world pose at `position` with the optical axis on `target`."""
    position = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - position
    norm = np.linalg.norm(fwd)
    if norm < 1e-12:
        raise ScenarioError("look_at target coincides with camera position")
    z = fwd / norm
    down = -np.asarray(up, dtype=np.float64)
    x = np.cross(down, z)
    if np.linalg.norm(x) < 1e-9:
        x = np.cross((0.0, 1.0, 0.0), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return RigidPose(np.column_stack([x, y, z]), position)


@dataclass(frozen=True)
class WorldObject:
    class_label: str
    centroid: tuple
    extents: tuple
    sample_count: int = 400

    def __post_init__(self):
        if len(self.extents) != 3 or not all(
                0 < e < math.inf for e in self.extents):
            raise ScenarioError(
                f"extents must be three positive finite sizes, got "
                f"{list(self.extents)}")
        if self.sample_count < 1:
            raise ScenarioError(
                f"sample_count must be >= 1, got {self.sample_count}")


@dataclass(frozen=True)
class PersonSpec:
    position: tuple  # head center, world frame
    attention_windows: tuple = ()  # ((t_start, t_end), ...) seconds
    away_yaw_deg: float = 60.0

    def __post_init__(self):
        for w in self.attention_windows:
            if len(w) != 2 or not w[0] < w[1]:
                raise ScenarioError(
                    f"attention window {list(w)} is not [t0, t1] with t0 < t1")


@dataclass(frozen=True)
class NoiseModel:
    bbox_jitter_px: float = 0.0
    dropout_prob: float = 0.0
    false_positive_rate: float = 0.0
    depth_noise_m: float = 0.0
    landmark_jitter_px: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ScenarioError("dropout_prob must be in [0, 1]")
        if self.false_positive_rate < 0:
            raise ScenarioError("false_positive_rate must be >= 0")
        for name in ("bbox_jitter_px", "depth_noise_m", "landmark_jitter_px"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ScenarioError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class DriftModel:
    start_frame: int = 0
    translation_per_frame: tuple = (0.0, 0.0, 0.0)
    rotation_deg_per_frame: tuple = (0.0, 0.0, 0.0)  # axis-angle, degrees


@dataclass(frozen=True)
class CorrectionEvent:
    frame: int
    poses: object = "true"  # "true" or {keyframe_id: RigidPose}

    def __post_init__(self):
        if isinstance(self.poses, dict):  # JSON object keys are strings
            object.__setattr__(self, "poses", {
                int(k): p if isinstance(p, RigidPose)
                else RigidPose.from_dict(p, ScenarioError)
                for k, p in self.poses.items()})
        elif self.poses != "true":
            raise ScenarioError("correction poses must be 'true' or a mapping")


def _sample_box_surface(centroid, extents, count, rng) -> np.ndarray:
    """Uniform points on the surface of an axis-aligned box."""
    c = np.asarray(centroid, dtype=np.float64)
    e = np.asarray(extents, dtype=np.float64)
    areas = np.array([e[1] * e[2], e[0] * e[2], e[0] * e[1]])
    face_areas = np.repeat(areas, 2)
    probs = face_areas / face_areas.sum()
    faces = rng.choice(6, size=count, p=probs)
    uv = rng.uniform(-0.5, 0.5, size=(count, 2))
    axis = faces // 2
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    others = np.array([[1, 2], [0, 2], [0, 1]])[axis]
    rows = np.arange(count)
    p = np.empty((count, 3))
    p[rows, axis] = sign * 0.5 * e[axis]
    p[rows[:, None], others] = uv * e[others]
    return c + p


@dataclass(frozen=True)
class Orbit:
    """`frames` camera poses on a circle about `center`, each looking at it."""
    center: tuple
    radius: float
    frames: int
    height: float | None = None  # None: the height of `center`
    start_deg: float = 0.0
    sweep_deg: float = 360.0

    def trajectory(self) -> list:
        center = np.asarray(self.center, dtype=np.float64)
        height = center[2] if self.height is None else self.height
        start, sweep = np.radians(self.start_deg), np.radians(self.sweep_deg)
        poses = []
        for i in range(self.frames):
            ang = start + sweep * i / max(self.frames, 1)
            pos = center + np.array([self.radius * np.cos(ang),
                                     self.radius * np.sin(ang),
                                     height - center[2]])
            poses.append(look_at(pos, center))
        return poses


@dataclass(frozen=True)
class Sight:
    """A camera at `position` looking at `look_at`."""
    position: tuple
    look_at: tuple

    def pose(self) -> RigidPose:
        return look_at(self.position, self.look_at)


@dataclass(frozen=True)
class Segment(Sight):
    frames: int  # the camera holds the pose this many frames


@dataclass(frozen=True)
class Segments:
    segments: list  # {position, look_at, frames} objects, in order

    def trajectory(self) -> list:
        segments = [build(Segment, s, ScenarioError, "segment")
                    for s in self.segments]
        return [pose for s in segments for pose in [s.pose()] * s.frames]


@dataclass(frozen=True)
class Poses:
    poses: list  # per frame {position, look_at} or {rotation, translation}

    def trajectory(self) -> list:
        return [build(Sight, p, ScenarioError, "pose").pose() if "look_at" in p
                else RigidPose.from_dict(p, ScenarioError) for p in self.poses]


_GENERATORS = {"orbit": Orbit, "segments": Segments, "poses": Poses}


def _trajectory(spec) -> list:
    """True camera pose per frame from a scenario's `trajectory`: a list of
    RigidPose objects, or a generator object named by its `kind`."""
    if isinstance(spec, list):
        return [RigidPose.from_dict(p, ScenarioError) for p in spec]
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _GENERATORS:
        raise ScenarioError(f"unknown trajectory kind {kind!r}")
    return build(_GENERATORS[kind], spec, ScenarioError,
                 f"{kind} trajectory").trajectory()


@dataclass
class Scenario:
    seed: int
    intrinsics: CameraIntrinsics
    world_objects: list
    trajectory: list  # RigidPose per frame (true camera poses)
    persons: list = field(default_factory=list)
    fps: float = 10.0
    max_range: float = 15.0
    background_depth: float = 0.0  # 0 = invalid background pixels
    drift: DriftModel | None = None
    correction_events: list = field(default_factory=list)
    noise: NoiseModel = field(default_factory=NoiseModel)
    # every object's surface samples, stacked in object order, (N, 3)
    samples: np.ndarray = field(init=False, repr=False)
    sample_owner: np.ndarray = field(init=False, repr=False)  # object index
    sample_spacing: np.ndarray = field(init=False, repr=False)  # per object, m
    object_samples: list = field(init=False)  # per object, views of samples

    def __post_init__(self):
        frames = len(self.trajectory)
        if not frames:
            raise ScenarioError("trajectory must be non-empty")
        if not 0 < self.fps < math.inf:
            raise ScenarioError(
                f"fps must be positive and finite, got {self.fps}")
        if not self.max_range > NEAR_PLANE:
            raise ScenarioError(
                f"max_range must exceed the near plane ({NEAR_PLANE} m), "
                f"got {self.max_range}")
        # an integer would give the z-buffer an integer dtype
        self.background_depth = float(self.background_depth)
        if not 0 <= self.background_depth < math.inf:
            raise ScenarioError(
                f"background_depth must be finite and >= 0, got "
                f"{self.background_depth}")
        start = self.drift.start_frame if self.drift is not None else 0
        if not 0 <= start < frames:
            raise ScenarioError(
                f"drift start_frame {start} outside [0, {frames})")
        for ev in self.correction_events:
            if not 0 <= ev.frame < frames:
                raise ScenarioError(
                    f"correction frame {ev.frame} outside [0, {frames})")
            keyframes = ev.poses if isinstance(ev.poses, dict) else {}
            outside = sorted(k for k in keyframes if not 0 <= k <= ev.frame)
            if outside:
                raise ScenarioError(
                    f"correction at frame {ev.frame} names keyframes "
                    f"{outside} outside [0, {ev.frame}]")
        parts = [
            _sample_box_surface(obj.centroid, obj.extents, obj.sample_count,
                                np.random.default_rng([self.seed, 7, idx]))
            for idx, obj in enumerate(self.world_objects)]
        counts = [len(part) for part in parts]
        self.samples = np.concatenate(parts or [np.empty((0, 3))])
        # the narrowest unsigned type lets a stable sort by owner use radix
        owner_type = np.min_scalar_type(len(parts))
        self.sample_owner = np.repeat(
            np.arange(len(parts), dtype=owner_type), counts)
        ends = np.cumsum(counts, dtype=int)
        self.object_samples = [self.samples[end - n:end]
                               for n, end in zip(counts, ends)]
        e = np.array([obj.extents for obj in self.world_objects],
                     dtype=np.float64).reshape(-1, 3)
        area = 2 * (e[:, 0] * e[:, 1] + e[:, 1] * e[:, 2] + e[:, 0] * e[:, 2])
        self.sample_spacing = np.sqrt(np.maximum(area, 1e-9) / counts)

    @property
    def num_frames(self) -> int:
        return len(self.trajectory)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """A scenario from its JSON object. ScenarioError names an unknown
        key or a bad value at any level."""
        def each(kind, what):
            return lambda items: [build(kind, v, ScenarioError, what)
                                  for v in items]
        return build(
            cls, d, ScenarioError, "scenario",
            intrinsics=lambda v: CameraIntrinsics.from_dict(v, ScenarioError),
            world_objects=each(WorldObject, "world object"),
            persons=each(PersonSpec, "person"),
            trajectory=_trajectory,
            drift=lambda v: build(DriftModel, v, ScenarioError, "drift")
            if v else None,
            correction_events=each(CorrectionEvent, "correction event"),
            noise=lambda v: build(NoiseModel, v, ScenarioError, "noise"))

    @classmethod
    def from_json(cls, path) -> "Scenario":
        return cls.from_dict(read_json_object(path, ScenarioError, "scenario"))

    def drift_pose(self, frame_idx: int) -> RigidPose:
        """Accumulated world-frame drift perturbation at a frame."""
        if self.drift is None or frame_idx < self.drift.start_frame:
            return RigidPose.identity()
        n = frame_idx - self.drift.start_frame + 1
        t = np.asarray(self.drift.translation_per_frame) * n
        w = np.radians(np.asarray(self.drift.rotation_deg_per_frame)) * n
        from .headpose import rodrigues
        return RigidPose(rodrigues(w), t)

    def estimated_pose(self, frame_idx: int) -> RigidPose:
        pose = self.trajectory[frame_idx]
        if self.drift is None or frame_idx < self.drift.start_frame:
            return pose  # no drift yet: the true pose itself
        return self.drift_pose(frame_idx).compose(pose)

    def attending_gt(self, person_idx: int, frame_idx: int) -> bool:
        t = frame_idx / self.fps
        return any(t0 <= t < t1
                   for t0, t1 in self.persons[person_idx].attention_windows)


@dataclass
class FrameData:
    detections: list
    depth: DepthImage
    pose_estimate: RigidPose
    provenance: list  # per detection: ("object"|"person"|"fp", index)
    landmarks: dict  # person index -> LandmarkSet2D
    attending_gt: dict  # person index -> bool


def _jittered_bbox(bbox, rng, sigma, width, height):
    x0, y0, x1, y1 = bbox
    if sigma > 0:
        dx0, dy0, dx1, dy1 = rng.normal(0.0, sigma, 4)
        x0, y0, x1, y1 = x0 + dx0, y0 + dy0, x1 + dx1, y1 + dy1
    else:
        rng.normal(0.0, 1.0, 4)  # keep the stream position fixed
    x0, x1 = sorted((x0, x1))
    y0, y1 = sorted((y0, y1))
    x0 = float(min(max(x0, 0), width - 2))
    y0 = float(min(max(y0, 0), height - 2))
    x1 = float(min(max(x1, x0 + 1.0), width))
    y1 = float(min(max(y1, y0 + 1.0), height))
    return (x0, y0, x1, y1)


def synthesize_frame_data(scenario: Scenario, frame_idx: int) -> FrameData:
    if not 0 <= frame_idx < scenario.num_frames:
        raise FrameOutOfRange(f"frame {frame_idx} of {scenario.num_frames}")
    k = scenario.intrinsics
    to_cam = scenario.trajectory[frame_idx].inverse()
    noise = scenario.noise
    rng_det = np.random.default_rng([scenario.seed, 2, frame_idx])
    rng_depth = np.random.default_rng([scenario.seed, 3, frame_idx])
    rng_fp = np.random.default_rng([scenario.seed, 4, frame_idx])
    rng_lmk = np.random.default_rng([scenario.seed, 5, frame_idx])

    # every object's samples in one pass; masking keeps them in object order
    cam = to_cam.transform(scenario.samples)
    z = cam[:, 2]
    vis = (z > NEAR_PLANE) & (z <= scenario.max_range)
    z = z[vis]
    u = k.cx + k.fx * cam[vis, 0] / z
    v = k.cy + k.fy * cam[vis, 1] / z
    inb = (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
    u, v, d = u[inb], v[inb], z[inb]
    owner = scenario.sample_owner[vis][inb]
    # depth comes from geometry regardless of detection dropout
    if noise.depth_noise_m > 0:
        d = np.maximum(d + rng_depth.normal(0.0, noise.depth_noise_m, d.size),
                       0.01)

    # per object seen: its segment of the arrays above, its median depth
    # (np.median's rule: the mean of the two middle values for an even
    # count), footprint and bbox
    counts = np.bincount(owner, minlength=len(scenario.world_objects))
    seen = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[seen]
    seen_counts = counts[seen]
    order = np.argsort(d)
    d_sorted = d[order[np.argsort(owner[order], kind="stable")]]
    median = (d_sorted[starts + (seen_counts - 1) // 2]
              + d_sorted[starts + seen_counts // 2]) / 2
    fpx = np.zeros(len(counts), dtype=int)
    fpx[seen] = np.clip(np.ceil(k.fx * scenario.sample_spacing[seen] / median),
                        1, MAX_FOOTPRINT_PX)
    boxes = np.stack([np.minimum.reduceat(u, starts) - 0.5,
                      np.minimum.reduceat(v, starts) - 0.5,
                      np.maximum.reduceat(u, starts) + 0.5,
                      np.maximum.reduceat(v, starts) + 0.5], axis=1)

    # z-buffer with its far plane at the background: one exact scatter-min
    # over the in-image footprint pixels of every sample, grouped by
    # footprint. Samples run along the last axis, so numpy's inner loops
    # are long; min is exact and order-free, so the grouping changes no bit
    zbuf = np.full(k.height * k.width, scenario.background_depth or np.inf)
    us, vs = u.astype(np.intp), v.astype(np.intp)
    point_fpx = fpx[owner]
    pixels, depths = [], []
    for f in np.unique(fpx[seen]):
        sel = point_fpx == f
        offsets = np.arange(f)[:, None] - f // 2
        cols = us[sel] + offsets
        rows = vs[sel] + offsets
        ok = (((rows >= 0) & (rows < k.height))[:, None]
              & ((cols >= 0) & (cols < k.width)))
        pixels.append((rows[:, None] * k.width + cols)[ok])
        depths.append(np.broadcast_to(d[sel], ok.shape)[ok])
    if pixels:
        np.minimum.at(zbuf, np.concatenate(pixels), np.concatenate(depths))
    if scenario.background_depth == 0:
        zbuf[np.isinf(zbuf)] = 0.0  # no sample, no background: invalid

    detections = []
    provenance = []
    for oi, n, bbox in zip(seen, seen_counts, boxes):
        if n < MIN_VISIBLE_SAMPLES:
            continue
        bbox = _jittered_bbox(bbox, rng_det, noise.bbox_jitter_px,
                              k.width, k.height)
        dropped = rng_det.uniform() < noise.dropout_prob
        if not dropped:
            detections.append(Detection2D(
                bbox, scenario.world_objects[oi].class_label, score=1.0,
                kind=KIND_OBJECT))
            provenance.append(("object", int(oi)))

    face_model = _default_face_model()
    landmarks = {}
    attending_gt = {}
    for pi, person in enumerate(scenario.persons):
        attending = scenario.attending_gt(pi, frame_idx)
        attending_gt[pi] = attending
        head_cam = to_cam.transform(
            np.asarray(person.position, dtype=np.float64))
        if not (NEAR_PLANE < head_cam[2] <= scenario.max_range):
            continue
        hc = np.asarray(person.position)
        corners = np.array([
            hc + (sx * 0.25, sy * 0.25, dz)
            for sx in (-1, 1) for sy in (-1, 1) for dz in (-1.5, 0.15)
        ])
        cam = to_cam.transform(corners)
        zc = np.maximum(cam[:, 2], NEAR_PLANE)
        u = k.cx + k.fx * cam[:, 0] / zc
        v = k.cy + k.fy * cam[:, 1] / zc
        bbox = (u.min(), v.min(), u.max(), v.max())
        bbox = _jittered_bbox(bbox, rng_det, noise.bbox_jitter_px,
                              k.width, k.height)
        dropped = rng_det.uniform() < noise.dropout_prob
        if not dropped:
            detections.append(Detection2D(bbox, "person", score=1.0,
                                          kind=KIND_PERSON))
            provenance.append(("person", pi))
        head_rot = np.eye(3) if attending else rotation_from_euler(
            person.away_yaw_deg, 0.0, 0.0)
        try:
            lmks = project_model(face_model, head_rot, head_cam, k)
        except Exception:
            continue
        inside = all(0 <= uu < k.width and 0 <= vv < k.height
                     for uu, vv in lmks.values())
        if not inside:
            continue
        if noise.landmark_jitter_px > 0:
            lmks = {
                n: (uu + rng_lmk.normal(0, noise.landmark_jitter_px),
                    vv + rng_lmk.normal(0, noise.landmark_jitter_px))
                for n, (uu, vv) in lmks.items()
            }
        landmarks[pi] = LandmarkSet2D(lmks, face_id=pi)

    if noise.false_positive_rate > 0:
        n_fp = int(rng_fp.poisson(noise.false_positive_rate))
        class_pool = sorted({o.class_label for o in scenario.world_objects}) \
            or ["clutter"]
        for j in range(n_fp):
            cls = class_pool[int(rng_fp.integers(len(class_pool)))]
            cx_ = rng_fp.uniform(0, k.width)
            cy_ = rng_fp.uniform(0, k.height)
            w = rng_fp.uniform(10, 80)
            h = rng_fp.uniform(10, 80)
            x0 = float(min(max(cx_ - w / 2, 0), k.width - 2))
            y0 = float(min(max(cy_ - h / 2, 0), k.height - 2))
            x1 = float(min(max(cx_ + w / 2, x0 + 1), k.width))
            y1 = float(min(max(cy_ + h / 2, y0 + 1), k.height))
            detections.append(Detection2D((x0, y0, x1, y1), cls, score=0.3,
                                          kind=KIND_OBJECT))
            provenance.append(("fp", j))

    return FrameData(
        detections=detections,
        depth=DepthImage(zbuf.reshape(k.height, k.width)),
        pose_estimate=scenario.estimated_pose(frame_idx),
        provenance=provenance,
        landmarks=landmarks,
        attending_gt=attending_gt,
    )


@dataclass
class MetricsReport:
    gt_object_count: int
    registered_count: int
    duplicate_count: int
    precision: float
    recall: float
    centroid_rmse_m: float
    willingness_trigger_times: list
    attention_windows: list
    match_radius_m: float = 0.5

    def to_dict(self) -> dict:
        return {
            "gt_object_count": self.gt_object_count,
            "registered_count": self.registered_count,
            "duplicate_count": self.duplicate_count,
            "precision": self.precision,
            "recall": self.recall,
            "centroid_rmse_m": self.centroid_rmse_m,
            "willingness_trigger_times": self.willingness_trigger_times,
            "attention_windows": self.attention_windows,
            "match_radius_m": self.match_radius_m,
        }


def compute_map_metrics(scenario: Scenario, registry: SemanticMap,
                        trigger_events: list,
                        match_radius: float = 0.5) -> MetricsReport:
    """Greedy class-gated centroid matching of registered objects to ground
    truth; a registered object whose only nearby ground truth is already
    claimed counts as a duplicate."""
    gt = [(o.class_label, np.asarray(o.centroid, dtype=np.float64))
          for o in scenario.world_objects]
    claimed = [False] * len(gt)
    matched_sq = []
    duplicates = 0
    for obj_id in sorted(registry.objects):
        obj = registry.objects[obj_id]
        cands = [
            (float(np.linalg.norm(obj.centroid - c)), gi)
            for gi, (cls, c) in enumerate(gt)
            if cls == obj.class_label
            and np.linalg.norm(obj.centroid - c) <= match_radius
        ]
        cands.sort()
        free = [(d, gi) for d, gi in cands if not claimed[gi]]
        if free:
            d, gi = free[0]
            claimed[gi] = True
            matched_sq.append(d * d)
        elif cands:
            duplicates += 1
    registered = len(registry.objects)
    matched = len(matched_sq)
    precision = matched / registered if registered else 1.0
    recall = sum(claimed) / len(gt) if gt else 1.0
    rmse = float(np.sqrt(np.mean(matched_sq))) if matched_sq else 0.0
    windows = [
        {"person": pi, "windows": [list(w) for w in p.attention_windows]}
        for pi, p in enumerate(scenario.persons)
    ]
    return MetricsReport(
        gt_object_count=len(gt),
        registered_count=registered,
        duplicate_count=duplicates,
        precision=precision,
        recall=recall,
        centroid_rmse_m=rmse,
        willingness_trigger_times=trigger_events,
        attention_windows=windows,
    )


M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
M_MMAP_THRESHOLD = -3


def keep_freed_heap() -> bool:
    """Have glibc keep freed heap memory for reuse; True if it took.

    Every frame allocates and frees megabytes of numpy temporaries and a
    0.6 MB depth image. With glibc's default, adaptive thresholds the
    heap top goes back to the OS up to once a frame and is faulted in
    again by the next one (cluttered_drift: 40,000-60,000 page faults a
    second), and heap layout alone decides whether those trims fall in
    the frame source or in the pipeline step. Fixed thresholds keep
    arrays under 16 MiB on the heap and its free top in the process.
    The setting is process-wide. Other C libraries are left as they are.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 16 << 20)
                and mallopt(M_TRIM_THRESHOLD, 256 << 20))


def run_scenario_detailed(scenario: Scenario,
                          config: PipelineConfig | None = None):
    """Stream every frame through a Pipeline; returns (SemanticMap,
    MetricsReport, event rows). A "true" correction hands the pipeline
    the true poses of keyframes 0..frame."""
    keep_freed_heap()
    pipeline = Pipeline(scenario.intrinsics, config)
    corrections = {}
    for ev in scenario.correction_events:
        corrections.setdefault(ev.frame, []).append(
            list(enumerate(scenario.trajectory[:ev.frame + 1]))
            if ev.poses == "true" else sorted(ev.poses.items()))
    events = []
    for i in range(scenario.num_frames):
        data = synthesize_frame_data(scenario, i)
        events.append(pipeline.step(FrameInput(
            i, i / scenario.fps, data.detections, data.depth,
            data.pose_estimate, list(data.landmarks.values()),
            corrections.get(i, []))))
    triggers = []
    for row in events:
        person = {p["track"]: p["person"] for p in row["persons"]}
        triggers += [{"t": row["t"], "track_id": pid,
                      "person_index": person.get(pid)}
                     for pid in row["triggers"]]
    metrics = compute_map_metrics(scenario, pipeline.registry, triggers)
    return pipeline.registry, metrics, events
