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
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import (
    PipelineConfig,
    Vector3,
    _echo,
    bound,
    build,
    check_bounds,
    finite_numbers,
    read_json_object,
)
from .errors import FrameOutOfRange, PointBehindCamera, ScenarioError
from .geometry import (
    MAX_IMAGE_SIDE,
    CameraIntrinsics,
    DepthImage,
    RigidPose,
    _freeze,
    _trusted,
)
from .headpose import (
    FaceModel3D,
    LandmarkSet2D,
    _rodrigues,
    project_model,
    rotation_from_euler,
)
from .pipeline import FrameInput, Pipeline
from .semantic_map import SemanticMap
from .tracker import KIND_OBJECT, KIND_PERSON, Detection2D

NEAR_PLANE = 0.05
MIN_VISIBLE_SAMPLES = 5
MAX_FOOTPRINT_PX = 9  # side of the largest square a depth sample covers
# mean false detections per frame, at COCO's cap of 100 detections per
# image: past any detector's operating point, and the tracker's cost per
# frame grows with its square
MAX_FALSE_POSITIVE_RATE = 100.0
# sd of the landmark jitter, px: the widest image side. Past it, a jittered
# landmark lands outside any image more often than not, and near the
# largest float the draws themselves overflow
MAX_LANDMARK_JITTER_PX = float(MAX_IMAGE_SIDE)
# surface samples of a scenario, and so of each object: a million put a
# 1 m cube's faces ~2.4 mm apart, finer than a 500 px focal length
# resolves from 1 m (2 mm a pixel), and the frame source projects every
# sample every frame
MAX_SAMPLE_COUNT = 1_000_000
# frames of a scenario, and so of each orbit or segment: an hour at 30
# fps; the load builds a pose per frame
MAX_FRAMES = 108_000
MAX_SWEEP_DEG = 360.0 * MAX_FRAMES  # a turn a frame; more only aliases
# a world coordinate, m, on each axis: of an object's box, a camera
# position, its drifted estimate or a corrected keyframe's translation.
# Within it, the squared distances between clouds, ≤ 3 (2e150)² ≈ 1e301,
# and a centroid's sum of up to 1e158 points stay under the largest float,
# 1.8e308
MAX_COORDINATE = 1e150
MATCH_RADIUS_M = 0.5  # m from a registered centroid to its ground truth
# corners of a person's box, about the head centre: the bbox is their hull
_HEAD_BOX = np.array([(sx * 0.25, sy * 0.25, dz) for sx in (-1, 1)
                      for sy in (-1, 1) for dz in (-1.5, 0.15)])

# rows of a cross product: c[i] = a[i+1] b[i+2] - a[i+2] b[i+1], indices mod 3
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
_DOWN, _Y = np.array([-0.0, -0.0, -1.0]), np.array([0.0, 1.0, 0.0])


def _cross(a, b) -> np.ndarray:
    """np.cross of 3-vectors, or of each row of (n, 3) stacks, bit for bit:
    each product and difference is rounded on its own, as numpy does, and
    a -0.0 factor keeps its signed zeros."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a C-contiguous (n, 3) stack, bit for
    bit: each row's (1, 3) @ (3, 1) product is the BLAS dot that norm takes."""
    return np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(-1))


def _look_at(positions, targets) -> list:
    """A camera-to-world pose per row of `positions` (n, 3), its optical
    axis on the matching row of `targets` (n, 3), or on one (3,) target,
    and up at +z: x = down × z cancels nothing, so each R is a rotation as
    built. Each pose is its own object, over frozen views of one stack.
    A distance outside [1e-12, inf) is a ScenarioError that names it; a
    non-finite position makes its distance inf or NaN, so no other check."""
    positions = _freeze(np.array(positions, dtype=np.float64).reshape(-1, 3))
    with np.errstate(over="ignore"):
        fwd = np.asarray(targets, dtype=np.float64).reshape(-1, 3) - positions
        norm = _norms(fwd)
    ok = (norm >= 1e-12) & (norm < math.inf)
    if not ok.all():
        raise ScenarioError(
            f"look_at distance {norm[ok.argmin()]} m outside [1e-12, inf)")
    z = fwd / norm[:, None]
    x = _cross(_DOWN, z)
    # within 1e-9 rad of vertical, down × z is too short: (0, 1, 0) × z
    x = np.where(_norms(x)[:, None] < 1e-9, _cross(_Y, z), x)
    x /= _norms(x)[:, None]
    rotations = _freeze(np.stack([x, _cross(z, x), z], axis=-1))
    return [_trusted(RigidPose, rotation=r, translation=t)
            for r, t in zip(rotations, positions)]


def look_at(position, target) -> RigidPose:
    """Camera-to-world pose at `position` with the optical axis on `target`
    and up at +z."""
    return _look_at([position], target)[0]


@dataclass(frozen=True)
class WorldObject:
    class_label: str
    centroid: Vector3  # the box lies within ±MAX_COORDINATE
    extents: Vector3 = bound("(0, inf)")
    sample_count: int = bound(f"[1, {MAX_SAMPLE_COUNT}]", 400)

    def __post_init__(self):
        if len(self.extents) != 3:
            raise ScenarioError(
                f"extents must be three sizes, got {list(self.extents)}")
        check_bounds(self, ScenarioError)


@dataclass(frozen=True)
class PersonSpec:
    position: Vector3  # head center, world frame
    attention_windows: tuple = ()  # ((t_start, t_end), ...) seconds
    away_yaw_deg: float = 60.0

    def __post_init__(self):
        for w in self.attention_windows:
            if not (finite_numbers(w, 2) and w[0] < w[1]):
                raise ScenarioError(
                    f"attention window {w!r} is not [t0, t1] of finite "
                    f"numbers with t0 < t1")


@dataclass(frozen=True)
class NoiseModel:
    bbox_jitter_px: float = bound("[0, inf)", 0.0)
    dropout_prob: float = bound("[0, 1]", 0.0)
    false_positive_rate: float = bound(f"[0, {MAX_FALSE_POSITIVE_RATE}]", 0.0)
    depth_noise_m: float = bound("[0, inf)", 0.0)
    landmark_jitter_px: float = bound(f"[0, {MAX_LANDMARK_JITTER_PX}]", 0.0)

    def __post_init__(self):
        check_bounds(self, ScenarioError)


@dataclass(frozen=True)
class DriftModel:
    start_frame: int = 0
    translation_per_frame: Vector3 = (0.0, 0.0, 0.0)
    rotation_deg_per_frame: Vector3 = (0.0, 0.0, 0.0)  # axis-angle, degrees


def _keyframe_id(key) -> int:
    """A keyframe id from its key: an int, or an int's canonical decimal
    string ("7"; not "07", "+7", " 7" or "0_7"), so no two keys name one."""
    try:
        if str(int(key)) == str(key):
            return int(key)
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"correction keyframe id {_echo(key)} is not an "
                        f"integer in canonical decimal form")


@dataclass(frozen=True)
class CorrectionEvent:
    frame: int
    poses: object = "true"  # "true" or {keyframe_id: RigidPose}

    def __post_init__(self):
        if isinstance(self.poses, dict):  # JSON object keys are strings
            object.__setattr__(self, "poses", {
                _keyframe_id(k): p if isinstance(p, RigidPose)
                else RigidPose.from_dict(p, ScenarioError)
                for k, p in self.poses.items()})
        elif self.poses != "true":
            raise ScenarioError("correction poses must be 'true' or a mapping")


def _check_total(what: str, total: int, cap: int):
    """ScenarioError if a scenario's `total` of `what` exceeds `cap`: each
    item may lie within its own bound while their sum does not."""
    if total > cap:
        raise ScenarioError(f"scenario has {total} {what}, more than {cap}")


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


def _check_positions(what: str, first: int, translations: np.ndarray):
    """ScenarioError naming the first frame, from `first`, whose row of
    `translations` (n, 3) is not within ±MAX_COORDINATE: NaN fails too."""
    bad = np.flatnonzero(~(np.abs(translations) <= MAX_COORDINATE).all(axis=1))
    if bad.size:
        where = (f"lies beyond ±{MAX_COORDINATE} m"
                 if np.isfinite(translations[bad[0]]).all()
                 else "is not finite")
        raise ScenarioError(f"{what} of frame {first + bad[0]} {where}")


@dataclass(frozen=True)
class Orbit:
    """`frames` camera poses on a circle about `center`, each looking at it."""
    center: Vector3
    radius: float = bound("[0, inf)")
    frames: int = bound(f"[1, {MAX_FRAMES}]")
    height: float | None = None  # None: the height of `center`
    start_deg: float = 0.0
    sweep_deg: float = bound(f"[{-MAX_SWEEP_DEG}, {MAX_SWEEP_DEG}]", 360.0)

    def __post_init__(self):
        check_bounds(self, ScenarioError)

    def trajectory(self) -> list:
        center = np.asarray(self.center, dtype=np.float64)
        height = center[2] if self.height is None else self.height
        start, sweep = np.radians(self.start_deg), np.radians(self.sweep_deg)
        ang = start + sweep * np.arange(self.frames) / self.frames
        positions = center + np.column_stack([
            self.radius * np.cos(ang), self.radius * np.sin(ang),
            np.full(self.frames, height - center[2])])
        return _look_at(positions, center)


@dataclass(frozen=True)
class Sight:
    """A camera at `position` looking at `look_at`."""
    position: Vector3
    look_at: Vector3

    def pose(self) -> RigidPose:
        return look_at(self.position, self.look_at)


@dataclass(frozen=True)
class Segment(Sight):
    # the camera holds the pose this many frames
    frames: int = bound(f"[1, {MAX_FRAMES}]")

    def __post_init__(self):
        check_bounds(self, ScenarioError)


@dataclass(frozen=True)
class Segments:
    segments: list  # {position, look_at, frames} objects, in order

    def trajectory(self) -> list:
        segments = [build(Segment, s, ScenarioError, "segment")
                    for s in self.segments]
        _check_total("frames", sum(s.frames for s in segments), MAX_FRAMES)
        return [pose for s in segments for pose in [s.pose()] * s.frames]


@dataclass(frozen=True)
class Poses:
    poses: list  # per frame {position, look_at} or {rotation, translation}

    def trajectory(self) -> list:
        _check_total("frames", len(self.poses), MAX_FRAMES)
        return [build(Sight, p, ScenarioError, "pose").pose() if "look_at" in p
                else RigidPose.from_dict(p, ScenarioError) for p in self.poses]


_GENERATORS = {"orbit": Orbit, "segments": Segments, "poses": Poses}


def _trajectory(spec) -> list:
    """True camera pose per frame from a scenario's `trajectory`: a list of
    RigidPose objects, or a generator object named by its `kind`."""
    if isinstance(spec, list):
        _check_total("frames", len(spec), MAX_FRAMES)
        return [RigidPose.from_dict(p, ScenarioError) for p in spec]
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _GENERATORS:
        raise ScenarioError(f"unknown trajectory kind {kind!r}")
    return build(_GENERATORS[kind], spec, ScenarioError,
                 f"{kind} trajectory").trajectory()


@dataclass
class Scenario:
    """A synthetic world and camera path. The load derives every frame's
    poses once: each true pose's inverse translation -Rᵀt (`camera_t`);
    with drift, from start_frame on, each estimate R_d R (`estimate_rot`)
    and R_d t + t_d (`estimate_t`) under the drift R_d, t_d of that frame."""
    seed: int
    intrinsics: CameraIntrinsics
    world_objects: list
    trajectory: list  # RigidPose per frame (true camera poses)
    persons: list = field(default_factory=list)
    fps: float = bound("(0, inf)", 10.0)
    max_range: float = bound(f"({NEAR_PLANE}, inf)", 15.0)
    # 0 = invalid background pixels
    background_depth: float = bound("[0, inf)", 0.0)
    drift: DriftModel | None = None
    correction_events: list = field(default_factory=list)
    noise: NoiseModel = field(default_factory=NoiseModel)
    # derived, left out of equality: all objects' surface samples stacked
    # in object order, (N, 3); per object, its first row and spacing in m
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    sample_starts: np.ndarray = field(init=False, repr=False, compare=False)
    sample_spacing: np.ndarray = field(init=False, repr=False, compare=False)
    # per person, the frozen head rotation of frames it does not attend
    away_rotations: list = field(init=False, repr=False, compare=False)
    # the classes a false positive draws from, sorted
    false_positive_classes: list = field(init=False, repr=False, compare=False)
    # frame -> its correction events, in file order
    corrections_at: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    camera_t: np.ndarray = field(init=False, repr=False, compare=False)
    estimate_rot: np.ndarray = field(init=False, repr=False, compare=False)
    estimate_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = len(self.trajectory)
        if not frames:
            raise ScenarioError("trajectory must be non-empty")
        _check_total("frames", frames, MAX_FRAMES)
        _check_total("surface samples", sum(
            obj.sample_count for obj in self.world_objects), MAX_SAMPLE_COUNT)
        # an integer would give the z-buffer an integer dtype
        self.background_depth = float(self.background_depth)
        check_bounds(self, ScenarioError)
        if not (frames - 1) / self.fps < math.inf:
            raise ScenarioError(
                f"frame {frames - 1} at fps {self.fps} has no finite time")
        start = self.drift.start_frame if self.drift is not None else 0
        if not 0 <= start < frames:
            raise ScenarioError(
                f"drift start_frame {start} outside [0, {frames})")
        # every pose copied once, into stacks: concatenate beats np.array
        rot = np.concatenate([pose.rotation for pose in self.trajectory])
        t = np.concatenate([pose.translation for pose in self.trajectory])
        rot, t = rot.reshape(-1, 3, 3), t.reshape(-1, 3, 1)
        _check_positions("camera", 0, t[..., 0])
        # -Rᵀ, then the product, as inverse() takes it: the same zeros.
        # Within the bound, each component is at most √3 MAX_COORDINATE
        self.camera_t = _freeze((-rot.transpose(0, 2, 1) @ t)[..., 0])
        if self.drift is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                n = np.arange(1.0, frames - start + 1)[:, None]
                w = np.radians(self.drift.rotation_deg_per_frame) * n
                # a zero rate rotates by the identity
                r_d = _rodrigues(w)[0] if w.any() else np.eye(3)
                t_d = n * np.asarray(self.drift.translation_per_frame, float)
                self.estimate_rot = _freeze(r_d @ rot[start:])
                self.estimate_t = _freeze((r_d @ t[start:])[..., 0] + t_d)
            # drift carries the map's clouds with the estimate
            _check_positions("drifted estimate", start, self.estimate_t)
        for idx, obj in enumerate(self.world_objects):
            if max(abs(c) + e / 2 for c, e in zip(obj.centroid, obj.extents)) \
                    > MAX_COORDINATE:
                raise ScenarioError(
                    f"world object {idx} ({obj.class_label!r}) reaches "
                    f"beyond ±{MAX_COORDINATE} m")
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
            for k, pose in sorted(keyframes.items()):
                if np.abs(pose.translation).max() > MAX_COORDINATE:
                    raise ScenarioError(
                        f"correction at frame {ev.frame} moves keyframe {k} "
                        f"beyond ±{MAX_COORDINATE} m")
            self.corrections_at.setdefault(ev.frame, []).append(ev)
        parts = [
            _sample_box_surface(obj.centroid, obj.extents, obj.sample_count,
                                np.random.default_rng([self.seed, 7, idx]))
            for idx, obj in enumerate(self.world_objects)]
        counts = [len(part) for part in parts]
        self.samples = np.concatenate(parts or [np.empty((0, 3))])
        ends = np.cumsum(counts, dtype=np.intp)
        self.sample_starts = ends - np.asarray(counts, dtype=np.intp)
        e = np.array([obj.extents for obj in self.world_objects],
                     dtype=np.float64).reshape(-1, 3)
        area = 2 * (e[:, 0] * e[:, 1] + e[:, 1] * e[:, 2] + e[:, 0] * e[:, 2])
        self.sample_spacing = np.sqrt(np.maximum(area, 1e-9) / counts)
        self.away_rotations = [
            _freeze(rotation_from_euler(person.away_yaw_deg, 0.0, 0.0))
            for person in self.persons]
        self.false_positive_classes = sorted(
            {obj.class_label for obj in self.world_objects}) or ["clutter"]

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

    def estimated_pose(self, frame_idx: int) -> RigidPose:
        """The true pose itself before drift starts, then the estimate."""
        if self.drift is None or frame_idx < self.drift.start_frame:
            return self.trajectory[frame_idx]
        j = frame_idx - self.drift.start_frame
        return _trusted(RigidPose, rotation=self.estimate_rot[j],
                        translation=self.estimate_t[j])

    def attending_gt(self, person_idx: int, frame_idx: int) -> bool:
        t = frame_idx / self.fps
        return any(t0 <= t < t1
                   for t0, t1 in self.persons[person_idx].attention_windows)


def _jittered_boxes(boxes: np.ndarray, rng, sigma: float,
                    dropout_prob: float):
    """`boxes` (n, 4) plus their jitter, and whether each is dropped. The
    draws are made per box in turn, in one stream: four jitter draws of sd
    `sigma` (a throwaway draw of sd 1 when it is 0, to keep the stream
    position fixed), then the dropout draw. Then every box is jittered in
    one pass."""
    draws = np.empty_like(boxes)
    dropped = []
    for row in range(len(boxes)):
        draws[row] = rng.normal(0.0, sigma or 1.0, 4)
        # uniform() is 0 + 1 * random(): the same draw, at a third the cost
        dropped.append(rng.random() < dropout_prob)
    if sigma > 0:
        # a far head's ±inf box plus an overflowed ∓inf draw gives NaN,
        # which Detection2D rejects
        with np.errstate(over="ignore", invalid="ignore"):
            boxes = boxes + draws
    return boxes, dropped


def _clamped_boxes(boxes: np.ndarray, width: int, height: int) -> list:
    """Each row (x0, y0, x1, y1) of `boxes` (n, 4) ordered and moved into
    the image, at least 1 px a side where the image has it: rows of Python
    floats. Each bound is the builtins' `min(max(x0, 0), max(width - 2, 0))`
    and `min(max(x1, x0 + 1.0), width)` after `sorted((x0, x1))`, bit for
    bit: numpy's minimum and maximum return their second argument on a tie,
    so that argument is the one the builtins keep, and a signed zero keeps
    its sign. A NaN coordinate leaves NaN in its axis, which Detection2D
    rejects."""
    first, last = boxes[:, :2], boxes[:, 2:]
    lo = np.minimum(last, first)
    np.maximum(0.0, lo, out=lo)
    np.minimum((max(width - 2, 0), max(height - 2, 0)), lo, out=lo)
    hi = np.maximum(first, last)
    np.maximum(lo + 1.0, hi, out=hi)
    np.minimum((width, height), hi, out=hi)
    return np.concatenate([lo, hi], axis=1).tolist()


# the depth splat's scratch arrays, one set per process (per scenario, they
# would cost 1-2 MB each): reused, they are not faulted in afresh each frame
_SCRATCH = {}
# (scenario, true pose, view) of the last frame whose successor holds the
# very same pose object, or None: a held camera renders once
_held = None


def _scratch(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """The first `size` items of a reused 1-D buffer, grown on demand."""
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < size:
        buf = _SCRATCH[name] = np.empty(size, dtype)
    return buf[:size]


@dataclass
class _View:
    """What a frame's true pose shows before any per-frame draw."""
    depth: DepthImage  # the frozen z-buffer
    # (n, 4) pre-jitter boxes (x0, y0, x1, y1): the pixel hull of each
    # detectable object in object order, then the head box of each person
    # in range; per row of them, its (class label, kind, provenance)
    boxes: np.ndarray
    sources: list
    persons: list  # (person index, head centre in camera) per person in range
    # (person index, attending) -> in-image model landmarks, or None if
    # the face is behind the camera or leaves the image; filled on first use
    faces: dict = field(default_factory=dict)


def _render(scenario: Scenario, frame_idx: int) -> _View:
    """The view of a frame's true pose, through its inverse: Rᵀ, and the
    -Rᵀt derived at load. It draws only the depth noise, so without that
    noise it is the same for every frame of one pose."""
    k = scenario.intrinsics
    width, height = k.width, k.height
    to_cam = _trusted(RigidPose, translation=scenario.camera_t[frame_idx],
                      rotation=scenario.trajectory[frame_idx].rotation.T)
    noise = scenario.noise

    # every object's samples in one pass: u and v of every sample (garbage
    # behind the camera), then one compaction to the visible, in-image
    # samples, which keeps them in object order. x, y and z are
    # to_cam.transform(samples) bit for bit, as contiguous rows: R @ samplesᵀ
    # is the wide (3, 3) @ (3, N) product, which BLAS runs several times
    # faster than the thin (N, 3) @ (3, 3) one, on a view of the samples
    x, y, z = np.add(to_cam.rotation @ scenario.samples.T,
                     to_cam.translation[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = k.cx + k.fx * x / z
        v = k.cy + k.fy * y / z
    keep = (z > NEAR_PLANE) & (z <= scenario.max_range)
    keep &= u >= 0
    keep &= u < width
    keep &= v >= 0
    keep &= v < height
    kept = np.flatnonzero(keep)
    u, v, d = u[kept], v[kept], z[kept]
    # depth comes from geometry regardless of detection dropout
    if noise.depth_noise_m > 0:
        rng_depth = np.random.default_rng([scenario.seed, 3, frame_idx])
        d = np.maximum(d + rng_depth.normal(0.0, noise.depth_noise_m, d.size),
                       0.01)

    # per object seen: its segment of the arrays above, its median depth
    # (np.median's rule: the mean of the two middle values for an even
    # count), footprint and pixel hull. The medians come from one row per
    # object, padded with inf and sorted row by row
    counts = np.add.reduceat(keep, scenario.sample_starts, dtype=np.intp)
    seen = np.flatnonzero(counts)
    seen_counts = counts[seen]
    starts = np.cumsum(seen_counts) - seen_counts
    grid = np.full((len(seen), seen_counts.max(initial=0)), np.inf)
    grid[np.arange(grid.shape[1]) < seen_counts[:, None]] = d
    grid.sort(axis=1)
    objs = np.arange(len(seen))
    median = (grid[objs, (seen_counts - 1) // 2]
              + grid[objs, seen_counts // 2]) / 2
    fpx = np.clip(np.ceil(k.fx * scenario.sample_spacing[seen] / median),
                  1, MAX_FOOTPRINT_PX).astype(np.intp)
    u_min, v_min = np.minimum.reduceat(u, starts), np.minimum.reduceat(v, starts)
    u_max, v_max = np.maximum.reduceat(u, starts), np.maximum.reduceat(v, starts)

    # z-buffer with its far plane at the background: an exact scatter-min
    # (np.minimum.at) over the footprint pixels of every sample, one call
    # per footprint, with samples along the last axis so numpy's inner loops
    # are long. A sample covers the f x f window at offsets -f//2 ..
    # f-1-f//2 about its pixel. When some object's pixel hull comes within
    # its window of an image edge, the splat goes to a reused buffer with a
    # guard band that no window leaves, and is cropped out; no index needs a
    # mask. min is exact and order-free, so the grouping changes no bit
    half = fpx // 2
    pad = MAX_FOOTPRINT_PX // 2 if np.any(
        (u_min.astype(np.intp) < half) | (v_min.astype(np.intp) < half)
        | (u_max.astype(np.intp) + fpx - half > width)
        | (v_max.astype(np.intp) + fpx - half > height)) else 0
    stride = width + 2 * pad
    flat = (_scratch("zbuf", (height + 2 * pad) * stride) if pad
            else np.empty(height * width))
    flat.fill(scenario.background_depth or np.inf)
    pixels = (v.astype(np.intp) + pad) * stride + u.astype(np.intp) + pad
    footprint = np.repeat(fpx, seen_counts)
    for f in np.unique(fpx).tolist():
        sel = footprint == f
        offsets = np.arange(f) - f // 2
        window = (offsets[:, None] * stride + offsets).ravel()
        group = pixels[sel]
        index = _scratch("index", f * f * group.size, np.intp)
        depth = _scratch("depth", index.size)
        np.add(window[:, None], group, out=index.reshape(f * f, -1))
        depth.reshape(f * f, -1)[...] = d[sel]
        # index and values 1-D and of one length: numpy 2.4.6 gives wrong
        # minima for a 2-D index with values broadcast along its rows
        np.minimum.at(flat, index, depth)
    zbuf = flat.reshape(-1, stride)
    if pad:
        zbuf = zbuf[pad:-pad, pad:-pad].copy()
    if scenario.background_depth == 0:
        zbuf[np.isinf(zbuf)] = 0.0  # no sample, no background: invalid

    detectable = seen_counts >= MIN_VISIBLE_SAMPLES
    hulls = np.stack([u_min - 0.5, v_min - 0.5, u_max + 0.5, v_max + 0.5],
                     axis=1)[detectable]
    sources = [(scenario.world_objects[oi].class_label, KIND_OBJECT,
                ("object", oi)) for oi in seen[detectable].tolist()]

    persons = []
    heads = []
    # a head far off the axis projects its box to ±inf px, which the clamp
    # takes
    with np.errstate(over="ignore"):
        for pi, person in enumerate(scenario.persons):
            head_cam = to_cam.transform(
                np.asarray(person.position, dtype=np.float64))
            if not (NEAR_PLANE < head_cam[2] <= scenario.max_range):
                continue
            cam = to_cam.transform(np.asarray(person.position) + _HEAD_BOX)
            zc = np.maximum(cam[:, 2], NEAR_PLANE)
            u = k.cx + k.fx * cam[:, 0] / zc
            v = k.cy + k.fy * cam[:, 1] / zc
            persons.append((pi, head_cam))
            heads.append((u.min(), v.min(), u.max(), v.max()))
            sources.append(("person", KIND_PERSON, ("person", pi)))
    boxes = np.concatenate([hulls, heads]) if heads else hulls
    return _View(_trusted(DepthImage, data=zbuf), boxes, sources, persons)


def _face(scenario: Scenario, pi: int, head_cam, attending: bool):
    """Person `pi`'s model landmarks in the image, or None if the face is
    behind the camera or leaves the image."""
    k = scenario.intrinsics
    head_rot = np.eye(3) if attending else scenario.away_rotations[pi]
    # a head far off the axis projects to ±inf px, which the in-image
    # test takes
    with np.errstate(over="ignore"):
        try:
            lmks = project_model(FaceModel3D.default(), head_rot, head_cam, k)
        except PointBehindCamera:
            return None
    inside = all(0 <= uu < k.width and 0 <= vv < k.height
                 for uu, vv in lmks.values())
    return lmks if inside else None


def synthesize_frame_data(scenario: Scenario, frame_idx: int) -> tuple:
    """One frame as the pipeline takes it, and its ground truth:
    (FrameInput, provenance), provenance being ("object"|"person"|"fp",
    index) per detection. Faces are in person order, each with its person
    index as `face_id`; a "true" correction hands over the trajectory's own
    poses of keyframes 0..frame. The view of the true pose (`_render`) is
    reused while consecutive frames hold the very same pose object and the
    depth has no noise, so such frames share one read-only DepthImage; the
    detection, landmark and false-positive draws are made every frame.
    Nothing in the frame aliases the splat's scratch buffers, so it stays
    valid after later calls; the function itself is not reentrant (one set
    of buffers and one held view per process)."""
    global _held
    if not 0 <= frame_idx < scenario.num_frames:
        raise FrameOutOfRange(f"frame {frame_idx} of {scenario.num_frames}")
    # identity, not equality: a segment repeats one pose object, and two
    # equal poses may differ in their signed zeros
    pose = scenario.trajectory[frame_idx]
    held = _held
    view = (held[2] if held is not None and held[0] is scenario
            and held[1] is pose else _render(scenario, frame_idx))
    nxt = frame_idx + 1
    _held = (scenario, pose, view) if (
        scenario.noise.depth_noise_m == 0 and nxt < scenario.num_frames
        and scenario.trajectory[nxt] is pose) else None

    k = scenario.intrinsics
    width, height = k.width, k.height
    noise = scenario.noise
    # seeding a generator costs more than most draws: the false positive
    # and landmark generators are made only when their noise is on
    rng_det = np.random.default_rng([scenario.seed, 2, frame_idx])
    boxes, dropped = _jittered_boxes(view.boxes, rng_det,
                                     noise.bbox_jitter_px, noise.dropout_prob)
    classes = []  # per false positive
    if noise.false_positive_rate > 0:
        rng_fp = np.random.default_rng([scenario.seed, 4, frame_idx])
        n_fp = int(rng_fp.poisson(noise.false_positive_rate))
        class_pool = scenario.false_positive_classes
        corners = []
        for _ in range(n_fp):
            classes.append(class_pool[int(rng_fp.integers(len(class_pool)))])
            cx_, cy_ = rng_fp.uniform(0, width), rng_fp.uniform(0, height)
            w, h = rng_fp.uniform(10, 80), rng_fp.uniform(10, 80)
            corners.append((cx_ - w / 2, cy_ - h / 2, cx_ + w / 2,
                            cy_ + h / 2))
        if corners:
            boxes = np.concatenate([boxes, corners])
    # the view's boxes, then the false positives', in one clamp
    boxes = _clamped_boxes(boxes, width, height)
    detections = []
    provenance = []
    for bbox, drop, (label, kind, source) in zip(boxes, dropped,
                                                 view.sources):
        if not drop:
            detections.append(Detection2D(bbox, label, score=1.0, kind=kind))
            provenance.append(source)
    for j, (cls, bbox) in enumerate(zip(classes, boxes[len(dropped):])):
        detections.append(Detection2D(bbox, cls, score=0.3, kind=KIND_OBJECT))
        provenance.append(("fp", j))

    jitter = noise.landmark_jitter_px
    rng_lmk = (np.random.default_rng([scenario.seed, 5, frame_idx])
               if jitter > 0 else None)
    faces = []
    for pi, head_cam in view.persons:
        key = (pi, scenario.attending_gt(pi, frame_idx))
        if key not in view.faces:
            view.faces[key] = _face(scenario, pi, head_cam, key[1])
        lmks = view.faces[key]
        if lmks is None:
            continue
        if jitter > 0:
            # one draw per face: the same stream as a u and a v draw per
            # landmark in turn
            du = rng_lmk.normal(0, jitter, 2 * len(lmks)).tolist()
            lmks = {n: (uu + du[2 * i], vv + du[2 * i + 1])
                    for i, (n, (uu, vv)) in enumerate(lmks.items())}
        faces.append(LandmarkSet2D(lmks, face_id=pi))

    corrections = [list(enumerate(scenario.trajectory[:frame_idx + 1]))
                   if ev.poses == "true" else sorted(ev.poses.items())
                   for ev in scenario.corrections_at.get(frame_idx, ())]
    return FrameInput(frame_idx, frame_idx / scenario.fps, detections,
                      view.depth, scenario.estimated_pose(frame_idx), faces,
                      corrections), provenance


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
    match_radius_m: float

    def to_dict(self) -> dict:
        return asdict(self)


def compute_map_metrics(scenario: Scenario, registry: SemanticMap,
                        trigger_events: list) -> MetricsReport:
    """Greedy class-gated centroid matching of registered objects to ground
    truth within MATCH_RADIUS_M; a registered object whose only nearby
    ground truth is already claimed counts as a duplicate."""
    gt = [(o.class_label, np.asarray(o.centroid, dtype=np.float64))
          for o in scenario.world_objects]
    claimed = [False] * len(gt)
    matched_sq = []
    duplicates = 0
    for _, obj in sorted(registry.objects.items()):
        centroid = obj.centroid
        cands = sorted(
            (d, gi) for gi, (cls, c) in enumerate(gt) if cls == obj.class_label
            and (d := float(np.linalg.norm(centroid - c))) <= MATCH_RADIUS_M)
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
        match_radius_m=MATCH_RADIUS_M,
    )


def run_scenario_detailed(scenario: Scenario,
                          config: PipelineConfig | None = None):
    """Stream every frame of the frame source through a Pipeline; returns
    (SemanticMap, MetricsReport, event rows). Each frame is synthesized as
    its step takes it, so one frame is alive at a time."""
    pipeline = Pipeline(scenario.intrinsics, config)
    events = [pipeline.step(synthesize_frame_data(scenario, i)[0])
              for i in range(scenario.num_frames)]
    triggers = []
    for row in events:
        person = {p["track"]: p["person"] for p in row["persons"]}
        triggers += [{"t": row["t"], "track_id": pid,
                      "person_index": person.get(pid)}
                     for pid in row["triggers"]]
    metrics = compute_map_metrics(scenario, pipeline.registry, triggers)
    return pipeline.registry, metrics, events
