"""Pinhole camera model, rigid transforms, and depth-based point cloud extraction.

Conventions:
  - Camera frame: x right, y down, z forward (optical axis).
  - RigidPose maps camera-frame points to world-frame points.
  - Depth value 0 marks an invalid pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Matrix3, Vector3, bound, build, check_bounds
from .errors import (
    EmptyCloud,
    InvalidDepth,
    NonFiniteCloud,
    PixelOutOfBounds,
)

ORTHONORMAL_TOL = 1e-9
# pixels per image side: past the 7,680 px of 8K, the widest video sensors,
# and a float64 depth image 16,384 px square already takes 2 GiB
MAX_IMAGE_SIDE = 16_384


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.flags.writeable:  # setting the flag costs more than reading it
        arr.flags.writeable = False
    return arr


def _trusted(cls, **fields):
    """A `cls` of values derived from checked ones, in their final shape:
    frozen as the public constructor freezes them, and not checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, _freeze(value))
    return obj


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float = bound("(0, inf)")
    fy: float = bound("(0, inf)")
    cx: float  # the principal point lies in the image
    cy: float
    width: int = bound(f"[1, {MAX_IMAGE_SIDE}]")
    height: int = bound(f"[1, {MAX_IMAGE_SIDE}]")

    def __post_init__(self):
        # JSON may give integers; numpy arrays of them are cast at each use
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        check_bounds(self, ValueError)
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @classmethod
    def from_dict(cls, d: dict, error=ValueError) -> "CameraIntrinsics":
        return build(cls, d, error, "intrinsics")

    def check_depth(self, depth: DepthImage):
        """ValueError unless `depth` is (height, width) of this camera."""
        if depth.data.shape != (self.height, self.width):
            raise ValueError(
                f"depth image shape {depth.data.shape} does not match the "
                f"intrinsics' (height, width) {(self.height, self.width)}")


@dataclass(frozen=True)
class RigidPose:
    """Camera-to-world rigid transform."""

    rotation: Matrix3
    translation: Vector3

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(rot)) or not np.all(np.isfinite(t)):
            raise ValueError("pose entries must be finite")
        err = np.abs(rot @ rot.T - np.eye(3)).max()
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"rotation is not orthonormal (error {err:.2e})")
        if np.linalg.det(rot) < 0:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "translation", _freeze(t))

    def __eq__(self, other):  # the generated one asks bool() of an array
        return (isinstance(other, RigidPose)
                and np.array_equal(self.rotation, other.rotation)
                and np.array_equal(self.translation, other.translation))

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidPose") -> "RigidPose":
        """self ∘ other: apply `other` first, then `self`."""
        return RigidPose(self.rotation @ other.rotation,
                         self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidPose":
        rot_inv = self.rotation.T
        return RigidPose(rot_inv, -rot_inv @ self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to one point (3,) or many (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def to_dict(self) -> dict:
        return {
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, error=ValueError) -> "RigidPose":
        return build(cls, d, error, "pose")


@dataclass(frozen=True)
class PointCloud:
    """World-frame points, (N, 3)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel depth in meters; 0 encodes invalid."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2:
            raise ValueError("depth image must be 2D")
        # two reductions, no image-sized temporaries; NaN fails both
        # comparisons. An empty image has no min or max, and nothing to check.
        if d.size and not (d.min() >= 0 and d.max() < np.inf):
            raise ValueError("depth values must be finite and >= 0")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def backproject(u, v, depth, pose: RigidPose, k: CameraIntrinsics):
    """Pixel + depth -> world point."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(depth, dtype=np.float64)
    if (~np.isfinite(d)).any() or (d <= 0).any():
        raise InvalidDepth("depth must be finite and > 0")
    if (u < 0).any() or (u >= k.width).any() or (v < 0).any() \
            or (v >= k.height).any():
        raise PixelOutOfBounds(f"pixel outside {k.width}x{k.height} image")
    return pose.transform(_backproject(u, v, d, k))


def _backproject(u, v, d, k: CameraIntrinsics):
    """Camera-frame points of pixels and depths known to be valid. Each
    column is `(u - cx) * d / fx`, computed in place."""
    cam = np.empty(np.shape(d) + (3,))
    x, y = cam[..., 0], cam[..., 1]
    np.divide(np.multiply(np.subtract(u, k.cx, out=x), d, out=x), k.fx, out=x)
    np.divide(np.multiply(np.subtract(v, k.cy, out=y), d, out=y), k.fy, out=y)
    cam[..., 2] = d
    return cam


def depth_band_halfwidth(bbox_w_px: float, bbox_h_px: float, median_depth: float,
                         k: CameraIntrinsics) -> float:
    """Half-width of the accepted depth band around the median bbox depth."""
    metric_w = bbox_w_px * median_depth / k.fx
    metric_h = bbox_h_px * median_depth / k.fy
    return float(min(max(0.5 * max(metric_w, metric_h), 0.05), 1.0))


def extract_object_cloud(bbox, depth: DepthImage, k: CameraIntrinsics,
                         stride: int) -> np.ndarray:
    """Cut an object's frozen (N, 3) camera-frame points out of a depth image.

    Samples every stride-th pixel inside the bbox, keeps only pixels whose
    depth lies within a band around the median bbox depth (band width scaled
    to the apparent metric size of the box) and back-projects them into the
    camera frame. The samples are read as one strided slice of the image, in
    row-major order.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    k.check_depth(depth)
    x0, y0, x1, y1 = bbox
    u0, u1 = max(0, math.ceil(x0)), min(k.width, math.ceil(x1))
    v0, v1 = max(0, math.ceil(y0)), min(k.height, math.ceil(y1))
    if u0 >= u1 or v0 >= v1:
        raise EmptyCloud("bounding box does not intersect the image")
    patch = depth.data[v0:v1:stride, u0:u1:stride]
    valid = patch > 0
    d = patch[valid]
    if d.size == 0:
        raise EmptyCloud("no valid depth pixels under the bounding box")
    # np.median's value without its per-call overhead: the middle order
    # statistic, or the mean of the two, which np.mean takes as (a + b) / 2
    d.sort()
    half = d.size // 2
    med = float(d[half]) if d.size % 2 else \
        (float(d[half - 1]) + float(d[half])) / 2
    band = depth_band_halfwidth(x1 - x0, y1 - y0, med, k)
    # valid and within the band, as one mask over the patch
    keep = np.abs(patch - med) <= band
    keep &= valid
    rows, cols = np.nonzero(keep)
    if rows.size == 0:
        raise EmptyCloud("median depth band rejected every pixel")
    # valid pixels and depths by construction; huge depths can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        pts = _backproject(u0 + stride * cols, v0 + stride * rows,
                           patch[rows, cols], k)
    if not np.isfinite(pts).all():
        raise NonFiniteCloud("point cloud contains non-finite coordinates")
    return _freeze(pts)


def voxel_downsample(cloud: PointCloud, leaf: float) -> PointCloud:
    """Replace all points in each leaf-sized voxel by their centroid."""
    if leaf <= 0:
        raise ValueError("leaf size must be positive")
    pts = cloud.points
    if len(pts) == 0:
        return cloud
    keys = np.floor(pts / leaf).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    sums = np.zeros((counts.size, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        np.add.at(sums, inverse, pts)
    if not np.isfinite(sums).all():
        raise NonFiniteCloud("voxel centroid sums overflow")
    return PointCloud(sums / counts[:, None])


def write_ply(cloud: PointCloud, path):
    pts = cloud.points
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("end_header\n")
        for x, y, z in pts:
            # repr round-trips float64 exactly in ASCII
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")

