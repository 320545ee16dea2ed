"""Pinhole camera model, rigid transforms, and depth-based point cloud extraction.

Conventions:
  - Camera frame: x right, y down, z forward (optical axis).
  - RigidPose maps camera-frame points to world-frame points.
  - Depth value 0 marks an invalid pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import build
from .errors import (
    EmptyCloud,
    FrameMismatch,
    InvalidDepth,
    NonPositiveDepth,
    PixelOutOfBounds,
)

ORTHONORMAL_TOL = 1e-9

WORLD = "world"
KEYFRAME = "keyframe"
CAMERA = "camera"
_FRAMES = (WORLD, KEYFRAME, CAMERA)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        # JSON may give integers; numpy arrays of them are cast at each use
        for name in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    def to_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }

    @classmethod
    def from_dict(cls, d: dict, error=ValueError) -> "CameraIntrinsics":
        return build(cls, d, error, "intrinsics")


@dataclass(frozen=True)
class RigidPose:
    """Camera-to-world rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

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

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidPose") -> "RigidPose":
        """self ∘ other: apply `other` first, then `self`."""
        return RigidPose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

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
    points: np.ndarray
    frame: str = WORLD

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        if self.frame not in _FRAMES:
            raise ValueError(f"unknown frame tag {self.frame!r}")
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return self.points.shape[0]

    def transformed(self, pose: RigidPose, frame: str) -> "PointCloud":
        return PointCloud(pose.transform(self.points), frame)

    def require_frame(self, frame: str):
        if self.frame != frame:
            raise FrameMismatch(f"expected {frame!r} cloud, got {self.frame!r}")


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


def project(point, pose: RigidPose, k: CameraIntrinsics):
    """World point -> (u, v, depth). Raises NonPositiveDepth behind the camera."""
    cam = pose.inverse().transform(np.asarray(point, dtype=np.float64))
    z = cam[..., 2]
    if np.any(z <= 1e-9):
        raise NonPositiveDepth("point is behind or on the camera plane")
    u = k.cx + k.fx * cam[..., 0] / z
    v = k.cy + k.fy * cam[..., 1] / z
    return u, v, z


def backproject(u, v, depth, pose: RigidPose, k: CameraIntrinsics):
    """Pixel + depth -> world point."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(depth, dtype=np.float64)
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise InvalidDepth("depth must be finite and > 0")
    if np.any(u < 0) or np.any(u >= k.width) or np.any(v < 0) or np.any(v >= k.height):
        raise PixelOutOfBounds(f"pixel outside {k.width}x{k.height} image")
    cam = np.stack(
        [(u - k.cx) * d / k.fx, (v - k.cy) * d / k.fy, d], axis=-1
    )
    return pose.transform(cam)


def depth_band_halfwidth(bbox_w_px: float, bbox_h_px: float, median_depth: float,
                         k: CameraIntrinsics) -> float:
    """Half-width of the accepted depth band around the median bbox depth."""
    metric_w = bbox_w_px * median_depth / k.fx
    metric_h = bbox_h_px * median_depth / k.fy
    return float(np.clip(0.5 * max(metric_w, metric_h), 0.05, 1.0))


def extract_object_cloud(bbox, depth: DepthImage, pose: RigidPose,
                         k: CameraIntrinsics, stride: int = 4) -> PointCloud:
    """Cut an object point cloud out of the depth image under a detection bbox.

    Samples every stride-th pixel inside the bbox, keeps only pixels whose
    depth lies within a band around the median bbox depth (band width scaled
    to the apparent metric size of the box) and back-projects them to world.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    x0, y0, x1, y1 = bbox
    xs = np.arange(max(0, int(np.ceil(x0))), min(k.width, int(np.ceil(x1))), stride)
    ys = np.arange(max(0, int(np.ceil(y0))), min(k.height, int(np.ceil(y1))), stride)
    if xs.size == 0 or ys.size == 0:
        raise EmptyCloud("bounding box does not intersect the image")
    uu, vv = np.meshgrid(xs, ys)
    uu = uu.ravel()
    vv = vv.ravel()
    d = depth.data[vv, uu]
    valid = d > 0
    if not np.any(valid):
        raise EmptyCloud("no valid depth pixels under the bounding box")
    uu, vv, d = uu[valid], vv[valid], d[valid]
    med = float(np.median(d))
    band = depth_band_halfwidth(x1 - x0, y1 - y0, med, k)
    keep = np.abs(d - med) <= band
    if not np.any(keep):
        raise EmptyCloud("median depth band rejected every pixel")
    pts = backproject(uu[keep], vv[keep], d[keep], pose, k)
    return PointCloud(pts, WORLD)


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
    np.add.at(sums, inverse, pts)
    return PointCloud(sums / counts[:, None], cloud.frame)


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


def read_ply(path, frame: str = WORLD) -> PointCloud:
    with open(path) as f:
        line = f.readline().strip()
        if line != "ply":
            raise ValueError(f"{path} is not a PLY file")
        n = None
        while True:
            line = f.readline()
            if not line:
                raise ValueError("truncated PLY header")
            line = line.strip()
            if line.startswith("element vertex"):
                n = int(line.split()[-1])
            if line == "end_header":
                break
        if n is None:
            raise ValueError("PLY header lacks a vertex element")
        pts = [
            [float(tok) for tok in f.readline().split()[:3]] for _ in range(n)
        ]
    return PointCloud(np.asarray(pts, dtype=np.float64).reshape(-1, 3), frame)
