import numpy as np
import pytest

from semmap.geometry import CameraIntrinsics, RigidPose
from semmap.headpose import rodrigues


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                            width=640, height=480)


def random_pose(rng, trans_scale=2.0) -> RigidPose:
    return RigidPose(rodrigues(rng.normal(0.0, 1.0, 3)),
                     rng.normal(0.0, trans_scale, 3))


def brute_force_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    d_ab = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)).min(1)
    d_ba = np.sqrt(((b[:, None, :] - a[None, :, :]) ** 2).sum(-1)).min(1)
    return 0.5 * (float(np.mean(d_ab)) + float(np.mean(d_ba)))


def brute_force_overlap(a: np.ndarray, b: np.ndarray, radius: float) -> float:
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    d2 = ((small[:, None, :] - large[None, :, :]) ** 2).sum(-1)
    return int((d2 <= radius * radius).any(1).sum()) / len(small)
