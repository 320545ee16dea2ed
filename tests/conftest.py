import numpy as np
import pytest

from semmap.errors import PointBehindCamera
from semmap.geometry import CameraIntrinsics, RigidPose
from semmap.headpose import rodrigues, skew


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


def _rotation_point_jacobian(w: np.ndarray, rot: np.ndarray,
                             x: np.ndarray) -> np.ndarray:
    """d(R(w) x)/dw, 3x3 (Gallego-Yezzi closed form), one column at a time."""
    theta2 = float(w @ w)
    rx = rot @ x
    if theta2 < 1e-16:
        return -skew(x)
    jac = np.empty((3, 3))
    eye = np.eye(3)
    for i in range(3):
        vi = np.cross(w, (eye - rot) @ eye[:, i])
        jac[:, i] = ((w[i] * skew(w) + skew(vi)) @ rx) / theta2
    return jac


def per_landmark_jacobian(params, model_points, observed, k):
    """Reference for `headpose.residuals_and_jacobian`: one landmark per pass."""
    w = np.asarray(params[:3], dtype=np.float64)
    t = np.asarray(params[3:6], dtype=np.float64)
    rot = rodrigues(w)
    cam = model_points @ rot.T + t
    if np.any(cam[:, 2] <= 1e-9):
        raise PointBehindCamera("model point at non-positive camera depth")
    n = len(model_points)
    res = np.empty(2 * n)
    jac = np.empty((2 * n, 6))
    for i, x in enumerate(model_points):
        px, py, pz = cam[i]
        u = k.cx + k.fx * px / pz
        v = k.cy + k.fy * py / pz
        res[2 * i] = u - observed[i, 0]
        res[2 * i + 1] = v - observed[i, 1]
        du_dp = np.array([k.fx / pz, 0.0, -k.fx * px / (pz * pz)])
        dv_dp = np.array([0.0, k.fy / pz, -k.fy * py / (pz * pz)])
        dp_dw = _rotation_point_jacobian(w, rot, x)
        jac[2 * i, :3] = du_dp @ dp_dw
        jac[2 * i, 3:] = du_dp
        jac[2 * i + 1, :3] = dv_dp @ dp_dw
        jac[2 * i + 1, 3:] = dv_dp
    return res, jac
