"""Head pose from 2D facial landmarks via Levenberg-Marquardt model fitting.

A rigid 3D landmark model (canonical head frame: origin between the eyes,
x right, y down, z forward) is aligned to observed pixel landmarks by
minimizing reprojection error over an axis-angle + translation 6-vector.
Identity rotation corresponds to a head facing the camera.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from numbers import Real

import numpy as np
from numpy.linalg import _umath_linalg

from .config import read_json_object
from .errors import DegenerateConfiguration, NoConvergence, PointBehindCamera
from .geometry import CameraIntrinsics


_EYE3 = np.eye(3)
_EYE6 = np.eye(6)
# -[v]x as a gather from (x, y, z, 0) times a sign per entry; the diagonal
# comes out -0.0, as in -skew(v)
_NEG_SKEW_INDEX = np.array([[3, 2, 1], [2, 3, 0], [1, 0, 3]])
_NEG_SKEW_SIGN = np.array([[-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
                           [1.0, -1.0, -1.0]])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x, batched over the leading axes of v."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def _skew3(v: np.ndarray) -> np.ndarray:
    """[v]x of one 3-vector; the same values as `skew(v)`."""
    x, y, z = v.tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _neg_skew(v: np.ndarray) -> np.ndarray:
    """-skew(v) of an (N, 3) array, signed zeros included."""
    padded = np.zeros((len(v), 4))
    padded[:, :3] = v
    # C order, as -skew(v) has it, so that a matmul on it takes the same path
    return np.multiply(padded[:, _NEG_SKEW_INDEX], _NEG_SKEW_SIGN, order="C")


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector -> rotation matrix."""
    w = np.asarray(w, dtype=np.float64)
    theta = math.sqrt(w @ w)  # np.linalg.norm(w), without its wrapper
    if theta < 1e-12:
        return _EYE3 + _skew3(w)
    kx = _skew3(w / theta)
    return _EYE3 + np.sin(theta) * kx + (1 - np.cos(theta)) * (kx @ kx)


@dataclass(frozen=True)
class FaceModel3D:
    """Named 3D landmark positions in the canonical head frame, meters."""

    names: tuple
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if len(self.names) != len(pts):
            raise ValueError("names and points length mismatch")
        if len(self.names) != len(set(self.names)):
            raise ValueError("landmark names must be unique")
        if len(pts) < 6:
            raise DegenerateConfiguration("face model needs >= 6 landmarks")
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[2] < 1e-3 * sv[0]:
            raise DegenerateConfiguration("face model is coplanar-degenerate")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_dict(cls, d: dict) -> "FaceModel3D":
        names = tuple(d.keys())
        return cls(names, np.array([d[n] for n in names], dtype=np.float64))

    @classmethod
    def from_json(cls, path) -> "FaceModel3D":
        return cls.from_dict(read_json_object(path, ValueError, "face model"))

    @classmethod
    def default(cls) -> "FaceModel3D":
        return cls.from_json(resources.files("semmap.data") / "face_model.json")

    def subset(self, names) -> "FaceModel3D":
        index = {n: i for i, n in enumerate(self.names)}
        missing = [n for n in names if n not in index]
        if missing:
            raise KeyError(f"model lacks landmarks: {missing}")
        return FaceModel3D(tuple(names),
                           self.points[[index[n] for n in names]])


def _pixel(name, uv) -> tuple:
    """(u, v) as two finite floats; ValueError for anything else."""
    try:
        u, v = uv
    except (TypeError, ValueError):
        raise ValueError(
            f"landmark {name!r} is not a (u, v) pair: {uv!r}") from None
    if not all(isinstance(c, Real) and math.isfinite(c) for c in (u, v)):
        raise ValueError(
            f"landmark {name!r} needs two finite numbers, got {uv!r}")
    return float(u), float(v)


@dataclass(frozen=True)
class LandmarkSet2D:
    """Observed pixel landmarks for one face, keyed by model landmark name."""

    landmarks: dict  # name -> (u, v)
    face_id: int | None = None

    def __post_init__(self):
        if not isinstance(self.landmarks, Mapping):
            raise ValueError("landmarks must map names to (u, v) pairs")
        object.__setattr__(
            self,
            "landmarks",
            {n: _pixel(n, uv) for n, uv in self.landmarks.items()},
        )

    def __len__(self) -> int:
        return len(self.landmarks)

    def array_for(self, names) -> np.ndarray:
        return np.array([self.landmarks[n] for n in names], dtype=np.float64)


@dataclass(frozen=True)
class HeadPose:
    rotation: np.ndarray  # model-to-camera
    translation: np.ndarray
    yaw: float
    pitch: float
    roll: float
    rms_residual: float
    # the solver's axis-angle rotation, so a later solve can start from
    # (axis_angle, translation) without a log map
    axis_angle: np.ndarray | None = None


def _residuals(params: np.ndarray, model_points: np.ndarray,
               observed: np.ndarray, focal: np.ndarray, center: np.ndarray):
    """Reprojection residuals (2N,) and the terms `_jacobian` reuses.

    `params` is a float64 6-vector; `focal` is (fx, fy) and `center` is
    (cx, cy). Returns (res, (w, rot, rx, cam)); raises PointBehindCamera
    when a model point lies at non-positive camera depth.
    """
    w = params[:3]
    rot = rodrigues(w)
    rx = model_points @ rot.T
    cam = rx + params[3:]
    depth = cam[:, 2:]
    if depth.min() <= 1e-9:
        raise PointBehindCamera("model point at non-positive camera depth")
    # (c + f p / z) - observed: this order keeps the shipped outputs' bits
    uv = center + focal * cam[:, :2] / depth
    return (uv - observed).ravel(), (w, rot, rx, cam)


def _jacobian(model_points: np.ndarray, focal: np.ndarray, w: np.ndarray,
              rot: np.ndarray, rx: np.ndarray, cam: np.ndarray) -> np.ndarray:
    """Analytic Jacobian (2N, 6) of `_residuals` at the point it evaluated."""
    n = len(cam)
    depth = cam[:, 2:]
    jac = np.zeros((n, 2, 6))
    # d(u, v)/d(camera point), one 2x3 block per landmark, which is also
    # the translation block. Of a landmark's 12 entries, f/z sits at 3 and
    # 10 and -f p/z^2 at 5 and 11; 4 and 9 stay zero.
    flat = jac.reshape(n, 12)
    flat[:, 3::7] = focal / depth
    flat[:, 5::6] = -focal * cam[:, :2] / (depth * depth)
    # d(R x)/dw in Gallego-Yezzi matrix form (arXiv 1312.0788):
    # -[R x]x (w w^T + [w]x (I - R)) / theta^2, and -[x]x near w = 0.
    # For an exact R this equals -R [x]x (w w^T + (R^T - I)[w]x) / theta^2;
    # with a rounded R that form drifts ~1e-10 relative at |w| = 1e-7.
    theta2 = float(w @ w)
    if theta2 < 1e-16:
        dp_dw = _neg_skew(model_points)
    else:
        m = (w[:, None] * w + _skew3(w) @ (_EYE3 - rot)) / theta2
        dp_dw = _neg_skew(rx) @ m
    jac[:, :, :3] = jac[:, :, 3:] @ dp_dw
    return jac.reshape(2 * n, 6)


def residuals_and_jacobian(params: np.ndarray, model_points: np.ndarray,
                           observed: np.ndarray, k: CameraIntrinsics):
    """Reprojection residuals (2N,) and analytic Jacobian (2N, 6).

    params = [axis-angle rotation (3), translation (3)], model-to-camera.
    Residual ordering: (u_i - u_obs_i, v_i - v_obs_i) per landmark.
    """
    focal = np.array([k.fx, k.fy])
    res, terms = _residuals(np.asarray(params, dtype=np.float64),
                            model_points, observed, focal,
                            np.array([k.cx, k.cy]))
    return res, _jacobian(model_points, focal, *terms)


def _initial_params(model: FaceModel3D, obs: LandmarkSet2D,
                    k: CameraIntrinsics) -> np.ndarray:
    """Frontal rotation; depth from the interocular scale when available."""
    z0 = 1.0
    eye_names = [n for n in model.names if "eye" in n]
    if len(eye_names) >= 2 and all(n in obs.landmarks for n in eye_names[:2]):
        a, b = eye_names[:2]
        d = (model.points[model.names.index(a)]
             - model.points[model.names.index(b)])
        model_d = math.sqrt(d @ d)
        d = np.subtract(obs.landmarks[a], obs.landmarks[b])
        pix_d = math.sqrt(d @ d)
        if pix_d > 1e-6:
            z0 = min(max(k.fx * model_d / pix_d, 0.05), 50.0)
    uv = obs.array_for(model.names)
    tx = (uv[:, 0].mean() - k.cx) * z0 / k.fx
    ty = (uv[:, 1].mean() - k.cy) * z0 / k.fy
    return np.array([0.0, 0.0, 0.0, tx, ty, z0])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.solve(a, b)` for one float64 system and a 1-D `b`.

    The same LAPACK gesv call, without the wrapper's checks and casts. A
    singular `a` gives NaN, with no exception and no warning.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve1(a, b)


def _lm_minimize(params, points, observed, focal, center, lambda_init,
                 step_tol, cost_tol, max_iterations):
    """One damped Gauss-Newton descent; returns (params, cost).

    Damping exhaustion (a stall) terminates the descent; only a singular
    system that damping cannot regularize raises. The Jacobian is built
    only at accepted points that the descent goes on from. A first step
    shorter than `step_tol` means the start is already a minimum: the
    descent stops there, without a trial.
    """
    res, terms = _residuals(params, points, observed, focal, center)
    cost = float(res @ res)
    lam = lambda_init
    for iteration in range(max_iterations):
        if terms is not None:  # a new point: build its normal equations
            jac = _jacobian(points, focal, *terms)
            jtj = jac.T @ jac
            neg_jtr = -(jac.T @ res)
            terms = None
        while lam <= 1e12:
            step = _solve(jtj + lam * _EYE6, neg_jtr)
            if np.isfinite(step).all():
                break
            lam *= 10.0
        else:
            raise DegenerateConfiguration(
                "normal equations singular beyond damping rescue")
        if iteration == 0 and math.sqrt(step @ step) < step_tol:
            break
        trial = params + step
        try:
            trial_res, trial_terms = _residuals(trial, points, observed,
                                                focal, center)
            trial_cost = float(trial_res @ trial_res)
        except PointBehindCamera:
            trial_cost = math.inf
        if trial_cost < cost:
            decrease = cost - trial_cost
            params, cost = trial, trial_cost
            res, terms = trial_res, trial_terms
            lam = max(lam / 10.0, 1e-12)
            if math.sqrt(step @ step) < step_tol or decrease < cost_tol:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break  # stalled; caller judges the residual
    return params, cost


def _checked_init(init) -> np.ndarray:
    """A caller's start as a fresh float64 6-vector; ValueError for anything
    but six finite numbers."""
    try:
        params = np.array(init, dtype=np.float64)
    except (TypeError, ValueError):
        params = np.empty(0)
    if params.shape != (6,) or not np.isfinite(params).all():
        raise ValueError(f"init must be six finite numbers, got {init!r}")
    return params


def lm_solve_pose(obs: LandmarkSet2D, model: FaceModel3D, k: CameraIntrinsics,
                  init: np.ndarray | None = None, lambda_init: float = 1e-3,
                  step_tol: float = 1e-8, cost_tol: float = 1e-12,
                  max_iterations: int = 100,
                  accept_rms: float = 100.0) -> HeadPose:
    """Fit the model pose by damped Gauss-Newton on reprojection error.

    `init`, six finite numbers (axis-angle rotation, translation), replaces
    the frontal start and turns off the restarts. A pose's own
    `(axis_angle, translation)` is such a start.
    """
    names = tuple(n for n in model.names if n in obs.landmarks)
    if len(names) < 6:
        raise DegenerateConfiguration(
            f"need >= 6 aligned landmarks, got {len(names)}")
    sub = model if len(names) == len(model.names) else model.subset(names)
    observed = obs.array_for(names)
    params0 = _checked_init(init) if init is not None \
        else _initial_params(sub, obs, k)
    focal = np.array([k.fx, k.fy])
    center = np.array([k.cx, k.cy])
    params, cost = _lm_minimize(params0, sub.points, observed, focal, center,
                                lambda_init, step_tol, cost_tol,
                                max_iterations)
    if init is None and math.sqrt(cost / len(names)) > 3.0:
        for start in _RESTART_STARTS:
            alt = params0.copy()
            alt[:3] = start
            try:
                cand, cand_cost = _lm_minimize(alt, sub.points, observed,
                                               focal, center, lambda_init,
                                               step_tol, cost_tol,
                                               max_iterations)
            except PointBehindCamera:
                continue  # this start is infeasible: its cost is inf
            if cand_cost < cost:
                params, cost = cand, cand_cost
            if math.sqrt(cost / len(names)) <= 3.0:
                break
    rms = math.sqrt(cost / len(names))
    if rms > accept_rms:
        raise NoConvergence(f"rms {rms:.2f} px above accept bound {accept_rms}")
    rot = rodrigues(params[:3])
    yaw, pitch, roll = euler_from_rotation(rot)
    return HeadPose(rot, params[3:6].copy(), yaw, pitch, roll, rms,
                    params[:3].copy())


def rotation_from_euler(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """R = Ry(yaw) Rx(pitch) Rz(roll), angles in degrees."""
    a, b, c = np.radians([yaw, pitch, roll])
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    ry = np.array([[ca, 0, sa], [0, 1, 0], [-sa, 0, ca]])
    rx = np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return ry @ rx @ rz


def _axis_angle_start(yaw: float, pitch: float) -> np.ndarray:
    """Axis-angle 3-vector of `rotation_from_euler(yaw, pitch, 0)`."""
    rot = rotation_from_euler(yaw, pitch, 0.0)
    theta = np.arccos(np.clip((np.trace(rot) - 1) / 2, -1.0, 1.0))
    axis = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0],
                     rot[1, 0] - rot[0, 1]])
    norm = np.linalg.norm(axis)
    return theta * axis / norm if norm > 1e-12 else np.zeros(3)


# deterministic restart rotations (yaw, pitch), as axis-angle starts, tried
# when the first descent lands in a poor local minimum
_RESTART_STARTS = tuple(_axis_angle_start(yaw, pitch) for yaw, pitch in (
    (40.0, 0.0), (-40.0, 0.0), (0.0, 30.0), (0.0, -30.0),
    (40.0, -30.0), (-40.0, 30.0), (80.0, 0.0), (-80.0, 0.0),
))


def euler_from_rotation(rot: np.ndarray):
    """Decompose R = Ry(yaw) Rx(pitch) Rz(roll); degrees.

    yaw in (-180, 180], pitch in [-90, 90], roll in (-180, 180].
    At gimbal lock (|pitch| = 90) roll is fixed to 0 by convention.
    """
    rot = np.asarray(rot, dtype=np.float64)
    sb = -rot[1, 2]
    sb = float(np.clip(sb, -1.0, 1.0))
    pitch = np.degrees(np.arcsin(sb))
    cb = np.sqrt(max(0.0, 1.0 - sb * sb))
    if cb < 1e-12:
        roll = 0.0
        if sb > 0:
            yaw = np.degrees(np.arctan2(rot[0, 1], rot[0, 0]))
        else:
            yaw = np.degrees(np.arctan2(-rot[0, 1], rot[0, 0]))
    else:
        yaw = np.degrees(np.arctan2(rot[0, 2], rot[2, 2]))
        roll = np.degrees(np.arctan2(rot[1, 0], rot[1, 1]))
    if yaw <= -180.0:
        yaw += 360.0
    if roll <= -180.0:
        roll += 360.0
    return float(yaw), float(pitch), float(roll)


def is_attending(pose: HeadPose, cone_deg: float = 15.0) -> bool:
    """Facing test: combined yaw/pitch deviation inside the cone; roll ignored."""
    return float(np.hypot(pose.yaw, pose.pitch)) <= cone_deg


def project_model(model: FaceModel3D, rotation: np.ndarray,
                  translation: np.ndarray, k: CameraIntrinsics) -> dict:
    """Pixel positions of all model landmarks under a model-to-camera pose."""
    cam = model.points @ np.asarray(rotation).T + np.asarray(translation)
    if np.any(cam[:, 2] <= 1e-9):
        raise PointBehindCamera("model point at non-positive camera depth")
    u = k.cx + k.fx * cam[:, 0] / cam[:, 2]
    v = k.cy + k.fy * cam[:, 1] / cam[:, 2]
    return {n: (float(u[i]), float(v[i])) for i, n in enumerate(model.names)}
