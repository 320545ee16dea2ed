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
# [v]x and -[v]x as gathers from (x, y, z, 0, -x, -y, -z, -0): every entry
# is v's component, its negation or a zero of the sign a negation leaves
_SKEW_INDEX = np.array([3, 6, 1, 2, 3, 4, 5, 0, 3])
_NEG_SKEW_INDEX = np.array([7, 2, 5, 6, 7, 0, 1, 4, 7])


def _skew_gather(v: np.ndarray, index: np.ndarray) -> np.ndarray:
    """[v]x or -[v]x, by index, as C-order (..., 3, 3) matrices."""
    signed = np.zeros(v.shape[:-1] + (8,))
    signed[..., :3] = v
    np.negative(signed[..., :4], out=signed[..., 4:])
    return signed.take(index, axis=-1).reshape(v.shape[:-1] + (3, 3))


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x, batched over the leading axes of v."""
    return _skew_gather(np.asarray(v, dtype=np.float64), _SKEW_INDEX)


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """v @ v of each row of a 2-D array, shaped (B, 1, 1). A stacked
    (1, n) @ (n, 1) matmul is the same dot per row as `v @ v` of one row;
    einsum is not."""
    return v[:, None, :] @ v[:, :, None]


def _least(values: np.ndarray) -> float:
    """The least of a few values; faster than a numpy reduction."""
    return min(values.ravel().tolist())


def _take(index, *arrays) -> list:
    """Rows `index` of each array; faster than indexing with a list."""
    index = np.array(index, dtype=np.intp)
    return [x.take(index, axis=0) for x in arrays]


def _rodrigues(w: np.ndarray):
    """Rotation matrices (B, 3, 3) of a (B, 3) stack of axis-angle vectors,
    and w @ w per row, shaped (B, 1, 1)."""
    theta2 = _sq_norms(w)
    theta = np.sqrt(theta2)
    any_small = _least(theta) < 1e-12
    if any_small:
        small = theta < 1e-12
        theta = np.where(small, 1.0, theta)
    kx = _skew_gather(w / theta[:, 0], _SKEW_INDEX)
    rot = _EYE3 + np.sin(theta) * kx + (1 - np.cos(theta)) * (kx @ kx)
    if any_small:
        rot = np.where(small, _EYE3 + _skew_gather(w, _SKEW_INDEX), rot)
    return rot, theta2


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector -> rotation matrix."""
    return _rodrigues(np.asarray(w, dtype=np.float64).reshape(1, 3))[0][0]


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
    """Reprojection residuals of a stack of poses, one face per row.

    `params` is a (B, 6) float64 stack and `observed` (B, N, 2); `focal`
    is (fx, fy) and `center` is (cx, cy). Returns the residuals (B, 2N)
    and the terms (w, w @ w, rot, rx, cam) that `_jacobian` reuses. A row
    that puts a model point at non-positive camera depth has inf
    residuals, so its cost is inf.
    """
    w = params[:, :3]
    rot, theta2 = _rodrigues(w)
    rx = model_points @ rot.transpose(0, 2, 1)
    cam = rx + params[:, None, 3:]
    depth = cam[..., 2:]
    behind = None
    if _least(depth) <= 1e-9:
        behind = depth.min(axis=1) <= 1e-9  # (B, 1)
        depth = np.where(behind[:, None], 1.0, depth)
    # (c + f p / z) - observed: this order keeps the shipped outputs' bits
    res = (center + focal * cam[..., :2] / depth - observed).reshape(
        len(params), -1)
    if behind is not None:
        res[behind[:, 0]] = math.inf
    return res, (w, theta2, rot, rx, cam)


def _jacobian(model_points: np.ndarray, focal: np.ndarray, w: np.ndarray,
              theta2: np.ndarray, rot: np.ndarray, rx: np.ndarray,
              cam: np.ndarray) -> np.ndarray:
    """Analytic Jacobians (B, 2N, 6) of `_residuals` at the rows it
    evaluated."""
    b, n = cam.shape[:2]
    depth = cam[..., 2:]
    jac = np.zeros((b, n, 2, 6))
    # d(u, v)/d(camera point), one 2x3 block per landmark, which is also
    # the translation block. Of a landmark's 12 entries, f/z sits at 3 and
    # 10 and -f p/z^2 at 5 and 11; 4 and 9 stay zero.
    flat = jac.reshape(b, n, 12)
    np.divide(focal, depth, out=flat[..., 3::7])
    np.divide(-focal * cam[..., :2], depth * depth, out=flat[..., 5::6])
    # d(R x)/dw in Gallego-Yezzi matrix form (arXiv 1312.0788):
    # -[R x]x (w w^T + [w]x (I - R)) / theta^2, and -[x]x near w = 0.
    # For an exact R this equals -R [x]x (w w^T + (R^T - I)[w]x) / theta^2;
    # with a rounded R that form drifts ~1e-10 relative at |w| = 1e-7.
    any_small = _least(theta2) < 1e-16
    if any_small:
        small = theta2 < 1e-16
        theta2 = np.where(small, 1.0, theta2)
    m = (w[:, :, None] * w[:, None, :]
         + _skew_gather(w, _SKEW_INDEX) @ (_EYE3 - rot)) / theta2
    dp_dw = _skew_gather(rx, _NEG_SKEW_INDEX) @ m[:, None]
    if any_small:
        dp_dw = np.where(small[:, None],
                         _skew_gather(model_points, _NEG_SKEW_INDEX), dp_dw)
    np.matmul(jac[..., 3:], dp_dw, out=jac[..., :3])
    return jac.reshape(b, 2 * n, 6)


def _normal_equations(model_points, focal, res, *terms):
    """(JᵀJ, -Jᵀr) per row, at the rows `_residuals` evaluated."""
    jac = _jacobian(model_points, focal, *terms)
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, -(jac_t @ res[:, :, None])[..., 0]


def residuals_and_jacobian(params: np.ndarray, model_points: np.ndarray,
                           observed: np.ndarray, k: CameraIntrinsics):
    """Reprojection residuals (2N,) and analytic Jacobian (2N, 6) of one
    face.

    params = [axis-angle rotation (3), translation (3)], model-to-camera.
    Residual ordering: (u_i - u_obs_i, v_i - v_obs_i) per landmark.
    """
    focal = np.array([k.fx, k.fy])
    res, terms = _residuals(np.asarray(params, dtype=np.float64).reshape(1, 6),
                            model_points, observed, focal,
                            np.array([k.cx, k.cy]))
    if terms[-1][0, :, 2].min() <= 1e-9:
        raise PointBehindCamera("model point at non-positive camera depth")
    return res[0], _jacobian(model_points, focal, *terms)[0]


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
    """`np.linalg.solve(a, b)` for float64 systems, one or a stack, each
    with a 1-D `b`.

    The same LAPACK gesv call per system, without the wrapper's checks and
    casts. A singular system gives NaN, with no exception and no warning.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve1(a, b)


def _lm_minimize(params, points, observed, focal, center, lambda_init,
                 step_tol, cost_tol, max_iterations):
    """Damped Gauss-Newton descents from a (B, 6) stack of starts, row i
    fitting `observed[i]`; returns (params, rotations, cost, errors), one
    per row, the rotations being those of `params`.

    Each row keeps its own damping, cost and stop tests, in Python floats
    as a descent of that row alone would, so it takes the same steps. A
    row whose start puts a model point behind the camera ends in
    PointBehindCamera, and one whose normal equations damping cannot
    regularize in DegenerateConfiguration; `errors` holds these, None for
    the other rows. Damping exhaustion (a stall) ends a row's descent; the
    caller judges its residual. The Jacobian is built only at accepted
    points that a descent goes on from. A first step shorter than
    `step_tol` means the start is already a minimum: that row stops there,
    without a trial.
    """
    final = np.array(params, dtype=np.float64)
    final_cost = [math.inf] * len(final)
    errors = [None] * len(final)
    res, terms = _residuals(final, points, observed, focal, center)
    final_rot = terms[2]
    rows = list(range(len(final)))  # the rows still descending
    depth = terms[-1][..., 2]
    if _least(depth) <= 1e-9:
        rows = []
        for i, ok in enumerate((depth.min(axis=1) > 1e-9).tolist()):
            if ok:
                rows.append(i)
            else:
                errors[i] = PointBehindCamera(
                    "model point at non-positive camera depth")
        res, *terms = _take(rows, res, *terms)
    params, observed = _take(rows, final, observed)
    rot = terms[2]
    cost = _sq_norms(res).ravel().tolist()
    lam = [float(lambda_init)] * len(rows)
    iterations = max_iterations if rows else 0
    if iterations:
        jtj, neg_jtr = _normal_equations(points, focal, res, *terms)

    def retire(stop):
        """Take the `stop` rows out of the descent, keeping their result;
        returns the rows that go on, as indices into the live stacks."""
        nonlocal rows, params, rot, observed, jtj, neg_jtr, cost, lam
        for j in stop:
            i = rows[j]
            final[i], final_rot[i], final_cost[i] = params[j], rot[j], cost[j]
        keep = [j for j in range(len(rows)) if j not in stop]
        rows, cost, lam = ([x[j] for j in keep] for x in (rows, cost, lam))
        if keep:
            params, rot, observed, jtj, neg_jtr = _take(
                keep, params, rot, observed, jtj, neg_jtr)
        return keep

    for iteration in range(iterations):
        step = _solve(jtj + np.multiply.outer(lam, _EYE6), neg_jtr)
        sq = _sq_norms(step).ravel().tolist()
        if not all(map(math.isfinite, sq)):  # singular: damp harder
            for j in np.flatnonzero(~np.isfinite(step).all(axis=1)):
                while lam[j] <= 1e12 and not np.isfinite(step[j]).all():
                    lam[j] *= 10.0
                    step[j] = _solve(jtj[j] + lam[j] * _EYE6, neg_jtr[j])
            sq = _sq_norms(step).ravel().tolist()
        norm = [math.sqrt(x) for x in sq]
        stop = [j for j, n in enumerate(norm)
                if lam[j] > 1e12 or (iteration == 0 and n < step_tol)]
        if stop:
            for j in stop:
                if lam[j] > 1e12:
                    errors[rows[j]] = DegenerateConfiguration(
                        "normal equations singular beyond damping rescue")
            keep = retire(stop)
            if not rows:
                break
            (step,), norm = _take(keep, step), [norm[j] for j in keep]
        trial = params + step
        trial_res, terms = _residuals(trial, points, observed, focal, center)
        trial_cost = _sq_norms(trial_res).ravel().tolist()
        better, grow, stop = [], [], []
        for j, (c, t) in enumerate(zip(cost, trial_cost)):
            if t < c:  # a trial behind the camera costs inf: rejected
                better.append(j)
                cost[j] = t
                lam[j] = max(lam[j] / 10.0, 1e-12)
                (stop if norm[j] < step_tol or c - t < cost_tol
                 else grow).append(j)
            else:
                lam[j] *= 10.0
                if lam[j] > 1e12:
                    stop.append(j)  # stalled; caller judges the residual
        if len(better) == len(rows):
            params, rot = trial, terms[2]
        else:
            for j in better:
                params[j], rot[j] = trial[j], terms[2][j]
        if grow and iteration + 1 < iterations:
            if len(grow) == len(rows):
                jtj, neg_jtr = _normal_equations(points, focal, trial_res,
                                                 *terms)
            else:
                new = _normal_equations(points, focal,
                                        *_take(grow, trial_res, *terms))
                for r, j in enumerate(grow):
                    jtj[j], neg_jtr[j] = new[0][r], new[1][r]
        if stop:
            retire(stop)
            if not rows:
                break
    if rows:
        retire(range(len(rows)))
    return final, final_rot, final_cost, errors


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


def _pose(params: np.ndarray, rot: np.ndarray, cost: float, n: int,
          accept_rms: float) -> HeadPose | NoConvergence:
    """The HeadPose of a descent's end point and its rotation matrix, or
    NoConvergence when its rms over `n` landmarks exceeds `accept_rms`."""
    rms = math.sqrt(cost / n)
    if rms > accept_rms:
        return NoConvergence(
            f"rms {rms:.2f} px above accept bound {accept_rms}")
    yaw, pitch, roll = euler_from_rotation(rot)
    return HeadPose(rot, params[3:6].copy(), yaw, pitch, roll, rms,
                    params[:3].copy())


def lm_solve_poses(faces, model: FaceModel3D, k: CameraIntrinsics,
                   inits=None, lambda_init: float = 1e-3,
                   step_tol: float = 1e-8, cost_tol: float = 1e-12,
                   max_iterations: int = 100,
                   accept_rms: float = 100.0) -> list:
    """Fit the model pose of each face by damped Gauss-Newton on
    reprojection error; returns, per face, its HeadPose or the exception
    its solve ends in (DegenerateConfiguration, PointBehindCamera or
    NoConvergence). One face's outcome does not depend on the others.

    Faces with the same landmark set descend as one stack. `inits[i]`, six
    finite numbers (axis-angle rotation, translation) or None, replaces
    face i's frontal start and turns off its restarts; a pose's own
    `(axis_angle, translation)` is such a start. A cold face whose descent
    ends above 3 px rms descends again from each restart rotation, in one
    stack with the restarts of the other such faces. The results are then
    taken in order: one with a lower cost replaces the best so far, the
    search stops once the rms is <= 3 px, and a restart that starts behind
    the camera is skipped.
    """
    if inits is None:
        inits = [None] * len(faces)
    elif len(inits) != len(faces):
        raise ValueError(f"{len(inits)} inits for {len(faces)} faces")
    inits = [None if init is None else _checked_init(init) for init in inits]
    focal = np.array([k.fx, k.fy])
    center = np.array([k.cx, k.cy])
    options = (lambda_init, step_tol, cost_tol, max_iterations)
    outcomes = [None] * len(faces)
    groups = {}  # landmark names -> indices of the faces that have them
    for i, face in enumerate(faces):
        names = tuple(n for n in model.names if n in face.landmarks)
        if len(names) < 6:
            outcomes[i] = DegenerateConfiguration(
                f"need >= 6 aligned landmarks, got {len(names)}")
        else:
            groups.setdefault(names, []).append(i)
    for names, group in groups.items():
        n = len(names)
        sub = model if n == len(model.names) else model.subset(names)
        observed = np.array([faces[i].array_for(names) for i in group])
        starts = np.array([_initial_params(sub, faces[i], k)
                           if inits[i] is None else inits[i] for i in group])
        params, rots, cost, errors = _lm_minimize(
            starts, sub.points, observed, focal, center, *options)
        cold = [j for j, i in enumerate(group) if inits[i] is None
                and errors[j] is None and math.sqrt(cost[j] / n) > 3.0]
        if cold:
            count = len(_RESTART_STARTS)
            alt = np.repeat(starts[cold], count, axis=0)
            alt[:, :3] = np.tile(_RESTART_STARTS, (len(cold), 1))
            cands, cand_rots, cand_cost, cand_errors = _lm_minimize(
                alt, sub.points, np.repeat(observed[cold], count, axis=0),
                focal, center, *options)
            for r, j in enumerate(cold):
                for c in range(r * count, (r + 1) * count):
                    if isinstance(cand_errors[c], PointBehindCamera):
                        continue  # this start is infeasible: its cost is inf
                    if cand_errors[c] is not None:
                        errors[j] = cand_errors[c]
                        break
                    if cand_cost[c] < cost[j]:
                        params[j], rots[j], cost[j] = \
                            cands[c], cand_rots[c], cand_cost[c]
                    if math.sqrt(cost[j] / n) <= 3.0:
                        break
        for j, i in enumerate(group):
            outcomes[i] = errors[j] if errors[j] is not None \
                else _pose(params[j], rots[j], cost[j], n, accept_rms)
    return outcomes


def lm_solve_pose(obs: LandmarkSet2D, model: FaceModel3D, k: CameraIntrinsics,
                  init: np.ndarray | None = None, **options) -> HeadPose:
    """`lm_solve_poses` of one face; raises the exception its solve ends
    in. `options` are those of `lm_solve_poses`."""
    pose, = lm_solve_poses([obs], model, k,
                           None if init is None else [init], **options)
    if isinstance(pose, Exception):
        raise pose
    return pose


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
_RESTART_STARTS = np.array([_axis_angle_start(yaw, pitch) for yaw, pitch in (
    (40.0, 0.0), (-40.0, 0.0), (0.0, 30.0), (0.0, -30.0),
    (40.0, -30.0), (-40.0, 30.0), (80.0, 0.0), (-80.0, 0.0),
)])


def euler_from_rotation(rot: np.ndarray):
    """Decompose R = Ry(yaw) Rx(pitch) Rz(roll); degrees.

    yaw in (-180, 180], pitch in [-90, 90], roll in (-180, 180].
    At gimbal lock (|pitch| = 90) roll is fixed to 0 by convention.
    """
    rot = np.asarray(rot, dtype=np.float64)
    sb = min(max(float(-rot[1, 2]), -1.0), 1.0)
    pitch = np.degrees(np.arcsin(sb))
    cb = math.sqrt(max(0.0, 1.0 - sb * sb))
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
