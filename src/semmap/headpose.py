"""Head pose from 2D facial landmarks via Levenberg-Marquardt model fitting.

A rigid 3D landmark model (canonical head frame: origin between the eyes,
x right, y down, z forward) is aligned to observed pixel landmarks by
minimizing reprojection error over an axis-angle + translation 6-vector.
Identity rotation corresponds to a head facing the camera.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from numbers import Real

import numpy as np
from numpy.linalg import _umath_linalg

from .config import read_json_object
from .errors import DegenerateConfiguration, NoConvergence, PointBehindCamera
from .geometry import CameraIntrinsics, _freeze


_EYE3 = np.eye(3)
_EYE6 = np.eye(6)
# [v]x as v's components times signs, row by row:
# [[0, -z, y], [z, 0, -x], [-y, x, 0]]; -[v]x takes the opposite signs
_SKEW_COMPONENT = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])
_NEG_SKEW_SIGN = -_SKEW_SIGN
# flat indices of R02, R10 and of R22, R11: yaw's and roll's atan2 arguments
_EULER_SIN = np.array([2, 3])
_EULER_COS = np.array([8, 4])
_ZERO6 = np.zeros(6)


# Stacks of more rows broadcast the kernels' constants: there the
# arithmetic outweighs numpy's dispatch, and repeated constants would grow
# with the stack.
_STACKED_ROWS = 64


@functools.lru_cache(maxsize=32)
def _stacked(b: int, n: int) -> tuple:
    """The constants that the kernels combine with stacks of b rows,
    repeated to the stacks' shapes, read-only: I (b, 3, 3), ones
    (b, 3, 3), the signs of [v]x (b, 9) and those of -[v]x for n points a
    row (b, n, 9). numpy runs an operation on operands of one shape much
    faster than a broadcast over a few rows."""
    if b > _STACKED_ROWS:
        return _EYE3, 1.0, _SKEW_SIGN, _NEG_SKEW_SIGN
    stacked = (np.tile(_EYE3, (b, 1, 1)), np.ones((b, 3, 3)),
               np.tile(_SKEW_SIGN, (b, 1)), np.tile(_NEG_SKEW_SIGN, (b, n, 1)))
    for array in stacked:
        array.flags.writeable = False
    return stacked


def _skew(v: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """[v]x (`_SKEW_SIGN`) or -[v]x (`_NEG_SKEW_SIGN`, or either repeated
    to v's rows) of each (..., 3) vector, as C-order (..., 3, 3) matrices.
    Negation is exact, so every entry is v's component or its negation, and
    the diagonal is +0 in [v]x and -0 in -[v]x whatever the signs of v's
    components."""
    skew = v.take(_SKEW_COMPONENT, axis=-1)
    skew *= sign
    skew[..., ::4] = sign.flat[0]
    return skew.reshape(v.shape[:-1] + (3, 3))


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """v @ v of each row of a 2-D array, shaped (B,). `np.vecdot` calls the
    same dot per row as `v @ v` of one row does; einsum does not."""
    return np.vecdot(v, v)


def _least(values: np.ndarray) -> float:
    """The least of a few values; faster than a numpy reduction."""
    return min(values.ravel().tolist())


def _take(index, *arrays) -> list:
    """Rows `index` of each array; faster than indexing with a list."""
    index = np.array(index, dtype=np.intp)
    return [x.take(index, axis=0) for x in arrays]


def _rodrigues(w: np.ndarray, eye=_EYE3, one=1.0, sign=_SKEW_SIGN):
    """Rotation matrices (B, 3, 3) of a (B, 3) stack of axis-angle vectors,
    and w @ w per row, shaped (B,).

    theta is repeated to the matrices' shape, and `eye`, `one` and `sign`
    may be `_stacked`'s, so that no operation needs a broadcast.
    """
    theta2 = _sq_norms(w)
    theta = np.sqrt(theta2)
    small = None
    if min(theta.tolist()) < 1e-12:
        small = theta < 1e-12
        theta = np.where(small, 1.0, theta)
    # [w]x but for its diagonal's zeros, whose signs I + [w]x and
    # I + s [k]x + c [k]x @ [k]x do not show
    skew = (w.take(_SKEW_COMPONENT, axis=1) * sign).reshape(-1, 3, 3)
    theta = theta.repeat(9).reshape(-1, 3, 3)
    kx = skew / theta
    rot = eye + np.sin(theta) * kx
    kk = kx @ kx
    kk *= one - np.cos(theta)
    rot += kk
    if small is not None:
        rot = np.where(small[:, None, None], eye + skew, rot)
    return rot, theta2


@dataclass(frozen=True)
class FaceModel3D:
    """Named 3D landmark positions in the canonical head frame, meters.
    `points` is read-only: every pipeline shares the default model."""

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
        object.__setattr__(self, "points", _freeze(pts))

    @classmethod
    def from_json(cls, path) -> "FaceModel3D":
        d = read_json_object(path, ValueError, "face model")
        return cls(tuple(d), np.array(list(d.values()), dtype=np.float64))

    @classmethod
    @functools.cache
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
    # the common case, two finite floats in a tuple, is already in shape
    if type(uv) is tuple and len(uv) == 2:
        u, v = uv
        if (type(u) is float and type(v) is float
                and -math.inf < u < math.inf and -math.inf < v < math.inf):
            return uv
    try:
        u, v = uv
    except (TypeError, ValueError):
        raise ValueError(
            f"landmark {name!r} is not a (u, v) pair: {uv!r}") from None
    if not all(isinstance(c, Real) and not isinstance(c, bool)
               and math.isfinite(c) for c in (u, v)):
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
    and the terms (w, w @ w, rot, rx, -f p, cam) that `_jacobian`
    reuses. A row that puts a model point at non-positive camera depth has
    inf residuals, so its cost is inf.
    """
    w = params[:, :3]
    rot, theta2 = _rodrigues(w, *_stacked(len(w), len(model_points))[:3])
    rx = model_points @ rot.transpose(0, 2, 1)
    cam = rx + params[:, None, 3:]
    depth = cam[..., 2:]
    behind = None
    if _least(depth) <= 1e-9:
        behind = depth.min(axis=1) <= 1e-9  # (B, 1)
        depth = np.where(behind[:, None], 1.0, depth)
    # (c + f p / z) - observed keeps the shipped outputs' bits; c - (-f p)
    # / z is the same sum, since negation is exact
    neg_fp = -focal * cam[..., :2]
    res = center - neg_fp / depth
    res -= observed
    res = res.reshape(len(params), -1)
    if behind is not None:
        res[behind[:, 0]] = math.inf
    return res, (w, theta2, rot, rx, neg_fp, cam)


def _jacobian(model_points: np.ndarray, focal: np.ndarray, w: np.ndarray,
              theta2: np.ndarray, rot: np.ndarray, rx: np.ndarray,
              neg_fp: np.ndarray, cam: np.ndarray) -> np.ndarray:
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
    np.divide(neg_fp, depth * depth, out=flat[..., 5::6])
    # d(R x)/dw in Gallego-Yezzi matrix form (arXiv 1312.0788):
    # -[R x]x (w w^T + [w]x (I - R)) / theta^2, and -[x]x near w = 0.
    # For an exact R this equals -R [x]x (w w^T + (R^T - I)[w]x) / theta^2;
    # with a rounded R that form drifts ~1e-10 relative at |w| = 1e-7.
    any_small = _least(theta2) < 1e-16
    if any_small:
        small = theta2 < 1e-16
        theta2 = np.where(small, 1.0, theta2)
    eye, _, sign, neg_sign = _stacked(b, n)
    m = _skew(w, sign) @ (eye - rot)
    m += w[:, :, None] * w[:, None, :]
    m = m / theta2[:, None, None]
    dp_dw = _skew(rx, neg_sign) @ m[:, None]
    if any_small:
        dp_dw = np.where(small[:, None, None, None],
                         _skew(model_points, _NEG_SKEW_SIGN), dp_dw)
    np.matmul(jac[..., 3:], dp_dw, out=jac[..., :3])
    return jac.reshape(b, 2 * n, 6)


def _normal_equations(model_points, focal, res, *terms):
    """(JᵀJ, -Jᵀr) per row, at the rows `_residuals` evaluated."""
    jac = _jacobian(model_points, focal, *terms)
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, -(jac_t @ res[:, :, None])[..., 0]


def _axis_angles(rot: np.ndarray):
    """Axis-angle vectors (B, 3) of a (B, 3, 3) stack of rotations, and
    which are usable starts: those not within ~8° of a half turn, where
    the axis read from R - Rᵀ loses precision, nor NaN."""
    vee = np.stack((rot[:, 2, 1] - rot[:, 1, 2], rot[:, 0, 2] - rot[:, 2, 0],
                    rot[:, 1, 0] - rot[:, 0, 1]), axis=1)  # 2 sin(theta) axis
    cos = (np.trace(rot, axis1=1, axis2=2) - 1.0) / 2.0
    theta = np.arctan2(np.sqrt((vee * vee).sum(axis=1)) / 2.0, cos)
    w = vee / (2.0 * np.sinc(theta / np.pi))[:, None]
    return w, cos > -0.99


def _closed_form_starts(points: np.ndarray, observed: np.ndarray,
                        focal: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Starts (axis-angle, translation), (B, 6), of a (B, N, 2) stack of
    pixel landmarks of the model points `points` (N, 3); each row depends
    on its own face only. Of two candidates, SOP (the scaled-orthographic
    first step of POSIT: DeMenthon & Davis, IJCV 1995) and a calibrated
    DLT (exact for noise-free landmarks), a face starts from the usable one
    (finite, in front of the camera, not near a half turn) of lower
    reprojection cost, SOP on a tie. With neither, it starts at w = 0 with
    its first landmark at the SOP depth on its ray.
    """
    b, n = observed.shape[:2]
    xy = (observed - center) / focal
    with np.errstate(all="ignore"):
        # SOP: I, J = pinv(A) (x_i - x_0), A the model points minus the first
        a = points[1:] - points[0]
        ij = np.linalg.solve(a.T @ a, a.T) @ (xy[:, 1:] - xy[:, :1])
        norm_i, norm_j = np.sqrt((ij * ij).sum(axis=1)).T
        row_i = ij[..., 0] / norm_i[:, None]
        row_j = ij[..., 1] - (ij[..., 1] * row_i).sum(axis=1)[:, None] * row_i
        row_j /= np.sqrt((row_j * row_j).sum(axis=1))[:, None]
        sop_rot = np.stack((row_i, row_j, np.cross(row_i, row_j)), axis=1)
        # the first landmark's camera point, finite if all landmarks coincide
        first = np.concatenate((xy[:, 0], np.ones((b, 1))), axis=1) \
            * (2.0 / np.maximum(norm_i + norm_j, 1e-9))[:, None]
        # DLT: (x p3 - p1) . X = (y p3 - p2) . X = 0, X centred and scaled
        mean = points.mean(axis=0)
        scale = math.sqrt(((points - mean) ** 2).sum() / n)
        hom = np.concatenate(((points - mean) / scale, np.ones((n, 1))), axis=1)
        rows = np.zeros((b, n, 2, 12))
        rows[:, :, 0, :4] = rows[:, :, 1, 4:8] = hom
        rows[..., 8:] = -xy[..., None] * hom[:, None]
        p = np.linalg.svd(rows.reshape(b, 2 * n, 12))[2][:, -1].reshape(b, 3, 4)
        p *= np.sign(np.linalg.det(p[..., :3]))[:, None, None]
        u, sv, vt = np.linalg.svd(p[..., :3])  # R is u vt, the scale mean(sv)
        dlt_rot = u @ vt
        trans = (first - sop_rot @ points[0],
                 scale * p[..., 3] / sv.mean(axis=1)[:, None] - dlt_rot @ mean)
        w, usable = _axis_angles(np.concatenate((sop_rot, dlt_rot)))
        cands = np.concatenate((w, np.concatenate(trans)), axis=1)
        usable &= np.isfinite(cands).all(axis=1)
        fallback = np.concatenate((np.zeros((b, 3)), first - points[0]), axis=1)
        fallback = np.concatenate((fallback, fallback))
        cands = np.where(usable[:, None], cands, fallback)
        res, _ = _residuals(cands, points, np.concatenate((observed, observed)),
                            focal, center)
        cost = np.where(usable, _sq_norms(res), math.inf)
    cands = np.where(np.isinf(cost)[:, None], fallback, cands)
    return np.where((cost[b:] < cost[:b])[:, None], cands[b:], cands[:b])


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.linalg.solve(a, b)` for float64 systems, one or a stack, each
    with a 1-D `b`.

    The same LAPACK gesv call per system, without the wrapper's checks and
    casts. A singular system gives NaN, with no exception and no warning.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve1(a, b)


# The stop at the noise floor: a descent ends once an accepted step is
# shorter than K standard deviations of the fit, the test being
# c - t < cost_tol + K² c / (2n - 6) for costs c before and t after the
# step over n landmarks. For an LM step h, the cost decrease is at least
# hᵀJᵀJh to first order, and σ̂² = c/(2n - 6). So the test bounds the step's
# Mahalanobis length under Σ = σ̂² (JᵀJ)⁻¹ by K: each parameter, and so yaw
# and pitch to first order, moved by less than K of its own standard
# deviation. It needs no extra Jacobian, and the same Σ can later give the
# pose's uncertainty. On a clean face c is ~0, so the absolute `cost_tol`
# governs there and clean faces stop as without the test.
K = 0.01


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
    without a trial. An accepted step ends its row when it is shorter than
    `step_tol`, or when it lowers the cost c by less than
    `cost_tol + K**2 * c / (2n - 6)` for n landmarks.
    """
    final = np.array(params, dtype=np.float64)
    dof = 2 * len(points) - 6
    noise = K**2
    final_cost = [math.inf] * len(final)
    errors = [None] * len(final)
    res, terms = _residuals(final, points, observed, focal, center)
    final_rot = terms[2]
    cost = _sq_norms(res).tolist()
    rows = list(range(len(final)))  # the rows still descending
    if math.inf in cost:  # the cost of a start behind the camera
        rows = []
        depth = terms[-1][..., 2]
        for i, ok in enumerate((depth.min(axis=1) > 1e-9).tolist()):
            if ok:
                rows.append(i)
            else:
                errors[i] = PointBehindCamera(
                    "model point at non-positive camera depth")
        res, *terms = _take(rows, res, *terms)
        params, observed = _take(rows, final, observed)
        cost = [cost[i] for i in rows]
    else:
        params = final.copy()
    rot = terms[2]
    lam = [float(lambda_init)] * len(rows)
    iterations = max_iterations if rows else 0
    if iterations:
        jtj, neg_jtr = _normal_equations(points, focal, res, *terms)

    def retire(stop):
        """Take the `stop` rows out of the descent, keeping their result;
        returns the rows that go on, as indices into the live stacks."""
        nonlocal rows, params, rot, observed, cost, lam
        for j in stop:
            i = rows[j]
            final[i], final_rot[i], final_cost[i] = params[j], rot[j], cost[j]
        keep = [j for j in range(len(rows)) if j not in stop]
        rows, cost, lam = ([x[j] for j in keep] for x in (rows, cost, lam))
        if keep:
            params, rot, observed = _take(keep, params, rot, observed)
        return keep

    for iteration in range(iterations):
        step = _solve(jtj + np.multiply.outer(lam, _EYE6), neg_jtr)
        sq = _sq_norms(step).tolist()
        rescued = not all(map(math.isfinite, sq))
        if rescued:  # singular: damp harder
            for j in np.flatnonzero(~np.isfinite(step).all(axis=1)):
                while lam[j] <= 1e12 and not np.isfinite(step[j]).all():
                    lam[j] *= 10.0
                    step[j] = _solve(jtj[j] + lam[j] * _EYE6, neg_jtr[j])
            sq = _sq_norms(step).tolist()
        # damping past 1e12 comes only from the rescue, since a trial that
        # takes it there stops its row
        stop = [j for j, x in enumerate(sq) if lam[j] > 1e12
                or (iteration == 0 and math.sqrt(x) < step_tol)] \
            if iteration == 0 or rescued else ()
        if stop:
            for j in stop:
                if lam[j] > 1e12:
                    errors[rows[j]] = DegenerateConfiguration(
                        "normal equations singular beyond damping rescue")
            keep = retire(stop)
            if not rows:
                break
            step, jtj, neg_jtr = _take(keep, step, jtj, neg_jtr)
            sq = [sq[j] for j in keep]
        trial = params + step
        trial_res, terms = _residuals(trial, points, observed, focal, center)
        trial_cost = _sq_norms(trial_res).tolist()
        better, grow, stop = [], [], []
        for j, (c, t) in enumerate(zip(cost, trial_cost)):
            if t < c:  # a trial behind the camera costs inf: rejected
                better.append(j)
                cost[j] = t
                lam[j] = max(lam[j] / 10.0, 1e-12)
                (stop if math.sqrt(sq[j]) < step_tol
                 or c - t < cost_tol + noise * c / dof else grow).append(j)
            else:
                lam[j] *= 10.0
                if lam[j] > 1e12:
                    stop.append(j)  # stalled; caller judges the residual
        if len(better) == len(rows):
            params, rot = trial, terms[2]
        else:
            for j in better:
                params[j], rot[j] = trial[j], terms[2][j]
        keep = range(len(rows))
        if stop:
            keep = retire(stop)
            if not rows:
                break
            if len(grow) < len(rows):  # rejected rows keep their equations
                jtj, neg_jtr = _take(keep, jtj, neg_jtr)
        if grow and iteration + 1 < iterations:
            moved = (trial_res, *terms) if len(grow) == len(trial_res) \
                else _take(grow, trial_res, *terms)
            if len(grow) == len(rows):
                jtj, neg_jtr = _normal_equations(points, focal, *moved)
            else:
                new = _normal_equations(points, focal, *moved)
                at = {j: r for r, j in enumerate(keep)}
                for r, j in enumerate(grow):
                    jtj[at[j]], neg_jtr[at[j]] = new[0][r], new[1][r]
    if rows:
        retire(range(len(rows)))
    return final, final_rot, final_cost, errors


def _checked_init(init) -> np.ndarray:
    """A caller's start as a float64 6-vector, not copied if it is one;
    ValueError for anything but six finite numbers."""
    try:
        params = np.asarray(init, dtype=np.float64)
    except (TypeError, ValueError):
        params = np.empty(0)
    if params.shape != (6,) or not all(map(math.isfinite, params.tolist())):
        raise ValueError(f"init must be six finite numbers, got {init!r}")
    return params


def lm_solve_poses(faces, model: FaceModel3D, k: CameraIntrinsics,
                   inits=None, lambda_init: float = 1e-3,
                   step_tol: float = 1e-8, cost_tol: float = 1e-12,
                   max_iterations: int = 100,
                   accept_rms: float = 100.0) -> list:
    """Fit the model pose of each face by damped Gauss-Newton on
    reprojection error; returns, per face, its HeadPose or the exception
    its solve ends in (DegenerateConfiguration, PointBehindCamera or
    NoConvergence). One face's outcome does not depend on the others.

    Faces with the same landmark set descend as one stack, each once from
    `inits[i]`, six finite numbers (axis-angle rotation, translation, as a
    pose's own `(axis_angle, translation)`), or for None from the start of
    `_closed_form_starts`. A pose whose rms over its landmarks exceeds
    `accept_rms` is NoConvergence. The poses of one call share their
    arrays' memory with each other and with nothing else.
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
        # one flat list of floats: numpy reads it faster than nested pairs
        observed = np.array([c for i in group for name in names
                             for c in faces[i].landmarks[name]]).reshape(
                                 len(group), n, 2)
        starts = np.array([_ZERO6 if inits[i] is None else inits[i]
                           for i in group])
        cold = [j for j, i in enumerate(group) if inits[i] is None]
        if cold:
            starts[cold] = _closed_form_starts(sub.points, observed[cold],
                                               focal, center)
        params, rots, cost, errors = _lm_minimize(
            starts, sub.points, observed, focal, center, *options)
        angles = euler_from_rotation(rots)
        for j, i in enumerate(group):
            rms = math.sqrt(cost[j] / n)
            if errors[j] is not None:
                outcomes[i] = errors[j]
            elif rms > accept_rms:
                outcomes[i] = NoConvergence(
                    f"rms {rms:.2f} px above accept bound {accept_rms}")
            else:
                outcomes[i] = HeadPose(rots[j], params[j, 3:], *angles[j],
                                       rms, params[j, :3])
    return outcomes


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


def euler_from_rotation(rot: np.ndarray):
    """Decompose R = Ry(yaw) Rx(pitch) Rz(roll); degrees.

    yaw in (-180, 180], pitch in [-90, 90], roll in (-180, 180].
    At gimbal lock (|pitch| = 90) roll is fixed to 0 by convention.
    Returns (yaw, pitch, roll) of a 3x3 rotation, or a list of them for a
    (B, 3, 3) stack: one numpy call per function over the stack, and
    Python floats for the clip, the gimbal-lock test and the wrap.
    """
    rot = np.asarray(rot, dtype=np.float64)
    flat = rot.reshape(-1, 9)
    sbs = [min(max(-x, -1.0), 1.0) for x in flat[:, 5].tolist()]
    pitches = np.degrees(np.arcsin(sbs)).tolist()
    # yaw = atan2(R02, R22) and roll = atan2(R10, R11) off gimbal lock
    yaw_rolls = np.degrees(np.arctan2(flat.take(_EULER_SIN, axis=1),
                                      flat.take(_EULER_COS, axis=1))).tolist()
    angles = []
    for j, (sb, pitch, (yaw, roll)) in enumerate(
            zip(sbs, pitches, yaw_rolls)):
        if math.sqrt(max(0.0, 1.0 - sb * sb)) < 1e-12:
            r01, r00 = flat[j, 1], flat[j, 0]
            yaw = float(np.degrees(np.arctan2(r01 if sb > 0 else -r01, r00)))
            roll = 0.0
        if yaw <= -180.0:
            yaw += 360.0
        if roll <= -180.0:
            roll += 360.0
        angles.append((yaw, pitch, roll))
    return angles if rot.ndim == 3 else angles[0]


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
    return dict(zip(model.names, zip(u.tolist(), v.tolist())))
