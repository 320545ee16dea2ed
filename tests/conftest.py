import math

import numpy as np
import pytest

from semmap.errors import (
    DegenerateConfiguration,
    FrameOutOfRange,
    NoConvergence,
    PointBehindCamera,
)
from semmap.geometry import CameraIntrinsics, DepthImage, RigidPose
from semmap.headpose import (
    HeadPose,
    LandmarkSet2D,
    euler_from_rotation,
    project_model,
    rodrigues,
    rotation_from_euler,
    skew,
)
from semmap.semantic_map import chamfer_distance
from semmap.simulator import (
    MIN_VISIBLE_SAMPLES,
    NEAR_PLANE,
    FrameData,
    _default_face_model,
    _jittered_bbox,
)
from semmap.tracker import KIND_OBJECT, KIND_PERSON, Detection2D


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


def reference_associate(registry, candidate, class_label):
    """`SemanticMap.associate` before the AABB skip: a chamfer scan of every
    same-class object."""
    best_id, best_dist = None, np.inf
    for obj_id in sorted(registry.objects):
        obj = registry.objects[obj_id]
        if obj.class_label != class_label:
            continue
        d = chamfer_distance(candidate, obj.world_cloud)
        if d < best_dist:
            best_dist, best_id = d, obj_id
    if best_id is not None and best_dist <= registry.assoc_dist:
        return best_id
    return None


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


# Reference for `headpose.lm_solve_pose`: the solver as it was before the
# Jacobian was split from the residuals. It builds the Jacobian at every
# trial point and lets an infeasible restart start abort the solve. The
# bodies are unchanged except for the names of the functions they call.
# Without an `init` it starts frontal and restarts as the solver once did;
# given one, it makes exactly one descent from it, as the solver does.

def _reference_initial_params(model, obs, k) -> np.ndarray:
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


def _reference_rodrigues(w: np.ndarray) -> np.ndarray:
    """Axis-angle 3-vector -> rotation matrix."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3) + skew(w)
    k = w / theta
    kx = skew(k)
    return np.eye(3) + np.sin(theta) * kx + (1 - np.cos(theta)) * (kx @ kx)


def _reference_residuals_and_jacobian(params, model_points, observed, k):
    w = np.asarray(params[:3], dtype=np.float64)
    t = np.asarray(params[3:6], dtype=np.float64)
    rot = _reference_rodrigues(w)
    rx = model_points @ rot.T
    cam = rx + t
    if np.any(cam[:, 2] <= 1e-9):
        raise PointBehindCamera("model point at non-positive camera depth")
    px, py, pz = cam.T
    u = k.cx + k.fx * px / pz
    v = k.cy + k.fy * py / pz
    res = (np.column_stack([u, v]) - observed).ravel()
    zero = np.zeros_like(pz)
    # d(u, v)/d(camera point), one 2x3 block per landmark: (N, 2, 3)
    dpix = np.array([
        [k.fx / pz, zero, -k.fx * px / (pz * pz)],
        [zero, k.fy / pz, -k.fy * py / (pz * pz)],
    ]).transpose(2, 0, 1)
    theta2 = float(w @ w)
    if theta2 < 1e-16:
        dp_dw = -skew(model_points)
    else:
        m = (np.outer(w, w) + skew(w) @ (np.eye(3) - rot)) / theta2
        dp_dw = -skew(rx) @ m
    jac = np.concatenate([dpix @ dp_dw, dpix], axis=2)
    return res, jac.reshape(2 * len(model_points), 6)


def _reference_lm_minimize(params, points, observed, k, lambda_init,
                           step_tol, cost_tol, max_iterations):
    params = params.copy()
    res, jac = _reference_residuals_and_jacobian(params, points, observed, k)
    cost = float(res @ res)
    lam = lambda_init
    for _ in range(max_iterations):
        jtj = jac.T @ jac
        jtr = jac.T @ res
        step = None
        while lam <= 1e12:
            try:
                step = np.linalg.solve(jtj + lam * np.eye(6), -jtr)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                break
            step = None
            lam *= 10.0
        if step is None:
            raise DegenerateConfiguration(
                "normal equations singular beyond damping rescue")
        trial = params + step
        try:
            trial_res, trial_jac = _reference_residuals_and_jacobian(
                trial, points, observed, k)
            trial_cost = float(trial_res @ trial_res)
        except PointBehindCamera:
            trial_cost = np.inf
        if trial_cost < cost:
            decrease = cost - trial_cost
            params, res, jac, cost = trial, trial_res, trial_jac, trial_cost
            lam = max(lam / 10.0, 1e-12)
            if np.linalg.norm(step) < step_tol or decrease < cost_tol:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break  # stalled; caller judges the residual
    return params, cost


_REFERENCE_RESTART_ANGLES = (
    (40.0, 0.0), (-40.0, 0.0), (0.0, 30.0), (0.0, -30.0),
    (40.0, -30.0), (-40.0, 30.0), (80.0, 0.0), (-80.0, 0.0),
)


def reference_lm_solve_pose(obs, model, k, init=None, lambda_init=1e-3,
                            step_tol=1e-8, cost_tol=1e-12,
                            max_iterations=100,
                            accept_rms=100.0) -> HeadPose:
    names = tuple(n for n in model.names if n in obs.landmarks)
    if len(names) < 6:
        raise DegenerateConfiguration(
            f"need >= 6 aligned landmarks, got {len(names)}")
    sub = model.subset(names)
    observed = obs.array_for(names)
    params0 = np.asarray(init, dtype=np.float64).copy() if init is not None \
        else _reference_initial_params(sub, obs, k)
    params, cost = _reference_lm_minimize(params0, sub.points, observed, k,
                                          lambda_init, step_tol, cost_tol,
                                          max_iterations)
    if np.sqrt(cost / len(names)) > 3.0 and init is None:
        for yaw, pitch in _REFERENCE_RESTART_ANGLES:
            alt = params0.copy()
            rot = rotation_from_euler(yaw, pitch, 0.0)
            theta = np.arccos(np.clip((np.trace(rot) - 1) / 2, -1.0, 1.0))
            axis = np.array([rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0],
                             rot[1, 0] - rot[0, 1]])
            norm = np.linalg.norm(axis)
            alt[:3] = theta * axis / norm if norm > 1e-12 else 0.0
            cand, cand_cost = _reference_lm_minimize(
                alt, sub.points, observed, k, lambda_init, step_tol,
                cost_tol, max_iterations)
            if cand_cost < cost:
                params, cost = cand, cand_cost
            if np.sqrt(cost / len(names)) <= 3.0:
                break
    rms = float(np.sqrt(cost / len(names)))
    if rms > accept_rms:
        raise NoConvergence(f"rms {rms:.2f} px above accept bound {accept_rms}")
    rot = _reference_rodrigues(params[:3])
    yaw, pitch, roll = euler_from_rotation(rot)
    return HeadPose(rot, params[3:6].copy(), yaw, pitch, roll, rms)


def reference_descent(obs, model, k, init, lambda_init=1e-3, step_tol=1e-8,
                      accept_rms=100.0, **options) -> HeadPose:
    """One descent from `init` as `headpose.lm_solve_pose` makes it: a
    start whose first step is shorter than `step_tol` is already a minimum
    and is its own result, without a trial; any other start descends as
    `reference_lm_solve_pose` from it."""
    names = tuple(n for n in model.names if n in obs.landmarks)
    if init is not None and len(names) >= 6:
        res, jac = _reference_residuals_and_jacobian(
            init, model.subset(names).points, obs.array_for(names), k)
        step = np.linalg.solve(jac.T @ jac + lambda_init * np.eye(6),
                               -(jac.T @ res))
        if np.linalg.norm(step) < step_tol:
            rms = float(np.sqrt(res @ res / len(names)))
            if rms > accept_rms:
                raise NoConvergence(
                    f"rms {rms:.2f} px above accept bound {accept_rms}")
            rot = _reference_rodrigues(init[:3])
            yaw, pitch, roll = euler_from_rotation(rot)
            return HeadPose(rot, init[3:6].copy(), yaw, pitch, roll, rms)
    return reference_lm_solve_pose(obs, model, k, init, lambda_init,
                                   step_tol, accept_rms=accept_rms, **options)


def _project_points_cam(points, pose: RigidPose):
    return pose.inverse().transform(points)


def _splat_depth(depth_min, us, vs, ds, footprint, width, height):
    half = footprint // 2
    flat = depth_min.ravel()
    for dy in range(-half, footprint - half):
        for dx in range(-half, footprint - half):
            uu = us + dx
            vv = vs + dy
            ok = (uu >= 0) & (uu < width) & (vv >= 0) & (vv < height)
            if not np.any(ok):
                continue
            np.minimum.at(flat, vv[ok] * width + uu[ok], ds[ok])


def per_object_frame_reference(scenario, frame_idx: int) -> FrameData:
    """Reference for `simulator.synthesize_frame_data`: projects and splats
    one object per pass, one `np.minimum.at` per footprint offset."""
    if not 0 <= frame_idx < scenario.num_frames:
        raise FrameOutOfRange(f"frame {frame_idx} of {scenario.num_frames}")
    k = scenario.intrinsics
    true_pose = scenario.trajectory[frame_idx]
    noise = scenario.noise
    rng_det = np.random.default_rng([scenario.seed, 2, frame_idx])
    rng_depth = np.random.default_rng([scenario.seed, 3, frame_idx])
    rng_fp = np.random.default_rng([scenario.seed, 4, frame_idx])
    rng_lmk = np.random.default_rng([scenario.seed, 5, frame_idx])

    detections = []
    provenance = []
    depth_min = np.full((k.height, k.width), np.inf)

    for oi, obj in enumerate(scenario.world_objects):
        cam = _project_points_cam(scenario.object_samples[oi], true_pose)
        z = cam[:, 2]
        vis = (z > NEAR_PLANE) & (z <= scenario.max_range)
        if np.any(vis):
            u = k.cx + k.fx * cam[vis, 0] / z[vis]
            v = k.cy + k.fy * cam[vis, 1] / z[vis]
            inb = (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
            u, v = u[inb], v[inb]
            d = z[vis][inb]
        else:
            u = v = d = np.empty(0)
        # depth comes from geometry regardless of detection dropout
        if d.size:
            if noise.depth_noise_m > 0:
                d = d + rng_depth.normal(0.0, noise.depth_noise_m, d.size)
                d = np.maximum(d, 0.01)
            else:
                rng_depth.normal(0.0, 1.0, d.size)
            e = np.asarray(obj.extents)
            area = 2 * (e[0] * e[1] + e[1] * e[2] + e[0] * e[2])
            spacing = np.sqrt(max(area, 1e-9) / obj.sample_count)
            fpx = int(np.clip(np.ceil(k.fx * spacing / np.median(d)), 1, 9))
            _splat_depth(depth_min, u.astype(np.int64), v.astype(np.int64),
                         d, fpx, k.width, k.height)
        if u.size >= MIN_VISIBLE_SAMPLES:
            bbox = (u.min() - 0.5, v.min() - 0.5, u.max() + 0.5, v.max() + 0.5)
            bbox = _jittered_bbox(bbox, rng_det, noise.bbox_jitter_px,
                                  k.width, k.height)
            dropped = rng_det.uniform() < noise.dropout_prob
            if not dropped:
                detections.append(Detection2D(bbox, obj.class_label,
                                              score=1.0, kind=KIND_OBJECT))
                provenance.append(("object", oi))

    face_model = _default_face_model()
    landmarks = {}
    attending_gt = {}
    for pi, person in enumerate(scenario.persons):
        attending = scenario.attending_gt(pi, frame_idx)
        attending_gt[pi] = attending
        head_cam = _project_points_cam(
            np.asarray(person.position, dtype=np.float64), true_pose)
        if not (NEAR_PLANE < head_cam[2] <= scenario.max_range):
            continue
        hc = np.asarray(person.position)
        corners = np.array([
            hc + (sx * 0.25, sy * 0.25, dz)
            for sx in (-1, 1) for sy in (-1, 1) for dz in (-1.5, 0.15)
        ])
        cam = _project_points_cam(corners, true_pose)
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
            x0 = float(np.clip(cx_ - w / 2, 0, k.width - 2))
            y0 = float(np.clip(cy_ - h / 2, 0, k.height - 2))
            x1 = float(np.clip(cx_ + w / 2, x0 + 1, k.width))
            y1 = float(np.clip(cy_ + h / 2, y0 + 1, k.height))
            detections.append(Detection2D((x0, y0, x1, y1), cls, score=0.3,
                                          kind=KIND_OBJECT))
            provenance.append(("fp", j))

    if scenario.background_depth > 0:
        depth = np.minimum(depth_min, scenario.background_depth)
    else:
        depth = np.where(np.isinf(depth_min), 0.0, depth_min)
    depth = np.where(np.isinf(depth), scenario.background_depth, depth)

    return FrameData(
        detections=detections,
        depth=DepthImage(depth),
        pose_estimate=scenario.estimated_pose(frame_idx),
        provenance=provenance,
        landmarks=landmarks,
        attending_gt=attending_gt,
    )
