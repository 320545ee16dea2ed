import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from semmap.config import PipelineConfig
from semmap.errors import (
    DegenerateConfiguration,
    EmptyCloud,
    FrameOutOfRange,
    NoConvergence,
    NonMonotonicFrame,
    PointBehindCamera,
    ScenarioError,
    SemMapError,
    UnknownKeyframe,
)
from semmap.geometry import (
    CameraIntrinsics,
    DepthImage,
    PointCloud,
    RigidPose,
    backproject,
    voxel_downsample,
)
from semmap.headpose import (
    K,
    FaceModel3D,
    HeadPose,
    LandmarkSet2D,
    _jacobian,
    _residuals,
    _rodrigues,
    lm_solve_poses,
    project_model,
    rotation_from_euler,
)
from semmap.pipeline import FrameInput
from semmap.semantic_map import MergeReport, chamfer_distance, overlap_ratio
from semmap.simulator import MIN_VISIBLE_SAMPLES, NEAR_PLANE
from semmap.tracker import (
    KIND_OBJECT,
    KIND_PERSON,
    Detection2D,
    IoUTracker,
    Track,
)


def load_workloads():
    """The benchmark's workload generators, `perfbench/workloads.py`, which
    is no package and is loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                            width=640, height=480)


def rodrigues(w) -> np.ndarray:
    """Axis-angle 3-vector -> rotation matrix: `headpose._rodrigues` of one
    vector."""
    return _rodrigues(np.asarray(w, dtype=np.float64).reshape(1, 3))[0][0]


def random_pose(rng, trans_scale=2.0) -> RigidPose:
    return RigidPose(rodrigues(rng.normal(0.0, 1.0, 3)),
                     rng.normal(0.0, trans_scale, 3))


class NonPositiveDepth(SemMapError):
    pass


def project(point, pose: RigidPose, k: CameraIntrinsics):
    """World point -> (u, v, depth), the pinhole projection that
    `backproject` inverts. Raises NonPositiveDepth behind the camera."""
    cam = pose.inverse().transform(np.asarray(point, dtype=np.float64))
    z = cam[..., 2]
    if np.any(z <= 1e-9):
        raise NonPositiveDepth("point is behind or on the camera plane")
    u = k.cx + k.fx * cam[..., 0] / z
    v = k.cy + k.fy * cam[..., 1] / z
    return u, v, z


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


def reference_rebuild(obj, keyframes, leaf, max_points):
    """World points, centroid and AABB of `obj` from every observation
    transformed afresh, as `SemanticObject.rebuild` derived them before it
    kept the world points of unmoved observations."""
    world = np.concatenate([
        keyframes[obs.keyframe_id].transform(obs.local)
        for obs in obj.observations
    ], axis=0)
    if len(world) > max_points:
        world = voxel_downsample(PointCloud(world), leaf).points
    return world, world.mean(axis=0), (world.min(axis=0), world.max(axis=0))


# Reference for `SemanticMap.apply_trajectory_correction`: the method as
# it was before its merge pass kept a frontier, with the all-pairs scan
# that restarts after each merge, and a rebuild of every object. Bodies
# verbatim; `self` is the map.

def _reference_find_overlapping_pair(self):
    ids = sorted(self.objects)
    for i, id_a in enumerate(ids):
        a = self.objects[id_a]
        for id_b in ids[i + 1:]:
            b = self.objects[id_b]
            if a.class_label != b.class_label:
                continue
            lo_a, hi_a = a.aabb
            lo_b, hi_b = b.aabb
            if np.any(lo_a > hi_b + self.overlap_radius) or \
                    np.any(lo_b > hi_a + self.overlap_radius):
                continue
            ratio = overlap_ratio(a.world_points, b.world_points,
                                  self.overlap_radius)
            if ratio >= self.merge_overlap:
                return id_a, id_b
    return None


def reference_apply_trajectory_correction(self, corrected) -> MergeReport:
    """Replace keyframe poses, re-derive all object geometry, then merge
    same-class objects whose corrected clouds saliently overlap."""
    for kf_id, _pose in corrected:
        if kf_id not in self.keyframes:
            raise UnknownKeyframe(f"keyframe {kf_id} not registered")
    for kf_id, pose in corrected:
        self.keyframes[kf_id] = pose
    for obj in self.objects.values():
        obj.rebuild(self.keyframes, self.voxel_leaf, self.max_cloud_points)
    before = len(self.objects)
    pairs = []
    while True:
        hit = _reference_find_overlapping_pair(self)
        if hit is None:
            break
        survivor_id, absorbed_id = hit
        self.merge_objects(self.objects[survivor_id],
                           self.objects[absorbed_id])
        del self.objects[absorbed_id]
        pairs.append((survivor_id, absorbed_id))
    return MergeReport(pairs, before, len(self.objects))


# Reference for `geometry.extract_object_cloud`: the function as it was
# before it read the bbox as a strided slice, with a meshgrid of pixel
# coordinates and a fancy-indexed read of every sample, and the band
# half-width as it was before it clipped with min/max. Bodies verbatim.

def _reference_depth_band_halfwidth(bbox_w_px: float, bbox_h_px: float,
                                    median_depth: float,
                                    k: CameraIntrinsics) -> float:
    """Half-width of the accepted depth band around the median bbox depth."""
    metric_w = bbox_w_px * median_depth / k.fx
    metric_h = bbox_h_px * median_depth / k.fy
    return float(np.clip(0.5 * max(metric_w, metric_h), 0.05, 1.0))


def reference_extract_object_cloud(bbox, depth: DepthImage, pose: RigidPose,
                                   k: CameraIntrinsics,
                                   stride: int = 4) -> PointCloud:
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
    band = _reference_depth_band_halfwidth(x1 - x0, y1 - y0, med, k)
    keep = np.abs(d - med) <= band
    if not np.any(keep):
        raise EmptyCloud("median depth band rejected every pixel")
    pts = backproject(uu[keep], vv[keep], d[keep], pose, k)
    return PointCloud(pts)


# The references' own cross-product matrix and Euler decomposition: frozen
# copies of the solver's, as they were when the references were taken, so
# that a rewritten solver kernel is checked against independent code.

_SKEW_INDEX = np.array([3, 6, 1, 2, 3, 4, 5, 0, 3])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix [v]x, batched over the leading axes of v,
    gathered from (x, y, z, 0, -x, -y, -z, -0): signed zeros and all."""
    v = np.asarray(v, dtype=np.float64)
    signed = np.zeros(v.shape[:-1] + (8,))
    signed[..., :3] = v
    np.negative(signed[..., :4], out=signed[..., 4:])
    return signed.take(_SKEW_INDEX, axis=-1).reshape(v.shape[:-1] + (3, 3))


def reference_euler(rot) -> tuple:
    """R = Ry(yaw) Rx(pitch) Rz(roll) decomposed, in degrees, one rotation
    at a time; at gimbal lock (|pitch| = 90) roll is 0."""
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


def residuals_and_jacobian(params: np.ndarray, model_points: np.ndarray,
                           observed: np.ndarray, k: CameraIntrinsics):
    """Reprojection residuals (2N,) and analytic Jacobian (2N, 6) of one
    face, by the solver's kernels `headpose._residuals` and
    `headpose._jacobian`.

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


# the references' name of each solver setting -> its `PipelineConfig` field
LM_FIELDS = {"lambda_init": "lm_lambda_init", "step_tol": "lm_step_tol",
             "cost_tol": "lm_cost_tol", "max_iterations": "lm_max_iterations",
             "accept_rms": "lm_accept_rms_px"}


def solver_config(step_tol=1e-8, **options) -> PipelineConfig:
    """The config of a solve with the given settings, under the references'
    names. Its step tolerance is the references' 1e-8 unless given; the
    pipeline's is the config's 1e-6."""
    options["step_tol"] = step_tol
    return PipelineConfig(**{LM_FIELDS[name]: value
                             for name, value in options.items()})


def solve_one(obs: LandmarkSet2D, model: FaceModel3D, k: CameraIntrinsics,
              init: np.ndarray | None = None, **options) -> HeadPose:
    """`lm_solve_poses` of one face; raises the exception its solve ends
    in. `options` are settings under the references' names, as
    `solver_config` takes them."""
    pose, = lm_solve_poses([obs], model, k,
                           None if init is None else [init],
                           solver_config(**options))
    if isinstance(pose, Exception):
        raise pose
    return pose


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
    """Reference for `residuals_and_jacobian`: one landmark per pass."""
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


# Reference for `solve_one`: one descent from a given start,
# as the solver made it before the Jacobian was split from the residuals.
# It builds the Jacobian at every trial point. The bodies are the solver's
# of then, without its restart search and with the names of the functions
# they call changed, plus the solver's later stop at the noise floor
# (`headpose.K`).

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
            floor = cost_tol + K**2 * cost / (2 * len(points) - 6)
            params, res, jac, cost = trial, trial_res, trial_jac, trial_cost
            lam = max(lam / 10.0, 1e-12)
            if np.linalg.norm(step) < step_tol or decrease < floor:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break  # stalled; caller judges the residual
    return params, cost


def landmark_array(obs, names) -> np.ndarray:
    """The (len(names), 2) pixels of `obs`'s landmarks `names`, in order."""
    return np.array([obs.landmarks[n] for n in names], dtype=np.float64)


def reference_lm_solve_pose(obs, model, k, init, lambda_init=1e-3,
                            step_tol=1e-8, cost_tol=1e-12,
                            max_iterations=100,
                            accept_rms=100.0) -> HeadPose:
    names = tuple(n for n in model.names if n in obs.landmarks)
    if len(names) < 6:
        raise DegenerateConfiguration(
            f"need >= 6 aligned landmarks, got {len(names)}")
    sub = model.subset(names)
    observed = landmark_array(obs, names)
    params, cost = _reference_lm_minimize(
        np.asarray(init, dtype=np.float64).copy(), sub.points, observed, k,
        lambda_init, step_tol, cost_tol, max_iterations)
    rms = float(np.sqrt(cost / len(names)))
    if rms > accept_rms:
        raise NoConvergence(f"rms {rms:.2f} px above accept bound {accept_rms}")
    rot = _reference_rodrigues(params[:3])
    yaw, pitch, roll = reference_euler(rot)
    return HeadPose(rot, params[3:6].copy(), yaw, pitch, roll, rms)


def reference_descent(obs, model, k, init, lambda_init=1e-3, step_tol=1e-8,
                      accept_rms=100.0, **options) -> HeadPose:
    """One descent from `init` as `solve_one` makes it: a
    start whose first step is shorter than `step_tol` is already a minimum
    and is its own result, without a trial; any other start descends as
    `reference_lm_solve_pose` from it."""
    names = tuple(n for n in model.names if n in obs.landmarks)
    if init is not None and len(names) >= 6:
        res, jac = _reference_residuals_and_jacobian(
            init, model.subset(names).points, landmark_array(obs, names), k)
        step = np.linalg.solve(jac.T @ jac + lambda_init * np.eye(6),
                               -(jac.T @ res))
        if np.linalg.norm(step) < step_tol:
            rms = float(np.sqrt(res @ res / len(names)))
            if rms > accept_rms:
                raise NoConvergence(
                    f"rms {rms:.2f} px above accept bound {accept_rms}")
            rot = _reference_rodrigues(init[:3])
            yaw, pitch, roll = reference_euler(rot)
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


def _reference_cross(a, b) -> tuple:
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def reference_look_at(position, target) -> tuple:
    """Reference for `simulator.look_at`: one pose at a time, on Python
    floats and 3-vectors. Returns (rotation, translation)."""
    position = np.array(position, dtype=np.float64)
    with np.errstate(over="ignore"):
        fwd = np.asarray(target, dtype=np.float64) - position
        norm = np.linalg.norm(fwd)
    if not 1e-12 <= norm < math.inf:
        raise ScenarioError(f"look_at distance {norm} m outside [1e-12, inf)")
    z = fwd / norm
    x = np.array(_reference_cross((-0.0, -0.0, -1.0), z.tolist()))
    if np.linalg.norm(x) < 1e-9:
        x = np.array(_reference_cross((0.0, 1.0, 0.0), z.tolist()))
    x = x / np.linalg.norm(x)
    y = _reference_cross(z.tolist(), x.tolist())
    return np.column_stack([x, y, z]), position


def reference_orbit(orbit) -> list:
    """Reference for `simulator.Orbit.trajectory`: the frame angle, position
    and `reference_look_at` of one frame per pass."""
    center = np.asarray(orbit.center, dtype=np.float64)
    height = center[2] if orbit.height is None else orbit.height
    start, sweep = np.radians(orbit.start_deg), np.radians(orbit.sweep_deg)
    poses = []
    for i in range(orbit.frames):
        ang = start + sweep * i / orbit.frames
        pos = center + np.array([orbit.radius * np.cos(ang),
                                 orbit.radius * np.sin(ang),
                                 height - center[2]])
        poses.append(reference_look_at(pos, center))
    return poses


def warm_poses(pipeline) -> dict:
    """Person track id -> the warm start its person record holds, for each
    record that holds one."""
    return {tid: person.pose
            for tid, person in pipeline.willingness.persons.items()
            if person.pose is not None}


def object_samples(scenario) -> list:
    """Each world object's surface samples: views of `scenario.samples`,
    sliced at `scenario.sample_starts`."""
    return np.split(scenario.samples, scenario.sample_starts[1:])


def _jittered_bbox(bbox, rng, sigma, width, height):
    """Reference for the detection boxes of `simulator.synthesize_frame_data`:
    one box at a time, its four jitter draws (a throwaway draw of sd 1 when
    `sigma` is 0), then `_clamped_bbox`, on Python floats."""
    if sigma > 0:
        bbox = [c + d for c, d in zip(bbox,
                                      rng.normal(0.0, sigma, 4).tolist())]
    else:
        rng.normal(0.0, 1.0, 4)  # keep the stream position fixed
    return _clamped_bbox(bbox, width, height)


def _clamped_bbox(bbox, width, height):
    """The box ordered and moved into the image, at least 1 px a side."""
    x0, y0, x1, y1 = bbox
    x0, x1 = sorted((x0, x1))
    y0, y1 = sorted((y0, y1))
    x0 = float(min(max(x0, 0), max(width - 2, 0)))
    y0 = float(min(max(y0, 0), max(height - 2, 0)))
    x1 = float(min(max(x1, x0 + 1.0), width))
    y1 = float(min(max(y1, y0 + 1.0), height))
    return (x0, y0, x1, y1)


# Reference for the poses `Scenario.__post_init__` derives for every frame:
# the frame source's old forms, one frame at a time. The drift is rodrigues
# of the accumulated rate, composed world-side with the true pose; the
# camera sees through the true pose's inverse().

def reference_drift_pose(scenario, frame_idx: int) -> RigidPose:
    """Accumulated world-frame drift perturbation at a frame."""
    if scenario.drift is None or frame_idx < scenario.drift.start_frame:
        return RigidPose.identity()
    n = frame_idx - scenario.drift.start_frame + 1
    t = np.asarray(scenario.drift.translation_per_frame, float) * n
    rate = scenario.drift.rotation_deg_per_frame
    # rodrigues of a zero rotation is np.eye(3) bit for bit
    rot = rodrigues(np.radians(np.asarray(rate, float)) * n) \
        if any(rate) else np.eye(3)
    return RigidPose(rot, t)


def reference_estimated_pose(scenario, frame_idx: int) -> RigidPose:
    pose = scenario.trajectory[frame_idx]
    if scenario.drift is None or frame_idx < scenario.drift.start_frame:
        return pose  # no drift yet: the true pose itself
    return reference_drift_pose(scenario, frame_idx).compose(pose)


def reference_world_to_camera(scenario, frame_idx: int) -> RigidPose:
    return scenario.trajectory[frame_idx].inverse()


def per_object_frame_reference(scenario, frame_idx: int) -> tuple:
    """Reference for the (FrameInput, provenance) of
    `simulator.synthesize_frame_data`: projects and splats one object per
    pass, one `np.minimum.at` per footprint offset, and finds the frame's
    corrections by a scan of every correction event."""
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

    samples = object_samples(scenario)
    for oi, obj in enumerate(scenario.world_objects):
        cam = _project_points_cam(samples[oi], true_pose)
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

    face_model = FaceModel3D.default()
    faces = []
    for pi, person in enumerate(scenario.persons):
        attending = scenario.attending_gt(pi, frame_idx)
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
        faces.append(LandmarkSet2D(lmks, face_id=pi))

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
            x0 = float(np.clip(cx_ - w / 2, 0, max(k.width - 2, 0)))
            y0 = float(np.clip(cy_ - h / 2, 0, max(k.height - 2, 0)))
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

    corrections = [list(enumerate(scenario.trajectory[:frame_idx + 1]))
                   if ev.poses == "true" else sorted(ev.poses.items())
                   for ev in scenario.correction_events
                   if ev.frame == frame_idx]
    return FrameInput(frame_idx, frame_idx / scenario.fps, detections,
                      DepthImage(depth),
                      reference_estimated_pose(scenario, frame_idx),
                      faces, corrections), provenance


# Reference for `tracker.iou` and `IoUTracker.step`: the bodies as they were
# before `iou` took min and max by comparison and `step` skipped the tracks
# with no same-class detection. Bodies verbatim, but for the name of the
# `iou` that `step` calls and the start rule: an unmatched detection
# scoring below `START_SCORE` starts no track.

def reference_iou(a, b) -> float:
    """Intersection-over-union of two (x0, y0, x1, y1) rects."""
    ix0 = max(a[0], b[0])
    iy0 = max(a[1], b[1])
    ix1 = min(a[2], b[2])
    iy1 = min(a[3], b[3])
    iw = max(0.0, ix1 - ix0)
    ih = max(0.0, iy1 - iy0)
    inter = iw * ih
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


class ReferenceTracker(IoUTracker):
    def step(self, detections, frame_id: int):
        """Advance one frame; returns [(track_id, Detection2D)] confirmations."""
        if self._last_frame is not None and frame_id <= self._last_frame:
            raise NonMonotonicFrame(
                f"frame {frame_id} after frame {self._last_frame}"
            )
        self._last_frame = frame_id

        boxes_by_class: dict[str, list] = {}
        for di, det in enumerate(detections):
            boxes_by_class.setdefault(det.class_label, []).append(
                (di, det.bbox))
        pairs = []
        for track in self.tracks:
            tx0, ty0, tx1, ty1 = box = track.last_bbox
            for di, bbox in boxes_by_class.get(track.class_label, ()):
                # disjoint boxes have IoU 0, below any threshold
                if (bbox[0] >= tx1 or bbox[2] <= tx0
                        or bbox[1] >= ty1 or bbox[3] <= ty0):
                    continue
                score = reference_iou(box, bbox)
                if score >= self.iou_threshold:
                    pairs.append((-score, track.track_id, di))
        pairs.sort()

        matched_tracks: dict[int, int] = {}
        matched_dets: set[int] = set()
        for neg, track_id, di in pairs:
            if track_id in matched_tracks or di in matched_dets:
                continue
            matched_tracks[track_id] = di
            matched_dets.add(di)

        confirmations = []
        survivors = []
        for track in self.tracks:
            if track.track_id in matched_tracks:
                di = matched_tracks[track.track_id]
                det = detections[di]
                track.last_bbox = det.bbox
                track.length += 1
                track.misses = 0
                track.last_detection_index = di
                survivors.append(track)
                if track.length == self.min_track_length:
                    confirmations.append((track.track_id, det))
            else:
                track.misses += 1
                track.last_detection_index = None
                if track.misses <= self.ttl:
                    survivors.append(track)
        self.tracks = survivors

        for di, det in enumerate(detections):
            if di in matched_dets or det.score < self.START_SCORE:
                continue
            track = Track(
                track_id=self._next_id,
                class_label=det.class_label,
                kind=det.kind,
                last_bbox=det.bbox,
                last_detection_index=di,
            )
            self._next_id += 1
            self.tracks.append(track)
            if track.length == self.min_track_length:
                confirmations.append((track.track_id, det))
        return confirmations
