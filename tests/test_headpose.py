import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import per_landmark_jacobian, reference_lm_solve_pose

from semmap import headpose
from semmap.errors import (
    DegenerateConfiguration,
    NoConvergence,
    PointBehindCamera,
)
from semmap.geometry import CameraIntrinsics
from semmap.headpose import (
    FaceModel3D,
    HeadPose,
    LandmarkSet2D,
    _initial_params,
    _solve,
    euler_from_rotation,
    is_attending,
    lm_solve_pose,
    project_model,
    residuals_and_jacobian,
    rodrigues,
    rotation_from_euler,
    skew,
)

MODEL = FaceModel3D.default()
K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                     width=640, height=480)


# the default landmarks plus three more, so that faces can be observed with
# a strict subset of the model's landmarks
EXTENDED_MODEL = FaceModel3D(
    MODEL.names + ("forehead", "left_cheek", "right_cheek"),
    np.vstack([MODEL.points, [[0.0, -0.06, 0.02], [-0.055, 0.05, 0.0],
                              [0.055, 0.05, 0.0]]]))


def synth_obs(rotation, translation, k, jitter=0.0, rng=None):
    pixels = project_model(MODEL, rotation, translation, k)
    if jitter > 0.0:
        pixels = {n: (u + rng.normal(0, jitter), v + rng.normal(0, jitter))
                  for n, (u, v) in pixels.items()}
    return LandmarkSet2D(pixels)


class TestRodrigues:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(rodrigues([0, 0, 0]), np.eye(3))

    def test_quarter_turn_about_z(self):
        rot = rodrigues([0, 0, np.pi / 2])
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_orthonormal(self, seed):
        rng = np.random.default_rng(seed)
        rot = rodrigues(rng.normal(0, 2, 3))
        assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0)


class TestModel:
    def test_default_has_six_landmarks(self):
        assert len(MODEL.names) == 6

    def test_coplanar_model_rejected(self):
        pts = np.column_stack([np.random.default_rng(0).uniform(-1, 1, (6, 2)),
                               np.zeros(6)])
        with pytest.raises(DegenerateConfiguration):
            FaceModel3D(tuple("abcdef"), pts)

    def test_too_few_landmarks_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            FaceModel3D(("a", "b", "c"), np.eye(3))

    def test_subset_preserves_order(self):
        names = tuple(reversed(MODEL.names))
        sub = MODEL.subset(names)
        assert sub.names == names
        np.testing.assert_array_equal(sub.points, MODEL.points[::-1])

    def test_subset_missing_name(self):
        with pytest.raises(KeyError):
            MODEL.subset(MODEL.names[:5] + ("no_such_landmark",))


class TestResidualsAndJacobian:
    def test_zero_residual_at_ground_truth(self, intrinsics):
        params = np.array([0.1, -0.2, 0.05, 0.02, -0.01, 1.2])
        obs = synth_obs(rodrigues(params[:3]), params[3:], intrinsics)
        res, _ = residuals_and_jacobian(params, MODEL.points,
                                        obs.array_for(MODEL.names), intrinsics)
        assert np.abs(res).max() < 1e-9

    def test_translation_column_at_identity(self, intrinsics):
        # at w=0, du/dt_x = fx / z exactly
        z = 1.5
        params = np.array([0, 0, 0, 0.0, 0.0, z])
        obs = synth_obs(np.eye(3), params[3:], intrinsics)
        _, jac = residuals_and_jacobian(params, MODEL.points,
                                        obs.array_for(MODEL.names), intrinsics)
        for i, pt in enumerate(MODEL.points):
            assert jac[2 * i, 3] == pytest.approx(
                intrinsics.fx / (z + pt[2]), rel=1e-12)
            assert jac[2 * i, 4] == 0.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_jacobian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = np.concatenate([rng.normal(0, 0.6, 3),
                                 [rng.normal(0, 0.1), rng.normal(0, 0.1),
                                  rng.uniform(0.6, 3.0)]])
        observed = rng.uniform([0, 0], [640, 480], (len(MODEL.points), 2))
        try:
            _, jac = residuals_and_jacobian(params, MODEL.points, observed,
                                            K)
        except PointBehindCamera:
            return
        eps = 1e-6
        fd = np.empty_like(jac)
        for j in range(6):
            hi = params.copy()
            lo = params.copy()
            hi[j] += eps
            lo[j] -= eps
            r_hi, _ = residuals_and_jacobian(hi, MODEL.points, observed,
                                             K)
            r_lo, _ = residuals_and_jacobian(lo, MODEL.points, observed,
                                             K)
            fd[:, j] = (r_hi - r_lo) / (2 * eps)
        assert np.abs(jac - fd).max() < 1e-4

    @given(seed=st.integers(0, 2**32 - 1),
           angle=st.sampled_from([0.0, 1e-9, 1e-7, None]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_landmark_reference(self, seed, angle):
        # angle None draws an ordinary pose; 1e-9 takes the small-angle
        # branch (theta^2 < 1e-16) and 1e-7 the general one just above it
        rng = np.random.default_rng(seed)
        w = rng.normal(0, 0.6, 3)
        if angle is not None:
            w *= angle / np.linalg.norm(w)
        params = np.concatenate([w, [rng.normal(0, 0.1), rng.normal(0, 0.1),
                                     rng.uniform(0.6, 3.0)]])
        observed = rng.uniform([0, 0], [640, 480], (len(MODEL.points), 2))
        try:
            ref_res, ref_jac = per_landmark_jacobian(params, MODEL.points,
                                                     observed, K)
        except PointBehindCamera:
            with pytest.raises(PointBehindCamera):
                residuals_and_jacobian(params, MODEL.points, observed, K)
            return
        res, jac = residuals_and_jacobian(params, MODEL.points, observed, K)
        assert res.tobytes() == ref_res.tobytes()
        assert np.abs(jac - ref_jac).max() <= 1e-12 * np.abs(ref_jac).max()

    def test_behind_camera_raises(self, intrinsics):
        params = np.array([0, 0, 0, 0, 0, -1.0])
        with pytest.raises(PointBehindCamera):
            residuals_and_jacobian(params, MODEL.points,
                                   np.zeros((len(MODEL.points), 2)),
                                   intrinsics)


class TestSolve:
    def test_recovers_synthetic_pose(self, intrinsics):
        rot = rotation_from_euler(25.0, -10.0, 5.0)
        t = np.array([0.1, -0.05, 1.4])
        pose = lm_solve_pose(synth_obs(rot, t, intrinsics), MODEL, intrinsics)
        assert np.abs(pose.rotation - rot).max() < 1e-6
        assert np.abs(pose.translation - t).max() < 1e-6
        assert pose.rms_residual < 1e-6

    def test_start_at_optimum_converges_immediately(self, intrinsics):
        w = np.array([0.2, -0.1, 0.05])
        t = np.array([0.0, 0.1, 1.1])
        obs = synth_obs(rodrigues(w), t, intrinsics)
        pose = lm_solve_pose(obs, MODEL, intrinsics,
                             init=np.concatenate([w, t]), max_iterations=3)
        assert pose.rms_residual < 1e-9

    def test_five_landmarks_rejected(self, intrinsics):
        obs = synth_obs(np.eye(3), [0, 0, 1.0], intrinsics)
        partial = LandmarkSet2D(
            {n: obs.landmarks[n] for n in MODEL.names[:5]})
        with pytest.raises(DegenerateConfiguration):
            lm_solve_pose(partial, MODEL, intrinsics)

    @pytest.mark.parametrize("init", [
        np.zeros(5), np.zeros(7), np.zeros((1, 6)),
        [0.0, 0.0, 0.0, 0.0, 0.0, np.nan], [0.0, 0.0, 0.0, 0.0, 0.0, np.inf],
        [0.0, 0.0, 0.0, 0.0, 0.0, None], "abcdef",
    ])
    def test_bad_init_rejected(self, intrinsics, init):
        obs = synth_obs(np.eye(3), [0, 0, 1.0], intrinsics)
        with pytest.raises(ValueError, match="init must be six finite"):
            lm_solve_pose(obs, MODEL, intrinsics, init=init)

    def test_residuals_and_jacobian_called_as_module_globals(
            self, intrinsics, monkeypatch):
        # per-solve counters wrap these two names from outside the module
        counts = {"_residuals": 0, "_jacobian": 0}
        for name in counts:
            def counted(*args, _real=getattr(headpose, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(headpose, name, counted)
        obs = synth_obs(rotation_from_euler(20.0, -10.0, 0.0),
                        np.array([0.05, 0.0, 1.2]), intrinsics)
        lm_solve_pose(obs, MODEL, intrinsics)
        # the descent evaluates residuals at its start and at every trial,
        # and builds a Jacobian at some of those points only
        assert counts["_residuals"] > counts["_jacobian"] >= 1

    @pytest.mark.parametrize("jitter", [0.0, 1.0, 5.0])
    def test_start_at_own_solution_stops_at_once(self, intrinsics, jitter,
                                                 monkeypatch):
        # a warm start on an unchanged face: the first step is below
        # step_tol, so the descent stops without a trial and the pose
        # comes back unchanged
        rng = np.random.default_rng(7)
        obs = synth_obs(rotation_from_euler(50.0, -20.0, 5.0),
                        np.array([0.1, -0.05, 1.5]), intrinsics, jitter, rng)
        pose = lm_solve_pose(obs, MODEL, intrinsics, step_tol=1e-6)
        init = np.concatenate((pose.axis_angle, pose.translation))
        evals = []

        def counted(*args, _real=headpose._residuals):
            evals.append(1)
            return _real(*args)

        monkeypatch.setattr(headpose, "_residuals", counted)
        again = lm_solve_pose(obs, MODEL, intrinsics, step_tol=1e-6,
                              init=init)
        assert len(evals) <= 2
        for name in ("rotation", "translation", "axis_angle"):
            assert getattr(again, name).tobytes() \
                == getattr(pose, name).tobytes()
        assert (again.yaw, again.pitch, again.roll, again.rms_residual) \
            == (pose.yaw, pose.pitch, pose.roll, pose.rms_residual)

    def test_pose_carries_solver_axis_angle(self, intrinsics):
        w = np.array([0.3, -0.4, 0.1])
        obs = synth_obs(rodrigues(w), np.array([0.0, 0.1, 1.2]), intrinsics)
        pose = lm_solve_pose(obs, MODEL, intrinsics)
        assert np.abs(pose.axis_angle - w).max() < 1e-9
        assert rodrigues(pose.axis_angle).tobytes() == pose.rotation.tobytes()

    def test_extra_observed_landmarks_ignored(self, intrinsics):
        obs = synth_obs(np.eye(3), [0, 0, 1.0], intrinsics)
        extra = dict(obs.landmarks)
        extra["forehead"] = (320.0, 100.0)
        pose = lm_solve_pose(LandmarkSet2D(extra), MODEL, intrinsics)
        assert pose.rms_residual < 1e-6

    def test_infeasible_restart_start_is_skipped(self):
        # a frontal face spread 40x about the principal point: the depth
        # from the interocular scale clips to 0.05 m, the first descent
        # ends far above 3 px, and a pitched restart start puts the chin
        # behind the camera; that start is skipped, not fatal
        k = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0,
                             width=320, height=240)
        pixels = project_model(MODEL, np.eye(3), np.array([0.0, 0.0, 1.0]), k)
        obs = LandmarkSet2D({
            n: (k.cx + 40 * (u - k.cx), k.cy + 40 * (v - k.cy))
            for n, (u, v) in pixels.items()})
        pose = lm_solve_pose(obs, MODEL, k, accept_rms=1000.0)
        assert isinstance(pose, HeadPose)
        assert 3.0 < pose.rms_residual < 1000.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_noise_free_recovery_within_cone(self, seed):
        rng = np.random.default_rng(seed)
        yaw, pitch = rng.uniform(-60, 60, 2)
        roll = rng.uniform(-20, 20)
        rot = rotation_from_euler(yaw, pitch, roll)
        t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                      rng.uniform(0.6, 2.5)])
        pose = lm_solve_pose(synth_obs(rot, t, K), MODEL, K)
        assert pose.yaw == pytest.approx(yaw, abs=0.1)
        assert pose.pitch == pytest.approx(pitch, abs=0.1)
        assert np.abs(pose.translation - t).max() < 1e-4


def solver_case(seed, jitter, extended, drop, warm, distance):
    """A face seen at `distance` m with `jitter` px noise and `drop` model
    landmarks missing; `warm` adds an init near the true pose."""
    rng = np.random.default_rng(seed)
    model = EXTENDED_MODEL if extended else MODEL
    rot = rotation_from_euler(*rng.uniform(-70, 70, 2), rng.uniform(-20, 20))
    t = np.array([rng.uniform(-0.3, 0.3) * distance,
                  rng.uniform(-0.2, 0.2) * distance, distance])
    pixels = project_model(model, rot, t, K)
    missing = set(rng.choice(model.names, drop, replace=False))
    obs = LandmarkSet2D({n: (u + rng.normal(0, jitter),
                             v + rng.normal(0, jitter))
                         for n, (u, v) in pixels.items() if n not in missing})
    init = None
    if warm:
        w = rng.normal(0, 0.5, 3)
        init = np.concatenate([w, t + rng.normal(0, 0.05, 3) * distance])
    return obs, model, init


def _first_start_feasible(obs, model, init):
    names = tuple(n for n in model.names if n in obs.landmarks)
    sub = model.subset(names)
    params0 = init if init is not None else _initial_params(sub, obs, K)
    try:
        residuals_and_jacobian(params0, sub.points, obs.array_for(names), K)
    except PointBehindCamera:
        return False
    return True


def _outcome(solve, *args, **kwargs):
    try:
        pose = solve(*args, **kwargs)
    except (DegenerateConfiguration, NoConvergence, PointBehindCamera) as e:
        return type(e)
    return (pose.rotation.tobytes(), pose.translation.tobytes(), pose.yaw,
            pose.pitch, pose.roll, pose.rms_residual)


class TestSolverMatchesReference:
    @given(seed=st.integers(0, 2**32 - 1),
           jitter=st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0.0, 5.0),
           extended=st.booleans(), drop=st.integers(0, 3),
           warm=st.booleans(),
           distance=st.sampled_from([0.12, 0.2, 0.6, 1.5]),
           accept_rms=st.sampled_from([100.0, 2.0, 0.01]))
    @settings(max_examples=150, deadline=None)
    # explicit cases, one per path: cold restarts, a rejected trial behind
    # the camera, NoConvergence, a landmark subset, a given init. Every
    # cold start builds its first Jacobian at w = 0 (the small-angle branch)
    @example(seed=3285177209, jitter=5.0, extended=True, drop=0, warm=False,
             distance=1.5, accept_rms=100.0)
    @example(seed=2190705799, jitter=1.0, extended=True, drop=3, warm=False,
             distance=0.2, accept_rms=2.0)
    @example(seed=1630040365, jitter=5.0, extended=True, drop=2, warm=True,
             distance=0.6, accept_rms=0.01)
    @example(seed=3653403231, jitter=1.0, extended=True, drop=1, warm=False,
             distance=0.12, accept_rms=100.0)
    @example(seed=70985654, jitter=0.0, extended=True, drop=2, warm=True,
             distance=0.6, accept_rms=2.0)
    def test_bitwise_equal(self, seed, jitter, extended, drop, warm,
                           distance, accept_rms):
        # equal bytes of rotation and translation, equal yaw, pitch, roll
        # and rms, or the same exception class
        obs, model, init = solver_case(seed, jitter, extended, drop, warm,
                                       distance)
        want = _outcome(reference_lm_solve_pose, obs, model, K, init=init,
                        accept_rms=accept_rms)
        if want is PointBehindCamera and _first_start_feasible(obs, model,
                                                               init):
            # a restart started behind the camera: the reference aborts,
            # the solver skips that start (see test_infeasible_restart_*)
            reject()
        got = _outcome(lm_solve_pose, obs, model, K, init=init,
                       accept_rms=accept_rms)
        assert got == want


class TestSolverGates:
    """Known-failing solver gates: strict xfails until the solver passes
    them, never tuned to pass."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="noise-free face at yaw 58.7, pitch -60.0 "
                              "solves to 48.5 m depth, rms 15.96 px")
    def test_noise_free_steep_face_solves_to_its_true_pose(self):
        # none of the restart starts leads to the true pose, and the 100 px
        # accept bound lets the far-off one through
        obs, model, _ = solver_case(79, 0.0, False, 0, False, 1.5)
        pose = lm_solve_pose(obs, model, K)
        assert pose.translation[2] == pytest.approx(1.5, abs=0.01)
        assert pose.rms_residual < 1e-6


class TestSolveHelper:
    @given(seed=st.integers(0, 2**32 - 1),
           lam=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_to_numpy(self, seed, lam):
        # damped normal equations as the descent builds them
        rng = np.random.default_rng(seed)
        jac = rng.normal(0.0, 10.0 ** rng.uniform(0, 4), (12, 6))
        res = rng.normal(0.0, 5.0, 12)
        a = jac.T @ jac + lam * np.eye(6)
        b = -(jac.T @ res)
        assert _solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()

    def test_singular_system_gives_nan_without_warning(self):
        a = np.ones((6, 6))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step = _solve(a, np.ones(6))
        assert step.shape == (6,)
        assert np.isnan(step).all()


class TestEuler:
    def test_pure_yaw(self):
        yaw, pitch, roll = euler_from_rotation(rotation_from_euler(30, 0, 0))
        assert (yaw, pitch, roll) == pytest.approx((30.0, 0.0, 0.0), abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = rng.uniform(-179, 179)
            p = rng.uniform(-89, 89)
            r = rng.uniform(-179, 179)
            got = euler_from_rotation(rotation_from_euler(y, p, r))
            assert got == pytest.approx((y, p, r), abs=1e-9)

    def test_gimbal_lock_roll_is_zero(self):
        _, pitch, roll = euler_from_rotation(rotation_from_euler(20, 90, 35))
        assert pitch == pytest.approx(90.0, abs=1e-6)
        assert roll == 0.0

    def test_identity(self):
        assert euler_from_rotation(np.eye(3)) == (0.0, 0.0, 0.0)


class TestAttending:
    def pose(self, yaw, pitch, roll=0.0):
        return HeadPose(rotation_from_euler(yaw, pitch, roll),
                        np.array([0, 0, 1.0]), yaw, pitch, roll, 0.0)

    def test_facing_camera(self):
        assert is_attending(self.pose(0, 0))

    def test_outside_cone(self):
        assert not is_attending(self.pose(30, 0))
        assert not is_attending(self.pose(0, -20))

    def test_boundary_inside(self):
        # hypot(9, 12) = 15 exactly, on the cone boundary
        assert is_attending(self.pose(9.0, 12.0), cone_deg=15.0)
        assert not is_attending(self.pose(9.0, 12.001), cone_deg=15.0)

    def test_roll_does_not_matter(self):
        assert is_attending(self.pose(5, 5, roll=170.0))


def test_skew_cross_product_identity():
    rng = np.random.default_rng(2)
    a, b = rng.normal(0, 1, (2, 3))
    np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)
