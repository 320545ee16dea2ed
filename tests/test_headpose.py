import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    per_landmark_jacobian,
    reference_descent,
    reference_euler,
    residuals_and_jacobian,
    rodrigues,
    skew,
    solve_one,
)

from semmap import headpose
from semmap.errors import (
    DegenerateConfiguration,
    NoConvergence,
    PointBehindCamera,
)
from semmap.geometry import CameraIntrinsics
from semmap.pipeline import Pipeline
from semmap.headpose import (
    FaceModel3D,
    HeadPose,
    LandmarkSet2D,
    _solve,
    euler_from_rotation,
    is_attending,
    lm_solve_poses,
    project_model,
    rotation_from_euler,
)
from semmap.simulator import Scenario, synthesize_frame_data

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


class TestLandmarkSet2D:
    def test_finite_float_pair_kept(self):
        uv = (1.5, -2.0)
        assert LandmarkSet2D({"a": uv}).landmarks["a"] is uv

    @pytest.mark.parametrize("uv", [[1.5, 2.0], (np.float64(1.5), 2),
                                    (1, np.int64(2))])
    def test_other_numbers_become_a_float_pair(self, uv):
        got = LandmarkSet2D({"a": uv}).landmarks["a"]
        assert got == (float(uv[0]), float(uv[1]))
        assert type(got) is tuple and all(type(c) is float for c in got)

    @pytest.mark.parametrize("uv", [
        (np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0), (True, 1.0),
        (1.0, "2"), (1.0, 2.0, 3.0), (1.0,), 5.0])
    def test_bad_pair_rejected(self, uv):
        with pytest.raises(ValueError, match="landmark 'a'"):
            LandmarkSet2D({"a": uv})

    def test_project_model_gives_float_pairs(self):
        pixels = project_model(MODEL, np.eye(3), np.array([0.0, 0.0, 1.0]), K)
        assert tuple(pixels) == MODEL.names
        assert all(type(c) is float for uv in pixels.values() for c in uv)


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

    @pytest.mark.parametrize("depth", [3, headpose._STACKED_ROWS + 6])
    def test_rows_as_if_alone(self, depth):
        # a stack of a few rows combines with repeated constants, a deep
        # one with broadcast ones; each row's bits are its own either way
        rng = np.random.default_rng(depth)
        points = EXTENDED_MODEL.points[:7]
        params = np.column_stack([rng.normal(0, 0.5, (depth, 3)),
                                  rng.normal(0, 0.05, (depth, 2)),
                                  rng.uniform(0.6, 2.0, depth)])
        params[0, :3] = 0.0  # the small-angle branch
        observed = rng.uniform([0, 0], [640, 480], (depth, 7, 2))
        focal, center = np.array([K.fx, K.fy]), np.array([K.cx, K.cy])
        res, terms = headpose._residuals(params, points, observed, focal,
                                         center)
        jac = headpose._jacobian(points, focal, *terms)
        for i in range(depth):
            one_res, one_jac = residuals_and_jacobian(params[i], points,
                                                      observed[i], K)
            assert one_res.tobytes() == res[i].tobytes()
            assert one_jac.tobytes() == jac[i].tobytes()
            assert rodrigues(params[i, :3]).tobytes() == terms[2][i].tobytes()

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
        pose = solve_one(synth_obs(rot, t, intrinsics), MODEL, intrinsics)
        assert np.abs(pose.rotation - rot).max() < 1e-6
        assert np.abs(pose.translation - t).max() < 1e-6
        assert pose.rms_residual < 1e-6

    def test_start_at_optimum_converges_immediately(self, intrinsics):
        w = np.array([0.2, -0.1, 0.05])
        t = np.array([0.0, 0.1, 1.1])
        obs = synth_obs(rodrigues(w), t, intrinsics)
        pose = solve_one(obs, MODEL, intrinsics,
                         init=np.concatenate([w, t]), max_iterations=3)
        assert pose.rms_residual < 1e-9

    def test_five_landmarks_rejected(self, intrinsics):
        obs = synth_obs(np.eye(3), [0, 0, 1.0], intrinsics)
        partial = LandmarkSet2D(
            {n: obs.landmarks[n] for n in MODEL.names[:5]})
        with pytest.raises(DegenerateConfiguration):
            solve_one(partial, MODEL, intrinsics)

    @pytest.mark.parametrize("init", [
        np.zeros(5), np.zeros(7), np.zeros((1, 6)),
        [0.0, 0.0, 0.0, 0.0, 0.0, np.nan], [0.0, 0.0, 0.0, 0.0, 0.0, np.inf],
        [0.0, 0.0, 0.0, 0.0, 0.0, None], "abcdef",
    ])
    def test_bad_init_rejected(self, intrinsics, init):
        obs = synth_obs(np.eye(3), [0, 0, 1.0], intrinsics)
        with pytest.raises(ValueError, match="init must be six finite"):
            solve_one(obs, MODEL, intrinsics, init=init)

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
        solve_one(obs, MODEL, intrinsics)
        # the closed-form start and the descent evaluate residuals, and the
        # descent builds a Jacobian at some of those points only
        assert counts["_residuals"] > counts["_jacobian"] >= 1

    @pytest.mark.parametrize("jitter", [0.0, 1.0, 5.0])
    def test_start_at_own_solution_stops_at_once(self, intrinsics, jitter,
                                                 monkeypatch):
        # a warm start on an unchanged face at its exact minimum: the first
        # step is below step_tol, so the descent stops without a trial and
        # the pose comes back unchanged. Without the noise-floor stop
        # (K = 0), a noisy face's first solve ends at that minimum.
        rng = np.random.default_rng(7)
        obs = synth_obs(rotation_from_euler(50.0, -20.0, 5.0),
                        np.array([0.1, -0.05, 1.5]), intrinsics, jitter, rng)
        with monkeypatch.context() as exact:
            exact.setattr(headpose, "K", 0.0)
            pose = solve_one(obs, MODEL, intrinsics, step_tol=1e-6)
        init = np.concatenate((pose.axis_angle, pose.translation))
        evals = []

        def counted(*args, _real=headpose._residuals):
            evals.append(1)
            return _real(*args)

        monkeypatch.setattr(headpose, "_residuals", counted)
        again = solve_one(obs, MODEL, intrinsics, step_tol=1e-6, init=init)
        assert len(evals) <= 2
        for name in ("rotation", "translation", "axis_angle"):
            assert getattr(again, name).tobytes() \
                == getattr(pose, name).tobytes()
        assert (again.yaw, again.pitch, again.roll, again.rms_residual) \
            == (pose.yaw, pose.pitch, pose.roll, pose.rms_residual)

    def test_pose_carries_solver_axis_angle(self, intrinsics):
        w = np.array([0.3, -0.4, 0.1])
        obs = synth_obs(rodrigues(w), np.array([0.0, 0.1, 1.2]), intrinsics)
        pose = solve_one(obs, MODEL, intrinsics)
        assert np.abs(pose.axis_angle - w).max() < 1e-9
        assert rodrigues(pose.axis_angle).tobytes() == pose.rotation.tobytes()

    def test_extra_observed_landmarks_ignored(self, intrinsics):
        obs = synth_obs(np.eye(3), [0, 0, 1.0], intrinsics)
        extra = dict(obs.landmarks)
        extra["forehead"] = (320.0, 100.0)
        pose = solve_one(LandmarkSet2D(extra), MODEL, intrinsics)
        assert pose.rms_residual < 1e-6

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_noise_free_recovery_within_cone(self, seed):
        rng = np.random.default_rng(seed)
        yaw, pitch = rng.uniform(-60, 60, 2)
        roll = rng.uniform(-20, 20)
        rot = rotation_from_euler(yaw, pitch, roll)
        t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                      rng.uniform(0.6, 2.5)])
        pose = solve_one(synth_obs(rot, t, K), MODEL, K)
        assert pose.yaw == pytest.approx(yaw, abs=0.1)
        assert pose.pitch == pytest.approx(pitch, abs=0.1)
        assert np.abs(pose.translation - t).max() < 1e-4


def solver_truth(rng, distance):
    """The true (rotation, translation) of a `solver_case` face, drawn
    first from its generator."""
    rot = rotation_from_euler(*rng.uniform(-70, 70, 2), rng.uniform(-20, 20))
    t = np.array([rng.uniform(-0.3, 0.3) * distance,
                  rng.uniform(-0.2, 0.2) * distance, distance])
    return rot, t


def solver_case(seed, jitter, extended, drop, warm, distance):
    """A face seen at `distance` m with `jitter` px noise and `drop` model
    landmarks missing; `warm` adds an init near the true pose."""
    rng = np.random.default_rng(seed)
    model = EXTENDED_MODEL if extended else MODEL
    rot, t = solver_truth(rng, distance)
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


def descent_start(obs, model, init):
    """The start the solver descends from: `init`, or for None the
    closed-form start (None for a face with too few landmarks)."""
    names = tuple(n for n in model.names if n in obs.landmarks)
    if init is not None or len(names) < 6:
        return init
    return headpose._closed_form_starts(
        model.subset(names).points, obs.array_for(names)[None],
        np.array([K.fx, K.fy]), np.array([K.cx, K.cy]))[0]


def _outcome(solve, *args, **kwargs):
    try:
        pose = solve(*args, **kwargs)
    except (DegenerateConfiguration, NoConvergence, PointBehindCamera) as e:
        return type(e)
    return (pose.rotation.tobytes(), pose.translation.tobytes(), pose.yaw,
            pose.pitch, pose.roll, pose.rms_residual)


class TestClosedFormStart:
    """`headpose._closed_form_starts`, the start of every cold face."""

    def test_no_usable_candidate_starts_frontal_at_sop_depth(self):
        # a model whose nose lies 0.2 m behind the eye plane, seen 40x too
        # large: both candidates put a landmark behind the camera
        points = MODEL.points.copy()
        points[MODEL.names.index("nose_tip"), 2] = -0.2
        model = FaceModel3D(MODEL.names, points)
        pixels = project_model(model, np.eye(3), np.array([0.0, 0.0, 1.2]), K)
        obs = LandmarkSet2D({n: (K.cx + 40 * (u - K.cx), K.cy + 40 * (v - K.cy))
                             for n, (u, v) in pixels.items()})
        start = descent_start(obs, model, None)
        assert start[:3].tobytes() == np.zeros(3).tobytes()
        # the first landmark on its observed ray, at the SOP depth
        cam = model.points[0] + start[3:]
        np.testing.assert_allclose(
            (K.cx + K.fx * cam[0] / cam[2], K.cy + K.fy * cam[1] / cam[2]),
            obs.landmarks[model.names[0]], rtol=1e-12)
        assert isinstance(lm_solve_poses([obs], model, K)[0],
                          PointBehindCamera)

    @pytest.mark.parametrize("angle, usable", [
        (0.0, True), (1.0, True), (np.pi - 0.15, True),
        (np.pi - 0.13, False), (np.pi, False)])
    def test_rotation_near_a_half_turn_is_not_usable(self, angle, usable):
        w = angle * np.array([0.36, -0.48, 0.8])
        got, ok = headpose._axis_angles(rodrigues(w)[None])
        assert ok.tolist() == [usable]
        if usable:
            assert np.abs(got[0] - w).max() < 1e-12


class TestSolverMatchesReference:
    @given(seed=st.integers(0, 2**32 - 1),
           jitter=st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0.0, 5.0),
           extended=st.booleans(), drop=st.integers(0, 3),
           warm=st.booleans(),
           distance=st.sampled_from([0.12, 0.2, 0.6, 1.5]),
           accept_rms=st.sampled_from([100.0, 2.0, 0.01]))
    @settings(max_examples=150, deadline=None)
    # explicit cases, one per path: a clean cold face that stops at its
    # DLT start, a noisy one that descends from its SOP start, a cold
    # landmark subset, a cold NoConvergence, a given init whose trial
    # behind the camera is rejected, a given init behind the camera, a
    # given init on a landmark subset, and a noisy given init that stops at
    # the noise floor (7 face-evaluations, 20 without that stop)
    @example(seed=4099934951, jitter=0.0, extended=False, drop=0, warm=False,
             distance=1.5, accept_rms=2.0)
    @example(seed=3285177209, jitter=5.0, extended=True, drop=0, warm=False,
             distance=1.5, accept_rms=100.0)
    @example(seed=3653403231, jitter=1.0, extended=True, drop=1, warm=False,
             distance=0.12, accept_rms=100.0)
    @example(seed=900305243, jitter=5.0, extended=False, drop=0, warm=False,
             distance=0.12, accept_rms=0.01)
    @example(seed=3563721839, jitter=0.0, extended=False, drop=0, warm=True,
             distance=0.2, accept_rms=100.0)
    @example(seed=288786653, jitter=0.0, extended=False, drop=0, warm=True,
             distance=0.12, accept_rms=100.0)
    @example(seed=70985654, jitter=0.0, extended=True, drop=2, warm=True,
             distance=0.6, accept_rms=2.0)
    @example(seed=4, jitter=1.0, extended=False, drop=0, warm=True,
             distance=1.5, accept_rms=100.0)
    def test_bitwise_equal(self, seed, jitter, extended, drop, warm,
                           distance, accept_rms):
        # equal bytes of rotation and translation, equal yaw, pitch, roll
        # and rms, or the same exception class, as one reference descent
        # from the same start
        obs, model, init = solver_case(seed, jitter, extended, drop, warm,
                                       distance)
        want = _outcome(reference_descent, obs, model, K,
                        descent_start(obs, model, init), accept_rms=accept_rms)
        got = _outcome(solve_one, obs, model, K, init=init,
                       accept_rms=accept_rms)
        assert got == want


def failing_face(kind):
    """(obs, init) of a face whose solve ends in PointBehindCamera (a warm
    start 1 m behind the camera) or NoConvergence (scattered landmarks that
    no head fits within 100 px rms)."""
    rng = np.random.default_rng(0)
    obs = LandmarkSet2D({n: tuple(rng.uniform([0, 0], [640, 480]))
                         for n in MODEL.names})
    if kind == "behind":
        return obs, np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    return obs, None


def _raised(outcome):
    """A batch outcome as `solve_one` would end: return or raise."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


face_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0.0, 5.0),
    st.booleans(), st.integers(0, 3), st.booleans(),
    st.sampled_from([0.12, 0.2, 0.6, 1.5]))


class TestBatchedSolves:
    """`lm_solve_poses` against one-face solves of the same faces."""

    @given(cases=st.lists(face_cases, min_size=1, max_size=5),
           failing=st.sampled_from(["behind", "no_convergence"]),
           at=st.integers(0, 5),
           accept_rms=st.sampled_from([100.0, 2.0, 0.01]))
    @settings(max_examples=60, deadline=None)
    def test_each_face_as_if_alone(self, cases, failing, at, accept_rms):
        # warm and cold starts, jitter 0-5 px, and landmark subsets of the
        # extended model, so that the batch holds several landmark sets
        faces = [solver_case(*case)[::2] for case in cases]
        faces.insert(min(at, len(faces)), failing_face(failing))
        got = lm_solve_poses([obs for obs, _ in faces], EXTENDED_MODEL, K,
                             inits=[init for _, init in faces],
                             accept_rms=accept_rms)
        assert len(got) == len(faces)
        for (obs, init), pose in zip(faces, got):
            outcome = _outcome(lambda: _raised(pose))
            alone = _outcome(solve_one, obs, EXTENDED_MODEL, K,
                             init=init, accept_rms=accept_rms)
            assert outcome == alone
            want = _outcome(reference_descent, obs, EXTENDED_MODEL, K,
                            descent_start(obs, EXTENDED_MODEL, init),
                            accept_rms=accept_rms)
            assert outcome == want
        assert _outcome(lambda: _raised(got[min(at, len(cases))])) \
            is {"behind": PointBehindCamera,
                "no_convergence": NoConvergence}[failing]

    @pytest.mark.parametrize("failing", ["behind", "no_convergence"])
    def test_failing_face_changes_no_other_face(self, failing):
        faces = [solver_case(seed, jitter, False, 0, warm, 0.6)[::2]
                 for seed, jitter, warm in ((1, 0.0, False), (2, 1.0, True),
                                            (3, 5.0, False), (4, 2.0, True))]
        obs, inits = zip(*faces)
        before = lm_solve_poses(obs, MODEL, K, inits=inits)
        bad_obs, bad_init = failing_face(failing)
        after = lm_solve_poses(obs[:2] + (bad_obs,) + obs[2:], MODEL, K,
                               inits=inits[:2] + (bad_init,) + inits[2:])
        assert isinstance(after[2], (PointBehindCamera, NoConvergence))
        for a, b in zip(before, after[:2] + after[3:]):
            assert all(isinstance(pose, HeadPose) for pose in (a, b))
            for name in ("rotation", "translation", "axis_angle"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert (a.yaw, a.pitch, a.roll, a.rms_residual) \
                == (b.yaw, b.pitch, b.roll, b.rms_residual)

    def test_one_init_per_face(self):
        obs, _ = failing_face("no_convergence")
        with pytest.raises(ValueError, match="inits for"):
            lm_solve_poses([obs, obs], MODEL, K, inits=[None])


class TestReferenceIsIndependent:
    """The oracle of the bitwise tests runs none of the solver's kernels,
    so a rewritten kernel is not checked against itself."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_reference_descent_without_solver_kernels(self, warm,
                                                      monkeypatch):
        obs, model, init = solver_case(4, 1.0, True, 1, warm, 0.6)
        start = descent_start(obs, model, init)
        want = _outcome(reference_descent, obs, model, K, start)

        def refuse(*args, **kwargs):
            raise AssertionError("the reference called a solver kernel")

        for name in ("_skew", "_rodrigues", "_residuals", "_jacobian",
                     "_normal_equations", "_solve", "euler_from_rotation",
                     "lm_solve_poses"):
            monkeypatch.setattr(headpose, name, refuse)
            monkeypatch.setattr(conftest, name, refuse, raising=False)
        assert _outcome(reference_descent, obs, model, K, start) == want
        assert isinstance(want, tuple)


def pose_arrays(poses) -> list:
    """The arrays of each HeadPose among `poses`."""
    return [getattr(p, name) for p in poses if isinstance(p, HeadPose)
            for name in ("rotation", "translation", "axis_angle")]


def kernel_arrays(seed, b, n) -> list:
    """The residuals and Jacobian of `b` poses in front of the camera,
    fitting `n` landmarks of the extended model, from the solver's kernels
    as the descent calls them, and one pose's by `residuals_and_jacobian`."""
    rng = np.random.default_rng(seed)
    points = EXTENDED_MODEL.points[rng.permutation(9)[:n]]
    params = np.column_stack([rng.normal(0, 0.5, (b, 3)),
                              rng.normal(0, 0.05, (b, 2)),
                              rng.uniform(0.6, 2.0, b)])
    observed = rng.uniform([0, 0], [640, 480], (b, n, 2))
    focal, center = np.array([K.fx, K.fy]), np.array([K.cx, K.cy])
    res, terms = headpose._residuals(params, points, observed, focal, center)
    jac = headpose._jacobian(points, focal, *terms)
    one = residuals_and_jacobian(params[0], points, observed[0], K)
    return [res, jac, *one]


operations = st.one_of(
    st.tuples(st.just("solve"), st.lists(face_cases, min_size=1, max_size=5)),
    st.tuples(st.just("kernels"), st.integers(0, 2**32 - 1),
              st.integers(1, 5), st.integers(6, 9)))


class TestNoSharedMemory:
    """No array a solve or a kernel returns lives in memory that a later
    call reuses: each keeps its bytes, and shares no memory with arrays
    that later calls return."""

    @staticmethod
    def check(kept, new):
        for arr in new:
            assert not any(np.shares_memory(arr, old) for old, _ in kept)
        kept += [(arr, arr.tobytes()) for arr in new]
        for arr, data in kept:
            assert arr.tobytes() == data

    @given(ops=st.lists(operations, min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_calls(self, ops):
        kept = []
        for kind, *args in ops:
            if kind == "solve":
                faces = [solver_case(*case)[::2] for case in args[0]]
                new = pose_arrays(lm_solve_poses(
                    [obs for obs, _ in faces], EXTENDED_MODEL, K,
                    inits=[init for _, init in faces]))
            else:
                new = kernel_arrays(*args)
            self.check(kept, new)

    def test_warm_poses_the_pipeline_keeps(self):
        sc = Scenario.from_json(Path(__file__).resolve().parent / "data"
                                / "attention_crowd.json")
        pipeline = Pipeline(sc.intrinsics)
        kept, seen = [], set()
        for i in range(20):
            pipeline.step(synthesize_frame_data(sc, i)[0])
            new = [p for p in pipeline.head_poses.values()
                   if id(p) not in seen]
            seen.update(map(id, new))
            self.check(kept, pose_arrays(new))
        assert len(seen) > 20


# rotations whose decomposition meets a branch or a boundary: the identity
# with zeros of either sign, pitch at ±90° (gimbal lock), yaw and roll at
# the -180° wrap, and NaN
EULER_EDGES = [
    np.eye(3),
    np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]]),
    np.array([[1.0, 0.0, -0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 1.0]]),
    rotation_from_euler(20, 90, 35), rotation_from_euler(20, -90, 35),
    rotation_from_euler(-170, 90, 0), rotation_from_euler(0, -90, 170),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]),
    np.array([[-1.0, 0.0, -0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, -1.0]]),
    np.array([[1.0, 0.0, 0.0], [-0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[-1.0, 0.0, -0.0], [-0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0 - 1e-15], [0.0, 1.0, 0.0]]),
    np.full((3, 3), np.nan),
]


def euler_bits(angles) -> bytes:
    return np.array(angles, dtype=np.float64).tobytes()


class TestBatchedEuler:
    """`euler_from_rotation` of a stack against the one-rotation
    decomposition it replaced (`conftest.reference_euler`), bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_random_rotations(self, seed, b):
        rng = np.random.default_rng(seed)
        rots = np.array([rodrigues(w) for w in rng.normal(0, 2.0, (b, 3))])
        got = euler_from_rotation(rots)
        assert euler_bits(got) == euler_bits(
            [reference_euler(r) for r in rots])

    @given(picks=st.lists(st.integers(0, len(EULER_EDGES) - 1), min_size=1,
                          max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_edges_in_any_stack(self, picks):
        rots = np.array([EULER_EDGES[i] for i in picks])
        got = euler_from_rotation(rots)
        assert euler_bits(got) == euler_bits(
            [reference_euler(r) for r in rots])

    @pytest.mark.parametrize("index", range(len(EULER_EDGES)))
    def test_each_edge(self, index):
        rot = EULER_EDGES[index]
        assert euler_bits(euler_from_rotation(rot)) \
            == euler_bits(reference_euler(rot))
        assert all(type(a) is float for a in euler_from_rotation(rot))


class TestSolverGates:
    """Solver gates, never tuned to pass."""

    @given(seed=st.integers(0, 2**32 - 1), extended=st.booleans(),
           drop=st.integers(0, 3),
           distance=st.sampled_from([0.12, 0.2, 0.6, 1.5]))
    @settings(max_examples=200, deadline=None)
    # the first three failed with the frontal start and its restarts: yaw
    # 58.7, pitch -60.0 solved to 48.5 m at 15.96 px rms; a descent stopped
    # at 2.65 px, under the 3 px restart rule; one ended at 3e-4 px. The
    # last ends at 5.8 px from the SOP start without the DLT candidate.
    @example(seed=79, extended=False, drop=0, distance=1.5)
    @example(seed=235, extended=True, drop=3, distance=1.5)
    @example(seed=1069, extended=False, drop=0, distance=0.2)
    @example(seed=630, extended=False, drop=0, distance=0.12)
    def test_noise_free_face_solves_to_its_true_pose(self, seed, extended,
                                                     drop, distance):
        assume(extended or drop == 0)  # the default model has none to spare
        obs, model, _ = solver_case(seed, 0.0, extended, drop, False,
                                    distance)
        _, t = solver_truth(np.random.default_rng(seed), distance)
        pose = solve_one(obs, model, K)
        assert pose.rms_residual < 1e-6
        assert np.abs(pose.translation - t).max() < 1e-4


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
    np.testing.assert_allclose(headpose._skew(a, headpose._SKEW_SIGN) @ b,
                               np.cross(a, b), atol=1e-15)


@given(v=st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25])
                  | st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_skew_is_the_gathered_one_bit_for_bit(v):
    # [v]x and -[v]x as the reference gathers them from
    # (x, y, z, 0, -x, -y, -z, -0), zeros' signs included
    v = np.array([v, v[::-1]])
    assert headpose._skew(v, headpose._SKEW_SIGN).tobytes() \
        == skew(v).tobytes()
    assert headpose._skew(v, headpose._NEG_SKEW_SIGN).tobytes() \
        == (-skew(v)).tobytes()
