"""End-to-end acceptance gate.

Each test prints one pass/fail line (run with -s or read captured output)
and enforces both the behavioral bound and its runtime budget.
"""

import json
import time
from pathlib import Path

import numpy as np

from semmap.cli import main as cli_main
from semmap.config import PipelineConfig
from semmap.geometry import CameraIntrinsics, PointCloud, backproject
from semmap.headpose import (
    FaceModel3D,
    LandmarkSet2D,
    project_model,
    rotation_from_euler,
)
from semmap.semantic_map import chamfer_distance
from semmap.simulator import (
    Scenario,
    run_scenario_detailed,
    synthesize_frame_data,
)
from semmap.tracker import IoUTracker, iou
from semmap.willingness import WillingnessState, update

from conftest import (
    brute_force_chamfer,
    project,
    random_pose,
    residuals_and_jacobian,
    solve_one,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "configs" / "scenarios"

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                     width=640, height=480)


def report(name, ok, elapsed, budget):
    in_budget = elapsed < budget
    verdict = "PASS" if ok and in_budget else "FAIL"
    print(f"[acceptance] {name}: {verdict} "
          f"({elapsed:.2f} s, budget {budget:g} s)")
    assert ok, f"{name} failed its behavioral bound"
    assert in_budget, f"{name} took {elapsed:.2f} s, budget {budget:g} s"


def test_criterion_1_geometry_round_trip():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = CameraIntrinsics(
            fx=float(rng.uniform(300, 900)), fy=float(rng.uniform(300, 900)),
            cx=float(rng.uniform(200, 440)), cy=float(rng.uniform(150, 330)),
            width=640, height=480)
        pose = random_pose(rng)
        u = float(rng.uniform(0, k.width))
        v = float(rng.uniform(0, k.height))
        d = float(rng.uniform(0.1, 10.0))
        p = backproject(u, v, d, pose, k)
        u2, v2, d2 = project(p, pose, k)
        worst = max(worst,
                    abs(u2 - u) * d / k.fx,
                    abs(v2 - v) * d / k.fy,
                    abs(d2 - d))
    elapsed = time.perf_counter() - t0
    report("1 geometry round trip", worst < 1e-9, elapsed, 1.0)


def _raster_iou(a, b, size=64):
    ga = np.zeros((size, size), dtype=bool)
    gb = np.zeros((size, size), dtype=bool)
    ga[a[1]:a[3], a[0]:a[2]] = True
    gb[b[1]:b[3], b[0]:b[2]] = True
    union = int((ga | gb).sum())
    if union == 0:
        return 0.0
    return int((ga & gb).sum()) / union


def test_criterion_2_iou_oracle():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    ok = iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    ok &= iou((0, 0, 10, 10), (30, 30, 40, 40)) == 0.0
    ok &= abs(iou((0, 0, 10, 10), (5, 0, 15, 10)) - 1.0 / 3.0) < 1e-12
    worst = 0.0
    for _ in range(10_000):
        a = rng.integers(0, 50, 2)
        b = rng.integers(1, 14, 2)
        c = rng.integers(0, 50, 2)
        d = rng.integers(1, 14, 2)
        ra = (int(a[0]), int(a[1]), int(a[0] + b[0]), int(a[1] + b[1]))
        rb = (int(c[0]), int(c[1]), int(c[0] + d[0]), int(c[1] + d[1]))
        v = iou(ra, rb)
        worst = max(worst, abs(v - _raster_iou(ra, rb)))
        ok &= 0.0 <= v <= 1.0
        ok &= iou(rb, ra) == v
    elapsed = time.perf_counter() - t0
    report("2 IoU vs rasterized oracle", ok and worst < 1e-6, elapsed, 5.0)


def test_criterion_3_chamfer_equivalence():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        a = rng.uniform(-2, 2, (int(rng.integers(1, 501)), 3))
        b = rng.uniform(-2, 2, (int(rng.integers(1, 501)), 3))
        fast = chamfer_distance(PointCloud(a), PointCloud(b))
        ok &= fast == brute_force_chamfer(a, b)
    elapsed = time.perf_counter() - t0
    report("3 chamfer exact equivalence", ok, elapsed, 10.0)


def test_criterion_4_no_duplicate_registration():
    t0 = time.perf_counter()
    scenario = Scenario.from_json(SCENARIO_DIR / "desk_orbit.json")
    assert scenario.num_frames == 100
    assert len({o.class_label for o in scenario.world_objects}) == 5
    _, metrics, _ = run_scenario_detailed(scenario)
    ok = (metrics.registered_count == 5
          and metrics.duplicate_count == 0
          and metrics.recall == 1.0)
    elapsed = time.perf_counter() - t0
    report("4 no-duplicate registration", ok, elapsed, 10.0)


def test_criterion_5_correction_triggered_merge():
    t0 = time.perf_counter()
    scenario_path = SCENARIO_DIR / "drift_loop.json"
    runs = []
    for _ in range(2):
        scenario = Scenario.from_json(scenario_path)
        _, metrics, events = run_scenario_detailed(scenario)
        runs.append((metrics, events))
    metrics, events = runs[0]
    frame = Scenario.from_json(scenario_path).correction_events[0].frame
    pre = events[frame - 1]["registry_size"]
    post = events[frame]["registry_size"]
    pairs = events[frame]["merges"][0]["pairs"]
    ok = (metrics.gt_object_count == 5 and pre == 6 and post == 5
          and len(pairs) == 1)
    ok &= json.dumps(runs[0][1], sort_keys=True) \
        == json.dumps(runs[1][1], sort_keys=True)
    elapsed = time.perf_counter() - t0
    report("5 correction-triggered merge", ok, elapsed, 10.0)


def _rotation_error_deg(ra, rb):
    c = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def test_criterion_6_lm_recovery():
    model = FaceModel3D.default()
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()

    def trial(noise_sigma, z_max=2.5):
        yaw, pitch = rng.uniform(-60, 60, 2)
        roll = rng.uniform(-30, 30)
        rot = rotation_from_euler(float(yaw), float(pitch), float(roll))
        t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                      rng.uniform(0.6, z_max)])
        pixels = project_model(model, rot, t, K)
        if noise_sigma > 0:
            pixels = {n: (u + rng.normal(0, noise_sigma),
                          v + rng.normal(0, noise_sigma))
                      for n, (u, v) in pixels.items()}
        pose = solve_one(LandmarkSet2D(pixels), model, K)
        return (_rotation_error_deg(pose.rotation, rot),
                float(np.abs(pose.translation - t).max()))

    clean = [trial(0.0) for _ in range(100)]
    exact = sum(1 for r, tr in clean if r <= 0.1 and tr <= 1e-4)
    # conversational range; beyond ~1.5 m the face spans too few
    # pixels for 1 px noise to leave a meaningful signal
    noisy_rot = sorted(trial(1.0, z_max=1.5)[0] for _ in range(100))
    median_rot = 0.5 * (noisy_rot[49] + noisy_rot[50])

    worst_jac = 0.0
    for _ in range(20):
        params = np.concatenate([rng.normal(0, 0.5, 3),
                                 [rng.normal(0, 0.1), rng.normal(0, 0.1),
                                  rng.uniform(0.8, 2.0)]])
        observed = rng.uniform([0, 0], [640, 480], (len(model.points), 2))
        _, jac = residuals_and_jacobian(params, model.points, observed, K)
        eps = 1e-6
        for j in range(6):
            hi, lo = params.copy(), params.copy()
            hi[j] += eps
            lo[j] -= eps
            r_hi, _ = residuals_and_jacobian(hi, model.points, observed, K)
            r_lo, _ = residuals_and_jacobian(lo, model.points, observed, K)
            worst_jac = max(worst_jac, float(np.abs(
                jac[:, j] - (r_hi - r_lo) / (2 * eps)).max()))

    ok = exact >= 99 and median_rot <= 3.0 and worst_jac <= 1e-4
    elapsed = time.perf_counter() - t0
    report(f"6 LM recovery ({exact}/100 exact, "
           f"median noisy rot {median_rot:.2f} deg, "
           f"jac dev {worst_jac:.1e})", ok, elapsed, 30.0)


def test_criterion_7_willingness_dynamics():
    t0 = time.perf_counter()
    config = PipelineConfig()
    ok = config.willingness_rate_down < config.willingness_rate_up

    dt = 0.01  # 100 Hz
    quantum = config.willingness_rate_up * dt
    state = WillingnessState(rate_up=config.willingness_rate_up,
                             rate_down=config.willingness_rate_down)
    schedule = [(2.0, True), (1.0, False), (3.0, True)]
    t = 0.0
    for duration, attending in schedule:
        for _ in range(round(duration / dt)):
            state = update(state, attending, dt, config.willingness_reset)
            t += dt
            r_up, r_down = config.willingness_rate_up, \
                config.willingness_rate_down
            if t <= 2.0 + 1e-12:
                expected = r_up * t
            elif t <= 3.0 + 1e-12:
                expected = r_up * 2.0 - r_down * (t - 2.0)
            else:
                expected = min(1.0, r_up * 2.0 - r_down + r_up * (t - 3.0))
            ok &= abs(state.value - expected) <= quantum + 1e-12

    state = WillingnessState(rate_up=config.willingness_rate_up,
                             rate_down=config.willingness_rate_down)
    rises = 0
    prev_triggered = False
    for _ in range(round(3.5 / dt)):
        state = update(state, True, dt, config.willingness_reset)
        if state.triggered and not prev_triggered:
            rises += 1
        prev_triggered = state.triggered
    ok &= rises == 1

    elapsed = time.perf_counter() - t0
    report("7 willingness dynamics", ok, elapsed, 30.0)


def test_criterion_8_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    scenario = str(SCENARIO_DIR / "desk_orbit.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["run", "--scenario", scenario, "--out", str(out)])
        assert code == 0
        outs.append(out)
    ok = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("map.json", "metrics.json", "events.jsonl")
    )
    elapsed = time.perf_counter() - t0
    report("8 end-to-end determinism", ok, elapsed, 30.0)


def test_criterion_9_false_positive_filter():
    t0 = time.perf_counter()
    d = json.loads((SCENARIO_DIR / "desk_orbit.json").read_text())
    d["noise"] = {"false_positive_rate": 2.0}
    scenario = Scenario.from_dict(d)
    config = PipelineConfig()
    tracker = IoUTracker(config.iou_threshold, config.min_track_length,
                         config.track_ttl)
    total_fp = 0
    spurious_confirmations = 0
    confirmations = 0
    for i in range(scenario.num_frames):
        inp, provenance = synthesize_frame_data(scenario, i)
        total_fp += sum(1 for src in provenance if src[0] == "fp")
        track_by_id = {}
        for tid, _ in tracker.step(inp.detections, i):
            confirmations += 1
            if not track_by_id:
                track_by_id = {t.track_id: t for t in tracker.tracks}
            det_idx = track_by_id[tid].last_detection_index
            if provenance[det_idx][0] == "fp":
                spurious_confirmations += 1
    ok = total_fp > 50 and confirmations > 0 and spurious_confirmations == 0
    elapsed = time.perf_counter() - t0
    report(f"9 false-positive filter ({total_fp} spurious detections, "
           f"0 confirmed expected, {spurious_confirmations} confirmed)",
           ok, elapsed, 10.0)
