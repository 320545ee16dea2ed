"""Benchmark of the semmap pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload tabletop_sweep --seed 1 --seconds 20 --trace 0

The seed generates the workload's scenario dicts (see workloads.py); the
program receives only those dicts, through `Scenario.from_dict`. One process
runs them through `semmap.simulator.run_scenario_detailed`, one scenario at a
time, round-robin, until `--seconds` have passed and every scenario has run
once and the first one twice. The runner pulls frame i+1 only after frame i
is done, so the loop is closed.

With `--trace 0` the only hook is a timestamp pair around the frame source,
`semmap.simulator.synthesize_frame_data`. A frame's pipeline time runs from
the return of its synthesis to the start of the next frame's synthesis, or
to the runner's return. Each frame of each scenario counts once in the
metrics, with its median over the scenario's passes in the run. With
`--trace 1` an untraced pass of the first scenario gives the base for the
tracing overhead, then tracing.py wraps the layer calls from outside, and
the same loop, traced, gives the per-layer metrics of one pass over every
scenario.

Every run checks its outputs: each pass yields one event per frame, and the
sha256 digests of map.json, metrics.json and events.jsonl (as `semmap run`
writes them) agree between repeats of one scenario. The digests of the
shipped scenarios in configs/scenarios/ are printed and compared with the
reference in baseline.json. The last line of standard output is one JSON
object: correct, attempted (scenario passes), failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
OUTPUT_FILES = ("map.json", "metrics.json", "events.jsonl")
SETUP_REPEATS = 5
# calibration kernel time on an otherwise idle 2.0 GHz Xeon core
CALIBRATION_REFERENCE_S = 0.010
# least time between two kernel runs in a timed pass
CALIBRATION_INTERVAL_S = 0.3

SEMMAP_MODULES = ("simulator", "semantic_map", "tracker", "headpose",
                  "willingness", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_semmap():
    """Import semmap from this checkout's src/, afresh; returns its modules."""
    src = ROOT / "src"
    if not (src / "semmap" / "__init__.py").is_file():
        raise SystemExit(f"semmap sources not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "semmap" or m.startswith("semmap.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"semmap.{name}")
               for name in SEMMAP_MODULES}
    if not Path(modules["simulator"].__file__).resolve().is_relative_to(src):
        raise SystemExit("semmap was imported from outside this checkout")
    return modules


def setup(dicts, host):
    """Import semmap and build the scenarios, several times; the last
    build is kept. Returns (modules, scenarios, per-repeat seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = import_semmap()
        scenarios = [modules["simulator"].Scenario.from_dict(d)
                     for d in dicts]
        times.append(time.perf_counter() - start)
        host.sample()
    return modules, scenarios, times


def dump_json(obj) -> str:
    """One line of JSON in the byte format `semmap run` writes."""
    return json.dumps(obj, sort_keys=True) + "\n"


def output_digests(registry, metrics, events):
    """sha256 of map.json, metrics.json and events.jsonl."""
    files = (dump_json(registry.export()), dump_json(metrics.to_dict()),
             "".join(dump_json(ev) for ev in events))
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in files)


def quality_counts(scenario, metrics, events):
    """(matched, ground truth, registered, person rows, correct rows)."""
    matched = round(metrics.recall * metrics.gt_object_count)
    rows = right = 0
    for ev in events:
        for row in ev["persons"]:
            rows += 1
            right += row["attending"] == scenario.attending_gt(
                row["person"], ev["frame"])
    return (matched, metrics.gt_object_count, metrics.registered_count,
            rows, right)


class HostSpeed:
    """Times a fixed calibration kernel now and then during a run.

    On a shared virtual machine (2 vCPUs, Xeon at 2.0 GHz) the speed of
    fixed work drifts by up to 1.8x within seconds to minutes, more than
    any program change a run must resolve. End-to-end times are therefore
    scaled by CALIBRATION_REFERENCE_S / (mean kernel time while they were
    measured): they read as times on a host that runs the kernel at
    reference speed. Set-up is scaled by the kernel runs made during
    set-up; each timed pass by the runs FrameClock makes during that pass.
    Sampled once before a pass, the kernel missed the host's swings within
    it: scaled pass times still varied by 1.4x. Sampled evenly through the
    pass, they vary by 1.1x.
    The kernel has the pipeline's shape: small numpy reductions and solves
    inside Python loops, a scatter-minimum, and dict updates.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.uniform(-1.0, 1.0, (64, 3))
        self._system = rng.uniform(-1.0, 1.0, (6, 6)) + 6.0 * np.eye(6)
        self._cells = rng.integers(0, 4096, 300)
        self.samples = []

    def sample(self):
        """Run the kernel once and record its wall time."""
        start = time.perf_counter()
        points = self._points
        for q in points[np.arange(600) % 64]:
            np.sqrt(np.sum((points - q) ** 2, axis=1)).min()
        rhs = points[:, [0, 1, 2, 0, 1, 2]]
        for i in range(200):
            np.linalg.solve(self._system + i * 1e-3 * np.eye(6), rhs[i % 64])
        depth = np.full(4096, np.inf)
        values = np.resize(points[:, 0], 300)
        for i in range(30):
            np.minimum.at(depth, self._cells, values + i)
        buckets = {}
        for i in range(6000):
            buckets.setdefault((i % 17, i % 13), []).append(i)
        self.samples.append(time.perf_counter() - start)

    def slowdown(self, count=None):
        """Mean time of the first `count` kernel runs (default: all) over
        the reference time."""
        return (statistics.fmean(self.samples[:count])
                / CALIBRATION_REFERENCE_S)


class FrameClock:
    """The untraced run's one hook: timestamps around the frame source.

    Between the timestamps, before the frame is synthesized, the hook runs
    the host's calibration kernel once every CALIBRATION_INTERVAL_S, and at
    the first frame of each pass. So the kernel samples host speed evenly
    through each pass, and its time falls in the frame source's, never in
    a frame's pipeline time.
    """

    def __init__(self, simulator, host):
        self.marks = []
        self.host = host
        self._simulator = simulator
        self._source = simulator.synthesize_frame_data
        self._first_sample = 0
        self._last_sample = -math.inf

    def begin_pass(self):
        self.marks.clear()
        self._first_sample = len(self.host.samples)
        self._last_sample = -math.inf

    def pass_samples(self):
        """Kernel times of the current pass, in seconds."""
        return self.host.samples[self._first_sample:]

    def __enter__(self):
        source, marks, host = self._source, self.marks, self.host

        def timed_source(*args, **kwargs):
            start = time.perf_counter()
            if start - self._last_sample >= CALIBRATION_INTERVAL_S:
                self._last_sample = start
                host.sample()
            data = source(*args, **kwargs)
            marks.append((start, time.perf_counter()))
            return data

        self._simulator.synthesize_frame_data = timed_source
        return self

    def __exit__(self, *exc):
        self._simulator.synthesize_frame_data = self._source


class Runs:
    """Outcome of every scenario pass in one benchmark run."""

    def __init__(self, scenarios):
        self.scenarios = scenarios
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # scenario index -> digests of its first pass
        self.quality = {}  # scenario index -> quality_counts
        self.walls = {}  # scenario index -> runner seconds of each pass
        self.frame_ms = {}  # scenario index -> per-frame ms of each pass
        self.slowdowns = []  # host slowdown of each timed pass

    def run(self, index, runner, clock=None):
        """One pass of scenario `index`, checked and recorded."""
        scenario = self.scenarios[index]
        self.attempted += 1
        if clock is not None:
            clock.begin_pass()
        try:
            start = time.perf_counter()
            registry, metrics, events = runner(scenario)
            end = time.perf_counter()
            digests = output_digests(registry, metrics, events)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        problems = []
        if len(events) != scenario.num_frames:
            problems.append(f"{len(events)} events for "
                            f"{scenario.num_frames} frames")
        if self.digests.setdefault(index, digests) != digests:
            problems.append("outputs differ from an earlier pass")
        if clock is not None and len(clock.marks) != scenario.num_frames:
            problems.append(f"{len(clock.marks)} frames synthesized")
        if problems:
            print(f"scenario {index}: " + "; ".join(problems))
            self.failed += 1
            return
        self.quality.setdefault(
            index, quality_counts(scenario, metrics, events))
        wall = end - start
        if clock is not None:
            kernel = clock.pass_samples()
            slowdown = statistics.fmean(kernel) / CALIBRATION_REFERENCE_S
            self.slowdowns.append(slowdown)
            wall = (wall - sum(kernel)) / slowdown
            ends = [e for _, e in clock.marks]
            nexts = [s for s, _ in clock.marks[1:]] + [end]
            self.frame_ms.setdefault(index, []).append(
                [(n - e) * 1000 / slowdown for e, n in zip(ends, nexts)])
        self.walls.setdefault(index, []).append(wall)

    def loop(self, seconds, runner, clock=None, after_pass=None):
        """Passes round-robin over the scenarios until `seconds` have passed
        and every scenario has run once and the first twice."""
        start = time.perf_counter()
        count = len(self.scenarios)
        done = 0
        while done <= count or time.perf_counter() - start < seconds:
            self.run(done % count, runner, clock)
            done += 1
            if after_pass is not None:
                after_pass()

    # A scenario's frames are the same work on every pass, so each frame and
    # each scenario counts once, with its median over the passes: every
    # scenario weighs the same however many passes fit in the run.

    @property
    def wall_s(self):
        """Runner seconds of one pass over each scenario that ran, kernel
        runs left out."""
        return sum(statistics.median(w) for w in self.walls.values())

    @property
    def frames_per_s(self):
        frames = sum(self.scenarios[i].num_frames for i in self.walls)
        return frames / self.wall_s if self.walls else 0.0

    def frame_times(self):
        """(pipeline ms, deadline ms) of each frame of each scenario."""
        times = []
        for index, passes in sorted(self.frame_ms.items()):
            budget = 1000 / self.scenarios[index].fps
            times.extend((statistics.median(ms), budget)
                         for ms in zip(*passes))
        return times


def end_to_end(runs, setup_times, host):
    """End-to-end metrics; times are scaled to the reference host speed."""
    totals = [sum(q[i] for q in runs.quality.values()) for i in range(5)]
    matched, gt, registered, rows, right = totals
    times = runs.frame_times()
    frame_ms = sorted(ms for ms, _ in times)
    met = sum(ms <= budget for ms, budget in times)
    return {
        "setup_s": (statistics.median(setup_times)
                    / host.slowdown(SETUP_REPEATS), "s"),
        "frames_per_s": (runs.frames_per_s, "frames/s"),
        "pipeline_ms.p50": (tracing.percentile(frame_ms, 50), "ms"),
        "pipeline_ms.p95": (tracing.percentile(frame_ms, 95), "ms"),
        "pipeline_ms.mean": (statistics.fmean(frame_ms), "ms"),
        "deadline_met_frac": (met / len(frame_ms), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "map_recall": (matched / gt if gt else 1.0, "ratio"),
        "map_precision": (matched / registered if registered else 1.0,
                          "ratio"),
        # no person rows (no persons in the workload) means no wrong decision
        "attention_accuracy": (right / rows if rows else 1.0, "ratio"),
    }


def measure_untraced(modules, scenarios, seconds, host):
    simulator = modules["simulator"]
    runs = Runs(scenarios)
    first_sample = len(host.samples)
    with FrameClock(simulator, host) as clock:
        runs.loop(seconds, simulator.run_scenario_detailed, clock)
    slowdowns = sorted(runs.slowdowns) or [math.nan]
    print(f"untraced: {runs.attempted} passes of {len(scenarios)} "
          f"scenarios, {sum(map(len, runs.walls.values()))} checked, "
          f"{len(runs.frame_times())} distinct frames; host slowdown per "
          f"pass {slowdowns[0]:.3f} to {slowdowns[-1]:.3f} (median "
          f"{statistics.median(slowdowns):.3f}) from "
          f"{len(host.samples) - first_sample} kernel runs against the "
          f"{CALIBRATION_REFERENCE_S * 1000:g} ms reference")
    return runs


def measure_traced(modules, scenarios, seconds, trace_path):
    """Per-layer metrics of one traced cycle over every scenario.

    An untraced pass of the last traced pass's scenario, run right after
    it, gives the tracing overhead: both passes run warm and close in time,
    so neither the first pass's warm-up nor a swing of host speed between
    distant passes enters the ratio. Later passes repeat earlier ones and
    must repeat their work counts exactly.
    """
    simulator = modules["simulator"]
    runs = Runs(scenarios)
    tracer = tracing.Tracer()
    passes = []
    walls = []

    def traced(scenario):
        start = time.perf_counter()
        registry, metrics, events = tracer.run(
            simulator.run_scenario_detailed, scenario)
        walls.append(time.perf_counter() - start)
        tracer.counts["semantic_map.duplicate_count"] += \
            metrics.duplicate_count
        return registry, metrics, events

    tracer.install(modules)
    try:
        runs.loop(seconds, traced, after_pass=lambda: passes.append(
            tracer.take()))
    finally:
        tracer.uninstall()
    base = Runs(scenarios)
    base.digests = runs.digests  # tracing must not change any output
    base.run((len(passes) - 1) % len(scenarios),
             simulator.run_scenario_detailed)
    count = len(scenarios)
    for i in range(count, len(passes)):
        if tracing.work_counts(passes[i]) != \
                tracing.work_counts(passes[i % count]):
            print(f"pass {i}: work counts differ from pass {i % count}")
            runs.failed += 1
    cycle = tracing.merge(passes[:count])
    overhead = base.wall_s / walls[-1] if base.walls and walls else 0.0
    metrics = tracing.layer_metrics(cycle, overhead)
    tracing.write(trace_path, passes)

    spans = cycle["spans"]
    print(f"traced: {len(passes)} passes; one cycle of {count} "
          f"(name, calls, total ms, self ms):")
    for name, agg in sorted(spans.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"  {name:46s} {agg['calls']:8d} {agg['total_ns'] / 1e6:10.1f} "
              f"{agg['self_ns'] / 1e6:10.1f}")
    self_ms = sum(agg["self_ns"] for agg in spans.values()) / 1e6
    print(f"  self times sum to {self_ms:.1f} ms of "
          f"{spans[tracing.RUNNER]['total_ns'] / 1e6:.1f} ms traced wall; "
          f"spans in {trace_path.relative_to(ROOT)}")
    runs.attempted += base.attempted
    runs.failed += base.failed
    return runs, metrics


def check_shipped(cli):
    """Run each shipped scenario as `semmap run` does and print digests."""
    reference = json.loads((BENCH_DIR / "baseline.json").read_text())
    reference = reference["shipped_digests"]
    ok = True
    for path in sorted((ROOT / "configs" / "scenarios").glob("*.json")):
        out = OUT_DIR / "shipped" / path.stem
        code = cli.main(["run", "--scenario", str(path), "--out", str(out)])
        if code != 0:
            print(f"shipped {path.stem}: semmap run exited {code}")
            ok = False
            continue
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in OUTPUT_FILES}
        same = digests == reference.get(path.stem)
        print(f"shipped {path.stem}: "
              f"{'matches' if same else 'DIFFERS FROM'} the seed reference; "
              + " ".join(f"{f}={d[:16]}" for f, d in digests.items()))
    return ok


def main(argv=None):
    args = parse_args(argv)
    dicts = workloads.generate(args.workload, args.seed)
    host = HostSpeed()
    modules, scenarios, setup_times = setup(dicts, host)
    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(scenarios)} scenarios, "
          f"{sum(s.num_frames for s in scenarios)} frames in all; "
          f"setup {', '.join(f'{t:.3f}' for t in setup_times)} s")
    if args.trace:
        trace_path = OUT_DIR / f"trace_{args.workload}_{args.seed}.jsonl"
        runs, metrics = measure_traced(modules, scenarios, args.seconds,
                                       trace_path)
    else:
        runs = measure_untraced(modules, scenarios, args.seconds, host)
        metrics = end_to_end(runs, setup_times, host)
    shipped_ok = check_shipped(modules["cli"])
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": runs.failed == 0 and shipped_ok,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
