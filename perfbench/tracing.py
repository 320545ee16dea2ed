"""Outside-in tracing of the semmap pipeline.

The tracer wraps public layer calls by replacing the attribute where the
runner looks the name up: module globals that `semmap.simulator` and
`semmap.semantic_map` imported by name, and methods on the classes the runner
instantiates. Nothing under `src/` changes. Spans (name, start, end, parent)
stay in memory; `write` puts them in a JSON-lines file after the run.

Per-point nearest-neighbour queries are only counted: a span per call would
cost more than the query itself and distort the trace.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, class or None, attribute, span name, observer method or None).
# A missing attribute is skipped, so a refactor that removes a layer shows
# as zero calls rather than a crash.
TIMED = (
    ("simulator", None, "synthesize_frame_data",
     "simulator.synthesize_frame_data", None),
    ("simulator", None, "extract_object_cloud",
     "geometry.extract_object_cloud", "_after_extract"),
    ("simulator", None, "lm_solve_pose", "headpose.lm_solve_pose",
     "_after_solve"),
    ("semantic_map", None, "chamfer_distance",
     "semantic_map.chamfer_distance", "_after_chamfer"),
    ("semantic_map", None, "overlap_ratio", "semantic_map.overlap_ratio",
     "_after_overlap"),
    ("tracker", "IoUTracker", "step", "tracker.IoUTracker.step",
     "_after_step"),
    ("semantic_map", "SemanticMap", "register_candidate",
     "semantic_map.register_candidate", None),
    ("semantic_map", "SemanticMap", "associate", "semantic_map.associate",
     "_after_associate"),
    ("semantic_map", "SemanticMap", "apply_trajectory_correction",
     "semantic_map.apply_trajectory_correction", "_after_correction"),
    ("willingness", "PersonWillingnessMap", "step_frame",
     "willingness.PersonWillingnessMap.step_frame", "_after_willingness"),
)
RUNNER = "simulator.runner"
GRID_BUILD = "nn_grid.GridIndex.build"


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Span recorder and counter set for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = []
        self._restore = []
        self._seen_tracks = set()  # track ids of the current pass

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def run(self, fn, *args, **kwargs):
        """Run one pipeline pass inside the top-level runner span."""
        self._seen_tracks = set()
        return self.call(RUNNER, fn, *args, **kwargs)

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                result = tracer.call(name, fn, *args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- per-layer observers -------------------------------------------------

    def _after_step(self, args, confirmations):
        tracker, detections = args[0], args[1]
        self.counts["tracker.detections_in"] += len(detections)
        self.counts["tracker.confirmations"] += len(confirmations)
        for track in tracker.tracks:
            if track.track_id not in self._seen_tracks:
                self._seen_tracks.add(track.track_id)
                self.counts["tracker.tracks_started"] += 1

    def _after_extract(self, args, cloud):
        self.counts["geometry.extract_object_cloud.points_out"] += len(cloud)

    def _after_associate(self, args, match):
        if match is not None:
            self.counts["semantic_map.associate.hits"] += 1

    def _after_chamfer(self, args, _dist):
        self.counts["semantic_map.chamfer_distance.query_points"] += \
            len(args[0]) + len(args[1])

    def _after_overlap(self, args, _ratio):
        self.counts["semantic_map.overlap_ratio.query_points"] += \
            min(len(args[0]), len(args[1]))

    def _after_correction(self, args, report):
        self.counts["semantic_map.apply_trajectory_correction.merges"] += \
            len(report.pairs)

    def _after_solve(self, args, pose):
        self.samples["headpose.rms_px"].append(pose.rms_residual)

    def _after_willingness(self, args, triggers):
        self.counts["willingness.triggers"] += len(triggers)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, semmap_modules):
        """Wrap the layer calls; `semmap_modules` maps short names to the
        imported `semmap.<name>` modules."""
        for mod, cls, attr, name, observer in TIMED:
            owner = semmap_modules[mod]
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is not None and hasattr(owner, attr):
                self._patch(owner, attr, self._timed(
                    name, getattr(owner, attr),
                    observer and getattr(self, observer)))

        headpose = semmap_modules["headpose"]
        if hasattr(headpose, "residuals_and_jacobian"):
            self._patch(headpose, "residuals_and_jacobian",
                        self._counted("headpose.residuals_and_jacobian.calls",
                                      headpose.residuals_and_jacobian))
        grid = getattr(semmap_modules["semantic_map"], "GridIndex", None)
        if grid is not None:
            self._patch(semmap_modules["semantic_map"], "GridIndex",
                        self._counting_grid(grid))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_grid(self, base):
        tracer = self
        counts = self.counts

        class CountingGridIndex(base):
            def __init__(self, *args, **kwargs):
                tracer.call(GRID_BUILD, super().__init__, *args, **kwargs)

            def nearest_distance(self, q):
                counts["nn_grid.nearest_distance.calls"] += 1
                return super().nearest_distance(q)

            def has_within(self, q, radius):
                counts["nn_grid.has_within.calls"] += 1
                return super().has_within(q, radius)

        return CountingGridIndex

    # -- reduction -----------------------------------------------------------

    def take(self):
        """Summarize and clear everything recorded since the last take."""
        summary = summarize(self.spans, self.counts, self.samples)
        self.spans = []
        self.counts.clear()
        self.samples.clear()
        return summary


def _span_totals():
    return defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0,
                                "durations_ns": []})


def summarize(spans, counts, samples):
    """Per-name calls, total and self time (ns), plus counters and samples.

    Self time is a span's duration minus that of its direct children; the
    pipeline is single-threaded, so children never overlap one another.
    """
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name = _span_totals()
    for i, (name, start, end, _parent) in enumerate(spans):
        agg = by_name[name]
        agg["calls"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += end - start - child_ns[i]
        agg["durations_ns"].append(end - start)
    return {"spans": dict(by_name), "counts": dict(counts),
            "samples": {k: list(v) for k, v in samples.items()},
            "raw": list(spans)}


def merge(summaries):
    """One summary for several passes."""
    spans = _span_totals()
    counts = Counter()
    samples = defaultdict(list)
    for summary in summaries:
        for name, agg in summary["spans"].items():
            total = spans[name]
            for key in ("calls", "total_ns", "self_ns"):
                total[key] += agg[key]
            total["durations_ns"].extend(agg["durations_ns"])
        counts.update(summary["counts"])
        for key, values in summary["samples"].items():
            samples[key].extend(values)
    return {"spans": dict(spans), "counts": dict(counts),
            "samples": dict(samples)}


def work_counts(summary):
    """Everything in a summary that must repeat exactly for one input."""
    out = {f"{name}.calls": agg["calls"]
           for name, agg in summary["spans"].items()}
    out.update(summary["counts"])
    return out


def layer_metrics(summary, overhead):
    """Per-layer metrics as {name: (value, unit)} from a merged summary."""
    spans = summary["spans"]
    counts = summary["counts"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []}

    def span(name):
        return spans.get(name, empty)

    def ms(name, key="total_ns"):
        return span(name)[key] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    def count(key):
        return counts.get(key, 0)

    out = {
        f"{RUNNER}.total_ms": (ms(RUNNER), "ms"),
        f"{RUNNER}.self_ms": (ms(RUNNER, "self_ns"), "ms"),
    }
    for _mod, _cls, _attr, name, _observer in TIMED:
        out[f"{name}.calls"] = (span(name)["calls"], "count")
        out[f"{name}.total_ms"] = (ms(name), "ms")
        out[f"{name}.self_ms"] = (ms(name, "self_ns"), "ms")

    synth = "simulator.synthesize_frame_data"
    out[f"{synth}.share"] = (ratio(ms(synth), ms(RUNNER)), "ratio")
    started = count("tracker.tracks_started")
    confirmed = count("tracker.confirmations")
    out["tracker.detections_in"] = (count("tracker.detections_in"), "count")
    out["tracker.tracks_started"] = (started, "count")
    out["tracker.confirmations"] = (confirmed, "count")
    out["tracker.confirm_ratio"] = (ratio(confirmed, started), "ratio")

    extract = "geometry.extract_object_cloud"
    out[f"{extract}.points_out"] = (count(f"{extract}.points_out"), "count")
    out[f"{extract}.empty"] = (count(f"{extract}.raised.EmptyCloud"), "count")
    assoc = "semantic_map.associate"
    out[f"{assoc}.hit_ratio"] = (
        ratio(count(f"{assoc}.hits"), span(assoc)["calls"]), "ratio")
    chamfer = "semantic_map.chamfer_distance"
    queries = count(f"{chamfer}.query_points")
    out[f"{chamfer}.query_points"] = (queries, "count")
    out[f"{chamfer}.ns_per_query_point"] = (
        ratio(span(chamfer)["total_ns"], queries), "ns")
    corr = "semantic_map.apply_trajectory_correction"
    out[f"{corr}.max_ms"] = (max(span(corr)["durations_ns"], default=0) / 1e6,
                             "ms")
    out[f"{corr}.merges"] = (count(f"{corr}.merges"), "count")
    overlap = "semantic_map.overlap_ratio"
    out[f"{overlap}.query_points"] = (count(f"{overlap}.query_points"),
                                      "count")
    out["semantic_map.duplicate_count"] = (
        count("semantic_map.duplicate_count"), "count")
    out["nn_grid.GridIndex.builds"] = (span(GRID_BUILD)["calls"], "count")
    out["nn_grid.GridIndex.build_ms"] = (ms(GRID_BUILD), "ms")
    for key in ("nn_grid.nearest_distance.calls", "nn_grid.has_within.calls",
                "headpose.residuals_and_jacobian.calls",
                "willingness.triggers"):
        out[key] = (count(key), "count")

    solve = "headpose.lm_solve_pose"
    out[f"{solve}.no_convergence"] = (count(f"{solve}.raised.NoConvergence"),
                                      "count")
    for q in (50, 95):
        out[f"{solve}.p{q}_ms"] = (
            percentile(span(solve)["durations_ns"], q) / 1e6, "ms")
    out["headpose.residual_evals_per_solve"] = (
        ratio(count("headpose.residuals_and_jacobian.calls"),
              span(solve)["calls"]), "count")
    out["headpose.rms_px.p50"] = (
        percentile(summary["samples"].get("headpose.rms_px", []), 50), "px")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def write(path, summaries):
    """Write every recorded span as one JSON object per line."""
    with open(path, "w") as f:
        for index, summary in enumerate(summaries):
            for name, start, end, parent in summary["raw"]:
                f.write(json.dumps({"pass": index, "name": name,
                                    "start_ns": start, "end_ns": end,
                                    "parent": parent}) + "\n")
