"""Command line entry points.

Exit codes: 0 success, 2 config or input error, 3 scenario schema error,
4 degenerate head-pose configuration, 5 non-monotone timeline.
No output files are written on a nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .config import PipelineConfig, build, read_json_object, read_json_records
from .errors import (
    ClockWentBackwards,
    ConfigError,
    DegenerateConfiguration,
    ScenarioError,
)
from .geometry import CameraIntrinsics, write_ply
from .headpose import FaceModel3D, LandmarkSet2D, lm_solve_poses
from .simulator import Scenario, run_scenario_detailed
from .willingness import PersonWillingnessMap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCENARIO = 3
EXIT_DEGENERATE = 4
EXIT_CLOCK = 5

log = logging.getLogger("semmap")


def _setup_logging():
    level = os.environ.get("SEMMAP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _load_config(path) -> PipelineConfig | None:
    """The config at `path`, or the defaults without one; None on error."""
    try:
        return PipelineConfig.from_json(path) if path else PipelineConfig()
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    if (config := _load_config(args.config)) is None:
        return EXIT_CONFIG
    try:
        scenario_dict = read_json_object(args.scenario, ScenarioError,
                                         "scenario")
        if args.seed is not None:
            scenario_dict["seed"] = args.seed
        scenario = Scenario.from_dict(scenario_dict)
    except (ScenarioError, OSError) as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    out = Path(args.out)
    try:  # before the run, so that a bad path does not cost a whole run
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    registry, metrics, events = run_scenario_detailed(scenario, config)
    map_export = registry.export()

    with open(out / "map.json", "w") as f:
        f.write(_dump_json(map_export) + "\n")
    with open(out / "metrics.json", "w") as f:
        f.write(_dump_json(metrics.to_dict()) + "\n")
    with open(out / "events.jsonl", "w") as f:
        for ev in events:
            f.write(_dump_json(ev) + "\n")
    if args.export_ply:
        for obj_id in sorted(registry.objects):
            obj = registry.objects[obj_id]
            write_ply(obj.world_cloud, out / f"object_{obj_id:04d}.ply")
    log.info("wrote outputs to %s (%d objects)", out,
             len(map_export["objects"]))
    return EXIT_OK


def cmd_headpose(args) -> int:
    try:
        model = FaceModel3D.from_json(args.model) if args.model \
            else FaceModel3D.default()
        k = CameraIntrinsics.from_dict(
            read_json_object(args.intrinsics, ValueError, "intrinsics"))
    except DegenerateConfiguration as e:
        print(f"degenerate model: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        faces = _read_faces(args.landmarks)
    except (OSError, KeyError, ValueError) as e:
        print(f"landmark input error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    lines = []
    poses = lm_solve_poses([obs for _, obs in faces], model, k)
    for (rec, _), pose in zip(faces, poses):
        if isinstance(pose, DegenerateConfiguration):
            print(f"degenerate configuration at frame "
                  f"{rec.frame}: {pose}", file=sys.stderr)
            return EXIT_DEGENERATE
        row = {"frame": rec.frame, "face_id": rec.face_id}
        if isinstance(pose, Exception):
            # one unsolvable face (NoConvergence, PointBehindCamera) is
            # recorded, not fatal
            row["error"] = type(pose).__name__
        else:
            row.update(yaw=pose.yaw, pitch=pose.pitch, roll=pose.roll,
                       rms=pose.rms_residual)
        lines.append(_dump_json(row))
    for line in lines:
        print(line)
    return EXIT_OK


@dataclass(frozen=True)
class FaceRecord:
    """One line of a `semmap headpose` landmarks file; `frame` and
    `face_id` are only echoed."""

    landmarks: dict
    frame: object = None
    face_id: object = None


@dataclass(frozen=True)
class Observation:
    """One person of a `semmap willingness` timeline record; ids may be any
    JSON scalar, of one type in a timeline."""

    id: object
    attending: bool


@dataclass(frozen=True)
class TimelineRecord:
    """One line of a `semmap willingness` timeline."""

    t: float
    persons: list = field(default_factory=list)


def _read_faces(path) -> list:
    """(FaceRecord, LandmarkSet2D) per JSONL record; ValueError on
    malformed input."""
    records = (build(FaceRecord, rec, ValueError, "landmark record")
               for rec in read_json_records(path, ValueError, "landmarks"))
    return [(rec, LandmarkSet2D(rec.landmarks, face_id=rec.face_id))
            for rec in records]


def _read_timeline(path):
    """Yield each TimelineRecord of a JSONL timeline; ValueError on
    malformed input."""
    for rec in read_json_records(path, ValueError, "timeline"):
        yield build(TimelineRecord, rec, ValueError, "timeline record",
                    persons=lambda persons: [
                        build(Observation, p, ValueError, "person")
                        for p in persons])


def cmd_willingness(args) -> int:
    if (config := _load_config(args.config)) is None:
        return EXIT_CONFIG
    wmap = PersonWillingnessMap(config)
    out_lines = []
    trigger_summary = []
    try:
        for rec in _read_timeline(args.timeline):
            t = float(rec.t)
            triggers = wmap.step_frame(
                [(p.id, p.attending) for p in rec.persons], t)
            for pid in sorted(wmap.persons):
                state = wmap.persons[pid].willingness
                out_lines.append(_dump_json({
                    "t": t, "id": pid, "value": state.value,
                    "triggered": state.triggered,
                }))
            for pid in triggers:
                trigger_summary.append({"t": t, "id": pid})
    except ClockWentBackwards as e:
        print(f"timeline error: {e}", file=sys.stderr)
        return EXIT_CLOCK
    # all of the loop reads input: a TypeError is a malformed timeline
    except (OSError, KeyError, TypeError, ValueError) as e:
        print(f"timeline input error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    for line in out_lines:
        print(line)
    print(_dump_json({"triggers": trigger_summary}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semmap",
        description="Semantic mapping and interaction-willingness pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulated scenario end to end")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--export-ply", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_hp = sub.add_parser("headpose", help="batch head-pose estimation")
    p_hp.add_argument("--landmarks", required=True)
    p_hp.add_argument("--model", default=None)
    p_hp.add_argument("--intrinsics", required=True)
    p_hp.set_defaults(func=cmd_headpose)

    p_w = sub.add_parser("willingness", help="batch willingness dynamics")
    p_w.add_argument("--timeline", required=True)
    p_w.add_argument("--config", default=None)
    p_w.set_defaults(func=cmd_willingness)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
