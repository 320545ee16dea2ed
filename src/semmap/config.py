"""Strict JSON input loading, and the pipeline tunables.

Every JSON input is read by `read_json_object` or `read_json_records`, and
every object in it that becomes a dataclass is built by `build`: the
dataclass's init fields are its schema.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError


# "class" is a Python keyword: it names `class_label`, which is no JSON key
_RENAMED = {"class": "class_label", "class_label": None}


def _json_object(value, error, what: str) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got "
                    f"{type(value).__name__}")
    return value


def _parse_object(text: str, error, what: str) -> dict:
    try:
        return _json_object(json.loads(text), error, what)
    except json.JSONDecodeError as e:
        raise error(f"malformed {what} JSON: {e}") from e


def read_json_object(path, error, what: str) -> dict:
    """The JSON object a file holds; `error` if it is malformed or holds
    anything else. OSError propagates."""
    with open(path) as f:
        return _parse_object(f.read(), error, what)


def read_json_records(path, error, what: str):
    """Yield the JSON object on each non-blank line of a JSON-lines file;
    `error` names the first line that is malformed or not an object."""
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                yield _parse_object(line, error, f"{what} line {n}")


def build(cls, value, error, what: str, **parse):
    """`cls(**value)` for a dataclass `cls` and a JSON object `value`.

    Each key must name an init field of `cls` ("class" names `class_label`),
    and a field typed `int` takes only a JSON integer. `parse` maps a key to
    a function from its JSON value to the field's. Any other TypeError,
    ValueError or LookupError from a bad value is raised as `error` too.
    """
    names = {key: _RENAMED.get(key, key)
             for key in _json_object(value, error, what)}
    types = {f.name: f.type for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(key for key, name in names.items() if name not in types)
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    # bool is a subclass of int, but JSON true is not an integer
    not_int = sorted(key for key, name in names.items()
                     if types[name] in ("int", int)
                     and type(value[key]) is not int)
    if not_int:
        raise error(f"{what} keys must be JSON integers: "
                    f"{', '.join(not_int)}")
    try:
        return cls(**{name: parse[key](value[key]) if key in parse
                      else value[key] for key, name in names.items()})
    except (LookupError, TypeError, ValueError) as e:
        raise error(f"bad {what}: {e}") from e


@dataclass(frozen=True)
class PipelineConfig:
    iou_threshold: float = 0.5
    min_track_length: int = 5
    track_ttl: int = 3
    extraction_stride: int = 4
    assoc_dist_m: float = 0.3
    merge_overlap_ratio: float = 0.5
    overlap_radius_m: float = 0.05
    voxel_leaf_m: float = 0.01
    max_cloud_points: int = 50000
    attention_cone_deg: float = 15.0
    willingness_rate_up: float = 1.0 / 3.0
    willingness_rate_down: float = 1.0 / 9.0
    willingness_reset: float = 0.5
    lm_lambda_init: float = 1e-3
    lm_step_tol: float = 1e-6
    lm_cost_tol: float = 1e-12
    lm_max_iterations: int = 100
    lm_accept_rms_px: float = 100.0

    def __post_init__(self):
        checks = [
            (0.0 < self.iou_threshold <= 1.0, "iou_threshold in (0, 1]"),
            (self.min_track_length >= 1, "min_track_length >= 1"),
            (self.track_ttl >= 0, "track_ttl >= 0"),
            (self.extraction_stride >= 1, "extraction_stride >= 1"),
            (self.assoc_dist_m > 0, "assoc_dist_m > 0"),
            (0.0 < self.merge_overlap_ratio <= 1.0,
             "merge_overlap_ratio in (0, 1]"),
            (self.overlap_radius_m > 0, "overlap_radius_m > 0"),
            (self.voxel_leaf_m > 0, "voxel_leaf_m > 0"),
            (self.max_cloud_points >= 1, "max_cloud_points >= 1"),
            (0.0 < self.attention_cone_deg <= 180.0,
             "attention_cone_deg in (0, 180]"),
            (self.willingness_rate_up > self.willingness_rate_down > 0,
             "willingness_rate_up > willingness_rate_down > 0"),
            (0.0 < self.willingness_reset < 1.0,
             "willingness_reset in (0, 1)"),
            (self.lm_lambda_init > 0, "lm_lambda_init > 0"),
            (self.lm_step_tol > 0, "lm_step_tol > 0"),
            (self.lm_cost_tol > 0, "lm_cost_tol > 0"),
            (self.lm_max_iterations >= 1, "lm_max_iterations >= 1"),
            (self.lm_accept_rms_px > 0, "lm_accept_rms_px > 0"),
        ]
        for ok, rule in checks:
            if not ok:
                raise ConfigError(f"config violates: {rule}")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return build(cls, d, ConfigError, "config")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        return cls.from_dict(read_json_object(path, ConfigError, "config"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
