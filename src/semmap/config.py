"""Strict JSON input loading, and the pipeline tunables.

Every JSON input is read by `read_json_object` or `read_json_records`, and
every object in it that becomes a dataclass is built by `build`: the
dataclass's init fields are its schema. A field's range is declared beside
it with `bound`, and the class's `__post_init__` checks every declared
range with `check_bounds`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from numbers import Real

from .errors import ConfigError


# "class" is a Python keyword: it names `class_label`, which is no JSON key
_RENAMED = {"class": "class_label", "class_label": None}


def _json_object(value, error, what: str) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got "
                    f"{type(value).__name__}")
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; ValueError names a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # set.add returns None: each key is seen, then added
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"repeated key {_echo(key)}")
    return obj


def _parse_object(text: str, error, what: str) -> dict:
    try:
        value = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as e:  # also an integer past Python's digit limit
        raise error(f"malformed {what} JSON: {e}") from e
    return _json_object(value, error, what)


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


def _is_number(v) -> bool:
    # bool is a subclass of int, but JSON true is no number
    return isinstance(v, Real) and not isinstance(v, bool)


def _finite_number(v) -> bool:
    """Whether `v` is a number whose float is finite; an integer too large
    for a float is not."""
    return _is_number(v) and -sys.float_info.max <= v <= sys.float_info.max


def finite_numbers(value, n: int) -> bool:
    """Whether `value` is an array of `n` finite numbers."""
    return isinstance(value, (list, tuple)) and len(value) == n and all(
        map(_finite_number, value))


# Annotations of the array fields `build` checks: three finite numbers,
# and three rows of them. A dataclass may convert the value it is given
# (RigidPose keeps arrays).
Vector3 = tuple
Matrix3 = tuple

# per field annotation, the JSON values it takes and how to name them; when
# keys under several annotations are wrong, `build` names those of the first
_JSON_TYPES = {
    "int": (lambda v: type(v) is int and -2**63 <= v < 2**63,
            "int64 JSON integers"),
    "float": (_finite_number, "finite JSON numbers"),
    "float | None": (lambda v: v is None or _finite_number(v),
                     "finite JSON numbers or null"),
    "bool": (lambda v: type(v) is bool, "JSON booleans"),
    "str": (lambda v: isinstance(v, str), "JSON strings"),
    "Vector3": (lambda v: finite_numbers(v, 3),
                "arrays of three finite numbers"),
    "Matrix3": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                and all(finite_numbers(row, 3) for row in v),
                "three rows of three finite numbers"),
}
_ECHO_CHARS = 40  # the longest rejected value an error repeats


@functools.cache
def _annotations(cls) -> dict:
    """Init field name -> its annotation, as `_JSON_TYPES` names it."""
    return {f.name: getattr(f.type, "__name__", str(f.type))
            for f in dataclasses.fields(cls) if f.init}


def _echo(value) -> str:
    """`value` as JSON, cut to `_ECHO_CHARS` characters ending in "..."."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= _ECHO_CHARS \
        else text[:_ECHO_CHARS - 3] + "..."


def build(cls, value, error, what: str, **parse):
    """`cls(**value)` for a dataclass `cls` and a JSON object `value`.

    Each key must name an init field of `cls` ("class" names `class_label`).
    A field annotated `int`, `float`, `float | None`, `bool` or `str` takes
    only a JSON integer within int64, a number whose float is finite (no
    boolean, NaN or Infinity), such a number or null, a boolean or a
    string; one annotated `Vector3` or `Matrix3` takes only an array of
    three finite numbers, or three such arrays. Of the annotations with
    wrong values, the error names the first in `_JSON_TYPES`, with its keys
    and their values as JSON, each cut to 40 characters. `parse` maps a key
    to a function from its JSON value to the field's. Any other TypeError,
    ValueError or LookupError from a bad value is raised as `error` too.
    """
    names = {key: _RENAMED.get(key, key)
             for key in _json_object(value, error, what)}
    types = _annotations(cls)
    unknown = sorted(key for key, name in names.items() if name not in types)
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    wrong = {}  # annotation -> the keys whose values its rule rejects
    for key, name in names.items():
        rule = _JSON_TYPES.get(types[name])
        if rule is not None and key not in parse and not rule[0](value[key]):
            wrong.setdefault(types[name], []).append(key)
    if wrong:
        annotation = next(a for a in _JSON_TYPES if a in wrong)
        keys = sorted(wrong[annotation])
        got = ", ".join(f"{what} {key} = {_echo(value[key])}" for key in keys)
        raise error(f"{what} keys must be {_JSON_TYPES[annotation][1]}: "
                    f"{', '.join(keys)} (got {got})")
    try:
        return cls(**{name: parse[key](value[key]) if key in parse
                      else value[key] for key, name in names.items()})
    except (LookupError, TypeError, ValueError) as e:
        raise error(f"bad {what}: {e}") from e


def bound(interval: str, default=dataclasses.MISSING):
    """A dataclass field whose values lie in `interval`: "[" or "(", two
    numbers ("inf" for none), "]" or ")", as in "(0, 1]" or "[1, inf)".
    For a `Vector3` field, each component does."""
    return dataclasses.field(default=default, metadata={"bound": interval})


@functools.cache
def bounds(cls) -> dict:
    """Init field name -> its declared interval, for each field of `cls`
    that declares one."""
    return {f.name: f.metadata["bound"] for f in dataclasses.fields(cls)
            if f.init and "bound" in f.metadata}


def check_bounds(obj, error) -> None:
    """Raise `error` for the first field of `obj` that lies outside its
    declared interval, naming the field, the interval and the value. NaN
    lies in no interval."""
    types = _annotations(type(obj))
    for name, text in bounds(type(obj)).items():
        lo, hi = map(float, text[1:-1].split(", "))
        value = getattr(obj, name)
        for i, v in enumerate(value) if types[name] == "Vector3" \
                else [(None, value)]:
            if not ((lo <= v if text[0] == "[" else lo < v)
                    and (v <= hi if text[-1] == "]" else v < hi)):
                label = name if i is None else f"{name}[{i}]"
                raise error(f"{label} must be in {text}, got {_echo(v)}")


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline tunable, declared once: no layer defaults one."""

    iou_threshold: float = bound("(0, 1]", 0.5)
    min_track_length: int = bound("[1, inf)", 5)
    track_ttl: int = bound("[0, inf)", 3)
    extraction_stride: int = bound("[1, inf)", 4)
    assoc_dist_m: float = bound("(0, inf)", 0.3)
    merge_overlap_ratio: float = bound("(0, 1]", 0.5)
    overlap_radius_m: float = bound("(0, inf)", 0.05)
    voxel_leaf_m: float = bound("(0, inf)", 0.01)
    max_cloud_points: int = bound("[1, inf)", 50000)
    attention_cone_deg: float = bound("(0, 180]", 15.0)
    willingness_rate_up: float = 1.0 / 3.0  # > willingness_rate_down
    willingness_rate_down: float = bound("(0, inf)", 1.0 / 9.0)
    willingness_reset: float = bound("(0, 1)", 0.5)
    lm_lambda_init: float = bound("(0, inf)", 1e-3)
    lm_step_tol: float = bound("(0, inf)", 1e-6)
    lm_cost_tol: float = bound("(0, inf)", 1e-12)
    lm_max_iterations: int = bound("[1, inf)", 100)
    lm_accept_rms_px: float = bound("(0, inf)", 100.0)

    def __post_init__(self):
        check_bounds(self, ConfigError)
        if not self.willingness_rate_up > self.willingness_rate_down:
            raise ConfigError(
                f"willingness_rate_up must exceed willingness_rate_down "
                f"({self.willingness_rate_down}), got "
                f"{self.willingness_rate_up}")

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return build(cls, d, ConfigError, "config")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        return cls.from_dict(read_json_object(path, ConfigError, "config"))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
