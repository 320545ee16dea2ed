"""Strict JSON loading: the readers, the dataclass builder, PipelineConfig."""

import json
import re
import sys
from dataclasses import dataclass

import pytest

from semmap.config import (
    PipelineConfig,
    build,
    read_json_object,
    read_json_records,
)
from semmap.errors import ConfigError


@dataclass(frozen=True)
class Box:
    class_label: str
    count: int
    size: float = 1.0

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("size must be > 0")


@dataclass(frozen=True)
class Lens:
    focus: float | None = None


@dataclass(frozen=True)
class Span:
    name: str
    lo: float
    hi: float


class TestBuild:
    def test_class_key_fills_class_label_and_defaults_apply(self):
        assert build(Box, {"class": "cup", "count": 2}, ConfigError, "box") \
            == Box("cup", 2, 1.0)

    def test_unknown_keys_named_as_written(self):
        with pytest.raises(ConfigError,
                           match="unknown box keys: colour, kind"):
            build(Box, {"class": "cup", "count": 2, "kind": "x",
                        "colour": "red"}, ConfigError, "box")

    def test_field_name_class_label_is_no_json_key(self):
        with pytest.raises(ConfigError, match="unknown box keys: class_label"):
            build(Box, {"class": "cup", "class_label": "bowl", "count": 2},
                  ConfigError, "box")

    @pytest.mark.parametrize("count", [
        2.0, 2.5, True, "2", None,
        # beyond int64: 10**400 died in a C conversion mid-run
        pytest.param(2**63, id="2**63"),
        pytest.param(-2**63 - 1, id="-2**63-1"),
        pytest.param(10**400, id="10**400")])
    def test_int_field_takes_only_json_integers(self, count):
        with pytest.raises(ConfigError, match="box keys must be int64 JSON "
                                              "integers: count"):
            build(Box, {"class": "cup", "count": count}, ConfigError, "box")

    @pytest.mark.parametrize("count", [-2**63, 2**63 - 1])
    def test_int_field_takes_the_int64_bounds(self, count):
        assert build(Box, {"class": "cup", "count": count}, ConfigError,
                     "box").count == count

    @pytest.mark.parametrize("size", [
        True, "2", None, [2.0],
        # not finite as floats: these passed the rule before, and 10**400
        # then died in float() mid-run
        pytest.param(10**400, id="10**400"),
        pytest.param(-10**400, id="-10**400"),
        float("inf"), -float("inf"), float("nan")])
    def test_float_field_takes_only_json_numbers(self, size):
        with pytest.raises(ConfigError, match="box keys must be finite "
                                              "JSON numbers: size"):
            build(Box, {"class": "cup", "count": 2, "size": size},
                  ConfigError, "box")

    @pytest.mark.parametrize("size", [sys.float_info.max,
                                      int(sys.float_info.max)],
                             ids=["float", "int"])
    def test_float_field_takes_the_largest_float(self, size):
        assert build(Box, {"class": "cup", "count": 2, "size": size},
                     ConfigError, "box").size == size

    @pytest.mark.parametrize("focus", [10**400, float("nan"), "1", True],
                             ids=["10**400", "nan", "string", "true"])
    def test_optional_float_field_takes_only_finite_numbers(self, focus):
        with pytest.raises(ConfigError, match="lens keys must be finite "
                                              "JSON numbers or null: focus"):
            build(Lens, {"focus": focus}, ConfigError, "lens")

    def test_wrong_type_names_the_value_as_json(self):
        with pytest.raises(ConfigError, match=r"JSON numbers: size "
                                              r"\(got box size = \[true\]\)"):
            build(Box, {"class": "cup", "count": 2, "size": [True]},
                  ConfigError, "box")

    def test_wrong_keys_of_the_first_rule_named_sorted(self):
        # a wrong str key and two wrong float keys: float comes first in
        # the table of rules, whatever the order of the keys
        with pytest.raises(ConfigError) as e:
            build(Span, {"name": 5, "hi": "2", "lo": None}, ConfigError,
                  "span")
        assert str(e.value) == ('span keys must be finite JSON numbers: '
                                'hi, lo (got span hi = "2", span lo = null)')

    def test_long_value_cut_in_the_message(self):
        # a 401-digit integer was once repeated in full
        with pytest.raises(ConfigError) as e:
            build(Box, {"class": "cup", "count": 2, "size": 10**400},
                  ConfigError, "box")
        assert str(e.value) == ("box keys must be finite JSON numbers: size "
                                f"(got box size = {'1' + '0' * 36}...)")

    def test_float_field_takes_an_integer(self):
        assert build(Box, {"class": "cup", "count": 2, "size": 3},
                     ConfigError, "box").size == 3

    @pytest.mark.parametrize("value, match", [
        ({"class": "cup"}, "bad box: .*missing 1 required"),
        ({"class": "cup", "count": 2, "size": -1.0},
         "bad box: .*size must be > 0"),
        # a string no longer reaches the dataclass's own check
        ({"class": "cup", "count": 2, "size": "big"},
         "box keys must be finite JSON numbers: size"),
    ], ids=["missing_field", "rejected_value", "wrong_type"])
    def test_bad_value_raises_the_callers_error(self, value, match):
        with pytest.raises(ConfigError, match=match):
            build(Box, value, ConfigError, "box")

    @pytest.mark.parametrize("value", [[1, 2], "box", 3, None])
    def test_non_object_rejected(self, value):
        with pytest.raises(ConfigError, match="box must be a JSON object"):
            build(Box, value, ConfigError, "box")

    def test_parse_turns_a_json_value_into_the_field(self):
        box = build(Box, {"class": "cup", "count": 2, "size": "2.5"},
                    ConfigError, "box", size=float)
        assert box.size == 2.5


class TestReaders:
    def test_object_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"a": 1}')
        assert read_json_object(path, ConfigError, "thing") == {"a": 1}

    @pytest.mark.parametrize("text, match", [
        ("{broken", "malformed thing JSON"),
        ("[1, 2]", "thing must be a JSON object, got list"),
        # past Python's int digit limit: json.loads raised a bare ValueError
        pytest.param('{"a": ' + "9" * 5001 + "}",
                     "malformed thing JSON.*4300 digits", id="5001_digits"),
        # a repeated key kept its last value
        pytest.param('{"a": 1, "a": 2}', 'malformed thing JSON: repeated '
                     'key "a"', id="repeated_key"),
        pytest.param('{"a": {"b": 1, "c": 2, "b": 1}}', 'malformed thing '
                     'JSON: repeated key "b"', id="repeated_nested_key"),
    ])
    def test_object_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "a.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            read_json_object(path, ConfigError, "thing")

    def test_records_skip_blank_lines(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
        assert list(read_json_records(path, ValueError, "log")) \
            == [{"a": 1}, {"a": 2}]

    @pytest.mark.parametrize("line, match", [
        ("[1]", "log line 3 must be a JSON object"),
        ("{", "malformed log line 3 JSON"),
        pytest.param('{"a": ' + "9" * 5001 + "}",
                     "malformed log line 3 JSON", id="5001_digits"),
        pytest.param('{"a": 1, "a": 1}', 'malformed log line 3 JSON: '
                     'repeated key "a"', id="repeated_key"),
    ])
    def test_record_rejected_by_line(self, tmp_path, line, match):
        path = tmp_path / "a.jsonl"
        path.write_text('{"a": 1}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=match):
            list(read_json_records(path, ValueError, "log"))


class TestPipelineConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(assoc_dist_m=0.25, lm_max_iterations=50)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert PipelineConfig.from_json(path) == config

    @pytest.mark.parametrize("key, value", [
        ("lm_max_iterations", 2.5), ("min_track_length", True),
        ("track_ttl", 3.0), ("max_cloud_points", "50000")])
    def test_integer_field_takes_only_json_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"JSON integers: {key}"):
            PipelineConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("assoc_dist_m", True), ("attention_cone_deg", "15"),
        ("willingness_rate_up", None)])
    def test_number_field_takes_only_json_numbers(self, key, value):
        # true loaded as 1 (an association distance of 1 m)
        with pytest.raises(ConfigError, match=f"JSON numbers: {key}"):
            PipelineConfig.from_dict({key: value})

    def test_out_of_range_value_named(self):
        with pytest.raises(ConfigError, match=re.escape(
                "iou_threshold must be in (0, 1], got 1.5")):
            PipelineConfig.from_dict({"iou_threshold": 1.5})
