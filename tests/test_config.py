"""Strict JSON loading: the readers, the dataclass builder, PipelineConfig."""

import json
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

    @pytest.mark.parametrize("count", [2.0, 2.5, True, "2", None])
    def test_int_field_takes_only_json_integers(self, count):
        with pytest.raises(ConfigError, match="box keys must be JSON "
                                              "integers: count"):
            build(Box, {"class": "cup", "count": count}, ConfigError, "box")

    def test_float_field_takes_an_integer(self):
        assert build(Box, {"class": "cup", "count": 2, "size": 3},
                     ConfigError, "box").size == 3

    @pytest.mark.parametrize("value, match", [
        ({"class": "cup"}, "missing 1 required"),
        ({"class": "cup", "count": 2, "size": -1.0}, "size must be > 0"),
        ({"class": "cup", "count": 2, "size": "big"}, "not supported"),
    ], ids=["missing_field", "rejected_value", "wrong_type"])
    def test_bad_value_raises_the_callers_error(self, value, match):
        with pytest.raises(ConfigError, match=f"bad box: .*{match}"):
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

    def test_out_of_range_value_named(self):
        with pytest.raises(ConfigError, match="iou_threshold in"):
            PipelineConfig.from_dict({"iou_threshold": 1.5})
