"""Pipeline tunables. Strict loading: unknown keys are rejected."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError


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
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            return cls(**d)
        except TypeError as e:
            raise ConfigError(str(e)) from e

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            with open(path) as f:
                d = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
