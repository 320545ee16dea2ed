"""Each pipeline tunable is declared once, in `PipelineConfig`: the layers
take every tunable value from a config or from their caller and default
none of them, and `config` imports no layer."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from semmap import geometry, headpose, pipeline, semantic_map, tracker
from semmap import willingness
from semmap.config import PipelineConfig
from semmap.geometry import CameraIntrinsics, DepthImage
from semmap.headpose import HeadPose

ROOT = Path(__file__).resolve().parents[1]
LAYERS = (tracker, semantic_map, willingness, headpose, geometry, pipeline)
# the numeric defaults that start a record's state, not tunables
STATE_DEFAULTS = {
    "tracker.Detection2D.score",
    "tracker.Track.length",
    "tracker.Track.misses",
    "willingness.WillingnessState.value",
}


def public_callables(module):
    """(qualified name, function) of each public function, and of each
    public method and `__init__` of a public class, that `module` defines."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                value = getattr(value, "__func__", value)  # static, class
                if inspect.isfunction(value) and (
                        attr == "__init__" or not attr.startswith("_")):
                    label = name if attr == "__init__" else f"{name}.{attr}"
                    yield f"{short}.{label}", value


def numeric_defaults():
    """'module.callable.parameter' of each parameter of a public callable of
    a layer whose default is a number."""
    found = set()
    for module in LAYERS:
        for qualified, fn in public_callables(module):
            for param in inspect.signature(fn).parameters.values():
                default = param.default
                if isinstance(default, (int, float)) \
                        and not isinstance(default, bool):
                    found.add(f"{qualified}.{param.name}")
    return found


def test_no_layer_defaults_a_tunable():
    # lm_solve_poses once kept step_tol=1e-8 while the config said 1e-6
    assert numeric_defaults() == STATE_DEFAULTS


def test_the_check_sees_every_layer_signature():
    names = {name for module in LAYERS
             for name, _ in public_callables(module)}
    assert {"tracker.IoUTracker", "semantic_map.SemanticMap",
            "willingness.WillingnessState", "willingness.update",
            "willingness.PersonWillingnessMap", "headpose.lm_solve_poses",
            "headpose.is_attending", "geometry.extract_object_cloud",
            "pipeline.Pipeline"} <= names


def test_config_imports_no_layer():
    tree = ast.parse((ROOT / "src" / "semmap" / "config.py").read_text())
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    plain = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    assert package == {"errors"}
    assert not any(name.split(".")[0] == "semmap" for name in plain)


@pytest.mark.parametrize("call", [
    lambda: tracker.IoUTracker(),
    lambda: willingness.WillingnessState(),
    lambda: willingness.update(willingness.WillingnessState(1.0, 0.5),
                               True, 1.0),
    lambda: headpose.is_attending(HeadPose(np.eye(3), np.zeros(3),
                                           0.0, 0.0, 0.0, 0.0)),
    lambda: geometry.extract_object_cloud(
        (0, 0, 10, 10), DepthImage(np.ones((4, 4))),
        CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4)),
], ids=["IoUTracker", "WillingnessState", "update", "is_attending",
        "extract_object_cloud"])
def test_a_tunable_must_be_given(call):
    with pytest.raises(TypeError, match="missing"):
        call()


def test_config_taking_layers_read_the_config():
    config = PipelineConfig(assoc_dist_m=0.2, merge_overlap_ratio=0.4,
                            overlap_radius_m=0.03, voxel_leaf_m=0.02,
                            max_cloud_points=900, willingness_rate_up=0.5,
                            willingness_rate_down=0.25)
    m = semantic_map.SemanticMap(config)
    assert (m.assoc_dist, m.merge_overlap, m.overlap_radius, m.voxel_leaf,
            m.max_cloud_points) == (0.2, 0.4, 0.03, 0.02, 900)
    w = willingness.PersonWillingnessMap(config)
    w.step_frame([(1, True)], 0.0)
    state = w.persons[1].willingness
    assert (state.rate_up, state.rate_down) == (0.5, 0.25)
    p = pipeline.Pipeline(CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0,
                                           width=4, height=4), config)
    assert p.registry.assoc_dist == 0.2
    assert p.willingness.config is config
