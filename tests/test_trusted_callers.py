"""Every use of `geometry._trusted`, the construction path without checks,
and of `geometry._derived_pose`, which checks only a pose's translation.

`_trusted` builds a pose, cloud or depth image from values derived from
checked ones, and checks nothing. `_derived_pose` takes the rotation as a
rotation: a rotation built by its caller skips the orthonormality and
determinant checks. A new use shows up here as a diff to USES or
DERIVED_POSE_USES; before adding it, make sure that no value from JSON, the
CLI or a caller reaches it unchecked."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "semmap").glob("*.py"))

# "module: enclosing function" -> uses of the name `_trusted` in it
USES = {
    "geometry: RigidPose.identity": 1,
    "geometry: _derived_pose": 1,
    "semantic_map: SemanticObject.world_cloud": 1,
    "simulator: _look_at": 1,
    "simulator: Scenario.estimated_pose": 1,
    "simulator: _render": 2,
}
# the same for `_derived_pose`
DERIVED_POSE_USES = {
    "geometry: RigidPose.compose": 1,
    "geometry: RigidPose.inverse": 1,
}


def uses_of(name, path) -> Counter:
    """Each read of `name`, as a name or an attribute, by the qualified
    name of the function around it."""
    uses = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                uses[f"{path.stem}: {'.'.join(scope) or '<module>'}"] += 1
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return uses


def found_uses(name) -> dict:
    found = Counter()
    for path in SOURCES:
        found.update(uses_of(name, path))
    return dict(found)


def test_every_use_of_the_unchecked_path_is_listed():
    assert found_uses("_trusted") == USES


def test_every_use_of_the_derived_pose_path_is_listed():
    assert found_uses("_derived_pose") == DERIVED_POSE_USES


def test_the_unchecked_path_is_imported_under_its_own_name():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert all(alias.asname is None for alias in node.names
                           if alias.name in ("_trusted", "_derived_pose")), \
                    path.name
