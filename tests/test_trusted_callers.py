"""Every use of `geometry._trusted`, the construction path without checks.

`_trusted` builds a pose, cloud or depth image from values derived from
checked ones, and checks nothing. A new use shows up here as a diff to
USES; before adding it, make sure that no value from JSON, the CLI or a
caller reaches it unchecked."""

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
    "simulator: Scenario.drift_pose": 1,
    "simulator: synthesize_frame_data": 1,
}


def trusted_uses(path) -> Counter:
    """Each read of `_trusted`, as a name or an attribute, by the qualified
    name of the function around it."""
    uses = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == "_trusted") or (
                    isinstance(child, ast.Attribute)
                    and child.attr == "_trusted"):
                uses[f"{path.stem}: {'.'.join(scope) or '<module>'}"] += 1
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    return uses


def test_every_use_of_the_unchecked_path_is_listed():
    found = Counter()
    for path in SOURCES:
        found.update(trusted_uses(path))
    assert dict(found) == USES


def test_the_unchecked_path_is_imported_under_its_own_name():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert all(alias.asname is None for alias in node.names
                           if alias.name == "_trusted"), path.name
