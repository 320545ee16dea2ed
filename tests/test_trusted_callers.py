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
    "semantic_map: SemanticObject.world_cloud": 1,
    "simulator: _look_at": 1,
    "simulator: Scenario.estimated_pose": 1,
    "simulator: _render": 2,
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


def test_the_unchecked_path_is_imported_under_its_own_name():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert all(alias.asname is None for alias in node.names
                           if alias.name == "_trusted"), \
                    path.name
