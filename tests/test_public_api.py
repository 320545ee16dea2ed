"""No test-only API: each public top-level function and class of the
package is read by one of its modules, other than at its own definition or
in `__init__`'s re-export, and so is each public field that a dataclass
derives itself (`init=False`) and each public method of a class. What only
the tests need lives in `tests/conftest.py`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for path in sorted((ROOT / "src" / "semmap").glob("*.py"))
           if path.stem != "__init__"]

# public names that no module reads, each kept on purpose
UNREAD = {
    # the checked public form of the kernel `geometry._backproject`, for
    # callers with pixels from outside the pipeline
    "geometry.backproject",
    # the pose algebra: public API for callers, and the references in
    # tests/conftest.py compose and invert poses with it
    "geometry.RigidPose.identity",
    "geometry.RigidPose.compose",
    "geometry.RigidPose.inverse",
}


def is_public(name: str) -> bool:
    return not name.startswith("_")


def derived_fields(cls: ast.ClassDef) -> list:
    """Names of the fields declared `field(..., init=False)` in `cls`."""
    return [node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.value, ast.Call)
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                    for kw in node.value.keywords)]


def loaded_names(node) -> set:
    """Every name read inside `node`."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_public_name_is_read_by_the_package():
    definitions, readers, fields, attributes = [], [], [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            readers.append((node, loaded_names(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and is_public(node.name):
                definitions.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                fields += [(f"{path.stem}.{node.name}.{name}", name)
                           for name in derived_fields(node) if is_public(name)]
    unread = [qualified for qualified, node in definitions
              if not any(node.name in names for reader, names in readers
                         if reader is not node)]
    unread += [qualified for qualified, name in fields
               if name not in attributes]
    unread = sorted(set(unread) - UNREAD)
    assert not unread, f"read by no module of the package: {unread}"


def attribute_reads(node) -> Counter:
    """How often each attribute name is read inside `node`."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def test_every_public_method_is_called_by_the_package():
    """A method counts as called where its name is read as an attribute
    anywhere in the package outside its own body: by name, not by type."""
    methods, reads = [], Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += attribute_reads(tree)
        methods += [(f"{path.stem}.{cls.name}.{fn.name}", fn)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and is_public(fn.name)]
    unread = sorted({qualified for qualified, fn in methods
                     if reads[fn.name] == attribute_reads(fn)[fn.name]}
                    - UNREAD)
    assert not unread, f"called by no module of the package: {unread}"
