"""Static checks on the package source, using only the standard library.

No linter ships with the project, so two of the checks a linter would make
run here on the syntax trees of src/jetstokes:

- every module-level import of a module other than __init__.py is used in
  that module (__init__.py re-exports by design);
- every module-level function or class whose name starts with one
  underscore is referenced somewhere in the package, so a deletion cannot
  leave a private helper behind.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "jetstokes"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    """Names bound by the module-level imports of a module (no __future__)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _loaded_names(tree):
    """Every identifier read in a module: plain names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_imports_are_used(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, "%s imports unused names %s" % (path.name, unused)


def test_private_definitions_are_referenced():
    trees = {p: _tree(p) for p in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    dead = [
        "%s.%s" % (path.stem, node.name)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not dead, "private definitions nothing references: %s" % dead
