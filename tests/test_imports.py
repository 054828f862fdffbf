"""Every module-level import in src/bvgeo is used by the module itself, and
every module-level private name there by some module there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bvgeo"
# perfbench/tracing.py wraps these on paths with getattr/setattr, so they
# stay imported there although paths itself no longer calls them
ALLOWED = {("paths", "bv2_tangent_norm"), ("paths", "h2_tangent_norm_sq")}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


# __init__.py is left out: its imports are the package's public names
@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py"))
                                        - {SRC / "__init__.py"}),
                         ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    unused = {(path.stem, name) for name in _unused_imports(path)}
    assert sorted(unused - ALLOWED) == []


def _private_definitions(tree):
    """The _-prefixed functions, classes and constants that a module
    defines at its top level (dunder names left out)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.endswith("__"))


def test_no_unreferenced_private_name():
    trees = {path.stem: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    read |= {alias.name for tree in trees.values()
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    unread = {(stem, name) for stem, tree in trees.items()
              for name in _private_definitions(tree) if name not in read}
    assert sorted(unread) == []
