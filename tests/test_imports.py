"""Every module-level import in src/bvgeo is used by the module itself."""

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
