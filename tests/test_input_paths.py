"""Drift guard: each input check of bvgeo runs on one path.

Every file that bvgeo reads goes through ``io._read_text``, which turns each
failure into a ParseError naming the path, and every number text that ``io``
parses goes through ``io._number``.  A second reader or a direct float()
call would bring back a path with its own rules, as would ``cli`` passing a
flag's text to int() or float(), argparse's ``type=int`` included.

The same holds for what a command writes and how it is configured: every
output file is named by ``cli._outputs``, and a run's settings (the config
file's, then the flags') go through one ``io.apply_settings`` call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "bvgeo"


def _calls(path):
    """(enclosing function name, call node) for each call in a module."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                yield where, child
            yield from walk(child, inner)
    return list(walk(ast.parse(path.read_text()), "<module>"))


def _name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _reads_file(call):
    name = _name(call)
    if name in ("read_text", "read_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode) or Path.open(mode): a mode without w, a or x reads
    args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + args[:1]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & set("wax"))


def test_one_reader_and_one_number_rule():
    readers = {(path.name, where)
               for path in sorted(SRC.glob("*.py"))
               for where, call in _calls(path) if _reads_file(call)}
    assert readers == {("io.py", "_read_text")}
    floats = {where for where, call in _calls(SRC / "io.py")
              if _name(call) == "float" and isinstance(call.func, ast.Name)}
    assert floats == {"_number"}


def test_one_output_name_rule_and_one_settings_pass():
    # cli names no output file with with_suffix: _outputs names them all,
    # export-svg's default too (the homotopy path without its suffix)
    suffixed = [where for where, call in _calls(SRC / "cli.py")
                if _name(call) == "with_suffix"]
    assert suffixed == []
    apply = next(node for node in ast.walk(ast.parse((SRC / "io.py")
                                                     .read_text()))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "apply_settings")
    params = apply.args
    assert [a.arg for a in params.posonlyargs + params.args
            + params.kwonlyargs] == ["settings"]
    assert params.vararg is None and params.kwarg is None


def test_cli_parses_no_number_text():
    calls = [call for _, call in _calls(SRC / "cli.py")]
    assert not [call for call in calls if _name(call) in ("int", "float")
                and isinstance(call.func, ast.Name)]
    types = [kw.value for call in calls for kw in call.keywords
             if kw.arg == "type"]
    assert not [t for t in types if isinstance(t, ast.Name)
                and t.id in ("int", "float")]
