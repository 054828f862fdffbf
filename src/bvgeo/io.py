"""File formats: curve JSON/CSV, homotopy JSON, and the run configuration.

Curve JSON:    {"nodes": [[x, y], ...]}         (>= 3 entries)
Curve CSV:     two columns x,y per row, no header (a path ending in .csv)
Homotopy JSON: {"N": int, "n": int, "slices": [[[x, y], ...], ...]}

Every coordinate is a number: a JSON number (not a string or a boolean)
or a CSV field that _number reads, the rule of config values and flags too.
A repeated JSON key is refused, and an unreadable file names its path.

Floats are serialized with Python's shortest round-trip repr, so a
save/load cycle reproduces coordinates exactly and re-emission of an
unchanged structure is byte-identical.
"""

from __future__ import annotations

import csv
import json
import re
import struct
from dataclasses import dataclass, field, fields
from io import StringIO
from itertools import chain
from pathlib import Path

import numpy as np

from .curves import CurveError, PolyCurve
from .matching import KernelParams
from .metrics import MetricSpec
from .optimize import OptimConfig
from .paths import Homotopy


class ParseError(ValueError):
    """Malformed input file; message carries file and position context."""


# the types of a JSON number; bool, though an int subclass, is not one
_NUMBER_TYPES = {int, float}


def _number(text: str) -> float:
    """float(text), for ASCII text without "_": float() also reads digit
    grouping ("1_0") and the digits of other scripts ("١")."""
    if text.isascii() and "_" not in text:
        return float(text)
    raise ValueError(f"not an ASCII number: {text!r}")


def _pairs(rows, where: str) -> np.ndarray:
    """rows, a list of [x, y] lists of numbers, as an (m, 2) array."""
    try:
        if type(rows) is list and set(map(len, rows)) <= {2}:
            flat = list(chain.from_iterable(rows))
            if set(map(type, flat)) <= _NUMBER_TYPES:
                # struct converts a flat list faster than np.array does
                packed = struct.pack(f"{len(flat)}d", *flat)
                return np.frombuffer(packed).reshape(-1, 2)
    # a row without a length, or an integer beyond the float range
    except (TypeError, struct.error):
        pass
    raise ParseError(f"{where}: expected a list of [x, y] pairs of numbers")


def _read_text(path: Path) -> str:
    """The one reader of input files; each failure starts with the path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8 text") \
            from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except ValueError as exc:   # a path with a NUL character
        raise ParseError(f"{path}: {exc}") from exc


def _read_json(path: Path):
    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs)
                       if k in dict(pairs[:i]))
            raise ParseError(f"{path}: repeated key {key!r}")
        return doc
    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, col {exc.colno}: "
                         f"{exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def load_curve(path) -> PolyCurve:
    """Parse a curve file: CSV if its suffix is .csv, else JSON."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = []
        lines = StringIO(_read_text(path), newline="")
        for lineno, row in enumerate(csv.reader(lines), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected two "
                                 f"columns, got {len(row)}")
            try:
                rows.append([_number(row[0]), _number(row[1])])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    else:
        doc = _read_json(path)
        if not isinstance(doc, dict) or "nodes" not in doc:
            raise ParseError(f"{path}: expected object with a 'nodes' key")
        rows = doc["nodes"]
    try:
        return PolyCurve(_pairs(rows, str(path)))
    except CurveError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_curve(curve: PolyCurve, path) -> None:
    """Write a curve file: CSV if its suffix is .csv, else JSON."""
    path, rows = Path(path), curve.nodes.tolist()
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows)
                    if path.suffix.lower() == ".csv"
                    else json.dumps({"nodes": rows}) + "\n")


def load_homotopy(path) -> Homotopy:
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("N", "n", "slices"):
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    N, n, slices = doc["N"], doc["n"], doc["slices"]
    if type(N) is not int or type(n) is not int:
        raise ParseError(f"{path}: N and n must be integers")
    try:
        shaped = (type(slices) is list and 0 < len(slices) == N
                  and set(map(len, slices)) <= {n})
    except TypeError:   # a slice without a length
        shaped = False
    if not shaped:
        raise ParseError(f"{path}: slices do not have the shape N={N}, "
                         f"n={n}")
    rows = list(chain.from_iterable(slices))
    try:
        return Homotopy(_pairs(rows, str(path)).reshape(N, n, 2))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_homotopy(h: Homotopy, path) -> None:
    doc = {
        "N": h.N,
        "n": h.n,
        # tolist gives Python floats: the same repr, in one C pass
        "slices": h.grid.tolist(),
    }
    # a tolist() document holds no cycles to look for
    Path(path).write_text(json.dumps(doc, check_circular=False) + "\n")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Full pipeline configuration with the shipped experiment defaults:
    grid (N, n) = (10, 256), weights (1, 0, 1), curves normalized to the
    unit square.  Every command takes its eps from optimizer.eps_schedule,
    never from metric.eps, which no config key sets."""

    metric: MetricSpec = field(default_factory=MetricSpec)
    kernel: KernelParams = field(default_factory=KernelParams)
    N: int = 10
    n: int = 256
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    init: str = "constant"
    source: str = ""
    target: str = ""
    out: str = ""   # file prefix; unset: bvgeo_out, or <homotopy>.svg
    normalize_to_unit_square: bool = True

    def __post_init__(self):
        if self.N < 2 or self.n < 3:
            raise ValueError(f"grid must satisfy N >= 2, n >= 3, "
                             f"got ({self.N}, {self.n})")
        if self.init not in ("constant", "linear"):
            raise ValueError(f"init must be 'constant' or 'linear', "
                             f"got {self.init!r}")


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _numbers(count: int | None = None, integer: bool = False):
    """Parser of a list of numbers (or integers) separated by commas,
    spaces or tabs, whose ranges the sections check; count 1 returns the
    bare value.  Other whitespace, such as a no-break space, is no
    separator: str.split() would take it for one."""
    def parse(text: str):
        items = tuple(map(_number, filter(None, re.split("[, \t]", text))))
        if count is not None and len(items) != count:
            raise ValueError(f"expected {count} values, got {len(items)}")
        if integer:
            if not all(map(float.is_integer, items)):
                raise ValueError(f"expected integers, got {text!r}")
            items = tuple(map(int, items))
        return items[0] if count == 1 else items
    return parse


_int = _numbers(1, integer=True)

# Every config key with the parser of its value text.  A key sets the
# RunConfig field of its own name, or the two fields in _PAIRS.
CONFIG_KEYS = {
    "family": str, "init": str, "source": str, "target": str, "out": str,
    "normalize_to_unit_square": _parse_bool,
    "weights": _numbers(3), "kernel": _numbers(2), "eps_schedule": _numbers(),
    "grid": _numbers(2, integer=True),
    "exponent": _int, "max_iters": _int, "grad_tol": _numbers(1),
}
_PAIRS = {"kernel": ("sigma", "delta"), "grid": ("N", "n")}
_SECTIONS = {"metric": MetricSpec, "kernel": KernelParams,
             "optimizer": OptimConfig}


def apply_settings(settings) -> RunConfig:
    """RunConfig with each (config key, value text) pair applied in order,
    parsed as on its config line, then checked once; an unset field keeps
    its default.  RunConfig and its sections share no field name."""
    values = {}
    for key, text in settings:
        try:
            parsed = CONFIG_KEYS[key](text.strip())
        except ValueError as exc:
            raise ParseError(f"config key {key!r}: {exc}") from exc
        values.update(zip(_PAIRS[key], parsed) if key in _PAIRS
                      else [(key, parsed)])
    try:
        sections = {name: cls(**{f.name: values.pop(f.name)
                                 for f in fields(cls) if f.name in values})
                    for name, cls in _SECTIONS.items()}
        return RunConfig(**sections, **values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def config_settings(text: str):
    """The (key, value text) pairs of the flat key = value config document,
    in order.  Unknown keys are errors (fail-closed); '#' starts a comment.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")
        yield key, value


def parse_config(text: str) -> RunConfig:
    return apply_settings(config_settings(text))


def load_config(path) -> RunConfig:
    return parse_config(_read_text(Path(path)))
