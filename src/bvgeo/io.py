"""File formats: curve JSON/CSV, homotopy JSON, and the run configuration.

Curve JSON:    {"nodes": [[x, y], ...]}         (>= 3 entries)
Curve CSV:     two columns x,y per row, no header
Homotopy JSON: {"N": int, "n": int, "slices": [[[x, y], ...], ...]}

Floats are serialized with Python's shortest round-trip repr, so a
save/load cycle reproduces coordinates exactly and re-emission of an
unchanged structure is byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import CurveError, PolyCurve
from .matching import KernelParams
from .metrics import BV2, H2, MetricSpec
from .optimize import OptimConfig
from .paths import Homotopy


class ParseError(ValueError):
    """Malformed input file; message carries file and position context."""


def _validate_nodes(rows, where: str) -> PolyCurve:
    try:
        return PolyCurve(np.asarray(rows, dtype=float))
    except (CurveError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_curve_json(path) -> PolyCurve:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, col {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ParseError(f"{path}: expected object with a 'nodes' key")
    return _validate_nodes(doc["nodes"], str(path))


def load_curve_csv(path) -> PolyCurve:
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected two "
                                 f"columns, got {len(row)}")
            try:
                rows.append([float(row[0]), float(row[1])])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return _validate_nodes(rows, str(path))


def load_curve(path, fmt: str = "auto") -> PolyCurve:
    """Parse a curve file; fmt is 'json', 'csv', or 'auto' (by extension)."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    if fmt == "auto":
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt == "json":
        return load_curve_json(path)
    if fmt == "csv":
        return load_curve_csv(path)
    raise ValueError(f"unknown curve format {fmt!r}")


def save_curve(curve: PolyCurve, path) -> None:
    doc = {"nodes": [[float(x), float(y)] for x, y in curve.nodes]}
    Path(path).write_text(json.dumps(doc) + "\n")


def load_homotopy(path) -> Homotopy:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, col {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("N", "n", "slices"):
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    try:
        arr = np.asarray(doc["slices"], dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: slices must be an N x n x 2 array "
                         f"of numbers") from None
    if arr.ndim != 3 or arr.shape[:2] != (doc["N"], doc["n"]):
        raise ParseError(f"{path}: slices shape {arr.shape} does not match "
                         f"N={doc['N']}, n={doc['n']}")
    try:
        return Homotopy(arr)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_homotopy(h: Homotopy, path) -> None:
    doc = {
        "N": h.N,
        "n": h.n,
        "slices": [[[float(x), float(y)] for x, y in sl] for sl in h.grid],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Full pipeline configuration with the shipped experiment defaults:
    grid (N, n) = (10, 256), weights (1, 0, 1), curves normalized to the
    unit square."""

    metric: MetricSpec = field(default_factory=MetricSpec)
    kernel: KernelParams = field(default_factory=KernelParams)
    N: int = 10
    n: int = 256
    optimizer: OptimConfig = field(default_factory=OptimConfig)
    init: str = "constant"
    source: str = ""
    target: str = ""
    out: str = "bvgeo_out"
    normalize_to_unit_square: bool = True

    def __post_init__(self):
        if self.N < 2 or self.n < 3:
            raise ValueError(f"grid must satisfy N >= 2, n >= 3, "
                             f"got ({self.N}, {self.n})")
        if self.init not in ("constant", "linear"):
            raise ValueError(f"init must be 'constant' or 'linear', "
                             f"got {self.init!r}")

    @property
    def paper_literal_velocity(self) -> bool:
        return self.metric.paper_literal_velocity


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise ParseError(f"config key {key!r}: expected a boolean, "
                         f"got {value!r}") from None


def _parse_floats(value: str, key: str, count: int | None = None):
    try:
        items = tuple(float(x) for x in value.replace(",", " ").split())
    except ValueError as exc:
        raise ParseError(f"config key {key!r}: {exc}") from exc
    if count is not None and len(items) != count:
        raise ParseError(f"config key {key!r}: expected {count} values, "
                         f"got {len(items)}")
    return items


def _parse_ints(value: str, key: str, count: int):
    items = _parse_floats(value, key, count)
    if not all(x.is_integer() for x in items):
        raise ParseError(f"config key {key!r}: expected integers, "
                         f"got {value!r}")
    return tuple(int(x) for x in items)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse the flat key = value config document.

    Unknown keys are errors (fail-closed); '#' starts a comment.
    """
    cfg = base or RunConfig()
    metric = {"family": cfg.metric.family, "weights": cfg.metric.weights,
              "eps": cfg.metric.eps, "exponent": cfg.metric.exponent,
              "paper_literal_velocity": cfg.metric.paper_literal_velocity}
    kern = {"sigma": cfg.kernel.sigma, "delta": cfg.kernel.delta}
    opt = {"max_iters": cfg.optimizer.max_iters, "tau0": cfg.optimizer.tau0,
           "shrink": cfg.optimizer.shrink, "armijo": cfg.optimizer.armijo,
           "grad_tol": cfg.optimizer.grad_tol,
           "eps_schedule": cfg.optimizer.eps_schedule,
           "seed": cfg.optimizer.seed}
    plain = {"N": cfg.N, "n": cfg.n, "init": cfg.init, "source": cfg.source,
             "target": cfg.target, "out": cfg.out,
             "normalize_to_unit_square": cfg.normalize_to_unit_square}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "family":
            if value not in (BV2, H2):
                raise ParseError(f"config key 'family': expected 'bv2' or "
                                 f"'h2', got {value!r}")
            metric["family"] = value
        elif key == "weights":
            metric["weights"] = _parse_floats(value, key, 3)
        elif key == "eps":
            metric["eps"] = _parse_floats(value, key, 1)[0]
        elif key == "exponent":
            metric["exponent"] = _parse_ints(value, key, 1)[0]
        elif key == "sigma":
            kern["sigma"] = _parse_floats(value, key, 1)[0]
        elif key == "delta":
            kern["delta"] = _parse_floats(value, key, 1)[0]
        elif key == "kernel":
            kern["sigma"], kern["delta"] = _parse_floats(value, key, 2)
        elif key == "grid":
            plain["N"], plain["n"] = _parse_ints(value, key, 2)
        elif key in ("max_iters", "seed"):
            opt[key] = _parse_ints(value, key, 1)[0]
        elif key in ("tau0", "shrink", "armijo", "grad_tol"):
            opt[key] = _parse_floats(value, key, 1)[0]
        elif key == "eps_schedule":
            opt["eps_schedule"] = _parse_floats(value, key)
        elif key in ("init", "source", "target", "out"):
            plain[key] = value
        elif key == "paper_literal_velocity":
            metric[key] = _parse_bool(value, key)
        elif key == "normalize_to_unit_square":
            plain[key] = _parse_bool(value, key)
        else:
            raise ParseError(f"config line {lineno}: unknown key {key!r}")

    try:
        return RunConfig(metric=MetricSpec(**metric),
                         kernel=KernelParams(**kern),
                         optimizer=OptimConfig(**opt), **plain)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    return parse_config(path.read_text(), base)
