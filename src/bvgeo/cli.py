"""Command-line interface.

Subcommands: geodesic, energy, check-grad, match, export-svg, resample.
Exit codes: 0 success, 1 input/validation error, 2 optimization failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .curves import (PolyCurve, constant_speed_resample,
                     normalize_to_unit_square, signed_area, validate_immersion)
from .io import (CONFIG_KEYS, ParseError, RunConfig, _int, _read_text,
                 apply_settings, config_settings, load_curve, load_homotopy,
                 save_curve, save_homotopy)
from .matching import match_distance
from .metrics import MetricSpec
from .optimize import (FAILURES, TRACE_COLUMNS, align_start_node,
                       continuation, fd_check, init_constant, init_linear,
                       objective)
from .paths import Homotopy, path_energy
from .svg import render_svg

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OPTIM = 2


def _config_from_args(args) -> RunConfig:
    text = _read_text(Path(args.config)) if args.config else ""
    flags = [(key, value) for key, value in vars(args).items()
             if key in CONFIG_KEYS and value is not None]
    return apply_settings([*config_settings(text), *flags])


def _outputs(out: str, suffixes) -> list[str]:
    """The files of the prefix out, one per suffix; an out that ends with a
    suffix names those of the prefix without it.  Called before any work."""
    prefix = out.removesuffix(next(filter(out.endswith, suffixes), ""))
    parent, name = os.path.split(prefix)
    if "\0" in out or name in ("", ".", ".."):
        raise ParseError(f"{out}: not a file name")
    if not os.path.isdir(parent or "."):
        raise ParseError(f"{out}: no such directory")
    names = [prefix + s for s in suffixes]
    for path in filter(os.path.isdir, names):
        raise ParseError(f"{path}: Is a directory")
    return names


def _load_endpoint(path: str, cfg: RunConfig, what: str) -> PolyCurve:
    if not path:
        raise ParseError(f"no {what} curve given")
    curve = load_curve(path)
    if cfg.normalize_to_unit_square:
        curve = normalize_to_unit_square(curve)
    ok, idx = validate_immersion(curve)
    if not ok:
        raise ParseError(f"{path}: immersion failure at segment {idx}")
    return curve


def _require_immersed(h: Homotopy, where) -> None:
    """Refuse a homotopy with a slice that fails the immersion test, as
    ``_load_endpoint`` refuses a curve: the energy is defined on immersed
    slices, and unsmoothed kernels divide by zero at a repeated node."""
    bad = h.validate_slices()
    if bad is not None:
        raise ParseError(f"{where}: immersion failure at slice {bad[0]}, "
                         f"segment {bad[1]}")


def _prepare_pair(cfg: RunConfig):
    source = constant_speed_resample(_load_endpoint(cfg.source, cfg, "source"),
                                     cfg.n)
    target = constant_speed_resample(_load_endpoint(cfg.target, cfg, "target"),
                                     cfg.n)
    target = align_start_node(source, target)
    if signed_area(source) * signed_area(target) < 0:
        print("warning: source and target have opposite orientations; "
              "the matching term penalizes flipped normals", file=sys.stderr)
    return source, target


def _write_trace(report, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iter",) + TRACE_COLUMNS)
        writer.writerows((i,) + row for i, row in enumerate(report.rows))


def _cmd_geodesic(args) -> int:
    cfg = _config_from_args(args)
    json_out, trace_out, svg_out = _outputs(
        cfg.out or "bvgeo_out", (".homotopy.json", ".trace.csv", ".svg"))
    source, target = _prepare_pair(cfg)
    if cfg.init == "constant":
        h0 = init_constant(source, cfg.N)
    else:
        h0 = init_linear(source, target, cfg.N)
    _require_immersed(h0, "initial homotopy")
    report = continuation(h0, target, cfg.metric, cfg.kernel, cfg.optimizer)
    save_homotopy(report.homotopy, json_out)
    _write_trace(report, Path(trace_out))
    Path(svg_out).write_text(render_svg(report.homotopy, target=target))
    final = report.objective_trace[-1]
    print(f"objective {final:.6g}  match {report.match_trace[-1]:.6g}  "
          f"termination {report.termination}")
    if report.termination in FAILURES:
        print(f"error: {FAILURES[report.termination]}", file=sys.stderr)
        return EXIT_OPTIM
    return EXIT_OK


def _cmd_energy(args) -> int:
    cfg = _config_from_args(args)
    h = load_homotopy(args.homotopy)
    _require_immersed(h, args.homotopy)
    spec = _eval_spec(cfg)
    if cfg.target:
        target = _load_endpoint(cfg.target, cfg, "target")
        if target.n != h.n:
            target = constant_speed_resample(target, h.n)
        total, energy, match = objective(h, target, spec, cfg.kernel)
        print(f"objective {total:.17g} energy {energy:.17g} "
              f"match {match:.17g}")
    else:
        energy = path_energy(h, spec)
        print(f"energy {energy:.17g}")
    return EXIT_OK


def _eval_spec(cfg: RunConfig) -> MetricSpec:
    # the eps of geodesic's last stage, so energy reproduces its objective
    return replace(cfg.metric, eps=cfg.optimizer.eps_schedule[-1])


def _cmd_check_grad(args) -> int:
    cfg = _config_from_args(args)
    rng = np.random.default_rng(0)
    n, N = 24, 5
    theta = 2 * np.pi * np.arange(n) / n
    base = 0.5 + 0.3 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    grid = base[None] + 0.02 * rng.standard_normal((N, n, 2))
    target = PolyCurve(base + 0.02 * rng.standard_normal((n, 2)))
    err = fd_check(Homotopy(grid), target, _eval_spec(cfg), cfg.kernel,
                   num_coords=50)
    print(f"max relative error {err:.3e}")
    return EXIT_OK if err <= 1e-5 else EXIT_INPUT


def _cmd_resample(args) -> int:
    out, = _outputs(args.out, ("",))
    curve = load_curve(args.source)
    try:
        nodes = _int(args.nodes)
    except ValueError as exc:
        raise ParseError(f"--nodes: {exc}") from exc
    curve = constant_speed_resample(curve, nodes)
    save_curve(curve, out)
    print(f"wrote {out} ({curve.n} nodes)")
    return EXIT_OK


def _cmd_match(args) -> int:
    cfg = _config_from_args(args)
    source, target = _prepare_pair(cfg)
    value = match_distance(source, target, cfg.kernel)
    print(f"{value:.17g}")
    return EXIT_OK


def _cmd_export_svg(args) -> int:
    cfg = _config_from_args(args)
    out, = _outputs(cfg.out or os.path.splitext(args.homotopy)[0], (".svg",))
    h = load_homotopy(args.homotopy)
    target = None
    if cfg.target:
        target = _load_endpoint(cfg.target, cfg, "target")
    Path(out).write_text(render_svg(h, target=target))
    print(f"wrote {out}")
    return EXIT_OK


# every flag that sets a config key, with its help text; --metric sets
# "family", each other flag the key of its own name with "_" for "-"
_FLAGS = {
    "--source": "source curve file (JSON or CSV)",
    "--target": "target curve file (JSON or CSV)",
    "--out": "output path prefix",
    "--metric": "metric family: bv2 or h2",
    "--eps-schedule": "comma-separated eps values",
    "--grid": "N,n",
    "--weights": "w0,w1,w2",
    "--kernel": "sigma,delta",
    "--init": "initial homotopy: constant or linear",
}
_METRIC_FLAGS = ("--metric", "--eps-schedule", "--weights", "--kernel")

# each subcommand that takes --config: its function, its help, whether it
# takes a homotopy file operand, and the flags its function reads
_CONFIGURED = {
    "geodesic": (_cmd_geodesic, "optimize a homotopy between two curves",
                 False, tuple(_FLAGS)),
    "energy": (_cmd_energy, "evaluate the objective on a homotopy file",
               True, ("--target",) + _METRIC_FLAGS),
    "check-grad": (_cmd_check_grad, "finite-difference check of the "
                   "objective gradient", False, _METRIC_FLAGS),
    "match": (_cmd_match, "print the matching term H between two curves",
              False, ("--source", "--target", "--grid", "--kernel")),
    "export-svg": (_cmd_export_svg, "render a homotopy JSON file to SVG",
                   True, ("--target", "--out")),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args reads the parser and changes
    # nothing in it, so every call of main can share one
    parser = argparse.ArgumentParser(
        prog="bvgeo",
        description="Approximate minimal geodesic homotopies between closed "
                    "planar curves under BV2 and second-order Sobolev metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, text, operand, flags) in _CONFIGURED.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="flat key = value config file")
        for flag in flags:
            p.add_argument(flag, help=_FLAGS[flag],
                           dest="family" if flag == "--metric" else None)
        if operand:
            p.add_argument("homotopy", help="homotopy JSON file")
    p = sub.add_parser("resample", help="constant-speed resample a curve file")
    p.set_defaults(run=_cmd_resample)
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", default="256")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error (code 2)
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.run(args)
    # MemoryError: a grid too large to allocate
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
