"""Command-line interface.

Subcommands: geodesic, energy, check-grad, resample, match, export-svg.
Exit codes: 0 success, 1 input/validation error, 2 optimization failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .curves import (CurveError, PolyCurve, constant_speed_resample,
                     normalize_to_unit_square, signed_area, validate_immersion)
from .io import (ParseError, RunConfig, load_config, load_curve,
                 load_homotopy, save_curve, save_homotopy)
from .matching import match_distance
from .metrics import MetricSpec
from .optimize import (LineSearchError, align_start_node, continuation,
                       fd_check, init_constant, init_linear, objective)
from .paths import Homotopy, make_translation_path, path_energy
from .svg import render_svg

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OPTIM = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvgeo",
        description="Approximate minimal geodesic homotopies between closed "
                    "planar curves under BV2 and second-order Sobolev metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_target=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--source", help="source curve file (JSON or CSV)")
        if with_target:
            p.add_argument("--target", help="target curve file (JSON or CSV)")
        p.add_argument("--out", help="output path prefix")
        p.add_argument("--metric", choices=["bv2", "h2"])
        p.add_argument("--eps-schedule", help="comma-separated eps values")
        p.add_argument("--grid", help="N,n")
        p.add_argument("--weights", help="w0,w1,w2")
        p.add_argument("--kernel", help="sigma,delta")
        p.add_argument("--init", choices=["constant", "linear"])
        p.add_argument("--paper-literal-velocity", action="store_true")

    p = sub.add_parser("geodesic", help="optimize a homotopy between two curves")
    add_common(p)

    p = sub.add_parser("energy", help="evaluate the objective on a homotopy file")
    add_common(p)
    p.add_argument("homotopy", help="homotopy JSON file")

    p = sub.add_parser("check-grad",
                       help="finite-difference check of the objective gradient")
    add_common(p)

    p = sub.add_parser("resample", help="constant-speed resample a curve file")
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=256)

    p = sub.add_parser("match", help="print the matching term H between two curves")
    add_common(p)

    p = sub.add_parser("export-svg", help="render a homotopy JSON file to SVG")
    add_common(p)
    p.add_argument("homotopy", help="homotopy JSON file")

    return parser


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = []
    if getattr(args, "metric", None):
        overrides.append(f"family = {args.metric}")
    if getattr(args, "eps_schedule", None):
        overrides.append(f"eps_schedule = {args.eps_schedule}")
    if getattr(args, "grid", None):
        overrides.append(f"grid = {args.grid}")
    if getattr(args, "weights", None):
        overrides.append(f"weights = {args.weights}")
    if getattr(args, "kernel", None):
        overrides.append(f"kernel = {args.kernel}")
    if getattr(args, "init", None):
        overrides.append(f"init = {args.init}")
    if getattr(args, "source", None):
        overrides.append(f"source = {args.source}")
    if getattr(args, "target", None):
        overrides.append(f"target = {args.target}")
    if getattr(args, "out", None):
        overrides.append(f"out = {args.out}")
    if getattr(args, "paper_literal_velocity", False):
        overrides.append("paper_literal_velocity = true")
    if overrides:
        from .io import parse_config
        cfg = parse_config("\n".join(overrides), cfg)
    return cfg


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
        writer.writerow(["iter", "eps", "objective", "energy_part",
                        "match_part", "grad_norm", "step"])
        for i in range(len(report.objective_trace)):
            writer.writerow([i, report.eps_trace[i],
                             report.objective_trace[i],
                             report.energy_trace[i],
                             report.match_trace[i],
                             report.grad_norm_trace[i],
                             report.step_trace[i]])


def _cmd_geodesic(args) -> int:
    cfg = _config_from_args(args)
    source, target = _prepare_pair(cfg)
    if cfg.init == "constant":
        h0 = init_constant(source, cfg.N)
    else:
        h0 = init_linear(source, target, cfg.N)
    try:
        report = continuation(h0, target, cfg.metric, cfg.kernel,
                              cfg.optimizer)
    except LineSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIM
    prefix = Path(cfg.out)
    save_homotopy(report.homotopy, prefix.with_suffix(".homotopy.json"))
    _write_trace(report, prefix.with_suffix(".trace.csv"))
    prefix.with_suffix(".svg").write_text(
        render_svg(report.homotopy, target=target))
    final = report.objective_trace[-1]
    print(f"objective {final:.6g}  match {report.match_trace[-1]:.6g}  "
          f"termination {report.termination}")
    if report.termination == "line_search_failure":
        return EXIT_OPTIM
    return EXIT_OK


def _cmd_energy(args) -> int:
    cfg = _config_from_args(args)
    h = load_homotopy(args.homotopy)
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
    eps = cfg.optimizer.eps_schedule[-1] if cfg.metric.eps == 0.0 \
        and cfg.metric.family == "bv2" else cfg.metric.eps
    return replace(cfg.metric, eps=eps)


def _cmd_check_grad(args) -> int:
    cfg = _config_from_args(args)
    rng = np.random.default_rng(cfg.optimizer.seed)
    n, N = 24, 5
    theta = 2 * np.pi * np.arange(n) / n
    base = 0.5 + 0.3 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    grid = base[None] + 0.02 * rng.standard_normal((N, n, 2))
    target = PolyCurve(base + 0.02 * rng.standard_normal((n, 2)))
    spec = _eval_spec(cfg)
    if spec.family == "bv2" and spec.eps == 0.0:
        spec = replace(spec, eps=1e-2)
    err = fd_check(Homotopy(grid), target, spec, cfg.kernel,
                   num_coords=50, seed=cfg.optimizer.seed)
    print(f"max relative error {err:.3e}")
    return EXIT_OK if err <= 1e-5 else EXIT_INPUT


def _cmd_resample(args) -> int:
    curve = load_curve(args.source)
    out = constant_speed_resample(curve, args.nodes)
    save_curve(out, args.out)
    print(f"wrote {args.out} ({out.n} nodes)")
    return EXIT_OK


def _cmd_match(args) -> int:
    cfg = _config_from_args(args)
    source, target = _prepare_pair(cfg)
    value = match_distance(source, target, cfg.kernel)
    print(f"{value:.17g}")
    return EXIT_OK


def _cmd_export_svg(args) -> int:
    cfg = _config_from_args(args)
    h = load_homotopy(args.homotopy)
    target = None
    if cfg.target:
        target = _load_endpoint(cfg.target, cfg, "target")
    out = cfg.out if getattr(args, "out", None) or cfg.out != "bvgeo_out" \
        else str(Path(args.homotopy).with_suffix(".svg"))
    if not out.endswith(".svg"):
        out += ".svg"
    Path(out).write_text(render_svg(h, target=target))
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "geodesic": _cmd_geodesic,
    "energy": _cmd_energy,
    "check-grad": _cmd_check_grad,
    "resample": _cmd_resample,
    "match": _cmd_match,
    "export-svg": _cmd_export_svg,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, CurveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
