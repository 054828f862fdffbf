"""The four workloads.  Each builds its inputs from the seed alone, runs one
closed-loop operation per ``op`` call through the package's public entry
points, and checks that operation's outputs.

Every call into the package goes through a module attribute
(``m.optimize.continuation``, ``m.cli.main``) so the hooks in tracing.py
see it.  Checks run with no hooks installed.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed
from tracing import clock

CENTER = np.array([0.5, 0.5])


def ellipse(a: float, b: float, n: int, angle: float = 0.0,
            center=CENTER) -> np.ndarray:
    t = 2 * np.pi * np.arange(n) / n
    pts = np.stack([a * np.cos(t), b * np.sin(t)], axis=1)
    c, s = np.cos(angle), np.sin(angle)
    return pts @ np.array([[c, s], [-s, c]]) + center


def star_curve(coeffs: np.ndarray, n: int, radius: float,
               angle: float = 0.0, phase: float = 0.0,
               center=CENTER) -> np.ndarray:
    """Counterclockwise star-shaped closed curve with radius
    radius + sum_k a_k cos(k t) + b_k sin(k t), sampled at the n angles
    t = phase + 2 pi i / n and rotated by angle; coeffs has shape
    (modes, 2)."""
    t = phase + 2 * np.pi * np.arange(n) / n
    k = np.arange(1, len(coeffs) + 1)[:, None]
    r = radius + coeffs[:, 0] @ np.cos(k * t) + coeffs[:, 1] @ np.sin(k * t)
    return np.stack([r * np.cos(t + angle), r * np.sin(t + angle)],
                    axis=1) + center


# Fourier coefficients of the fixed base shapes (source, target).
_BASE = np.random.default_rng(1402_6504)
BASE_SHAPES = [_BASE.uniform(-1, 1, size=(4, 2))
               * (0.06 / np.arange(1, 5))[:, None] for _ in range(2)]


def seed_moves(seed: int):
    """(angle, phase, center) for a seed; seed 0 gives (0, 0, CENTER).

    Seeds move one fixed geometry instead of drawing unrelated shapes:
    every input coordinate changes with the seed, while the work per
    operation and the solution quality stay the same up to rounding.
    Rotations are quarter turns and translations are small, because the
    descent's first step uses the gradient's sup-norm, which only those
    motions leave unchanged.
    """
    if seed == 0:
        return 0.0, 0.0, CENTER
    rng = np.random.default_rng(seed)
    return (np.pi / 2 * int(rng.integers(4)), rng.uniform(0, 2 * np.pi),
            CENTER + rng.uniform(-0.05, 0.05, size=2))


def write_curve_json(nodes: np.ndarray, path: Path) -> None:
    path.write_text(json.dumps({"nodes": nodes.tolist()}) + "\n")


def write_curve_csv(nodes: np.ndarray, path: Path) -> None:
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in nodes.tolist()))


def write_homotopy(grid: np.ndarray, path: Path) -> None:
    N, n, _ = grid.shape
    path.write_text(json.dumps({"N": N, "n": n,
                                "slices": grid.tolist()}) + "\n")


def currents_ratio(m, final, source, target, kp) -> float:
    """currents_distance_sq(final, target) / currents_distance_sq(source,
    target): the share of the source-target distance left at the end."""
    dist = m.matching.currents_distance_sq
    return dist(final, target, kp) / dist(source, target, kp)


def run_cli(m, argv) -> tuple[int, str, str]:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_fields(line: str) -> dict[str, str]:
    """'objective 1.5  match 0.2' -> {'objective': '1.5', 'match': '0.2'}."""
    words = line.split()
    return dict(zip(words[0::2], words[1::2]))


@dataclass
class Outcome:
    """What one checked operation contributes to the metrics."""

    currents_ratio: float
    call_s: list = field(default_factory=list)


def check_report(m, rep, target, spec, kp, name: str) -> None:
    """Invariants of a continuation report (library call)."""
    checks.finite(f"{name} objective trace", rep.objective_trace)
    checks.finite(f"{name} match trace", rep.match_trace)
    checks.finite(f"{name} grad norms", rep.grad_norm_trace)
    checks.finite(f"{name} grid", rep.homotopy.grid)
    checks.monotone_stages(rep.objective_trace, rep.iters_per_stage)
    checks.immersed(rep.homotopy)
    checks.termination(rep.termination)
    fresh, _, _ = m.optimize.objective(rep.homotopy, target, spec, kp)
    checks.close(f"{name} reported objective", rep.objective_trace[-1],
                 fresh, 1e-12)


class Workload:
    """One closed-loop operation at a time on seed-generated inputs."""

    name = ""

    def __init__(self, m, seed: int, work: Path, tiny: bool):
        self.m = m
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.kp = m.matching.KernelParams()

    def prepare(self) -> None:
        """Generate (and write) the inputs; part of set-up time."""
        raise NotImplementedError

    def op(self, index: int):
        """One operation; returns what check() needs."""
        raise NotImplementedError

    def check(self, result) -> Outcome:
        """Check one operation's outputs; raise CheckFailed if wrong."""
        raise NotImplementedError

    def observations(self) -> dict:
        """Diagnostics recorded once per run, not checked."""
        return {}

    def samples(self, objective_s, iteration_s, outcome):
        """(iter_ms samples, eval_ms samples) of one operation in seconds,
        from the probe's objective() durations and accepted-iteration
        intervals: one accepted descent iteration, and one objective()
        call."""
        return iteration_s, objective_s


class EllipseN128(Workload):
    """Criterion-7 scenario: crossing ellipses, (N, n) = (10, 128), BV2
    defaults, constant init, library continuation at a fixed budget."""

    name = "ellipse_n128"
    budget = 20
    # seed 0 at the budget above: final objective, currents ratio.  The
    # constant init starts at zero velocity, where a 1e-15 change of the
    # grid moves the final objective by ~1e-5 relative and 1 - ratio (the
    # share of the distance covered) by ~1%.
    reference = (4.192268200015456, 0.999894007076207)

    def prepare(self):
        o = self.m.optimize
        n, self.N = (24, 4) if self.tiny else (128, 10)
        angle, _, center = seed_moves(self.seed)
        curve = self.m.curves.PolyCurve
        self.source = curve(ellipse(0.35, 0.2, n, angle, center))
        self.target = curve(ellipse(0.2, 0.35, n, angle, center))
        self.spec = self.m.metrics.MetricSpec()
        self.cfg = o.OptimConfig(max_iters=2 if self.tiny else self.budget)

    def op(self, index):
        o = self.m.optimize
        h0 = o.init_constant(self.source, self.N)
        return o.continuation(h0, self.target, self.spec, self.kp, self.cfg)

    def check(self, rep):
        final_spec = self.m.metrics.MetricSpec(eps=self.cfg.eps_schedule[-1])
        check_report(self.m, rep, self.target, final_spec, self.kp, self.name)
        if rep.iters_per_stage != [self.cfg.max_iters] * 3:
            raise CheckFailed(f"iters per stage {rep.iters_per_stage}")
        ratio = currents_ratio(self.m, rep.homotopy.slice_curve(self.N - 1),
                               self.source, self.target, self.kp)
        if self.seed == 0 and not self.tiny:
            checks.close("seed-0 final objective", rep.objective_trace[-1],
                         self.reference[0], 1e-4)
            checks.close("seed-0 distance covered", 1 - ratio,
                         1 - self.reference[1], 0.1)
        return Outcome(ratio)


class CliN256(Workload):
    """In-process `bvgeo geodesic` at the CLI default grid (10, 256) on
    seed-generated Fourier curve files; the budget comes from --config."""

    name = "cli_n256"
    budget = 4
    reference = 5.50105   # seed 0: printed objective (6 digits)

    def prepare(self):
        # the CLI normalizes each curve to the unit square, which would
        # turn a rotation into a change of scale, so seeds only move the
        # nodes along the curves
        _, phase, _ = seed_moves(self.seed)
        w = self.work
        cs, ct = BASE_SHAPES
        src = star_curve(cs, 200, 0.3, phase=phase)
        tgt = star_curve(ct, 160, 0.25, angle=1.0, phase=2 * phase)
        tgt[:, 0] = 0.5 + 1.2 * (tgt[:, 0] - 0.5)
        self.source_path = w / "source.json"
        self.target_path = w / "target.csv"
        write_curve_json(src, self.source_path)
        write_curve_csv(tgt, self.target_path)
        config = w / "run.conf"
        budget = 2 if self.tiny else self.budget
        config.write_text(f"max_iters = {budget}\n"
                          + ("grid = 4, 32\n" if self.tiny else ""))
        self.out = w / "run"
        self.last_h = None
        self.argv = ["geodesic", "--source", str(self.source_path),
                     "--target", str(self.target_path),
                     "--out", str(self.out), "--config", str(config)]
        self._pair = None

    def op(self, index):
        return run_cli(self.m, self.argv)

    def pair(self, n):
        """Source and target prepared as the CLI prepares them."""
        if self._pair is None:
            c = self.m.curves
            ends = []
            for path in (self.source_path, self.target_path):
                curve = c.normalize_to_unit_square(self.m.io.load_curve(path))
                ends.append(c.constant_speed_resample(curve, n))
            ends[1] = self.m.optimize.align_start_node(*ends)
            self._pair = tuple(ends)
        return self._pair

    def check(self, result):
        code, out, err = result
        if code != 0:
            raise CheckFailed(f"geodesic exit {code}: {err.strip()}")
        printed = parse_fields(out.strip().splitlines()[-1])
        checks.termination(printed.get("termination", ""))
        h = self.m.io.load_homotopy(self.out.with_suffix(".homotopy.json"))
        rows = (self.out.with_suffix(".trace.csv").read_text()
                .splitlines()[1:])
        cols = np.array([[float(x) for x in r.split(",")] for r in rows])
        checks.finite("trace", cols)
        checks.finite("grid", h.grid)
        checks.monotone_stages(cols[:, 2], checks.stages_by_eps(cols[:, 1]))
        checks.immersed(h)
        source, target = self.pair(h.n)
        if np.any(h.grid[0] != source.nodes):
            raise CheckFailed("slice 0 is not the prepared source curve")
        spec = self.m.metrics.MetricSpec(eps=float(cols[-1, 1]))
        fresh, _, _ = self.m.optimize.objective(h, target, spec, self.kp)
        checks.close("trace objective", float(cols[-1, 2]), fresh, 1e-12)
        checks.close("printed objective", float(printed["objective"]),
                      fresh, 1e-5)
        if not self.out.with_suffix(".svg").read_text().startswith("<svg"):
            raise CheckFailed("svg output is not an SVG document")
        ratio = currents_ratio(self.m, h.slice_curve(h.N - 1), source,
                               target, self.kp)
        if self.seed == 0 and not self.tiny:
            checks.close("seed-0 printed objective",
                         float(printed["objective"]), self.reference, 1e-4)
        self.last_h = h
        return Outcome(ratio)

    def observations(self):
        """FD gradient error at n = 256 with fd_check's fixed step: an
        observation, not a check (the step is too coarse at this n)."""
        if self.last_h is None:
            return {}
        source, target = self.pair(self.last_h.n)
        spec = self.m.metrics.MetricSpec(eps=1e-3)
        err = self.m.optimize.fd_check(self.last_h, target, spec, self.kp,
                                       num_coords=8, seed=self.seed)
        return {"fd_check_rel_err": err}


class FineTimeN64(Workload):
    """(N, n) = (48, 64), weights (1, 1, 1), linear init: one BV2 and one
    H2 solve, then time reparameterization and the length-bound check."""

    name = "fine_time_n64"
    budget = 4
    # seed 0: final BV2 objective, final H2 objective, currents ratio
    reference = (49.22683279541819, 30.730859641867113,
                 1.29670720108915e-06)

    def prepare(self):
        angle, _, center = seed_moves(self.seed)
        n, self.N = (24, 6) if self.tiny else (64, 48)
        c = self.m.curves
        cs, ct = BASE_SHAPES
        self.source = c.PolyCurve(star_curve(cs, n, 0.3, angle,
                                             center=center))
        self.target = c.PolyCurve(star_curve(ct, n, 0.25, angle,
                                             center=center))
        mt = self.m.metrics
        weights = (1.0, 1.0, 1.0)
        self.specs = (mt.MetricSpec(family=mt.BV2, weights=weights),
                      mt.MetricSpec(family=mt.H2, weights=weights))
        self.cfg = self.m.optimize.OptimConfig(
            max_iters=2 if self.tiny else self.budget)

    def final_spec(self, spec):
        return self.m.metrics.MetricSpec(
            family=spec.family, weights=spec.weights,
            eps=self.cfg.eps_schedule[-1], exponent=spec.exponent)

    def op(self, index):
        o, p = self.m.optimize, self.m.paths
        h0 = o.init_linear(self.source, self.target, self.N)
        reports = [o.continuation(h0, self.target, spec, self.kp, self.cfg)
                   for spec in self.specs]
        bv2_final = self.final_spec(self.specs[0])
        reparam = p.time_constant_speed_reparam(reports[0].homotopy,
                                                bv2_final)
        diag = p.length_bound_check(reparam, bv2_final)
        return reports, reparam, diag

    def check(self, result):
        reports, reparam, diag = result
        for spec, rep in zip(self.specs, reports):
            check_report(self.m, rep, self.target, self.final_spec(spec),
                         self.kp, spec.family)
        before = reports[0].homotopy.grid
        if np.any(reparam.grid[0] != before[0]) \
                or np.any(reparam.grid[-1] != before[-1]):
            raise CheckFailed("reparameterization moved an endpoint slice")
        checks.finite("reparameterized grid", reparam.grid)
        checks.immersed(reparam)
        checks.finite("slice lengths", diag.lengths)
        checks.finite("length-bound energy", diag.energy)
        ratio = currents_ratio(self.m, reports[0].homotopy.slice_curve(
            self.N - 1), self.source, self.target, self.kp)
        if self.seed == 0 and not self.tiny:
            checks.close("seed-0 BV2 objective",
                         reports[0].objective_trace[-1], self.reference[0],
                         1e-6)
            checks.close("seed-0 H2 objective",
                         reports[1].objective_trace[-1], self.reference[1],
                         1e-6)
            checks.close("seed-0 currents ratio", ratio, self.reference[2],
                         1e-4)
        return Outcome(ratio)


class EvalN256(Workload):
    """Repeated in-process `bvgeo energy <homotopy> --target <curve>` over
    seed-generated stored (10, 256) homotopies: objective-only traffic."""

    name = "eval_n256"
    stored = 8
    reference = 14.138456116116094   # seed 0: objective of homotopy 0

    def prepare(self):
        # fixed end curves (a rotation would become a change of scale under
        # the unit-square normalization); the seed draws the homotopies
        rng = np.random.default_rng(self.seed)
        cs, ct = BASE_SHAPES
        c = self.m.curves
        n, N = (32, 4) if self.tiny else (256, 10)
        source = c.normalize_to_unit_square(
            c.PolyCurve(star_curve(cs, n, 0.3)))
        target = c.normalize_to_unit_square(
            c.PolyCurve(star_curve(ct, n, 0.25)))
        self.target_path = self.work / "target.json"
        write_curve_json(target.nodes, self.target_path)
        theta = (np.arange(N) / (N - 1))[:, None, None]
        self.paths = []
        for k in range(self.stored):
            bump = star_curve(rng.uniform(-1, 1, size=(4, 2)), n, 0.0) \
                - CENTER
            end = 0.5 * (source.nodes + target.nodes) + 0.002 * bump
            grid = (1 - theta) * source.nodes + theta * end
            path = self.work / f"h{k}.homotopy.json"
            write_homotopy(grid, path)
            self.paths.append(path)
        self.argvs = [["energy", str(p), "--target", str(self.target_path)]
                      for p in self.paths]
        self._expected = None

    def op(self, index):
        out, call_s = [], []
        for argv in self.argvs:
            t0 = clock()
            out.append(run_cli(self.m, argv))
            call_s.append(clock() - t0)
        return out, call_s

    def expected(self):
        """Direct objective() of each stored homotopy, and its currents
        ratio; the target is prepared as the CLI prepares it."""
        if self._expected is None:
            c, o = self.m.curves, self.m.optimize
            target = c.normalize_to_unit_square(
                self.m.io.load_curve(self.target_path))
            spec = self.m.metrics.MetricSpec(eps=1e-3)
            values, ratios = [], []
            for path in self.paths:
                h = self.m.io.load_homotopy(path)
                values.append(o.objective(h, target, spec, self.kp))
                ratios.append(currents_ratio(self.m, h.slice_curve(h.N - 1),
                                             h.slice_curve(0), target,
                                             self.kp))
            self._expected = values, float(np.median(ratios))
        return self._expected

    def check(self, result):
        outs, call_s = result
        values, ratio = self.expected()
        for (code, out, err), want, path in zip(outs, values, self.paths):
            if code != 0:
                raise CheckFailed(f"energy {path.name} exit {code}: "
                                  f"{err.strip()}")
            got = parse_fields(out.strip())
            for key, value in zip(("objective", "energy", "match"), want):
                checks.close(f"{path.name} {key}", float(got[key]), value,
                             1e-12)
        if self.seed == 0 and not self.tiny:
            checks.close("seed-0 objective", values[0][0], self.reference,
                         1e-9)
        return Outcome(ratio, call_s=call_s)

    def samples(self, objective_s, iteration_s, outcome):
        """No descent here: iter_ms is the objective() call inside each
        `energy` request and eval_ms the whole request."""
        return objective_s, outcome.call_s


WORKLOADS = {w.name: w for w in (EllipseN128, CliN256, FineTimeN64,
                                 EvalN256)}
