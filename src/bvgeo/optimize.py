"""Gradient descent on the relaxed geodesic objective.

The objective is  F(grid) = H(slice N, target) + path_energy(grid)  with the
first slice pinned to the source curve.  The gradient differentiates the
discrete formulas exactly (the J-term partials from ``metrics`` plus the
matching gradient); it is checked against central finite differences in the
test suite rather than trusted on faith.

Descent uses backtracking Armijo line search.  A step whose iterate fails
the discrete immersion test on any slice is treated as a line-search
rejection, which keeps all iterates inside the open set of immersed curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .curves import PolyCurve
from .matching import KernelParams, match_distance, match_gradient
from .metrics import BV2, MetricSpec, bv2_norm_and_partials, h2_sq_and_partials
from .paths import Homotopy, step_powers


@dataclass(frozen=True)
class OptimConfig:
    """Gradient-descent controls.

    grad_tol is relative: the stop threshold is grad_tol times the initial
    gradient sup-norm of the current stage.  eps_schedule must be strictly
    decreasing; it drives the smoothing continuation.
    """

    max_iters: int = 2000
    tau0: float = 1.0
    shrink: float = 0.5
    armijo: float = 1e-4
    grad_tol: float = 1e-6
    eps_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must be in (0, 1)")
        if not 0 < self.armijo < 1:
            raise ValueError("armijo constant must be in (0, 1)")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        sched = tuple(float(e) for e in self.eps_schedule)
        if any(e < 0 for e in sched):
            raise ValueError("eps_schedule entries must be nonnegative")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", sched)


@dataclass
class OptimReport:
    """Optimization trace: final homotopy plus per-iteration diagnostics."""

    homotopy: Homotopy
    objective_trace: list = field(default_factory=list)
    energy_trace: list = field(default_factory=list)
    match_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    step_trace: list = field(default_factory=list)
    eps_trace: list = field(default_factory=list)
    iters_per_stage: list = field(default_factory=list)
    stage_objectives: list = field(default_factory=list)
    termination: str = ""


class LineSearchError(RuntimeError):
    """Backtracking failed on the very first iteration (bad scaling)."""


def _step_powers(h: Homotopy, spec: MetricSpec, grad: bool):
    # looked up here at call time: perfbench/tracing.py wraps these names
    return step_powers(h.grid, spec, grad,
                       (bv2_norm_and_partials, h2_sq_and_partials))


def objective(h: Homotopy, target: PolyCurve, spec: MetricSpec,
              params: KernelParams, match_term=None):
    """Total objective with its two parts: (total, energy_part, match_part)."""
    powers, _ = _step_powers(h, spec, grad=False)
    energy = float(np.sum(powers)) / (h.N - 1)
    last = h.slice_curve(h.N - 1)
    match = float(match_term[0](last) if match_term
                  else match_distance(last, target, params))
    return energy + match, energy, match


def gradient(h: Homotopy, target: PolyCurve, spec: MetricSpec,
             params: KernelParams, match_term=None) -> np.ndarray:
    """Exact objective gradient, (N, n, 2); the pinned slice-0 block is zero.

    For the BV2 family the objective is nonsmooth at eps = 0, so the
    gradient refuses that case explicitly.
    """
    if spec.family == BV2 and spec.eps == 0.0:
        raise ValueError("BV2 gradient requires eps > 0 (objective is "
                         "nonsmooth at eps = 0)")
    _, grad = _step_powers(h, spec, grad=True)
    grad /= (h.N - 1)
    last = h.slice_curve(h.N - 1)
    grad[-1] += match_term[1](last) if match_term \
        else match_gradient(last, target, params)
    grad[0] = 0.0
    return grad


def descend(h0: Homotopy, target: PolyCurve, spec: MetricSpec,
            params: KernelParams, cfg: OptimConfig,
            match_term=None) -> OptimReport:
    """Armijo-backtracking gradient descent at the spec's fixed eps."""
    report = OptimReport(homotopy=h0)
    h = h0

    f, e_part, m_part = objective(h, target, spec, params, match_term)
    g = gradient(h, target, spec, params, match_term)
    gnorm = float(np.max(np.abs(g)))
    tol = cfg.grad_tol * max(gnorm, 1e-300)
    tau = cfg.tau0 / (1.0 + gnorm)
    traces = (report.objective_trace, report.energy_trace, report.match_trace,
              report.grad_norm_trace, report.eps_trace, report.step_trace)
    for trace, x in zip(traces, (f, e_part, m_part, gnorm, spec.eps, 0.0)):
        trace.append(x)

    min_tau = 1e-20 * tau
    for it in range(cfg.max_iters):
        if gnorm <= tol:
            report.termination = "grad_tol"
            break
        gsq = float(np.sum(g * g))
        accepted = False
        t = tau
        while t > min_tau:
            cand = Homotopy(h.grid - t * g)
            if cand.validate_slices() is not None:
                t *= cfg.shrink
                continue
            f_new, e_new, m_new = objective(cand, target, spec, params,
                                            match_term)
            if f_new <= f - cfg.armijo * t * gsq:
                accepted = True
                break
            t *= cfg.shrink
        if not accepted:
            if it == 0:
                raise LineSearchError(
                    "line search failed at iteration 0; check problem scaling")
            report.termination = "line_search_failure"
            break
        h = cand
        f, e_part, m_part = f_new, e_new, m_new
        g = gradient(h, target, spec, params, match_term)
        gnorm = float(np.max(np.abs(g)))
        # gentle step growth so backtracking stays cheap
        tau = t / cfg.shrink
        for trace, x in zip(traces, (f, e_part, m_part, gnorm, spec.eps, t)):
            trace.append(x)
    else:
        report.termination = "max_iters"

    report.homotopy = h
    report.iters_per_stage.append(len(report.objective_trace) - 1)
    return report


def continuation(h0: Homotopy, target: PolyCurve, spec: MetricSpec,
                 params: KernelParams, cfg: OptimConfig,
                 match_term=None) -> OptimReport:
    """Run descend per eps in the schedule, warm-starting each stage.

    Each stage's final objective is recorded both at the stage's own eps and
    re-evaluated at the schedule's smallest eps, so stages are comparable.
    """
    if not cfg.eps_schedule:
        raise ValueError("eps_schedule must be nonempty")
    eps_min = cfg.eps_schedule[-1]
    merged = OptimReport(homotopy=h0)
    h = h0
    for eps in cfg.eps_schedule:
        rep = descend(h, target, replace(spec, eps=eps), params, cfg,
                      match_term)
        h = rep.homotopy
        at_min, _, _ = objective(h, target, replace(spec, eps=eps_min),
                                 params, match_term)
        merged.objective_trace += rep.objective_trace
        merged.energy_trace += rep.energy_trace
        merged.match_trace += rep.match_trace
        merged.grad_norm_trace += rep.grad_norm_trace
        merged.step_trace += rep.step_trace
        merged.eps_trace += rep.eps_trace
        merged.iters_per_stage += rep.iters_per_stage
        merged.stage_objectives.append(
            {"eps": eps, "objective": rep.objective_trace[-1],
             "objective_at_min_eps": at_min})
        merged.termination = rep.termination
    merged.homotopy = h
    return merged


def fd_check(h: Homotopy, target: PolyCurve, spec: MetricSpec,
             params: KernelParams, num_coords: int = 50, seed: int = 0,
             match_term=None) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Samples num_coords random free coordinates (slices 1..N-1); the step is
    adapted to each coordinate's scale.  The finite-difference side is the
    independent oracle for every gradient formula in this module.
    """
    rng = np.random.default_rng(seed)
    g = gradient(h, target, spec, params, match_term)
    base = h.grid
    worst = 0.0
    gscale = max(float(np.max(np.abs(g))), 1e-12)
    for _ in range(num_coords):
        i = int(rng.integers(1, h.N))
        j = int(rng.integers(0, h.n))
        k = int(rng.integers(0, 2))
        step = 1e-7 * max(1.0, abs(base[i, j, k]))
        bumped = base.copy()
        bumped[i, j, k] += step
        f_plus, _, _ = objective(Homotopy(bumped), target, spec, params,
                                 match_term)
        bumped[i, j, k] -= 2 * step
        f_minus, _, _ = objective(Homotopy(bumped), target, spec, params,
                                  match_term)
        fd = (f_plus - f_minus) / (2 * step)
        err = abs(fd - g[i, j, k]) / max(abs(g[i, j, k]), gscale * 1e-3)
        worst = max(worst, err)
    return worst


def init_constant(source: PolyCurve, N: int) -> Homotopy:
    """Trivial initialization: every slice equals the source curve."""
    if N < 2:
        raise ValueError(f"need at least 2 slices, got {N}")
    return Homotopy(np.repeat(source.nodes[None, :, :], N, axis=0))


def init_linear(source: PolyCurve, target: PolyCurve, N: int) -> Homotopy:
    """Straight-line node-wise interpolation from source to target."""
    if N < 2:
        raise ValueError(f"need at least 2 slices, got {N}")
    if source.n != target.n:
        raise ValueError(
            f"node counts differ: {source.n} vs {target.n}")
    theta = (np.arange(N) / (N - 1))[:, None, None]
    grid = (1.0 - theta) * source.nodes[None] + theta * target.nodes[None]
    return Homotopy(grid)


def align_start_node(source: PolyCurve, target: PolyCurve) -> PolyCurve:
    """Cyclically shift the target's nodes to best match the source.

    Chooses the shift minimizing the summed node-to-node distance; used
    before init_linear so corresponding nodes are linked.
    """
    if source.n != target.n:
        raise ValueError("node counts differ")
    best_shift = 0
    best_cost = np.inf
    for s in range(target.n):
        cost = float(np.sum(np.linalg.norm(
            np.roll(target.nodes, -s, axis=0) - source.nodes, axis=1)))
        if cost < best_cost:
            best_cost = cost
            best_shift = s
    return PolyCurve(np.roll(target.nodes, -best_shift, axis=0))
