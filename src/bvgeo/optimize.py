"""Gradient descent on the relaxed geodesic objective.

The objective is  F(grid) = H(slice N, target) + path_energy(grid)  with the
first slice pinned to the source curve.  The gradient differentiates the
discrete formulas exactly (the J-term partials from ``metrics`` plus the
matching gradient); it is checked against central finite differences in the
test suite rather than trusted on faith.

``descend`` steps along d = -g by ``_line_search``, a backtracking Armijo
search along any descent direction.  A trial that fails the discrete
immersion test on any slice is rejected, which keeps all iterates inside
the open set of immersed curves.  A trial is evaluated immersion, then
energy, then a second-order lower bound on its match term about the
iterate, then match, and stops at the first of them that rejects it (see
``objective``'s bound).  Only a stage's first line search, whose steps
start far above the one it accepts, probes: its trials go first to
``objective``'s probe, which may reject them exactly on the energy of
their last step alone, until one that it does not reject.
``continuation`` reports a failed stage ahead of the stages after it.
One endpoint object (``KernelMatch``) serves a whole run and keeps two
records: the last trial's curve with its H and kernel, and the iterate's
last slice with its H, gradient and match floor, the floor built with the
gradient.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import PolyCurve, converted, length
from .matching import (KernelParams, floor_constants, match_distance,
                       match_floor, match_gradient, match_slack)
from .metrics import (MetricSpec, bv2_norm_and_partials, finite_at_any_chords,
                      h2_sq_and_partials, require_smooth)
from .paths import Homotopy, last_step_power, step_powers


@dataclass(frozen=True)
class OptimConfig:
    """Gradient-descent controls.

    grad_tol is relative: the stop threshold is grad_tol times the initial
    gradient sup-norm of the current stage.  eps_schedule must be strictly
    decreasing; it drives the smoothing continuation, and its last entry
    is the eps at which the CLI's energy and check-grad evaluate.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-6
    eps_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3)

    def __post_init__(self):
        object.__setattr__(self, "max_iters",
                           converted(operator.index, self.max_iters))
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be a nonnegative integer")
        object.__setattr__(self, "grad_tol", converted(float, self.grad_tol))
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
        sched = tuple(converted(float, e) for e in self.eps_schedule)
        if not sched:
            raise ValueError("eps_schedule must be nonempty")
        if not all(0 <= e < np.inf for e in sched):
            raise ValueError("eps_schedule entries must be finite, >= 0")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("eps_schedule must be strictly decreasing")
        object.__setattr__(self, "eps_schedule", sched)


# The line search: a stage's first trial step is TAU0 / (1 + |g|_inf); each
# later iteration first tries the last accepted step over SHRINK (twice it);
# each rejected trial, whether not immersed or short of the Armijo decrease
# f + ARMIJO t <g, d>, multiplies the step by SHRINK (halves it); and the
# search gives up below 1e-20 of the stage's first step.
TAU0, SHRINK, ARMIJO = 1.0, 0.5, 1e-4


# the terminations of a failed stage, with their messages: continuation
# reports the first of them ahead of the last stage's, and geodesic exits 2
FAILURES = {"non_finite": "objective or gradient is not finite",
            "line_search_failure": "line search failed"}


# one value per iterate in each: the stage's eps, the objective and its two
# parts, the gradient sup-norm, and the accepted step (0 at a stage's start)
TRACE_COLUMNS = ("eps", "objective", "energy_part", "match_part",
                 "grad_norm", "step")


@dataclass
class OptimReport:
    """Optimization trace: final homotopy plus one stored list per column.

    termination is "grad_tol", "max_iters", "stalled" (an Armijo-accepted
    step did not lower the objective), "non_finite" (the objective or the
    gradient at the iterate is not finite) or "line_search_failure" (no
    trial step was accepted, at any iteration: never an exception).
    """

    homotopy: Homotopy
    columns: dict = field(
        default_factory=lambda: {name: [] for name in TRACE_COLUMNS})
    iters_per_stage: list = field(default_factory=list)
    stage_objectives: list = field(default_factory=list)
    termination: str = ""

    def extend(self, rows) -> None:
        """Append rows given in TRACE_COLUMNS order."""
        for name, values in zip(TRACE_COLUMNS, zip(*rows)):
            self.columns[name] += values

    # one tuple per iterate in TRACE_COLUMNS order, built on each access
    rows = property(lambda self: list(
        zip(*(self.columns[name] for name in TRACE_COLUMNS))))

    # the stored lists themselves, so an item write persists
    eps_trace = property(lambda self: self.columns["eps"])
    objective_trace = property(lambda self: self.columns["objective"])
    energy_trace = property(lambda self: self.columns["energy_part"])
    match_trace = property(lambda self: self.columns["match_part"])
    grad_norm_trace = property(lambda self: self.columns["grad_norm"])
    step_trace = property(lambda self: self.columns["step"])


# KernelMatch's empty records: no curve is None
_NO_TRIAL, _NO_ITERATE = (None,) * 3, (None,) * 4


class KernelMatch:
    """The endpoint term H(., target) of ``matching`` for one run.

    It keeps two records, each of one curve (by identity: a PolyCurve is
    immutable).  The last trial is (curve, H, kernel), the last curve it
    evaluated, kept until a gradient there takes the kernel.  The iterate
    is (curve, H, gradient, floor), its last gradient's curve, about which
    ``_line_search`` takes its trials, with ``match_floor``'s constants there,
    built from the kernel with the gradient.
    """

    def __init__(self, target: PolyCurve, params: KernelParams):
        self.target, self.params = target, params
        self._target_length = length(target)
        self._trial, self._iterate = _NO_TRIAL, _NO_ITERATE

    def value(self, curve: PolyCurve) -> float:
        """H(curve, target) as ``match_distance`` computes it."""
        if curve is self._iterate[0]:
            return self._iterate[1]
        if curve is not self._trial[0]:
            # the kept kernel goes before the next one is built
            self._trial = _NO_TRIAL
            self._trial = (curve, *match_distance(
                curve, self.target, self.params, return_kernel=True))
        return self._trial[1]

    def gradient(self, curve: PolyCurve) -> np.ndarray:
        """The match gradient at curve, read-only."""
        if curve is not self._iterate[0]:
            value = self.value(curve)
            kernel = self._trial[2]
            self._trial = _NO_TRIAL
            grad = match_gradient(curve, self.target, self.params, kernel)
            grad.setflags(write=False)
            # column 0 of K @ B, which match_gradient leaves as it was
            self._iterate = (curve, value, grad, floor_constants(
                curve, self.target, self.params, value, kernel[2][:, 0],
                grad))
        return self._iterate[2]

    def rejects(self, h: Homotopy, energy: float, bound: float) -> bool:
        """Whether energy + L > bound, L being ``match_slack``'s -slack or
        ``match_floor``'s bound about the iterate: as L is below the
        computed H and rounding is monotone, energy + H > bound too.

        It reads h's last slice alone, and it stays monotone in energy (a
        larger energy lowers match_floor's need, which only lets a floor
        through): ``objective``'s probe rejects on a lower bound of the
        energy for that reason."""
        total = h.last_length
        if energy - match_slack(h.n, self.target.n, total,
                                self._target_length) > bound:
            return True
        floor = self._iterate[3]
        return floor is not None and energy + match_floor(
            floor, h.grid[-1], total, bound - energy) > bound


def _endpoint(endpoint, target: PolyCurve, params: KernelParams):
    """endpoint, or ``KernelMatch(target, params)`` when it is None.  A
    KernelMatch passed in must be of this target and these params."""
    if endpoint is None:
        return KernelMatch(target, params)
    if isinstance(endpoint, KernelMatch) and (
            endpoint.target is not target
            or endpoint.params is not params and endpoint.params != params):
        raise ValueError("the endpoint's target or kernel params are not "
                         "the ones passed beside it")
    return endpoint


def objective(h: Homotopy, target: PolyCurve, spec: MetricSpec,
              params: KernelParams, endpoint=None, *, bound=None,
              probe=False):
    """Total objective with its two parts: (total, energy_part, match_part).

    The endpoint defaults to ``KernelMatch(target, params)``; a
    KernelMatch of another target or other params raises ValueError.  A
    trial that it ``rejects`` at ``bound`` (a line search's Armijo
    threshold) gives (inf, energy, nan) without its match term or a
    last-slice curve.

    With probe (and a bound) only the last step's share T^p / (N-1) of
    the energy is computed, from the last two slices alone: the result is
    (inf, share, nan) where the endpoint rejects the trial on it, else
    (nan, share, nan), undecided.  A probe rejects only trials that the
    full evaluation rejects: step powers are >= 0, so the rounded energy
    is at least any one step's share; a step's power is the same bits
    alone or batched; and ``rejects`` is monotone in the energy.  It runs
    before the immersion test, so ``_line_search`` probes only where
    ``metrics.finite_at_any_chords`` holds.
    """
    endpoint = _endpoint(endpoint, target, params)
    # the kernels are looked up at each call: perfbench/tracing.py wraps them
    kernels = (bv2_norm_and_partials, h2_sq_and_partials)
    if probe:
        share = last_step_power(h, spec, kernels) / (h.N - 1)
        rejected = endpoint.rejects(h, share, bound)
        return np.inf if rejected else np.nan, share, np.nan
    powers, _ = step_powers(h, spec, False, kernels)
    energy = float(powers.sum()) / (h.N - 1)
    if bound is not None and endpoint.rejects(h, energy, bound):
        return np.inf, energy, np.nan
    match = float(endpoint.value(h.slice_curve(h.N - 1)))
    return energy + match, energy, match


def gradient(h: Homotopy, target: PolyCurve, spec: MetricSpec,
             params: KernelParams, endpoint=None) -> np.ndarray:
    """Exact objective gradient, (N, n, 2); the pinned slice-0 block is zero.
    For the BV2 family at eps = 0 (a nonsmooth objective) it raises."""
    require_smooth(spec)
    endpoint = _endpoint(endpoint, target, params)
    # the match term first: it frees the kernel its trial kept before the
    # energy partials allocate theirs
    match_grad = endpoint.gradient(h.slice_curve(h.N - 1))
    _, grad = step_powers(h, spec, True,
                          (bv2_norm_and_partials, h2_sq_and_partials))
    grad /= (h.N - 1)
    grad[-1] += match_grad
    grad[0] = 0.0
    return grad


def _line_search(h: Homotopy, f, d, slope, t, min_t, probing, args):
    """Backtracking Armijo search from h along d, a descent direction of
    h's shape that is zero on the pinned slices, of slope <g, d>: gives
    (t, trial, parts) for the first trial Homotopy(h.grid + t * d), t
    shrinking by SHRINK, that is immersed with an objective at most
    f + ARMIJO t slope, or None once t <= min_t.  While probing, trials go
    first to ``objective``'s probe, until one that it does not reject.
    args is (target, spec, params, endpoint)."""
    while t > min_t:
        trial = Homotopy(h.grid + t * d)
        threshold = f + ARMIJO * t * slope
        probing = probing and objective(
            trial, *args, bound=threshold, probe=True)[0] == np.inf
        if not probing and trial.validate_slices() is None:
            parts = objective(trial, *args, bound=threshold)
            if parts[0] <= threshold:
                return t, trial, parts
        t *= SHRINK
    return None


def descend(h0: Homotopy, target: PolyCurve, spec: MetricSpec,
            params: KernelParams, cfg: OptimConfig,
            endpoint=None) -> OptimReport:
    """Armijo-backtracking gradient descent at the spec's fixed eps: each
    iterate is evaluated once, and ``_line_search`` steps along -g."""
    report = OptimReport(homotopy=h0)
    h, t = h0, 0.0
    args = (target, spec, params, _endpoint(endpoint, target, params))
    f, e_part, m_part = objective(h, *args)
    for k in range(cfg.max_iters + 1):
        g = gradient(h, *args)
        gnorm = float(np.max(np.abs(g)))
        report.extend([(spec.eps, f, e_part, m_part, gnorm, t)])
        tau = TAU0 / (1.0 + gnorm) if k == 0 else t / SHRINK
        if k == 0:
            tol, min_tau = cfg.grad_tol * max(gnorm, 1e-300), 1e-20 * tau
        if k == cfg.max_iters:
            report.termination = "max_iters"
            break
        if not (np.isfinite(f) and np.isfinite(gnorm)):
            report.termination = "non_finite"
            break
        if gnorm <= tol:
            report.termination = "grad_tol"
            break
        d = -g
        # bitwise -np.sum(g * g), which np.vdot's BLAS order is not
        found = _line_search(h, f, d, float(np.sum(g * d)), tau, min_tau,
                             k == 0 and finite_at_any_chords(spec, h.n), args)
        if found is None:
            report.termination = "line_search_failure"
            break
        t, trial, (f_new, e_new, m_new) = found
        # accepted only because ARMIJO * t * slope is below the rounding of f
        if f_new >= f:
            report.termination = "stalled"
            break
        h, f, e_part, m_part = trial, f_new, e_new, m_new
    report.homotopy = h
    report.iters_per_stage.append(len(report.objective_trace) - 1)
    return report


def continuation(h0: Homotopy, target: PolyCurve, spec: MetricSpec,
                 params: KernelParams, cfg: OptimConfig,
                 endpoint=None) -> OptimReport:
    """Run descend per eps in the schedule, warm-starting each stage.

    Each stage's final objective is recorded both at the stage's own eps and
    re-evaluated at the schedule's smallest eps, so stages are comparable,
    beside the stage's termination.  One endpoint (by default
    ``KernelMatch``) serves every stage.  Only a "non_finite" stage stops
    the schedule.  The reported termination is the first stage's that is
    "non_finite" or "line_search_failure", else the last stage's.  A BV2
    schedule ending at eps = 0 is refused before the first stage runs.
    """
    at_min = replace(spec, eps=cfg.eps_schedule[-1])
    require_smooth(at_min)
    endpoint = _endpoint(endpoint, target, params)
    merged = OptimReport(homotopy=h0)
    h = h0
    for eps in cfg.eps_schedule:
        rep = descend(h, target, replace(spec, eps=eps), params, cfg,
                      endpoint)
        h = rep.homotopy
        f_min, _, _ = objective(h, target, at_min, params, endpoint)
        merged.extend(rep.rows)
        merged.iters_per_stage += rep.iters_per_stage
        merged.stage_objectives.append(
            {"eps": eps, "objective": rep.objective_trace[-1],
             "objective_at_min_eps": f_min,
             "termination": rep.termination})
        if merged.termination not in FAILURES:
            merged.termination = rep.termination
        if rep.termination == "non_finite":
            break
    merged.homotopy = h
    return merged


def fd_check(h: Homotopy, target: PolyCurve, spec: MetricSpec,
             params: KernelParams, num_coords: int = 50,
             seed: int = 0) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Samples num_coords random free coordinates (slices 1..N-1); the step is
    adapted to each coordinate's scale.  The finite-difference side is the
    independent oracle for every gradient formula in this module.
    """
    rng = np.random.default_rng(seed)
    g = gradient(h, target, spec, params)
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
        f_plus, _, _ = objective(Homotopy(bumped), target, spec, params)
        bumped[i, j, k] -= 2 * step
        f_minus, _, _ = objective(Homotopy(bumped), target, spec, params)
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

    Chooses the shift minimizing the summed node-to-node distance (the
    first such shift on a tie); used before init_linear so corresponding
    nodes are linked.
    """
    if source.n != target.n:
        raise ValueError("node counts differ")
    # dist[i, j] = |target_i - source_j|
    dist = np.subtract.outer(target.nodes[:, 0], source.nodes[:, 0]) ** 2
    dist += np.subtract.outer(target.nodes[:, 1], source.nodes[:, 1]) ** 2
    np.sqrt(dist, out=dist)
    # row s holds the node indices of the target shifted by s
    shifted = (np.arange(target.n)[:, None] + np.arange(target.n)) % target.n
    costs = np.sum(dist[shifted, np.arange(target.n)], axis=1)
    return PolyCurve(target.nodes[shifted[np.argmin(costs)]])
