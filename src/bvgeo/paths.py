"""Discrete homotopies between closed curves and their path energy.

A homotopy is an N x n grid of plane points: N time slices, each slice a
closed piecewise-affine curve with n nodes.  Time uses N slices and N-1
steps spanning [0, 1]; the velocity of step i is the difference quotient
(slice[i+1] - slice[i]) / dt with dt = 1/(N-1).

The spec's ``paper_literal_velocity`` flag divides by (N-1) instead of
multiplying, reproducing a formula variant whose energy scale depends on the
time grid; the difference-quotient convention is the default because it
makes the discrete energy a consistent quadrature of the continuous one (the
translation path then has its analytic energy value, independent of N).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curves import MIN_SPEED_REL, PolyCurve, TangentField, length
from .metrics import BV2, MetricSpec, bv2_norm_and_partials, h2_sq_and_partials
# unused here; perfbench/tracing.py wraps these two names on this module
from .metrics import bv2_tangent_norm, h2_tangent_norm_sq  # noqa: F401


@dataclass(frozen=True)
class Homotopy:
    """N x n grid of plane points; slice i is the curve at time i/(N-1)."""

    grid: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.grid, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ValueError(f"grid must have shape (N, n, 2), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"need at least 2 time slices, got {arr.shape[0]}")
        if arr.shape[1] < 3:
            raise ValueError(f"need at least 3 space nodes, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid contains non-finite coordinates")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "grid", arr)

    @property
    def N(self) -> int:
        return self.grid.shape[0]

    @property
    def n(self) -> int:
        return self.grid.shape[1]

    def slice_curve(self, i: int) -> PolyCurve:
        return PolyCurve(self.grid[i])

    def validate_slices(self, min_speed: float | None = None):
        """First (slice, segment) failing ``validate_immersion``, or None."""
        chord_lengths = np.linalg.norm(
            np.roll(self.grid, -1, axis=1) - self.grid, axis=2)
        if min_speed is None:
            min_speed = MIN_SPEED_REL * np.sum(chord_lengths, axis=1,
                                               keepdims=True)
        bad = np.flatnonzero(self.n * chord_lengths <= min_speed)
        if bad.size:
            return divmod(int(bad[0]), self.n)
        return None


@dataclass(frozen=True)
class PathDiagnostics:
    """Per-slice lengths and length-bound flags for a homotopy.

    See ``length_bound_check`` for the estimate behind ``lower``/``upper``
    and the conditions under which it holds.
    """

    lengths: np.ndarray          # (N,)
    step_norms: np.ndarray       # (N-1,) tangent norms T_i at the spec's eps
    energy: float                # path energy at exponent 2: mean(T_i^2)
    path_length: float           # discrete path length: mean(T_i) <= sqrt(energy)
    lower: float                 # len(slice 0) * exp(-path_length)
    upper: float                 # len(slice 0) * exp(+path_length)
    violations: np.ndarray       # (N,) bool mask

    @property
    def ok(self) -> bool:
        return not bool(np.any(self.violations))


def _velocity_scale(N: int, paper_literal: bool) -> float:
    """Factor turning slice differences into step velocities."""
    return 1.0 / (N - 1) if paper_literal else float(N - 1)


def velocity(h: Homotopy, i: int, paper_literal: bool = False) -> TangentField:
    """Velocity field of time step i (0-based, 0 <= i <= N-2)."""
    if not 0 <= i <= h.N - 2:
        raise IndexError(f"step index {i} out of range [0, {h.N - 2}]")
    diff = h.grid[i + 1] - h.grid[i]
    return TangentField(diff * _velocity_scale(h.N, paper_literal))


def step_powers(grid: np.ndarray, spec: MetricSpec, grad: bool = False,
                kernels=(bv2_norm_and_partials, h2_sq_and_partials)):
    """T_i^p of every step i, and with grad the (N, n, 2) gradient of their
    sum (else None); T_i is the spec's norm of step i's velocity at slice i.

    The H2 norm takes its subgradient 0 at zero velocity.  kernels is the
    (BV2, H2) pair of batched kernels from ``metrics``.
    """
    scale = _velocity_scale(grid.shape[0], spec.paper_literal_velocity)
    vels = (grid[1:] - grid[:-1]) * scale
    bv2, h2 = kernels
    if spec.family == BV2:
        norm, dn, dv = bv2(grid[:-1], vels, spec.weights, spec.eps, grad)
        power, coef = (norm, 1.0) if spec.exponent == 1 \
            else (norm ** 2, 2.0 * norm)
    else:
        sq, dn, dv = h2(grid[:-1], vels, spec.weights, spec.eps, grad)
        if spec.exponent == 2:
            power, coef = sq, 1.0
        else:
            power = np.sqrt(sq)
            coef = np.divide(0.5, power, out=np.zeros_like(power),
                             where=power > 0.0)
    if not grad:
        return power, None
    coef = np.asarray(coef)[..., None, None]
    dv = scale * (coef * dv)
    # step i adds +dv to slice i+1, then +dn and -dv to slice i
    g = np.zeros_like(grid)
    g[1:] = dv
    g[:-1] += coef * dn
    g[:-1] -= dv
    return power, g


def step_norms(h: Homotopy, spec: MetricSpec) -> np.ndarray:
    """Tangent norm of each step's velocity, measured at the step's slice."""
    return step_powers(h.grid, replace(spec, exponent=1))[0]


def path_energy(h: Homotopy, spec: MetricSpec) -> float:
    """Discrete path energy: mean over steps of the tangent norm^p."""
    return float(np.mean(step_powers(h.grid, spec)[0]))


def make_translation_path(curve: PolyCurve, c, N: int) -> Homotopy:
    """Homotopy translating the curve linearly by the vector c."""
    if N < 2:
        raise ValueError(f"need at least 2 slices, got {N}")
    c = np.asarray(c, dtype=float)
    theta = np.arange(N) / (N - 1)
    grid = curve.nodes[None, :, :] + theta[:, None, None] * c[None, None, :]
    return Homotopy(grid)


def time_constant_speed_reparam(h: Homotopy, spec: MetricSpec,
                                rel_tol: float = 1e-3,
                                max_passes: int = 50) -> Homotopy:
    """Resample the time grid so that per-step tangent norms equalize.

    The cumulative tangent-norm profile is piecewise linear over the slice
    times; it is inverted at uniformly spaced profile values and intermediate
    slices are linear blends of adjacent slices (staying inside the
    piecewise-constant-in-time element family).  Endpoint slices are
    preserved exactly.  Passes repeat until the per-step norms agree within
    rel_tol or max_passes is reached.
    """
    grid = h.grid
    N = h.N
    for _ in range(max_passes):
        cur = Homotopy(grid)
        T = step_norms(cur, spec)
        total = float(np.sum(T))
        if total <= 0.0:
            raise ValueError("zero-energy path cannot be time-reparameterized")
        spread = (np.max(T) - np.min(T)) / np.mean(T)
        if spread <= rel_tol:
            return cur
        cum = np.concatenate([[0.0], np.cumsum(T)])
        targets = total * np.arange(N) / (N - 1)
        # fractional slice index at each target profile value
        pos = np.interp(targets, cum, np.arange(N, dtype=float))
        k = np.clip(np.floor(pos).astype(int), 0, N - 2)
        frac = pos - k
        new = (1.0 - frac)[:, None, None] * grid[k] + frac[:, None, None] * grid[k + 1]
        new[0] = grid[0]
        new[-1] = grid[-1]
        grid = new
    return Homotopy(grid)


def length_bound_check(h: Homotopy, spec: MetricSpec) -> PathDiagnostics:
    """Check every slice length against the exponential length bounds.

    With T_i the tangent norm of step i and dt = 1/(N-1), the window is

        |log(L_i / L_0)| <= ell = sum_i dt*T_i = mean(T_i) <= sqrt(E),

    where E = mean(T_i^2) is the squared-norm path energy (reported as
    ``energy``, regardless of the spec's exponent) and ell is the discrete
    path length.  The window always lies inside exp(+-sqrt(E)), and since
    sqrt(E) <= E once E >= 1, it is then never wider than exp(+-E).

    Reckoning, for the BV2 family with w2 >= 1 (the default (1, 0, 1)):

    * Step i moves chord d_k by dt*a_k (a = forward differences of the
      velocity v_i), so by the triangle inequality on each chord
      |L_{i+1} - L_i| <= dt*J1(v_i), with J1 = sum_k |a_k| unsmoothed.
    * Write a_k = |d_k|' u_k with |d_k|' the (eps/n)-smoothed chord length.
      On a closed curve sum_k a_k = 0, so u has zero mean under the weights
      |d_k|', and each |u_k| is at most half the summed jumps of u, which is
      at most J2/2.  Hence J1 <= L'*J2/2 with L' = sum_k |d_k|' <= L_i + eps.
    * So r = dt*J1/L_i <= dt*(1 + eps/L_i)*J2/2, and
      |log(L_{i+1}/L_i)| <= -log(1 - r) <= dt*J2 <= dt*T_i as long as
      -log(1 - r) <= 2r/(1 + eps/L_i); at eps = 0, dt*J2/2 <= 0.79 suffices.
      (eps > 0 can lower J2, since it enlarges the chord lengths it divides
      by; the eps/L_i factor accounts for that.)
    * Summing the steps gives |log(L_i/L_0)| <= ell.

    For the H2 family (where Cauchy-Schwarz against the node masses gives a
    factor sqrt(L_i)/2 in place of 1/2, which depends on the curve's scale)
    and for w2 < 1, no constant is settled here.  The estimate is a
    sufficient condition, so this is a diagnostic, not an error.
    """
    T = step_norms(h, spec)
    energy = float(np.mean(T ** 2))
    ell = float(np.mean(T))
    lengths = np.array([length(h.slice_curve(i)) for i in range(h.N)])
    lower = lengths[0] * np.exp(-ell)
    upper = lengths[0] * np.exp(ell)
    violations = (lengths < lower) | (lengths > upper)
    return PathDiagnostics(lengths=lengths, step_norms=T, energy=energy,
                           path_length=ell, lower=float(lower),
                           upper=float(upper), violations=violations)
