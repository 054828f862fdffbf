"""Discrete tangent-space norms at a piecewise-affine curve.

The three BV2 energy terms are, with |x|_c = sqrt(|x|^2 + c^2), d = forward
differences of the curve nodes, a = forward differences of the field:

    J0 = 1/2 * sum_i |d_i|_{eps/n} (|v_i|_eps + |v_{i+1}|_eps)
    J1 = sum_i |a_i|_{eps/n}
    J2 = sum_i | a_{i+1}/|d_{i+1}|_{eps/n} - a_i/|d_i|_{eps/n} |_eps

J0 is the trapezoidal rule for the weighted L1 norm of the field, J1 the L1
norm of its first arclength derivative, and J2 the total jump variation of
that (piecewise-constant) derivative, i.e. the second total variation.

The weighted H2 squared norm takes the L2 counterparts, l_i = |d_i|_{eps/n}:

    w0 * sum_i l_i (|v_i|^2 + |v_{i+1}|^2)/2 + w1 * sum_i |a_i|^2 / l_i
    + w2 * sum_i |a_i/l_i - a_{i-1}/l_{i-1}|^2 / ((l_{i-1} + l_i)/2)

where the last term is the distributional second derivative (node jumps of
the first derivative) divided by the lumped node mass.

Each family has one batched kernel over S curves and fields stacked as
(S, n, 2) arrays; one call covers every step of a path.  With ``grad`` it
adds the exact partials wrt nodes and coefficients (checked against finite
differences in the test suite); values alone are defined at eps = 0 and at
zero velocity, where the BV2 partials are 0/0.  j0, j1, j2 and the
*_tangent_norm* functions are single-field wrappers around the kernels.

Known fault: the smoothed BV2 norm is not monotone in eps.  J2 divides by
|d|_{eps/n}, so eps > 0 shrinks the arclength derivative, which on rough
fields can outweigh the outer smoothing: the (1, 0, 1) norm at eps = 0.1
was measured up to 34% below its eps = 0 value.  The eps-monotonicity
tests pass only because they sample smooth fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (PolyCurve, TangentField, check_sizes, cyclic_shift,
                     inner, smoothed_norm)

BV2 = "bv2"
H2 = "h2"


@dataclass(frozen=True)
class MetricSpec:
    """Metric family, weights, smoothing and path-energy exponent.

    family:   "bv2" or "h2"
    weights:  (w0, w1, w2), nonnegative, at least one positive
    eps:      smoothing parameter (>= 0); for the h2 family it only
              regularizes chord lengths in the speed denominators
    exponent: p in {1, 2}; selects norm vs squared norm in the path energy
    paper_literal_velocity: step velocities divide slice differences by
              N-1 instead of multiplying (see ``paths``)
    """

    family: str = BV2
    weights: tuple[float, float, float] = (1.0, 0.0, 1.0)
    eps: float = 0.0
    exponent: int = 2
    paper_literal_velocity: bool = False

    def __post_init__(self):
        if self.family not in (BV2, H2):
            raise ValueError(f"unknown metric family {self.family!r}")
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3 or any(x < 0 for x in w):
            raise ValueError("weights must be three nonnegative reals")
        if not any(x > 0 for x in w):
            raise ValueError("at least one weight must be positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.exponent not in (1, 2):
            raise ValueError("exponent must be 1 or 2")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class EquivalenceConstants:
    """Constants m <= M sandwiching the curve-weighted BV2 norm between
    multiples of the flat parameter-circle BV2 norm."""

    m: float
    M: float

    def __post_init__(self):
        if not (0 < self.m <= self.M):
            raise ValueError(f"need 0 < m <= M, got m={self.m}, M={self.M}")


# ---------------------------------------------------------------------------
# Batched kernels on stacked (S, n, 2) nodes and coefficients; the node axis
# is axis 1 and cyclic
# ---------------------------------------------------------------------------

def _next(x: np.ndarray) -> np.ndarray:
    return cyclic_shift(x, -1, 1)


def _prev(x: np.ndarray) -> np.ndarray:
    return cyclic_shift(x, 1, 1)


def _adj_fwd(g: np.ndarray) -> np.ndarray:
    """Adjoint of the forward difference: grad wrt x of sum_i <g_i, fwd(x)_i>."""
    return _prev(g) - g


def bv2_norm_and_partials(nodes: np.ndarray, coeffs: np.ndarray,
                          weights, eps: float, grad: bool = True):
    """Weighted BV2 norms w0*J0 + w1*J1 + w2*J2 of S fields on S curves.

    Returns (values (S,), d/d nodes, d/d coeffs); the partials are None
    unless grad.  They are 0/0 at eps = 0 wherever a difference vanishes.
    """
    n = nodes.shape[1]
    mu = eps / n
    w0, w1, w2 = weights
    d = _next(nodes) - nodes
    a = _next(coeffs) - coeffs
    phi_d = smoothed_norm(d, mu)           # |d_i|_{eps/n}
    value = np.zeros(nodes.shape[0])
    g_nodes = np.zeros_like(nodes) if grad else None
    g_coeffs = np.zeros_like(coeffs) if grad else None

    if w0:
        phi_v = smoothed_norm(coeffs, eps)
        pair = phi_v + _next(phi_v)
        value += w0 * 0.5 * np.sum(phi_d * pair, axis=1)
        if grad:
            # via d_i
            P = 0.5 * pair[..., None] * d / phi_d[..., None]
            g_nodes += w0 * _adj_fwd(P)
            # via v_j: both adjacent segments contribute phi_d
            coef = 0.5 * (_prev(phi_d) + phi_d)
            g_coeffs += w0 * coef[..., None] * coeffs / phi_v[..., None]

    if w1:
        phi_a = smoothed_norm(a, mu)
        value += w1 * np.sum(phi_a, axis=1)
        if grad:
            g_coeffs += w1 * _adj_fwd(a / phi_a[..., None])

    if w2:
        u = a / phi_d[..., None]
        b = _next(u) - u
        phi_b = smoothed_norm(b, eps)
        value += w2 * np.sum(phi_b, axis=1)
        if grad:
            g = b / phi_b[..., None]          # d phi_b / d b
            # wrt a_k: appears in b_{k-1} (+1/phi_d_k) and b_k (-1/phi_d_k)
            R = (_prev(g) - g) / phi_d[..., None]
            g_coeffs += w2 * _adj_fwd(R)
            # wrt d_k through 1/phi_d_k
            ga = inner(g - _prev(g), a)
            S = ga[..., None] * d / (phi_d ** 3)[..., None]
            g_nodes += w2 * _adj_fwd(S)

    return value, g_nodes, g_coeffs


def h2_sq_and_partials(nodes: np.ndarray, coeffs: np.ndarray,
                       weights, eps: float, grad: bool = True):
    """Weighted squared H2 norms of S fields on S curves, with partials as
    in ``bv2_norm_and_partials``."""
    n = nodes.shape[1]
    mu = eps / n
    w0, w1, w2 = weights
    d = _next(nodes) - nodes
    a = _next(coeffs) - coeffs
    ell = smoothed_norm(d, mu)
    if np.any(ell == 0.0):
        raise ZeroDivisionError("zero-length segment in H2 norm")
    mass = 0.5 * (_prev(ell) + ell)        # lumped node masses

    value = np.zeros(nodes.shape[0])
    g_coeffs = np.zeros_like(coeffs) if grad else None
    # accumulated d/d ell_i, mapped to nodes once at the end
    g_ell = np.zeros_like(ell)

    if w0:
        vsq = inner(coeffs, coeffs)
        pair = 0.5 * (vsq + _next(vsq))
        value += w0 * np.sum(ell * pair, axis=1)
        if grad:
            g_ell += w0 * pair
            g_coeffs += w0 * 2.0 * mass[..., None] * coeffs

    if w1:
        asq = inner(a, a)
        value += w1 * np.sum(asq / ell, axis=1)
        if grad:
            g_coeffs += w1 * _adj_fwd(2.0 * a / ell[..., None])
            g_ell += -w1 * asq / ell ** 2

    if w2:
        u = a / ell[..., None]
        jump = u - _prev(u)                # jump at node i: u_i - u_{i-1}
        jsq = inner(jump, jump)
        value += w2 * np.sum(jsq / mass, axis=1)
        if grad:
            # wrt u_k: in jump_k (+) and jump_{k+1} (-)
            t = 2.0 * jump / mass[..., None]
            W = t - _next(t)
            g_coeffs += w2 * _adj_fwd(W / ell[..., None])
            # wrt ell_k: through u_k = a_k/ell_k and masses m_k, m_{k+1}
            dmass = -jsq / mass ** 2
            g_ell += w2 * (-inner(W, a) / ell ** 2
                           + 0.5 * (dmass + _next(dmass)))

    if not grad:
        return value, None, None
    dl_dd = d / ell[..., None]             # d ell_i / d d_i
    return value, _adj_fwd(g_ell[..., None] * dl_dd), g_coeffs


def _value(kernel, curve: PolyCurve, field: TangentField, weights,
           eps: float) -> float:
    check_sizes(curve, field)
    value, _, _ = kernel(curve.nodes[None], field.coeffs[None], weights, eps,
                         grad=False)
    return float(value[0])


def j0(curve: PolyCurve, field: TangentField, eps: float = 0.0) -> float:
    """Trapezoidal weighted L1 norm of the field along the curve."""
    return _value(bv2_norm_and_partials, curve, field, (1.0, 0.0, 0.0), eps)


def j1(curve: PolyCurve, field: TangentField, eps: float = 0.0) -> float:
    """Discrete L1 norm of the first arclength derivative of the field."""
    return _value(bv2_norm_and_partials, curve, field, (0.0, 1.0, 0.0), eps)


def j2(curve: PolyCurve, field: TangentField, eps: float = 0.0) -> float:
    """Second total variation: summed jumps of the first derivative."""
    return _value(bv2_norm_and_partials, curve, field, (0.0, 0.0, 1.0), eps)


def bv2_tangent_norm(curve: PolyCurve, field: TangentField,
                     spec: MetricSpec) -> float:
    """Weighted BV2 tangent norm w0*J0 + w1*J1 + w2*J2 at the spec's eps."""
    if spec.family != BV2:
        raise ValueError(f"spec.family must be {BV2!r}, got {spec.family!r}")
    return _value(bv2_norm_and_partials, curve, field, spec.weights, spec.eps)


def h2_tangent_norm_sq(curve: PolyCurve, field: TangentField,
                       spec: MetricSpec) -> float:
    """Weighted squared H2 tangent norm (see the module docstring)."""
    if spec.family != H2:
        raise ValueError(f"spec.family must be {H2!r}, got {spec.family!r}")
    return _value(h2_sq_and_partials, curve, field, spec.weights, spec.eps)


# ---------------------------------------------------------------------------
# Flat (parameter-circle) BV2 norm and equivalence constants
# ---------------------------------------------------------------------------

def flat_bv2_norm(field: TangentField, eps: float = 0.0) -> float:
    """Discrete BV2 norm on the uniform parameter circle.

    W^{1,1} part (trapezoidal L1 of the field plus summed forward
    differences) plus the flat second variation of the derivative.
    """
    v = field.coeffs
    n = field.n
    a = np.roll(v, -1, axis=0) - v
    l1 = float(np.sum(smoothed_norm(v, eps))) / n
    w11 = float(np.sum(smoothed_norm(a, eps)))
    deriv = n * a
    tv2 = float(np.sum(smoothed_norm(np.roll(deriv, -1, axis=0) - deriv, eps)))
    return l1 + w11 + tv2


def equivalence_constants(curve: PolyCurve) -> EquivalenceConstants:
    """Norm-equivalence constants between the flat and curve-weighted norms.

    With per-segment speeds s_i = n*|chord_i|:
        M = max( max s_i, |speed|_BV / (min s_i)^2 )
        m = min( min s_i, 1 / |speed|_BV )
    where |speed|_BV is the L1 norm of the speed plus the vector-valued jump
    variation of the derivative.
    """
    speeds = curve.speeds
    if np.any(speeds == 0.0):
        raise ZeroDivisionError("degenerate segment")
    sup = float(np.max(speeds))
    inf = float(np.min(speeds))
    deriv = curve.n * curve.chords
    jumps = float(np.sum(np.linalg.norm(
        np.roll(deriv, -1, axis=0) - deriv, axis=1)))
    bv = float(np.sum(speeds)) / curve.n + jumps
    M = max(sup, bv / inf ** 2)
    m = min(inf, 1.0 / bv)
    return EquivalenceConstants(m=m, M=M)
