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

Each family has one batched kernel over S curves, given by their chords d,
and S fields, stacked coordinate-major as (2, S, n) arrays (see the note
above them); one call covers every step of a path.  With ``grad`` a kernel
adds the exact partials wrt nodes and coefficients (checked against
finite differences in the test suite); values alone are defined at eps = 0
and at zero velocity, where the BV2 partials are 0/0.  j0, j1, j2 and the
*_tangent_norm* functions are single-field wrappers around the kernels.

The kernels' domain has two rules, each stated once here for every caller:

* ``finite_at_any_chords``: the value pass is finite at any chords, zero
  ones included, where every smoothed length sqrt(|d|^2 + (eps/n)^2) that
  a kernel divides by is positive, i.e. where (eps/n)^2 > 0.  Where it is
  0, a zero chord divides by zero (H2 raises ZeroDivisionError); a curve
  that passes the immersion test has no zero chord.  A kernel that
  divides by an unsmoothed length must update this predicate.
* ``require_smooth``: the BV2 gradient is refused at eps = 0, where the
  objective is nonsmooth.

Known fault: the smoothed BV2 norm is not monotone in eps.  J2 divides by
|d|_{eps/n}, so eps > 0 shrinks the arclength derivative, which on rough
fields can outweigh the outer smoothing: the (1, 0, 1) norm at eps = 0.1
was measured up to 34% below its eps = 0 value.  The eps-monotonicity
tests pass only because they sample smooth fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (PolyCurve, TangentField, check_sizes, converted,
                     cyclic_shift, inner, inner_cm, smoothed_norm)

BV2 = "bv2"
H2 = "h2"


@dataclass(frozen=True)
class MetricSpec:
    """Metric family, weights, smoothing and path-energy exponent.

    family:   "bv2" or "h2"
    weights:  (w0, w1, w2), nonnegative, at least one positive
    eps:      smoothing parameter (>= 0); for the h2 family it only
              regularizes chord lengths in the speed denominators
    exponent: p in {1, 2}; selects norm vs squared norm of each step's
              velocity in the path energy (see ``paths``)
    """

    family: str = BV2
    weights: tuple[float, float, float] = (1.0, 0.0, 1.0)
    eps: float = 0.0
    exponent: int = 2

    def __post_init__(self):
        if self.family not in (BV2, H2):
            raise ValueError(f"unknown metric family {self.family!r}")
        w = tuple(converted(float, x) for x in self.weights)
        if len(w) != 3 or not all(0 <= x < np.inf for x in w):
            raise ValueError("weights must be three finite reals >= 0")
        if not any(x > 0 for x in w):
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "eps", converted(float, self.eps))
        if not 0 <= self.eps < np.inf:
            raise ValueError("eps must be nonnegative and finite")
        if self.exponent not in (1, 2):
            raise ValueError("exponent must be 1 or 2")
        object.__setattr__(self, "weights", w)


def finite_at_any_chords(spec: MetricSpec, n: int) -> bool:
    """Whether the kernels' value pass at the spec is finite for every
    chord configuration of n-node curves, zero chords included: whether
    the smoothing (eps/n)^2 of the lengths they divide by is positive."""
    mu = spec.eps / n
    return mu * mu > 0.0


def require_smooth(spec: MetricSpec) -> None:
    """Refuse a BV2 gradient at eps = 0, where the objective is nonsmooth."""
    if spec.family == BV2 and spec.eps == 0.0:
        raise ValueError("BV2 gradient requires eps > 0 (objective is "
                         "nonsmooth at eps = 0)")


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
# Batched kernels.  They take and return coordinate-major (2, S, n) arrays:
# the chords d of the S curves (forward node differences) and the S fields,
# and the partials wrt the nodes (through the adjoint of the forward
# difference) and wrt the coefficients, which are fresh arrays the caller
# owns.  A per-segment (S, n) scalar then multiplies both coordinates as
# one broadcast over the leading axis, never as a loop over a length-2
# innermost axis.  ``paths.step_powers`` holds its chords and velocities
# in this layout; the single-field wrappers pass (2, 1, n) views
# ``x.T[:, None]`` of a curve's chords and field.  The node axis is the
# last one and cyclic.
#
# Without grad (the value pass of every Armijo trial) a kernel does only
# the work its values need, with the bits of the plain form: it allocates
# no partial state (H2 builds its node masses only when a term reads
# them), it starts the value from its first weighted term (each is a sum
# of non-negative numbers, so 0.0 + term changes no bit), it sums with
# np.add.reduce (what np.sum runs, without its wrapper), squares skip the
# + 0.0 of ``inner_cm``, and products overwrite operands that only the
# partials would read again.
# ---------------------------------------------------------------------------

def _adj_fwd(g: np.ndarray) -> np.ndarray:
    """Adjoint of the forward difference: grad wrt x of sum_i <g_i, fwd(x)_i>."""
    out = cyclic_shift(g, 1, -1)
    out -= g
    return out


def _norm(x: np.ndarray, c: float) -> np.ndarray:
    """``smoothed_norm`` of coordinate-major vectors."""
    out = inner_cm(x, x)
    out += c * c
    return np.sqrt(out, out=out)


def _total(terms, count: int) -> np.ndarray:
    """The sum of the weighted terms in order, begun from the first one:
    each is a sum of non-negative numbers, so adding it to 0.0 first would
    change no bit.  Zeros of the given count when there is no term."""
    if not terms:
        return np.zeros(count)
    value = terms[0]
    for term in terms[1:]:
        value += term
    return value


def bv2_norm_and_partials(chords: np.ndarray, coeffs: np.ndarray,
                          weights, eps: float, grad: bool = True):
    """Weighted BV2 norms w0*J0 + w1*J1 + w2*J2 of S fields on S curves,
    given the curves' chords (their forward node differences).

    Returns (values (S,), d/d nodes, d/d coeffs), the partials (2, S, n)
    and None unless grad.  They are 0/0 at eps = 0 wherever a difference
    vanishes.
    """
    d, v = chords, coeffs
    a = cyclic_shift(v, -1, -1)
    a -= v
    mu = eps / d.shape[-1]
    w0, w1, w2 = weights
    phi_d = _norm(d, mu)                   # |d_i|_{eps/n}
    terms = []
    g_nodes = np.zeros(d.shape) if grad else None
    g_coeffs = np.zeros(v.shape) if grad else None

    if w0:
        phi_v = _norm(v, eps)
        pair = cyclic_shift(phi_v, -1, -1)
        pair += phi_v
        terms.append(w0 * 0.5 * np.add.reduce(
            np.multiply(pair, phi_d, out=None if grad else pair), axis=1))
        if grad:
            # via d_i
            P = 0.5 * pair * d
            P /= phi_d
            g_nodes += w0 * _adj_fwd(P)
            # via v_j: both adjacent segments contribute phi_d
            coef = cyclic_shift(phi_d, 1, -1)
            coef += phi_d
            coef *= 0.5
            coef *= w0
            P = coef * v
            P /= phi_v
            g_coeffs += P

    if w1:
        phi_a = _norm(a, mu)
        terms.append(w1 * np.add.reduce(phi_a, axis=1))
        if grad:
            g_coeffs += w1 * _adj_fwd(a / phi_a)

    if w2:
        u = np.divide(a, phi_d, out=None if grad else a)
        b = cyclic_shift(u, -1, -1)
        b -= u
        phi_b = _norm(b, eps)
        terms.append(w2 * np.add.reduce(phi_b, axis=1))
        if grad:
            g = b
            g /= phi_b                     # d phi_b / d b
            g_prev = cyclic_shift(g, 1, -1)
            # wrt a_k: appears in b_{k-1} (+1/phi_d_k) and b_k (-1/phi_d_k)
            R = g_prev - g
            R /= phi_d
            g_coeffs += w2 * _adj_fwd(R)
            # wrt d_k through 1/phi_d_k
            ga = inner_cm(np.subtract(g, g_prev, out=g_prev), a)
            S = ga * d
            S /= phi_d ** 3
            g_nodes += w2 * _adj_fwd(S)

    value = _total(terms, d.shape[1])
    if not grad:
        return value, None, None
    return value, g_nodes, g_coeffs


def h2_sq_and_partials(chords: np.ndarray, coeffs: np.ndarray,
                       weights, eps: float, grad: bool = True):
    """Weighted squared H2 norms of S fields on S curves, with arguments
    and partials as in ``bv2_norm_and_partials``."""
    d, v = chords, coeffs
    a = cyclic_shift(v, -1, -1)
    a -= v
    mu = eps / d.shape[-1]
    w0, w1, w2 = weights
    ell = _norm(d, mu)
    if not ell.all():
        raise ZeroDivisionError("zero-length segment in H2 norm")
    if w2 or grad and w0:
        mass = cyclic_shift(ell, 1, -1)
        mass += ell
        mass *= 0.5                        # lumped node masses

    terms = []
    g_coeffs = np.zeros(v.shape) if grad else None
    # accumulated d/d ell_i, mapped to nodes once at the end
    g_ell = np.zeros_like(ell) if grad else None

    if w0:
        vsq = inner_cm(v, v)
        pair = cyclic_shift(vsq, -1, -1)
        pair += vsq
        pair *= 0.5
        terms.append(w0 * np.add.reduce(
            np.multiply(pair, ell, out=None if grad else pair), axis=1))
        if grad:
            g_ell += w0 * pair
            g_coeffs += w0 * 2.0 * mass * v

    if w1:
        asq = inner_cm(a, a)
        terms.append(w1 * np.add.reduce(
            np.divide(asq, ell, out=None if grad else asq), axis=1))
        if grad:
            t = 2.0 * a
            t /= ell
            g_coeffs += w1 * _adj_fwd(t)
            t = -w1 * asq
            t /= ell ** 2
            g_ell += t

    if w2:
        u = np.divide(a, ell, out=None if grad else a)
        jump = cyclic_shift(u, 1, -1)
        np.subtract(u, jump, out=jump)     # at node i: u_i - u_{i-1}
        jsq = inner_cm(jump, jump)
        terms.append(w2 * np.add.reduce(
            np.divide(jsq, mass, out=None if grad else jsq), axis=1))
        if grad:
            # wrt u_k: in jump_k (+) and jump_{k+1} (-)
            t = 2.0 * jump
            t /= mass
            W = cyclic_shift(t, -1, -1)
            np.subtract(t, W, out=W)
            t = W / ell
            g_coeffs += w2 * _adj_fwd(t)
            # wrt ell_k: through u_k = a_k/ell_k and masses m_k, m_{k+1}
            dmass = -jsq
            dmass /= mass ** 2
            t = -inner_cm(W, a)
            t /= ell ** 2
            dm = cyclic_shift(dmass, -1, -1)
            dm += dmass
            dm *= 0.5
            t += dm
            g_ell += w2 * t

    value = _total(terms, d.shape[1])
    if not grad:
        return value, None, None
    dl_dd = d / ell                        # d ell_i / d d_i
    dl_dd *= g_ell
    return value, _adj_fwd(dl_dd), g_coeffs


def _value(kernel, curve: PolyCurve, field: TangentField, weights,
           eps: float) -> float:
    check_sizes(curve, field)
    value, _, _ = kernel(curve.chords.T[:, None], field.coeffs.T[:, None],
                         weights, eps, grad=False)
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
    a = cyclic_shift(v, -1, 0) - v
    l1 = float(np.sum(smoothed_norm(v, eps))) / n
    w11 = float(np.sum(smoothed_norm(a, eps)))
    deriv = n * a
    tv2 = float(np.sum(smoothed_norm(cyclic_shift(deriv, -1, 0) - deriv,
                                     eps)))
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
    jump = cyclic_shift(deriv, -1, 0) - deriv
    jumps = float(np.sum(np.sqrt(inner(jump, jump))))
    bv = float(np.sum(speeds)) / curve.n + jumps
    M = max(sup, bv / inf ** 2)
    m = min(inf, 1.0 / bv)
    return EquivalenceConstants(m=m, M=M)
