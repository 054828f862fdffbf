"""Kernel-weighted curve dissimilarity used as the relaxed endpoint term.

H(a, b) integrates the squared difference of unit normals between every
pair of points of the two curves, weighted by a two-scale Gaussian kernel
and by both arclength measures.  On piecewise-affine curves the normals are
constant per segment, so a single midpoint sample per segment pair makes
the normal factor exact and only the kernel factor is approximated:

    H = sum_ij |n_i - m_j|^2 k(c_i, d_j) l_i l_j

over segment midpoints c/d, unit normals n/m and chord lengths l.  The
double sum is evaluated exactly as matrix products: with |n - m|^2 =
|n|^2 + |m|^2 - 2<n, m> (|n|^2 kept, not assumed 1),

    H = sum_i l_i (|n_i|^2 (K B_0)_i + (K B_1)_i - 2 <n_i, (K B_23)_i>)

for the (n, m) kernel matrix K_ij = k(c_i, d_j) and the (m, 4) target block
B = [l, l|m|^2, l m].  The gradient multiplies K by B and K' (the kernel's
radial derivative factor) by B and its products with the midpoints d; the
currents inner product is sum_k (l n_k)^T K (l m_k).  What remains of the
O(n m) cost is forming K (two exponentials per segment pair); the products
are BLAS calls on thin blocks.  The segment data of both curves and the
target's blocks are cached properties of the curves (``PolyCurve.segments``,
and ``kernel_block`` and ``kernel_moments``, which ``target_block`` and
``target_moments`` below build), so a target's side is computed once per
target object.

Three facts serve the line search in ``optimize``.  H is a sum of
non-negative terms, and ``match_slack`` bounds how far its computed value
can fall below zero, so a trial whose path energy alone exceeds the Armijo
threshold by that slack fails whatever H is.  H is also Lipschitz in the
nodes, so ``match_floor`` bounds the computed H of a trial from below by
the iterate's H less what the trial's node displacement can change it by,
from the iterate's ``floor_constants``: a trial whose energy plus that
floor exceeds the threshold fails without its kernel matrix.  And
``match_distance(..., return_kernel=True)`` also returns the kernel's
exponentials and K B, from which ``match_gradient`` forms K' in place.
The functions here keep no state; ``optimize.KernelMatch`` holds a run's.

Note that this discretization (like its continuous form) is positive even
for two identical curves: non-corresponding segment pairs contribute.  Nor
is H minimized at a == b: it scales with the length of a, so shrinking the
first curve lowers it.  For the ellipse b with semi-axes (0.2, 0.35) at 128
nodes, H(b, b) = 4.146 while H(0.01 b, b) = 0.053 (a scaled about b's
center), so as an endpoint term H pulls the final slice towards collapse
rather than onto the target.  The polarization-form
``currents_distance_sq`` vanishes at equal arguments and is provided as a
bridge to the currents-metric formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, converted, cyclic_shift, inner, length, rot90


@dataclass(frozen=True)
class KernelParams:
    """Widths of the two Gaussian kernels: shape scale and feature scale."""

    sigma: float = 0.5
    delta: float = 0.05

    def __post_init__(self):
        for name in ("sigma", "delta"):
            value = converted(float, getattr(self, name))
            object.__setattr__(self, name, value)
        if not all(w > 0 and 2.0 ** -1022 <= w * w < math.inf
                   for w in (self.sigma, self.delta)):
            raise ValueError("kernel widths must be positive, with finite "
                             "normal squares: 1.5e-154 to 1.3e154")


def kernel(v, w, params: KernelParams) -> float:
    """Two-scale Gaussian kernel exp(-r^2/2s^2) + exp(-r^2/2d^2), in (0, 2]."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    r2 = np.sum((v - w) ** 2, axis=-1)
    return (np.exp(-r2 / (2.0 * params.sigma ** 2))
            + np.exp(-r2 / (2.0 * params.delta ** 2)))


def _kernel_matrices(c, d, params: KernelParams):
    """(K, e1, e2): the segment-pair kernel K = e1 + e2 between midpoints
    c (n, 2) and d (m, 2) and its two Gaussian factors e1 = exp(-r^2/2s^2)
    and e2 = exp(-r^2/2d^2), from one r^2 array; three (n, m) arrays."""
    r2 = np.subtract.outer(c[:, 0], d[:, 0])
    np.square(r2, out=r2)
    dy = np.subtract.outer(c[:, 1], d[:, 1])
    r2 += np.square(dy, out=dy)
    e1 = r2 / (-2.0 * params.sigma ** 2)
    np.exp(e1, out=e1)
    e2 = np.exp(np.divide(r2, -2.0 * params.delta ** 2, out=r2), out=r2)
    return np.add(e1, e2, out=dy), e1, e2


def target_block(b: PolyCurve) -> np.ndarray:
    """The (m, 4) block B = [l, l|m|^2, l m] of b's segment lengths l and
    unit normals m, by which kernel matrices are multiplied when b is the
    target; cached as ``b.kernel_block``."""
    _, _, normals, lens = b.segments
    return lens[:, None] * np.column_stack(
        [np.ones_like(lens), inner(normals, normals), normals])


def target_moments(b: PolyCurve):
    """(o, M): the mean o of b's segment midpoints d and the (m, 12)
    moments M = [B, B (d - o)_x, B (d - o)_y] of B = ``b.kernel_block``,
    for the gradient's kernel-derivative products; cached as
    ``b.kernel_moments``."""
    mids = b.segments[0]
    block = b.kernel_block
    origin = np.mean(mids, axis=0)
    centred = mids - origin
    return origin, np.hstack([block, block * centred[:, :1],
                              block * centred[:, 1:]])


def _mismatch(prod, normals):
    """sum_j |n_i - m_j|^2 X_ij y_j for each 4-column group [y, y|m|^2, y m]
    of B in prod = X @ B, by |n - m|^2 = |n|^2 + |m|^2 - 2<n, m>; (n, groups).
    """
    s = prod.reshape(len(normals), -1, 4)
    return (inner(normals, normals)[:, None] * s[..., 0]
            + s[..., 1] - 2.0 * np.einsum("igk,ik->ig", s[..., 2:], normals))


def match_slack(n: int, m: int, length_a: float, length_b: float) -> float:
    """How far below zero match_distance of an n-node curve a and an m-node
    curve b can be computed, for total chord lengths L_a and L_b:
    16 (n + m + 16) u L_a L_b with u = 2^-53.

    Evaluated exactly on the computed K, l, n and m, H is the sum of
    t_ij = l_i K_ij l_j |n_i - m_j|^2 >= 0, since K >= 0 and
    |n - m|^2 = |n|^2 + |m|^2 - 2<n, m> holds for any vectors (which is why
    |n|^2 is kept, not assumed 1).  The computed H sums the products
    l_i K_ij l_j |n_i|^2, l_i K_ij l_j |m_j|^2 and -2 l_i K_ij l_j n_ik m_jk,
    each through at most n + m + 16 roundings: B's entries, a length-m dot
    product of K @ B in whatever order BLAS adds, ``_mismatch`` and the
    length-n dot product with l.  Its error is then at most
    gamma_k = k u / (1 - k u) <= 2 k u times the sum of the products'
    absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), and with K_ij <= 2 and |n_i|, |m_j| <= 1 that sum is
    at most 2 sum_ij l_i l_j (|n_i| + |m_j|)^2 <= 8 L_a L_b.  The factor 2
    in gamma_k <= 2 k u leaves room for the rounding of |n|, |m|, L_a and
    L_b themselves.  With a == b and kernel widths down to 1e-4 the computed
    H does go below zero, by well under a hundredth of this slack.
    """
    return 16.0 * (n + m + 16) * 2.0 ** -53 * length_a * length_b


# Room for the rounding of match_floor's drop bound, whose relative error
# is below (n + m + 32) u: far below 1e-6 for any n and m a curve can have.
_DROP_SCALE = 1.0 + 1e-6


def floor_constants(a: PolyCurve, b: PolyCurve, params: KernelParams,
                    value: float, kl: np.ndarray):
    """match_floor's constants for trials about a, from its computed
    H_0 = match_distance(a, b, params) and K l_b (column 0 of the K @ B
    that match_distance returns): (a's nodes, H_0, L_a, q, c, w), with
    s(x) = q L_x, c = 2 Lip_K L_b and w = 4 K l_b plus its rounding
    allowance, c and w scaled by _DROP_SCALE."""
    # Lip_K = (1/s + 1/d) / sqrt(e) bounds the kernel's slope in either
    # argument: |d/dr exp(-r^2/2w^2)| = r exp(-r^2/2w^2) / w^2 peaks at r = w
    lip = (1.0 / params.sigma + 1.0 / params.delta) * math.exp(-0.5)
    lb = length(b)
    spread = 1.0 + lip * (float(np.abs(a.nodes).max())
                          + float(np.abs(b.nodes).max()))
    weights = kl * (4.0 * _DROP_SCALE)
    # 4 times K l_b's rounding allowance
    weights += _DROP_SCALE * 16.0 * (b.n + 16) * spread * 2.0 ** -53 * lb
    return (a.nodes, value, length(a),
            2.0 * spread * match_slack(a.n, b.n, 1.0, lb),
            _DROP_SCALE * 2.0 * lip * lb, weights)


def match_floor(constants, nodes: np.ndarray, lengths: np.ndarray,
                total: float) -> float:
    """A lower bound on the computed match_distance(a2, b, params) of the
    curve a2 with these nodes, chord lengths and their sum total, from the
    ``floor_constants`` of a curve a and the same b and params.

    The bound is H_0 - Delta - s(a) - s(a2).  Write H* for H evaluated
    exactly on the nodes, l and l2 for the chord lengths of a and a2,
    L_b for b's length, and phi_ij = l_i |n_i - m_j|^2, so that
    H* = sum_ij phi_ij K_ij l_bj.  As a function of chord_i,
    phi_ij = (1 + |m_j|^2) |chord_i| - 2 <rot90(chord_i), m_j> is
    (1 + |m_j|)^2 = 4-Lipschitz and at most 4 l_i, and K_ij is
    Lip_K-Lipschitz in the midpoint c_i (see ``floor_constants``).  The node
    displacement delta = a2 - a moves chord_i by at most
    D_i = |delta_i| + |delta_{i+1}| and c_i by at most D_i / 2, so with
    phi2 K2 - phi K = (phi2 - phi) K + phi2 (K2 - K),

        H*(a2) >= H*(a) - Delta,
        Delta = sum_i D_i (4 (K l_b)_i + 2 Lip_K L_b l2_i).

    The computed H of a curve x lies within
    s(x) = 2 (1 + Lip_K (R_a + R_b)) match_slack(n, m, L_x, L_b) of H*,
    with R_a and R_b the largest absolute node coordinates of a and b.
    ``match_slack`` covers the summation on the computed K, l, n and m.
    The inputs' own rounding moves each term l_i K_ij l_bj |n_i - m_j|^2
    by at most l_i l_bj u (256 + 8 Lip_K (R_a + R_b)): l has relative error
    at most 3u (the chord's subtraction, two squares, a sum and a root);
    n and m lie within 5u of unit vectors, so |n - m|^2 is within 40u; the
    computed r^2 has relative error 4u and the exponent 8u, which moves
    exp(-x) by at most 8u x exp(-x) <= 3u, and numpy's exp errs by at most
    4 ulps (8u relative), so K is within 32u of k at the computed
    midpoints; those lie within u |c| of the exact ones, which moves k by
    at most Lip_K u (|c| + |d|) <= sqrt(2) Lip_K u (R_a + R_b).  With
    n + m >= 6,
    match_slack >= 352 u L_x L_b covers the 256 and the final subtraction
    here; the factor 1 + Lip_K (R_a + R_b) covers the rest.  For a2,
    |c2_i| <= |c_i| + D_i / 2, and that excess moves its terms by at most
    2u Lip_K L_b l2_i D_i in all, a u-fraction of Delta.  The computed
    K l_b is within 4 (m + 16) (1 + Lip_K (R_a + R_b)) u L_b of its exact
    value (the same inputs, plus m roundings of the product), which is
    added to it.  Delta's own rounding and these u-fractions are covered
    by scaling it by 1 + 1e-6.

    So computed H(a2) >= H*(a2) - s(a2) >= H*(a) - Delta - s(a2)
    >= H_0 - s(a) - Delta - s(a2).  A caller rejecting a trial iff
    fl(E + floor) > bound makes the argument of ``match_slack``'s caller:
    rounding being monotone, fl(E + H(a2)) > bound too.
    """
    origin, value, length_a, per_length, scale, weights = constants
    delta = nodes - origin
    d = np.hypot(delta[:, 0], delta[:, 1])
    d += cyclic_shift(d, -1, 0)                       # D_i
    per_node = lengths * scale
    per_node += weights
    drop = float(d @ per_node)
    return value - drop - per_length * (length_a + total)


def match_distance(a: PolyCurve, b: PolyCurve, params: KernelParams, *,
                   return_kernel: bool = False):
    """Midpoint-rule discretization of the normal-mismatch kernel integral.

    With return_kernel, returns (H, (e1, e2, K @ B)): the kernel's two
    exponentials and its product with b's block, which match_gradient of
    the same a, b and params takes in place of building them again.
    """
    ca, _, na, la = a.segments
    k, e1, e2 = _kernel_matrices(ca, b.segments[0], params)
    prod = k @ b.kernel_block
    value = float(la @ _mismatch(prod, na)[:, 0])
    return (value, (e1, e2, prod)) if return_kernel else value


def match_gradient(a: PolyCurve, b: PolyCurve, params: KernelParams,
                   kernel=None) -> np.ndarray:
    """Exact gradient of match_distance with respect to a's node coordinates.

    Chains through segment midpoints, chord lengths, and the Jacobian of
    the normalized chord under the 90-degree rotation.  kernel is the
    (e1, e2, K @ B) that match_distance(a, b, params, return_kernel=True)
    returned, built here when None; its exponentials are overwritten.
    """
    ca, tang, na, la = a.segments
    e1, e2, prod = kernel or match_distance(a, b, params,
                                            return_kernel=True)[1]
    # K' = e1/s^2 + e2/d^2, so that dK_ij/dc_i = -K'_ij (c_i - d_j)
    kprime = np.divide(e1, params.sigma ** 2, out=e1)
    kprime += np.divide(e2, params.delta ** 2, out=e2)

    # dH/dl_i
    alpha = _mismatch(prod, na)[:, 0]
    # dH/dn_i = 2 l_i sum_j k_ij l_j (n_i - m_j)
    g = 2.0 * la[:, None] * (prod[:, :1] * na - prod[:, 2:])
    # dH/dc_i (kernel factor), already including l_i: the sums over j of
    # w k' l_j and of w k' l_j d_j; midpoints taken about the target's
    # centroid so the difference c_i A_i - V_i cancels little
    origin, moments = b.kernel_moments
    ca = ca - origin
    av = _mismatch(kprime @ moments, na)              # (n, 3): A, V
    beta = -(av[:, :1] * ca - av[:, 1:]) * la[:, None]

    # map normal gradient through n_i = rot90(chord_i / l_i)
    rg = -rot90(g)                                    # rot90^T = -rot90
    h = (rg - inner(rg, tang)[:, None] * tang) / la[:, None]

    D = alpha[:, None] * tang + h                     # d/d chord_i
    grad = cyclic_shift(D, 1, 0) - D                  # chord adjoint
    grad += 0.5 * (cyclic_shift(beta, 1, 0) + beta)   # midpoint term
    return grad


def currents_distance_sq(a: PolyCurve, b: PolyCurve,
                         params: KernelParams) -> float:
    """Polarization form <a,a> - 2<a,b> + <b,b> of the kernel inner product
    sum_ij <n_i, m_j> k(c_i, d_j) l_i l_j; zero for identical curves."""

    def dot(x, y):
        cx, _, nx, lx = x.segments
        cy, _, ny, ly = y.segments
        k = _kernel_matrices(cx, cy, params)[0]
        return float(np.sum((lx[:, None] * nx) * (k @ (ly[:, None] * ny))))

    return dot(a, a) - 2.0 * dot(a, b) + dot(b, b)
