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
currents inner product sum_k (l n_k)^T K (l m_k) multiplies K by the l m
columns of B.  What remains of the O(n m) cost is forming K (two
exponentials per segment pair); the products are BLAS calls on thin blocks.
Every block K multiplies is cached on its curve (``PolyCurve.kernel_block``
and ``kernel_moments``, which ``target_block`` and ``target_moments`` below
build, beside ``segments``), so a curve's side is computed once per object.

Three facts serve the line search in ``optimize``.  H is a sum of
non-negative terms, and ``match_slack`` bounds how far its computed value
can fall below zero, so a trial whose path energy alone exceeds the Armijo
threshold by that slack fails whatever H is.  H is also smooth in the
nodes, so ``match_floor`` bounds the computed H of a trial from below
about the iterate, from the iterate's ``floor_constants``: its H plus
the first-order change along its gradient, less a bound on the Taylor
remainder (second order in the step; available while every chord of the
iterate outlasts the move).  That takes about a dozen numpy calls on
(n,) arrays and no (n, m) work: a trial whose energy plus the floor
exceeds the threshold fails without its kernel matrix.  And
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
        # the match floor divides by each width cubed: a finite, nonzero float
        if not all(1e-100 <= w <= 1e100 for w in (self.sigma, self.delta)):
            raise ValueError("kernel widths must be finite, "
                             "in [1e-100, 1e100]")


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
                    value: float, kl: np.ndarray, grad: np.ndarray):
    """match_floor's constants for trials about a, from its computed
    H_0 = match_distance(a, b, params), K l_b (column 0 of the K @ B that
    match_distance returns) and G = match_gradient(a, b, params):
    (a's nodes, H_0, L_a, q, G, r, e, v, w2), for the slack s(x) = q L_x,
    r = l (1 - 1e-6) for a's chord lengths l, e = 2 L_b, v = L_b (2 Lip_K
    + l h) for h = 1/s^2 + 1/d^2, and G's error weights w2, which read
    P, K l_b plus its rounding allowance.  e, v and w2 are scaled by
    _DROP_SCALE."""
    u = 2.0 ** -53
    sigma, delta = params.sigma, params.delta
    # Lip_K = (1/s + 1/d) / sqrt(e) bounds the kernel's slope in either
    # argument: |d/dr exp(-r^2/2w^2)| = r exp(-r^2/2w^2) / w^2 peaks at r = w
    lip = (1.0 / sigma + 1.0 / delta) * math.exp(-0.5)
    lip2 = (1.0 / sigma ** 3 + 1.0 / delta ** 3) * math.exp(-0.5)
    hess = 1.0 / sigma ** 2 + 1.0 / delta ** 2
    lb = length(b)
    reach = float(np.abs(a.nodes).max()) + float(np.abs(b.nodes).max())
    spread = 1.0 + lip * reach
    # K l_b plus its rounding allowance: at least the exact K l_b
    kl = kl + 4.0 * (b.n + 16) * spread * u * lb
    chords = a.chord_lengths
    # match_floor's w2 as P (x + y l) + z l + 384 u (1 + Lip_K R) L_b
    rounds, products = 2 * a.n + 8, 32.0 * (b.n + 16)
    scale = _DROP_SCALE * u
    errors = chords * (scale * products * reach / min(sigma, delta) ** 2)
    errors += scale * (products + 4.0 * rounds)
    errors *= kl
    errors += chords * (scale * lb * (9.0 * reach * (16.0 * hess + 2.0 * lip2
                                                     * reach)
                                      + 2.0 * rounds * lip))
    errors += scale * 384.0 * spread * lb
    base = chords * (_DROP_SCALE * lb * hess)
    base += _DROP_SCALE * 2.0 * lip * lb
    return (a.nodes, value, length(a),
            2.0 * spread * match_slack(a.n, b.n, 1.0, lb), grad,
            chords * (1.0 - 1e-6), _DROP_SCALE * 2.0 * lb, base, errors)


def match_floor(constants, nodes: np.ndarray, total: float,
                need: float) -> float:
    """A lower bound on the computed match_distance(a2, b, params) of the
    curve a2 with these nodes and total chord length, from the
    ``floor_constants`` of a curve a and the same b and params; -inf where
    some chord of a does not outlast the move or the floor cannot exceed
    need, a caller's rejection threshold.

    The floor is H_0 + <G, delta> - Rem - Err - s(a) - s(a2) for the node
    displacement delta = a2 - a.  Write H* for H evaluated exactly on the
    nodes, l for a's chord lengths, L_b for b's length, and
    phi_ij = l_i |n_i - m_j|^2, so that H* = sum_ij phi_ij K_ij l_bj.  As a
    function of chord_i, phi_ij = (1 + |m_j|^2) |chord_i|
    - 2 <rot90(chord_i), m_j> is (1 + |m_j|)^2 = 4-Lipschitz and at most
    4 |chord_i|, and K_ij is Lip_K-Lipschitz in the midpoint c_i (see
    ``floor_constants``).  Along a + t delta, t in [0, 1], chord_i moves at
    speed at most D_i = |delta_i| + |delta_{i+1}| and c_i at most D_i / 2.
    Where every l_i > D_i, the term T_ij = phi_ij K_ij l_bj is smooth, as
    |chord_i| >= l_i - D_i > 0, and |phi''| = (1 + |m_j|^2) / |chord_i|
    <= 2 / (l_i - D_i); also |phi'| <= 4, phi <= 4 (l_i + D_i), K <= 2,
    |grad K| <= Lip_K and |grad^2 K| <= h = 1/s^2 + 1/d^2 (each Gaussian's
    Hessian has norm at most 1/w^2).  So |T_ij''| <= l_bj D_i^2
    (4 / (l_i - D_i) + 4 Lip_K + (l_i + D_i) h), and Taylor's theorem gives
    H*(a2) >= H*(a) + <grad H*(a), delta> - Rem,

        Rem = L_b / 2 sum_i D_i^2 (4 / (l_i - D_i) + 4 Lip_K + 2 l_i h),

    using l_i + D_i < 2 l_i, which costs little: 2 l_i h is below 4 / l_i
    wherever l_i is below the smaller kernel width.

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
    n + m >= 6, match_slack >= 352 u L_x L_b covers the 256 and the final
    subtraction here; the factor 1 + Lip_K (R_a + R_b) covers the rest.
    For a2, |c2_i| <= |c_i| + D_i / 2, and that excess moves its terms by
    at most 2u Lip_K L_b l2_i D_i < 12u Lip_K L_b R_a D_i in all
    (l2_i < 2 l_i <= 4 sqrt(2) R_a), within what w2's 384 Lip_K term
    leaves over the 17 that G's error takes (below).  The computed K l_b
    is within 4 (m + 16) (1 + Lip_K (R_a + R_b)) u L_b of its exact value
    (the same inputs, plus m roundings of the product), which is added to
    it: P_i below is this upper bound on the exact (K l_b)_i.

    The computed test r_i - D_i > 0, with r = l (1 - 1e-6), implies
    l_i > D_i for the exact lengths and displacements, and 4 / (r_i - D_i)
    exceeds 4 / (l_i - D_i) by more than the rounding of the sum.  Err
    bounds |<G - grad H*(a), delta>| and the rounding of fl(<G, delta>) by
    sum_i w2_i D_i, with per-segment weights

        w2_i = u [32 (m + 16) P_i (1 + (R_a + R_b) l_i / min(s, d)^2)
                  + L_b (384 (1 + Lip_K (R_a + R_b))
                         + 9 (R_a + R_b) l_i (16 h + 2 Lip'_K (R_a + R_b)))
                  + (2n + 8) (4 P_i + 2 Lip_K L_b l_i)],

    Lip'_K = (1/s^3 + 1/d^3) / sqrt(e) bounding the slope of
    K' = e1/s^2 + e2/d^2.  Node k of G is p_{k-1} - p_k + (q_{k-1} + q_k)/2
    for the chord partials p_i and the midpoint partials q_i, so a bound
    on |p^_i - p_i| + |q^_i - q_i| / 2 for the computed p^ and q^ bounds the
    error of G over D_i.  p_i = alpha_i t_i + h_i sums over j terms of
    absolute sum at most 12 (K l_b)_i (4 in alpha, 8 in the projected
    normal part h), each through m + 12 roundings (a length-m product of
    K @ B and the per-segment arithmetic), giving at most
    24 (m + 12) u P_i; the inputs' rounding adds u P_i (20 + 20 + 12 + 80)
    through n, m, l and t, and 12 u L_b (32 + sqrt(2) Lip_K (R_a + R_b))
    through K, within the first two terms of w2.  q_i = -l_i (A_i (c_i - o)
    - V_i) is formed about b's mean midpoint o, so its absolute sums are
    at most 4 l_i (K' l_b)_i (|c_i - o| + max_j |d_j - o|)
    <= 17 (R_a + R_b) l_i (K' l_b)_i, with (K' l_b)_i <= P_i / min(s, d)^2;
    its rounding and that of n, m, l and the midpoints move q_i by at most
    64 (m + 16) u (R_a + R_b) l_i (K' l_b)_i (the 32 (m + 16) term of w2
    for q / 2).  K' is within 16 h u of its value at the computed
    midpoints (exp as for K, and one division), which lie within u |c| of
    the exact ones, moving K' by at most sqrt(2) Lip'_K u (R_a + R_b):
    q / 2 moves by at most 9 (R_a + R_b) l_i L_b u (16 h + 2 Lip'_K
    (R_a + R_b)).  Last, |p_i| <= 4 (K l_b)_i (|phi'| <= 4) and
    |q_i| / 2 <= 2 Lip_K L_b l_i (phi <= 4 l_i, |grad K| <= Lip_K), so |G_k|
    is at most 4 P_i + 2 Lip_K L_b l_i (plus w2_i) summed over segments
    k - 1 and k, and the 2n + 8 roundings of G's assembly, of the length-2n
    dot product, of delta and of the floor's final sums cost at most
    (2n + 8) u (4 P_i + 2 Lip_K L_b l_i) D_i.  Rem and Err are scaled by
    1 + 1e-6 for their own rounding.

    So computed H(a2) >= H*(a2) - s(a2) >= H*(a) + <grad H*(a), delta>
    - Rem - s(a2) >= H_0 + <G, delta> - Rem - Err - s(a) - s(a2).  The
    floor's first-order part H_0 + <G, delta> - s(a) - s(a2) bounds it
    (Rem, Err >= 0): where that is not in (need, inf), as for a gradient
    that is not finite, -inf is returned first.  A caller rejecting a
    trial iff fl(E + floor) > bound makes the argument of ``match_slack``'s
    caller: rounding being monotone, fl(E + H(a2)) > bound too.
    """
    (origin, value, length_a, per_length, grad, chords, four_half, base,
     errors) = constants
    delta = nodes - origin
    slack = per_length * (length_a + total)
    first = value + float(np.vdot(grad, delta)) - slack
    if not need < first < math.inf:
        return -math.inf
    d = np.hypot(delta[:, 0], delta[:, 1])
    d += cyclic_shift(d, -1, 0)                       # D_i
    gap = chords - d
    if gap.min() <= 0:
        return -math.inf
    # D_i (L_b/2 (4 / (l_i - D_i) + 4 Lip_K + 2 l_i h) D_i + w2_i)
    per_node = np.divide(four_half, gap, out=gap)
    per_node += base
    per_node *= d
    per_node += errors
    return first - float(d @ per_node)


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


def _currents_dot(x: PolyCurve, y: PolyCurve, params: KernelParams) -> float:
    """sum_k (l n_k)^T K (l m_k), from the l n columns of both blocks."""
    k = _kernel_matrices(x.segments[0], y.segments[0], params)[0]
    return float(np.sum(x.kernel_block[:, 2:] * (k @ y.kernel_block[:, 2:])))


def currents_distance_sq(a: PolyCurve, b: PolyCurve,
                         params: KernelParams) -> float:
    """Polarization form <a,a> - 2<a,b> + <b,b> of the kernel inner product
    sum_ij <n_i, m_j> k(c_i, d_j) l_i l_j; zero for identical curves."""
    return (_currents_dot(a, a, params) - 2.0 * _currents_dot(a, b, params)
            + _currents_dot(b, b, params))
