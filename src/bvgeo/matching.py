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

from dataclasses import dataclass

import numpy as np

from .curves import PolyCurve, cyclic_shift, inner, rot90


@dataclass(frozen=True)
class KernelParams:
    """Widths of the two Gaussian kernels: shape scale and feature scale."""

    sigma: float = 0.5
    delta: float = 0.05

    def __post_init__(self):
        if self.sigma <= 0 or self.delta <= 0:
            raise ValueError("kernel widths must be positive")


def kernel(v, w, params: KernelParams) -> float:
    """Two-scale Gaussian kernel exp(-r^2/2s^2) + exp(-r^2/2d^2), in (0, 2]."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    r2 = np.sum((v - w) ** 2, axis=-1)
    return (np.exp(-r2 / (2.0 * params.sigma ** 2))
            + np.exp(-r2 / (2.0 * params.delta ** 2)))


def _kernel_matrices(c, d, params: KernelParams, grad: bool = False):
    """Segment-pair kernel K = e1 + e2 between midpoints c (n, 2) and d
    (m, 2), from one r^2 array; with grad also K' = e1/s^2 + e2/d^2, so
    that dK_ij/dc_i = -K'_ij (c_i - d_j)."""
    r2 = np.subtract.outer(c[:, 0], d[:, 0])
    np.square(r2, out=r2)
    dy = np.subtract.outer(c[:, 1], d[:, 1])
    r2 += np.square(dy, out=dy)
    e1 = r2 / (-2.0 * params.sigma ** 2)
    np.exp(e1, out=e1)
    e2 = np.exp(np.divide(r2, -2.0 * params.delta ** 2, out=r2), out=r2)
    if grad:
        kprime = e1 / params.sigma ** 2
        kprime += np.divide(e2, params.delta ** 2, out=dy)
    e1 += e2
    return (e1, kprime) if grad else e1


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


def match_distance(a: PolyCurve, b: PolyCurve, params: KernelParams) -> float:
    """Midpoint-rule discretization of the normal-mismatch kernel integral."""
    ca, _, na, la = a.segments
    prod = _kernel_matrices(ca, b.segments[0], params) @ b.kernel_block
    return float(la @ _mismatch(prod, na)[:, 0])


def match_gradient(a: PolyCurve, b: PolyCurve,
                   params: KernelParams) -> np.ndarray:
    """Exact gradient of match_distance with respect to a's node coordinates.

    Chains through segment midpoints, chord lengths, and the Jacobian of
    the normalized chord under the 90-degree rotation.
    """
    ca, tang, na, la = a.segments
    k, kprime = _kernel_matrices(ca, b.segments[0], params, grad=True)

    prod = k @ b.kernel_block
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
        k = _kernel_matrices(cx, cy, params)
        return float(np.sum((lx[:, None] * nx) * (k @ (ly[:, None] * ny))))

    return dot(a, a) - 2.0 * dot(a, b) + dot(b, b)
