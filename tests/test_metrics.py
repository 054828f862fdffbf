import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bvgeo import (MetricSpec, PolyCurve, TangentField, bv2_tangent_norm,
                   equivalence_constants, flat_bv2_norm, h2_tangent_norm_sq,
                   j0, j1, j2, length)
from bvgeo.curves import CurveError, cyclic_shift, inner, smoothed_norm
from bvgeo.metrics import bv2_norm_and_partials, h2_sq_and_partials
from conftest import fourier_curve, smooth_field


def _const_field(n, vec):
    return TangentField(np.tile(np.asarray(vec, float), (n, 1)))


class TestJ0:
    def test_zero_field(self, unit_square):
        assert j0(unit_square, _const_field(4, (0, 0)), 0.0) == 0.0

    def test_constant_field_perimeter(self, unit_square):
        c = (0.3, -0.4)
        expected = 4 * np.hypot(*c)
        assert j0(unit_square, _const_field(4, c), 0.0) == pytest.approx(
            expected, rel=1e-14)

    def test_against_quadrature(self, rng):
        curve = fourier_curve(rng, 256)
        field = smooth_field(rng, 256)
        # dense quadrature of |v| |gamma'| over the P1 interpolants
        samples = 1000
        t = (np.arange(samples) + 0.5) / samples
        total = 0.0
        v = field.coeffs
        vnext = np.roll(v, -1, axis=0)
        for i in range(curve.n):
            vals = np.linalg.norm((1 - t)[:, None] * v[i]
                                  + t[:, None] * vnext[i], axis=1)
            total += np.mean(vals) * np.linalg.norm(curve.chords[i])
        assert j0(curve, field, 0.0) == pytest.approx(total, rel=1e-2)

    def test_size_mismatch(self, unit_square):
        with pytest.raises(CurveError):
            j0(unit_square, _const_field(5, (1, 0)), 0.0)


class TestJ1:
    def test_constant_field_vanishes(self, unit_square):
        assert j1(unit_square, _const_field(4, (2, 1)), 0.0) == 0.0

    def test_eps_bias(self, rng):
        # each of the n vanishing differences contributes eps/n
        n = 17
        curve = fourier_curve(rng, n)
        eps = 0.37
        assert j1(curve, _const_field(n, (1, 2)), eps) == pytest.approx(
            eps, rel=1e-14)

    def test_field_equal_nodes(self, unit_square):
        f = TangentField(unit_square.nodes)
        assert j1(unit_square, f, 0.0) == pytest.approx(4.0, rel=1e-14)


class TestJ2:
    def test_constant_field_vanishes(self, unit_square):
        assert j2(unit_square, _const_field(4, (2, 1)), 0.0) == 0.0

    def test_square_corner_jumps(self, unit_square):
        f = TangentField(unit_square.nodes)
        assert j2(unit_square, f, 0.0) == pytest.approx(4 * np.sqrt(2),
                                                        rel=1e-14)

    def test_direct_reevaluation(self, rng):
        curve = fourier_curve(rng, 48)
        field = smooth_field(rng, 48)
        d = np.roll(curve.nodes, -1, axis=0) - curve.nodes
        a = np.roll(field.coeffs, -1, axis=0) - field.coeffs
        u = a / np.linalg.norm(d, axis=1)[:, None]
        jumps = np.linalg.norm(np.roll(u, -1, axis=0) - u, axis=1)
        assert j2(curve, field, 0.0) == pytest.approx(float(np.sum(jumps)),
                                                      rel=1e-12)


class TestEpsMonotonicity:
    @pytest.mark.parametrize("term", [j0, j1, j2])
    def test_nondecreasing_in_eps(self, rng, term):
        curve = fourier_curve(rng, 32)
        field = smooth_field(rng, 32, scale=0.3)
        vals = [term(curve, field, e) for e in (0.0, 1e-3, 1e-2, 1e-1)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestHomogeneity:
    def test_bv2_terms_one_homogeneous(self, rng):
        curve = fourier_curve(rng, 24)
        field = smooth_field(rng, 24)
        scaled = TangentField(2.5 * field.coeffs)
        for term in (j0, j1, j2):
            assert term(curve, scaled, 0.0) == pytest.approx(
                2.5 * term(curve, field, 0.0), rel=1e-12)

    def test_h2_two_homogeneous(self, rng):
        curve = fourier_curve(rng, 24)
        field = smooth_field(rng, 24)
        spec = MetricSpec("h2", (1, 1, 1), 0.0, 2)
        scaled = TangentField(2.5 * field.coeffs)
        assert h2_tangent_norm_sq(curve, scaled, spec) == pytest.approx(
            2.5 ** 2 * h2_tangent_norm_sq(curve, field, spec), rel=1e-12)


class TestBV2Norm:
    def test_weighted_sum_of_terms(self, rng):
        curve = fourier_curve(rng, 30)
        field = smooth_field(rng, 30)
        spec = MetricSpec("bv2", (1, 1, 1), 0.0, 2)
        expected = (j0(curve, field, 0.0) + j1(curve, field, 0.0)
                    + j2(curve, field, 0.0))
        assert bv2_tangent_norm(curve, field, spec) == pytest.approx(
            expected, rel=1e-12)

    def test_j2_only(self, unit_square):
        spec = MetricSpec("bv2", (0, 0, 1), 0.0, 2)
        f = TangentField(unit_square.nodes)
        assert bv2_tangent_norm(unit_square, f, spec) == pytest.approx(
            4 * np.sqrt(2), rel=1e-14)

    def test_family_mismatch(self, unit_square):
        spec = MetricSpec("h2", (1, 0, 1), 0.0, 2)
        with pytest.raises(ValueError):
            bv2_tangent_norm(unit_square, _const_field(4, (1, 0)), spec)

    def test_rotation_invariance(self, rng):
        curve = fourier_curve(rng, 26)
        field = smooth_field(rng, 26)
        ang = 1.1
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        spec = MetricSpec("bv2", (1, 1, 1), 1e-2, 2)
        rotated = bv2_tangent_norm(curve.transformed(R),
                                   TangentField(field.coeffs @ R.T), spec)
        assert rotated == pytest.approx(
            bv2_tangent_norm(curve, field, spec), rel=1e-12)


class TestH2Norm:
    def test_constant_field_l2(self, rng):
        curve = fourier_curve(rng, 40)
        c = (0.6, -0.2)
        spec = MetricSpec("h2", (1, 0, 0), 0.0, 2)
        expected = (0.6 ** 2 + 0.2 ** 2) * length(curve)
        assert h2_tangent_norm_sq(curve, _const_field(40, c), spec) \
            == pytest.approx(expected, rel=1e-13)

    def test_first_derivative_of_identity(self, unit_square):
        spec = MetricSpec("h2", (0, 1, 0), 0.0, 2)
        f = TangentField(unit_square.nodes)
        assert h2_tangent_norm_sq(unit_square, f, spec) == pytest.approx(
            length(unit_square), rel=1e-14)

    def test_componentwise_oracle(self, rng):
        curve = fourier_curve(rng, 36)
        field = smooth_field(rng, 36)
        ell = curve.chord_lengths
        v = field.coeffs
        a = np.roll(v, -1, axis=0) - v
        vsq = np.sum(v * v, axis=1)
        t0 = float(np.sum(ell * 0.5 * (vsq + np.roll(vsq, -1))))
        t1 = float(np.sum(np.sum(a * a, axis=1) / ell))
        u = a / ell[:, None]
        jump = u - np.roll(u, 1, axis=0)
        mass = 0.5 * (np.roll(ell, 1) + ell)
        t2 = float(np.sum(np.sum(jump * jump, axis=1) / mass))
        for w, expect in [((1, 0, 0), t0), ((0, 1, 0), t1), ((0, 0, 1), t2),
                          ((1, 1, 1), t0 + t1 + t2)]:
            spec = MetricSpec("h2", w, 0.0, 2)
            assert h2_tangent_norm_sq(curve, field, spec) == pytest.approx(
                expect, rel=1e-12)

    def test_refinement_convergence(self):
        # for a smooth field on a smooth curve, the lumped second-derivative
        # term should approach the continuous integral under refinement
        def value(n):
            theta = 2 * np.pi * np.arange(n) / n
            curve = PolyCurve(np.stack([np.cos(theta), np.sin(theta)], 1))
            field = TangentField(np.stack([np.cos(2 * theta),
                                           np.sin(2 * theta)], 1))
            spec = MetricSpec("h2", (0, 0, 1), 0.0, 2)
            return h2_tangent_norm_sq(curve, field, spec)

        coarse, fine, finer = value(64), value(128), value(256)
        limit_err_coarse = abs(fine - coarse)
        limit_err_fine = abs(finer - fine)
        assert limit_err_fine < limit_err_coarse


class TestFlatNorm:
    def test_zero_field(self):
        assert flat_bv2_norm(TangentField(np.zeros((8, 2))), 0.0) == 0.0

    def test_constant_field(self):
        c = (0.3, 0.4)
        assert flat_bv2_norm(_const_field(12, c), 0.0) == pytest.approx(0.5)

    def test_against_fine_grid(self, rng):
        # evaluate the three flat terms by dense sampling of the P1 field
        n = 64
        field = smooth_field(rng, n)
        v = field.coeffs
        samples = 500
        t = (np.arange(samples) + 0.5) / samples
        l1 = 0.0
        for i in range(n):
            seg = (1 - t)[:, None] * v[i] + t[:, None] * np.roll(v, -1, 0)[i]
            l1 += np.mean(np.linalg.norm(seg, axis=1)) / n
        a = np.roll(v, -1, axis=0) - v
        w11 = float(np.sum(np.linalg.norm(a, axis=1)))
        deriv = n * a
        tv2 = float(np.sum(np.linalg.norm(
            np.roll(deriv, -1, axis=0) - deriv, axis=1)))
        assert flat_bv2_norm(field, 0.0) == pytest.approx(l1 + w11 + tv2,
                                                          rel=1e-2)


class TestEquivalenceConstants:
    def test_unit_square_values(self, unit_square):
        ec = equivalence_constants(unit_square)
        bv = 4 + 4 * (4 * np.sqrt(2))
        assert ec.M == pytest.approx(max(4.0, bv / 16))
        assert ec.m == pytest.approx(min(4.0, 1 / bv))

    def test_m_le_M_random(self, rng):
        for _ in range(200):
            ec = equivalence_constants(fourier_curve(rng, 20))
            assert ec.m <= ec.M

    def test_sandwich(self, rng):
        spec = MetricSpec("bv2", (1, 1, 1), 0.0, 2)
        for _ in range(50):
            curve = fourier_curve(rng, 32)
            field = smooth_field(rng, 32)
            ec = equivalence_constants(curve)
            flat = flat_bv2_norm(field, 0.0)
            weighted = bv2_tangent_norm(curve, field, spec)
            assert ec.m * flat <= weighted + 1e-10
            assert weighted <= ec.M * flat + 1e-10


def _flat_bv2_numpy_form(field, eps):
    v = field.coeffs
    n = field.n
    a = np.roll(v, -1, axis=0) - v
    l1 = float(np.sum(smoothed_norm(v, eps))) / n
    w11 = float(np.sum(smoothed_norm(a, eps)))
    deriv = n * a
    tv2 = float(np.sum(smoothed_norm(np.roll(deriv, -1, axis=0) - deriv, eps)))
    return l1 + w11 + tv2


def _equivalence_numpy_form(curve):
    speeds = curve.speeds
    deriv = curve.n * curve.chords
    jumps = float(np.sum(np.linalg.norm(
        np.roll(deriv, -1, axis=0) - deriv, axis=1)))
    bv = float(np.sum(speeds)) / curve.n + jumps
    inf = float(np.min(speeds))
    return max(float(np.max(speeds)), bv / inf ** 2), min(inf, 1.0 / bv)


class TestNumpyFormsPinned:
    """flat_bv2_norm and equivalence_constants shift with cyclic_shift and
    reduce 2-vectors with inner; their outputs keep the numpy forms' bits."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 90),
           st.sampled_from([0.0, 1e-3, 0.5]))
    def test_bitwise_equal(self, seed, n, eps):
        rng = np.random.default_rng(seed)
        curve = fourier_curve(rng, n, wobble=0.15)
        field = smooth_field(rng, n, scale=rng.uniform(0.01, 10.0))
        assert (np.float64(flat_bv2_norm(field, eps)).tobytes()
                == np.float64(_flat_bv2_numpy_form(field, eps)).tobytes())
        ec = equivalence_constants(curve)
        assert (np.array([ec.M, ec.m]).tobytes()
                == np.array(_equivalence_numpy_form(curve)).tobytes())

# ---------------------------------------------------------------------------
# The batched kernels as they were written on (S, n, 2) arrays, before they
# moved to coordinate-major (2, S, n) arithmetic; kept verbatim as the oracle
# that the coordinate-major kernels must match bit for bit
# ---------------------------------------------------------------------------

def _next(x: np.ndarray) -> np.ndarray:
    return cyclic_shift(x, -1, 1)


def _prev(x: np.ndarray) -> np.ndarray:
    return cyclic_shift(x, 1, 1)


def _adj_fwd(g: np.ndarray) -> np.ndarray:
    """Adjoint of the forward difference: grad wrt x of sum_i <g_i, fwd(x)_i>."""
    return _prev(g) - g


def _bv2_reference(nodes: np.ndarray, coeffs: np.ndarray,
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


def _h2_reference(nodes: np.ndarray, coeffs: np.ndarray,
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


_KERNELS = {"bv2": (bv2_norm_and_partials, _bv2_reference),
            "h2": (h2_sq_and_partials, _h2_reference)}


@st.composite
def _kernel_cases(draw, grad):
    """Stacked nodes and coefficients, weights with zeros and eps (0 only
    without partials, where they are 0/0)."""
    S, n = draw(st.integers(1, 4)), draw(st.integers(3, 10))
    coords = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
    nodes = draw(arrays(np.float64, (S, n, 2), elements=coords))
    coeffs = draw(arrays(np.float64, (S, n, 2), elements=coords))
    weights = draw(st.tuples(*[st.sampled_from([0.0, 0.37, 1.0])] * 3))
    eps = draw(st.sampled_from(([] if grad else [0.0]) + [1e-3, 0.1, 1.0]))
    return nodes, coeffs, weights, eps


def _bits(x):
    return None if x is None else np.ascontiguousarray(x).tobytes()


class TestCoordinateMajorKernels:
    """The kernels take chords and fields as coordinate-major (2, S, n)
    arrays and return (2, S, n) partials; values and both partials must be
    the bits of the oracle, which takes nodes as (S, n, 2) arrays."""

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("family", ["bv2", "h2"])
    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_oracle(self, family, grad, data):
        nodes, coeffs, weights, eps = data.draw(_kernel_cases(grad))
        self.check(family, nodes, coeffs, weights, eps, grad)

    @pytest.mark.parametrize("family", ["bv2", "h2"])
    def test_triangle_with_every_weight(self, family, rng):
        nodes = fourier_curve(rng, 3).nodes[None]
        coeffs = smooth_field(rng, 3).coeffs[None]
        for eps, grad in [(0.0, False), (0.1, True), (0.1, False)]:
            self.check(family, nodes, coeffs, (1.0, 1.0, 1.0), eps, grad)

    @staticmethod
    def check(family, nodes, coeffs, weights, eps, grad):
        kernel, reference = _KERNELS[family]
        chords = (np.roll(nodes, -1, axis=1) - nodes).transpose(2, 0, 1)
        args = (chords, coeffs.transpose(2, 0, 1), weights, eps, grad)
        with np.errstate(all="ignore"):
            try:
                want = reference(nodes, coeffs, weights, eps, grad)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    kernel(*args)
                return
            got = kernel(*args)
        assert all(x is None or x.shape == chords.shape for x in got[1:])
        got = [got[0]] + [None if x is None else x.transpose(1, 2, 0)
                          for x in got[1:]]
        assert [_bits(x) for x in got] == [_bits(x) for x in want]


class TestBatchedSteps:
    """A kernel's value pass gives each curve of a (2, S, n) batch the
    bits of that curve's own (2, 1, n) call: the premise on which a line
    search's probe evaluates the last step of a path alone."""

    # a step's power as paths.step_powers takes it from the kernel's value
    POWERS = {("bv2", 1): np.asarray, ("bv2", 2): np.square,
              ("h2", 1): np.sqrt, ("h2", 2): np.asarray}

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("family", ["bv2", "h2"])
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_each_step_bitwise_its_own_call(self, family, p, data):
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        S, n = data.draw(st.integers(1, 48)), data.draw(st.integers(3, 300))
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        weights = data.draw(st.tuples(*[st.sampled_from([0.0, 0.37, 1.0])]
                                      * 3))
        # eps = 0 for H2 only: BV2 descent runs at eps > 0
        eps = data.draw(st.sampled_from(
            ([0.0] if family == "h2" else []) + [1e-3, 0.1]))
        kernel, power = _KERNELS[family][0], self.POWERS[family, p]
        rng = np.random.default_rng(seed)
        nodes = rng.uniform(-1.0, 1.0, (2, S, n)) * scale
        chords = np.roll(nodes, -1, axis=-1) - nodes
        coeffs = rng.standard_normal((2, S, n)) / scale
        coeffs[:, rng.random(S) < 0.2] = 0.0       # some steps at rest
        batch = power(kernel(chords, coeffs, weights, eps, grad=False)[0])
        for i in range(S):
            alone = power(kernel(chords[:, i:i + 1], coeffs[:, i:i + 1],
                                 weights, eps, grad=False)[0])
            assert alone.tobytes() == batch[i:i + 1].tobytes()
