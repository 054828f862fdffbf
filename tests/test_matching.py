import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgeo import (KernelParams, PolyCurve, constant_speed_resample,
                   currents_distance_sq, kernel, length, match_distance,
                   match_gradient)
from bvgeo import optimize
from bvgeo.matching import (_kernel_matrices, floor_constants, match_floor,
                            match_slack)
from bvgeo.optimize import KernelMatch
from bvgeo.paths import Homotopy
from conftest import fourier_curve, only_cached

KP = KernelParams(sigma=0.5, delta=0.05)


class TestKernel:
    def test_equal_points(self):
        assert kernel([0.3, 0.7], [0.3, 0.7], KP) == pytest.approx(2.0)

    def test_decay(self):
        vals = [kernel([0, 0], [r, 0], KP) for r in (0.1, 0.5, 1.0, 3.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_symmetry(self, rng):
        for _ in range(20):
            v, w = rng.standard_normal(2), rng.standard_normal(2)
            assert kernel(v, w, KP) == kernel(w, v, KP)

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            KernelParams(sigma=0.0, delta=0.1)
        # the match floor divides by each width cubed, so a width must be in
        # [1e-100, 1e100]; beyond 1.3e154 or below 1.5e-154 the cube is not
        # even a finite nonzero float
        for sigma, delta in ((1e300, 0.05), (0.5, 1e-200), (1.3e154, 0.05),
                             (0.5, 1.5e-154), (1.01e100, 0.05),
                             (0.5, 9.9e-101)):
            with pytest.raises(ValueError, match=r"\[1e-100, 1e100\]"):
                KernelParams(sigma=sigma, delta=delta)
        KernelParams(sigma=1e100, delta=1e-100)


class TestMatchDistance:
    def test_symmetry(self, rng):
        for _ in range(20):
            a = fourier_curve(rng, 24)
            b = fourier_curve(rng, 20)
            assert match_distance(a, b, KP) == pytest.approx(
                match_distance(b, a, KP), rel=1e-12)

    def test_self_distance_positive_square_oracle(self, unit_square):
        # hand-rolled 4x4 double sum over segment midpoints
        a = unit_square
        mids = 0.5 * (a.nodes + np.roll(a.nodes, -1, axis=0))
        chords = np.roll(a.nodes, -1, axis=0) - a.nodes
        lens = np.linalg.norm(chords, axis=1)
        tang = chords / lens[:, None]
        normals = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
        total = 0.0
        for i in range(4):
            for j in range(4):
                w = np.sum((normals[i] - normals[j]) ** 2)
                total += w * kernel(mids[i], mids[j], KP) * lens[i] * lens[j]
        val = match_distance(a, a, KP)
        assert val > 0
        assert val == pytest.approx(total, rel=1e-12)

    def test_refinement_stability(self, rng):
        a = fourier_curve(rng, 400)
        b = fourier_curve(rng, 400)
        v1 = match_distance(constant_speed_resample(a, 128),
                            constant_speed_resample(b, 128), KP)
        v2 = match_distance(constant_speed_resample(a, 256),
                            constant_speed_resample(b, 256), KP)
        assert abs(v2 - v1) <= 0.02 * abs(v2)

    def test_nonnegative(self, rng):
        for _ in range(20):
            assert match_distance(fourier_curve(rng, 16),
                                  fourier_curve(rng, 16), KP) >= 0

    def test_translation_invariance(self, rng):
        a = fourier_curve(rng, 24)
        b = fourier_curve(rng, 24)
        u = np.array([1.7, -0.4])
        assert match_distance(a.translated(u), b.translated(u), KP) \
            == pytest.approx(match_distance(a, b, KP), rel=1e-12)

    def test_rotation_invariance(self, rng):
        a = fourier_curve(rng, 24)
        b = fourier_curve(rng, 24)
        ang = 0.8
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        assert match_distance(a.transformed(R), b.transformed(R), KP) \
            == pytest.approx(match_distance(a, b, KP), rel=1e-12)

    def test_kernel_bound(self, rng):
        a = fourier_curve(rng, 24)
        b = fourier_curve(rng, 24)
        assert match_distance(a, b, KP) <= 8 * length(a) * length(b)


class TestMatchSlack:
    """H is a sum of non-negative terms; its computed value may fall below
    zero by rounding, but never by more than match_slack, which the line
    search relies on to reject a trial on its energy alone."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 160),
           m=st.integers(3, 160), same=st.booleans(),
           log_widths=st.tuples(st.floats(-4, 0), st.floats(-4, 0)),
           radius=st.floats(0.01, 3.0))
    def test_computed_value_above_minus_slack(self, seed, n, m, same,
                                              log_widths, radius):
        rng = np.random.default_rng(seed)
        a = fourier_curve(rng, n, radius=radius, wobble=0.2 * radius)
        b = a if same else fourier_curve(rng, m, radius=radius,
                                         wobble=0.2 * radius,
                                         center=(0.55, 0.45))
        kp = KernelParams(*(10.0 ** w for w in log_widths))
        slack = match_slack(a.n, b.n, length(a), length(b))
        assert match_distance(a, b, kp) >= -slack

    @pytest.mark.parametrize("width", [1e-4, 1e-3])
    def test_equal_curves_small_widths(self, rng, width):
        # the case where the computed H does go negative
        for n in (8, 64, 256):
            a = fourier_curve(rng, n)
            kp = KernelParams(width, width)
            assert match_distance(a, a, kp) >= -match_slack(
                n, n, length(a), length(a))


def _constants(a, b, kp):
    """match_floor's constants about a, from H and K l_b as match_distance
    returns them and the gradient that takes its kernel."""
    value, kernel = match_distance(a, b, kp, return_kernel=True)
    kl = kernel[2][:, 0]
    return floor_constants(a, b, kp, value, kl,
                           match_gradient(a, b, kp, kernel))


def _trial_floor(a, a2, b, kp):
    return match_floor(_constants(a, b, kp), a2.nodes, length(a2), -np.inf)


class TestMatchFloor:
    """floor_constants(a, b, ...) hold what match_floor needs to bound the
    computed H of any curve a2 near a from below, which the line search
    relies on to reject a trial before building its kernel matrix."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 256),
           m=st.integers(3, 256), same=st.booleans(),
           log_widths=st.tuples(st.floats(-4, 0), st.floats(-4, 0)),
           radius=st.floats(0.01, 3.0), offset=st.floats(-1, 1),
           log_move=st.floats(-16, -1), descent=st.booleans())
    def test_computed_value_above_floor(self, seed, n, m, same, log_widths,
                                        radius, offset, log_move, descent):
        rng = np.random.default_rng(seed)
        a = fourier_curve(rng, n, radius=radius, wobble=0.2 * radius)
        # b crosses a, or lies beside it, at every scale
        b = a if same else fourier_curve(
            rng, m, radius=radius, wobble=0.2 * radius,
            center=(0.5 + 2.0 * offset * radius, 0.45))
        kp = KernelParams(*(10.0 ** w for w in log_widths))
        grad = match_gradient(a, b, kp)
        # a move of 10^log_move times the curve's scale at the largest
        # node, either random or down H's gradient, as a line search moves
        move = -grad if descent else rng.standard_normal((n, 2))
        move *= 10.0 ** log_move * radius / max(np.max(np.abs(move)),
                                                1e-300)
        a2 = PolyCurve(a.nodes + move)
        assert match_distance(a2, b, kp) >= _trial_floor(a, a2, b, kp)

    @staticmethod
    def _taylor_floor(constants, a2):
        """The floor written out from floor_constants' entries and summed
        by math.fsum: H_0 + <G, delta> - sum_i D_i (D_i (e / (r_i - D_i) + v_i)
        + w2_i) - q (L_a + L_a2), or -inf where some r_i <= D_i; with the
        sum of its terms' absolute values."""
        origin, value, length_a, per_length, grad, r, e, v, w2 = constants
        delta = a2.nodes - origin
        d = np.hypot(*delta.T)
        d += np.roll(d, -1)
        if np.any(d >= r):
            return -np.inf, np.inf
        terms = [value, *(grad * delta).ravel(),
                 *-(d * d * (e / (r - d) + v) + w2 * d),
                 -per_length * (length_a + length(a2))]
        return math.fsum(terms), math.fsum(map(abs, terms))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(16, 256),
           m=st.integers(16, 256), narrow=st.floats(0, 1),
           offset=st.floats(-1, 1), descent=st.booleans())
    def test_second_order_floor(self, seed, n, m, narrow, offset, descent):
        # widths from (0.5, 0.05) down to (0.05, 0.01); steps from 1e-12
        # to beyond the first t at which some chord length l_i <= D_i
        rng = np.random.default_rng(seed)
        a = fourier_curve(rng, n)
        b = fourier_curve(rng, m, center=(0.5 + 0.6 * offset, 0.45))
        kp = KernelParams(0.5 * 0.1 ** narrow, 0.05 * 0.2 ** narrow)
        value, kernel = match_distance(a, b, kp, return_kernel=True)
        kl = kernel[2][:, 0]
        grad = match_gradient(a, b, kp, kernel)
        constants = floor_constants(a, b, kp, value, kl, grad)
        nan_constants = floor_constants(a, b, kp, value, kl,
                                        np.full_like(grad, np.nan))
        # e = 2 L_b and v = L_b (2 Lip_K + l h), each scaled by 1 + 1e-6
        lip = (1 / kp.sigma + 1 / kp.delta) * math.exp(-0.5)
        hess = 1 / kp.sigma ** 2 + 1 / kp.delta ** 2
        assert constants[6] == pytest.approx(2 * length(b), rel=2e-6)
        assert constants[7] == pytest.approx(
            length(b) * (2 * lip + a.chord_lengths * hess), rel=2e-6)
        move = -grad if descent else rng.standard_normal((n, 2))
        reach = np.hypot(*move.T)
        reach += np.roll(reach, -1)                   # D_i per unit step
        t_out = float(np.min(a.chord_lengths / reach))
        for t in np.geomspace(1e-12, 1.5 * t_out, 12):
            a2 = PolyCurve(a.nodes + t * move)
            d = np.hypot(*(a2.nodes - a.nodes).T)
            d += np.roll(d, -1)
            args = a2.nodes, length(a2)
            floor = match_floor(constants, *args, -np.inf)
            taylor, size = self._taylor_floor(constants, a2)
            assert floor <= match_distance(a2, b, kp)
            assert floor == taylor or abs(floor - taylor) <= 1e-12 * size
            # a NaN gradient gives no floor
            assert match_floor(nan_constants, *args, -np.inf) == -np.inf
            if np.any(d >= a.chord_lengths):
                assert floor == -np.inf
            elif t <= 1e-3 * t_out:
                assert floor > -np.inf

    def test_first_order_part_exits_early(self, rng):
        # -inf exactly where need >= H_0 + <G, delta> - s(a) - s(a2), the
        # first-order part, and the full floor below it
        a = fourier_curve(rng, 64)
        b = fourier_curve(rng, 64, center=(0.55, 0.45))
        constants = _constants(a, b, KP)
        origin, value, length_a, per_length, grad = constants[:5]
        for t in (1e-9, 1e-6, 1e-3):
            a2 = PolyCurve(a.nodes - t * grad)
            args = a2.nodes, length(a2)
            first = value + float(np.vdot(grad, a2.nodes - origin)) \
                - per_length * (length_a + length(a2))
            floor = match_floor(constants, *args, -np.inf)
            taylor, size = self._taylor_floor(constants, a2)
            assert abs(floor - taylor) <= 1e-12 * size
            assert -np.inf < floor < first
            for need in (floor, np.nextafter(first, -np.inf)):
                assert match_floor(constants, *args, need) == floor
            for need in (first, np.nextafter(first, np.inf), np.inf):
                assert match_floor(constants, *args, need) == -np.inf

    def _never_rejects(self, rng, monkeypatch, bad):
        """With a bound just below the floor, an iterate with its gradient
        rejects the trial, and one whose gradient is bad, wholly or in the
        entry where bad times the displacement is +inf (or NaN), does not."""
        a = fourier_curve(rng, 64)
        b = fourier_curve(rng, 64, center=(0.55, 0.45))
        grad = match_gradient(a, b, KP)
        a2 = PolyCurve(a.nodes - 1e-6 * grad)
        floor, size = self._taylor_floor(_constants(a, b, KP), a2)
        trial = Homotopy(np.stack([a.nodes, a2.nodes]))
        bound = floor - 1e-9 * size
        endpoint = KernelMatch(b, KP)
        endpoint.gradient(a)
        assert endpoint.rejects(trial, 0.0, bound)
        entry = grad.copy()
        entry.flat[np.flatnonzero(bad * -grad == np.inf)[0]
                   if np.isinf(bad) else 0] = bad
        for bad_grad in (np.full_like(grad, bad), entry):
            monkeypatch.setattr(optimize, "match_gradient",
                                lambda *args, g=bad_grad: g.copy())
            endpoint = KernelMatch(b, KP)
            assert not np.isfinite(endpoint.gradient(a)).all()
            assert not endpoint.rejects(trial, 0.0, bound)

    def test_nan_gradient_never_rejects(self, rng, monkeypatch):
        self._never_rejects(rng, monkeypatch, np.nan)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_never_rejects(self, rng, monkeypatch, bad):
        # with an entry where <G, delta> is +inf, only the test that the
        # first-order part is below inf keeps the floor from being +inf,
        # which would reject any trial
        self._never_rejects(rng, monkeypatch, bad)

    def test_value_is_match_distance(self, rng, monkeypatch):
        a = fourier_curve(rng, 40)
        b = fourier_curve(rng, 33, center=(0.55, 0.45))
        h0 = match_distance(a, b, KP)
        assert _constants(a, b, KP)[1] == h0
        # the endpoint's gradient builds the same constants, and a trial
        # about it reads them
        read = []

        def floor(constants, *args):
            read.append(constants)
            return match_floor(constants, *args)

        monkeypatch.setattr(optimize, "match_floor", floor)
        endpoint = KernelMatch(b, KP)
        endpoint.gradient(a)
        endpoint.rejects(Homotopy(np.stack([a.nodes, a.nodes])), 0.0,
                         np.inf)
        (constants,) = read
        for got, want in zip(constants, _constants(a, b, KP)):
            assert np.array_equal(got, want)
        # at a itself the floor sits just below H, by the two slacks
        slack = match_slack(40, 33, length(a), length(b))
        assert h0 - 1e3 * slack < _trial_floor(a, a, b, KP) < h0 - 2 * slack

    def test_floor_follows_small_descent_steps(self, rng):
        # down the gradient the floor falls below H_0 by the two slacks
        # plus the first-order decrease t |g|^2, within 2% of it, and stays
        # far above match_slack's -slack
        a = fourier_curve(rng, 128)
        b = fourier_curve(rng, 128, center=(0.55, 0.45))
        grad = match_gradient(a, b, KP)
        h0 = match_distance(a, b, KP)
        slacks = h0 - _trial_floor(a, a, b, KP)
        decrease = float(np.vdot(grad, grad))
        for t in (1e-9, 1e-7, 1e-5):
            a2 = PolyCurve(a.nodes - t * grad)
            floor = _trial_floor(a, a2, b, KP)
            assert 0.99 * h0 < floor <= match_distance(a2, b, KP)
            drop = (h0 - floor - slacks) / (t * decrease)
            assert 1 - 1e-3 < drop < 1.02

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2])
    def test_kernel_term_needed_on_coarse_curves(self, rng, t):
        # chords of about 0.12 against widths of 0.01: the remainder's
        # kernel terms L_b (2 Lip_K + l_i h) outweigh its chord term
        # 2 L_b / l_i more than twentyfold, and down the gradient the floor
        # stays finite and at most H
        a = fourier_curve(rng, 16)
        b = fourier_curve(rng, 16, center=(0.8, 0.45))
        kp = KernelParams(0.01, 0.01)
        grad = match_gradient(a, b, kp)
        a2 = PolyCurve(a.nodes - t * 0.3 * grad / np.max(np.abs(grad)))
        chords, chord_term, kernel_terms = _constants(a, b, kp)[5:8]
        assert np.all(kernel_terms > 20 * chord_term / chords)
        assert -np.inf < _trial_floor(a, a2, b, kp) \
            <= match_distance(a2, b, kp)


class TestKeptKernel:
    """match_distance(..., return_kernel=True) returns its exponentials and
    K @ B for match_gradient, and KernelMatch passes them on; the results
    stay bitwise those of a fresh computation."""

    def test_kept_gradient_bitwise_fresh(self, rng, builds):
        for n, m in [(3, 17), (40, 40), (129, 64)]:
            a = fourier_curve(rng, n)
            b = fourier_curve(rng, m, center=(0.55, 0.45))
            value, kernel = match_distance(a, b, KP, return_kernel=True)
            fresh_a = PolyCurve(a.nodes.copy())
            assert value == match_distance(fresh_a, b, KP)
            del builds[:]
            g = match_gradient(a, b, KP, kernel)
            assert not builds
            assert g.tobytes() == match_gradient(fresh_a, b, KP).tobytes()
            assert len(builds) == 1
            assert only_cached(a) and only_cached(fresh_a)

    def test_endpoint_builds_one_kernel_per_curve(self, rng, builds):
        a, a2 = fourier_curve(rng, 40), fourier_curve(rng, 40)
        b = fourier_curve(rng, 33, center=(0.55, 0.45))
        want = match_distance(a, b, KP), match_gradient(a, b, KP)
        endpoint = KernelMatch(b, KP)
        del builds[:]
        # value, then gradient, then both again: one build
        for _ in range(2):
            assert endpoint.value(a) == want[0]
            assert endpoint.gradient(a).tobytes() == want[1].tobytes()
        assert len(builds) == 1
        # a gradient with no value before it builds once too
        endpoint = KernelMatch(b, KP)
        assert endpoint.gradient(a).tobytes() == want[1].tobytes()
        assert endpoint.value(a) == want[0] and len(builds) == 2
        # a later trial's curve leaves the gradient's curve kept
        endpoint.value(a2)
        assert endpoint.gradient(a).tobytes() == want[1].tobytes()
        assert endpoint.value(a) == want[0] and len(builds) == 3
        # another gradient's curve replaces it: a's gradient builds again
        endpoint.gradient(a2)
        assert endpoint.gradient(a).tobytes() == want[1].tobytes()
        assert len(builds) == 4
        assert not endpoint.gradient(a).flags.writeable


class TestMatchGradient:
    def test_finite_differences(self, rng):
        a = fourier_curve(rng, 18)
        b = fourier_curve(rng, 14)
        g = match_gradient(a, b, KP)
        h = 1e-6
        for _ in range(30):
            i = int(rng.integers(0, a.n))
            k = int(rng.integers(0, 2))
            plus = a.nodes.copy()
            plus[i, k] += h
            minus = a.nodes.copy()
            minus[i, k] -= h
            fd = (match_distance(PolyCurve(plus), b, KP)
                  - match_distance(PolyCurve(minus), b, KP)) / (2 * h)
            assert abs(fd - g[i, k]) <= 1e-6 * max(1.0, abs(fd))

    def test_translation_equivariance(self, rng):
        a = fourier_curve(rng, 20)
        b = fourier_curve(rng, 20)
        u = np.array([0.9, -1.2])
        g1 = match_gradient(a, b, KP)
        g2 = match_gradient(a.translated(u), b.translated(u), KP)
        assert np.max(np.abs(g1 - g2)) <= 1e-12 * max(1.0, np.max(np.abs(g1)))

    def test_rotation_equivariance(self, rng):
        a = fourier_curve(rng, 20)
        b = fourier_curve(rng, 20)
        ang = 1.3
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        g_rot = match_gradient(a.transformed(R), b.transformed(R), KP)
        assert np.allclose(g_rot, match_gradient(a, b, KP) @ R.T, atol=1e-12)


class TestCurrentsDistance:
    def test_zero_at_equal_arguments(self, rng):
        a = fourier_curve(rng, 24)
        assert abs(currents_distance_sq(a, a, KP)) <= 1e-10

    def test_symmetry(self, rng):
        a = fourier_curve(rng, 20)
        b = fourier_curve(rng, 22)
        assert currents_distance_sq(a, b, KP) == pytest.approx(
            currents_distance_sq(b, a, KP), rel=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(10):
            a = fourier_curve(rng, 20)
            b = fourier_curve(rng, 20)
            assert currents_distance_sq(a, b, KP) >= -1e-10

    def test_bitwise_the_per_call_form(self, rng):
        # the reference forms the length-weighted normals l n on each call;
        # reading them from kernel_block must give the same bits
        def per_call(a, b, params):
            def dot(x, y):
                cx, _, nx, lx = x.segments
                cy, _, ny, ly = y.segments
                k = _kernel_matrices(cx, cy, params)[0]
                return float(np.sum((lx[:, None] * nx)
                                    * (k @ (ly[:, None] * ny))))
            return dot(a, a) - 2.0 * dot(a, b) + dot(b, b)

        sizes = [(3, 512), (512, 3), (511, 512)] + [
            tuple(int(s) for s in rng.choice(np.arange(3, 513), 2,
                                             replace=False))
            for _ in range(27)]
        for n, m in sizes:
            a = fourier_curve(rng, n)
            b = fourier_curve(rng, m, center=(0.55, 0.45))
            for x, y in ((a, b), (b, a), (a, a)):
                assert currents_distance_sq(x, y, KP) == per_call(
                    PolyCurve(x.nodes), PolyCurve(y.nodes), KP)


def _broadcast_reference(a, b, params):
    """The (n, m, 2) broadcast formulas of H, its gradient and the currents
    distance, kept as an oracle for the matrix-product form."""
    def segments(curve):
        nodes = curve.nodes
        chords = np.roll(nodes, -1, axis=0) - nodes
        lens = np.linalg.norm(chords, axis=1)
        tang = chords / lens[:, None]
        normals = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
        return 0.5 * (nodes + np.roll(nodes, -1, axis=0)), normals, lens, tang

    def kernels(cx, cy):
        diff_c = cx[:, None, :] - cy[None, :, :]
        r2 = np.sum(diff_c * diff_c, axis=2)
        e1 = np.exp(-r2 / (2.0 * params.sigma ** 2))
        e2 = np.exp(-r2 / (2.0 * params.delta ** 2))
        return diff_c, e1 + e2, e1 / params.sigma ** 2 + e2 / params.delta ** 2

    ca, na, la, tang = segments(a)
    cb, nb, lb, _ = segments(b)
    diff_c, k, kprime = kernels(ca, cb)
    diff_n = na[:, None, :] - nb[None, :, :]
    w = np.sum(diff_n * diff_n, axis=2)
    value = float(np.sum(w * k * la[:, None] * lb[None, :]))

    alpha = np.sum(w * k * lb[None, :], axis=1)
    beta = -np.sum((w * kprime * lb[None, :])[:, :, None] * diff_c,
                   axis=1) * la[:, None]
    g = 2.0 * np.sum((k * lb[None, :])[:, :, None] * diff_n, axis=1) \
        * la[:, None]
    rg = np.stack([g[:, 1], -g[:, 0]], axis=1)
    h = (rg - np.sum(rg * tang, axis=1)[:, None] * tang) / la[:, None]
    D = alpha[:, None] * tang + h
    grad = np.roll(D, 1, axis=0) - D + 0.5 * (np.roll(beta, 1, axis=0) + beta)

    def inner(x, y):
        cx, nx, lx, _ = segments(x)
        cy, ny, ly, _ = segments(y)
        return float(np.sum((nx @ ny.T) * kernels(cx, cy)[1]
                            * lx[:, None] * ly[None, :]))

    currents = inner(a, a) - 2.0 * inner(a, b) + inner(b, b)
    return value, grad, currents


class TestMatrixProductForm:
    def test_agrees_with_broadcast_formulas(self, rng):
        sizes = [(3, 17), (29, 3)] + [
            tuple(int(s) for s in rng.choice(np.arange(3, 90), 2,
                                             replace=False))
            for _ in range(48)]
        for n, m in sizes:
            a = fourier_curve(rng, n)
            b = fourier_curve(rng, m, center=(0.55, 0.45))
            value, grad, currents = _broadcast_reference(a, b, KP)
            assert match_distance(a, b, KP) == pytest.approx(value,
                                                             rel=1e-12)
            assert np.max(np.abs(match_gradient(a, b, KP) - grad)) \
                <= 1e-12 * np.max(np.abs(grad))
            assert abs(currents_distance_sq(a, b, KP) - currents) \
                <= 1e-12 * abs(currents)
