from dataclasses import replace

import numpy as np
import pytest

from bvgeo import (BV2, H2, Homotopy, KernelParams, LineSearchError,
                   MetricSpec, OptimConfig, PolyCurve, align_start_node,
                   continuation, descend, fd_check, gradient, init_constant,
                   init_linear, match_distance, objective, path_energy,
                   step_norms)
from conftest import fourier_curve, smooth_homotopy

KP = KernelParams()
BV_SPEC = MetricSpec(family=BV2, weights=(1.0, 0.0, 1.0), eps=1e-2, exponent=2)
H2_SPEC = MetricSpec(family=H2, weights=(1.0, 0.0, 1.0), eps=1e-2, exponent=2)


def quadratic_match(target):
    """Surrogate endpoint term ||c - target||^2 with its exact gradient."""

    def value(curve):
        return float(np.sum((curve.nodes - target.nodes) ** 2))

    def grad(curve):
        return 2.0 * (curve.nodes - target.nodes)

    return value, grad


class TestObjective:
    def test_parts_sum(self, rng):
        h = Homotopy(smooth_homotopy(rng, 6, 20))
        tgt = fourier_curve(rng, 20)
        total, energy, match = objective(h, tgt, BV_SPEC, KP)
        assert total == pytest.approx(energy + match, rel=1e-14)
        assert energy == pytest.approx(path_energy(h, BV_SPEC), rel=1e-12)
        assert match == pytest.approx(
            match_distance(h.slice_curve(h.N - 1), tgt, KP), rel=1e-12)

    @pytest.mark.parametrize("paper_literal", [False, True])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("spec", [BV_SPEC, H2_SPEC], ids=["bv2", "h2"])
    def test_energy_agrees_with_paths(self, rng, spec, p, paper_literal):
        spec = replace(spec, exponent=p, paper_literal_velocity=paper_literal)
        h = Homotopy(smooth_homotopy(rng, 6, 20))
        _, energy, _ = objective(h, fourier_curve(rng, 20), spec, KP)
        assert energy == pytest.approx(path_energy(h, spec), rel=1e-12)
        assert energy == pytest.approx(
            float(np.mean(step_norms(h, spec) ** p)), rel=1e-12)

    def test_match_term_hook(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 16))
        tgt = fourier_curve(rng, 16)
        hook = quadratic_match(tgt)
        _, _, match = objective(h, tgt, BV_SPEC, KP, match_term=hook)
        assert match == pytest.approx(hook[0](h.slice_curve(h.N - 1)))


class TestGradient:
    def test_slice_zero_pinned(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 16))
        g = gradient(h, fourier_curve(rng, 16), BV_SPEC, KP)
        assert np.all(g[0] == 0.0)

    def test_bv2_refuses_eps_zero(self, rng):
        h = Homotopy(smooth_homotopy(rng, 4, 12))
        spec = MetricSpec(family=BV2, weights=(1, 0, 1), eps=0.0, exponent=2)
        with pytest.raises(ValueError):
            gradient(h, fourier_curve(rng, 12), spec, KP)

    @pytest.mark.parametrize("spec", [BV_SPEC, H2_SPEC], ids=["bv2", "h2"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_finite_differences(self, rng, spec, p):
        spec = MetricSpec(family=spec.family, weights=spec.weights,
                          eps=spec.eps, exponent=p)
        h = Homotopy(smooth_homotopy(rng, 5, 24))
        tgt = fourier_curve(rng, 24)
        assert fd_check(h, tgt, spec, KP, num_coords=40, seed=3) <= 1e-5

    def test_h2_norm_at_zero_velocity(self, rng):
        # at a constant init every step has zero velocity, where the H2 norm
        # (p = 1) takes its subgradient 0 instead of 0.5/sqrt(0) * 0 = NaN
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        spec = replace(H2_SPEC, exponent=1)
        g = gradient(init_constant(src, 5), tgt, spec, KP)
        assert np.all(np.isfinite(g))
        assert np.all(g[:-1] == 0.0)
        # Central differences at the kink: moving an interior slice changes
        # a step's nodes as well as its velocity, which leaves an O(h) term
        # far above the bound at fd_check's step; at N = 2 every sample is
        # on the last slice, where that term vanishes.  The rounding of
        # x +- h still leaves |h+| != |h-|, scaled by the norm of a unit
        # node spike; the zeroth-order weights keep that below the bound.
        spec = replace(spec, weights=(1.0, 0.0, 0.0))
        assert fd_check(init_constant(src, 2), tgt, spec, KP, num_coords=40,
                        seed=3) <= 1e-5

    def test_rotation_equivariance(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 16))
        tgt = fourier_curve(rng, 16)
        ang = 0.7
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        g = gradient(h, tgt, BV_SPEC, KP)
        g_rot = gradient(Homotopy(h.grid @ R.T),
                         PolyCurve(tgt.nodes @ R.T), BV_SPEC, KP)
        assert np.allclose(g_rot, g @ R.T, atol=1e-10)


class TestDescend:
    def test_max_iters_zero_returns_start(self, rng):
        h = Homotopy(smooth_homotopy(rng, 4, 12))
        cfg = OptimConfig(max_iters=0)
        rep = descend(h, fourier_curve(rng, 12), BV_SPEC, KP, cfg)
        assert rep.termination == "max_iters"
        assert rep.homotopy is h
        assert rep.iters_per_stage == [0]

    def test_monotone_objective(self, rng):
        src = fourier_curve(rng, 24)
        tgt = fourier_curve(rng, 24)
        h0 = init_constant(src, 5)
        cfg = OptimConfig(max_iters=60)
        rep = descend(h0, tgt, BV_SPEC, KP, cfg)
        trace = np.array(rep.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] < trace[0]

    def test_quadratic_surrogate_reaches_straight_line(self, rng):
        # with a pure endpoint term ||c - tgt||^2 and zero metric weight the
        # minimizer snaps the last slice onto the target exactly
        src = fourier_curve(rng, 12)
        tgt = PolyCurve(src.nodes + np.array([0.2, -0.1]))
        spec = MetricSpec(family=H2, weights=(1e-9, 0, 1e-9), eps=1e-2,
                          exponent=2)
        h0 = init_constant(src, 3)
        cfg = OptimConfig(max_iters=2000, grad_tol=1e-10)
        rep = descend(h0, tgt, spec, KP, cfg, match_term=quadratic_match(tgt))
        final = rep.homotopy.slice_curve(2)
        assert np.max(np.abs(final.nodes - tgt.nodes)) < 1e-4

    def test_pinned_source_untouched(self, rng):
        src = fourier_curve(rng, 16)
        h0 = init_constant(src, 4)
        rep = descend(h0, fourier_curve(rng, 16), BV_SPEC, KP,
                      OptimConfig(max_iters=20))
        assert np.array_equal(rep.homotopy.grid[0], src.nodes)

    def test_line_search_error_on_inconsistent_problem(self, rng):
        # a match term that punishes any motion of the last slice but reports
        # a zero gradient can never satisfy the Armijo condition
        h0 = Homotopy(smooth_homotopy(rng, 4, 16))
        tgt = fourier_curve(rng, 16)
        calls = []

        def value(curve):
            calls.append(None)
            return 0.0 if len(calls) == 1 else 1e30

        def grad(curve):
            return np.zeros_like(curve.nodes)

        with pytest.raises(LineSearchError):
            descend(h0, tgt, BV_SPEC, KP, OptimConfig(max_iters=5),
                    match_term=(value, grad))

    def test_deterministic(self, rng):
        src = fourier_curve(rng, 16)
        tgt = fourier_curve(rng, 16)
        h0 = init_constant(src, 4)
        cfg = OptimConfig(max_iters=25)
        r1 = descend(h0, tgt, BV_SPEC, KP, cfg)
        r2 = descend(h0, tgt, BV_SPEC, KP, cfg)
        assert np.array_equal(r1.homotopy.grid, r2.homotopy.grid)
        assert r1.objective_trace == r2.objective_trace


class TestContinuation:
    def test_single_stage_matches_descend(self, rng):
        src = fourier_curve(rng, 16)
        tgt = fourier_curve(rng, 16)
        h0 = init_constant(src, 4)
        cfg = OptimConfig(max_iters=30, eps_schedule=(1e-2,))
        rep_c = continuation(h0, tgt, BV_SPEC, KP, cfg)
        rep_d = descend(h0, tgt, BV_SPEC, KP, cfg)
        assert np.array_equal(rep_c.homotopy.grid, rep_d.homotopy.grid)
        assert rep_c.objective_trace == rep_d.objective_trace

    def test_stage_records(self, rng):
        src = fourier_curve(rng, 16)
        tgt = fourier_curve(rng, 16)
        h0 = init_constant(src, 4)
        cfg = OptimConfig(max_iters=15, eps_schedule=(1e-1, 1e-2, 1e-3))
        rep = continuation(h0, tgt, BV_SPEC, KP, cfg)
        assert len(rep.stage_objectives) == 3
        assert [s["eps"] for s in rep.stage_objectives] == [1e-1, 1e-2, 1e-3]
        assert len(rep.iters_per_stage) == 3
        # the last stage runs at the minimum eps, so the two records agree
        last = rep.stage_objectives[-1]
        assert last["objective"] == pytest.approx(
            last["objective_at_min_eps"], rel=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            OptimConfig(eps_schedule=(1e-2, 1e-1))
        with pytest.raises(ValueError):
            OptimConfig(eps_schedule=(1e-2, 1e-2))


class TestInitializers:
    def test_init_constant(self, rng):
        src = fourier_curve(rng, 20)
        h = init_constant(src, 6)
        assert h.N == 6
        for i in range(6):
            assert np.array_equal(h.grid[i], src.nodes)

    def test_init_linear_endpoints(self, rng):
        src = fourier_curve(rng, 20)
        tgt = fourier_curve(rng, 20)
        h = init_linear(src, tgt, 5)
        assert np.allclose(h.grid[0], src.nodes)
        assert np.allclose(h.grid[-1], tgt.nodes)
        mid = 0.5 * (src.nodes + tgt.nodes)
        assert np.allclose(h.grid[2], mid)

    def test_init_validation(self, rng):
        src = fourier_curve(rng, 20)
        with pytest.raises(ValueError):
            init_constant(src, 1)
        with pytest.raises(ValueError):
            init_linear(src, fourier_curve(rng, 24), 5)

    def test_align_start_node_recovers_shift(self, rng):
        src = fourier_curve(rng, 30)
        shifted = PolyCurve(np.roll(src.nodes, 7, axis=0))
        aligned = align_start_node(src, shifted)
        assert np.array_equal(aligned.nodes, src.nodes)

    def test_align_start_node_identity(self, rng):
        src = fourier_curve(rng, 20)
        tgt = fourier_curve(rng, 20)
        aligned = align_start_node(src, tgt)
        costs = [float(np.sum(np.linalg.norm(
            np.roll(tgt.nodes, -s, axis=0) - src.nodes, axis=1)))
            for s in range(tgt.n)]
        got = float(np.sum(np.linalg.norm(aligned.nodes - src.nodes, axis=1)))
        assert got == pytest.approx(min(costs))
