from dataclasses import replace

import numpy as np
import pytest

from bvgeo import (BV2, H2, Homotopy, KernelParams, MetricSpec, OptimConfig,
                   PolyCurve, align_start_node, continuation, descend,
                   fd_check, gradient, init_constant, init_linear,
                   match_distance, objective, path_energy, step_norms)
from bvgeo import optimize
from bvgeo.curves import length
from bvgeo.matching import match_gradient, match_slack
from bvgeo.optimize import TRACE_COLUMNS, KernelMatch
from conftest import fourier_curve, only_cached, smooth_homotopy

KP = KernelParams()
BV_SPEC = MetricSpec(family=BV2, weights=(1.0, 0.0, 1.0), eps=1e-2, exponent=2)
H2_SPEC = MetricSpec(family=H2, weights=(1.0, 0.0, 1.0), eps=1e-2, exponent=2)


# objective traces of TestContinuation.test_objective_traces_pinned
PINNED_TRACES = {
    BV2: [113.83967338256568, 108.70585137018526, 99.60145821485037,
          90.89327241346258, 87.50412474557449, 87.16720626135873,
          87.05401366606196, 85.00097639097821, 84.80122166935915],
    H2: [63.079462583984856, 61.04178335550458, 59.80810465540463,
         60.16423100074841, 59.7595527463483, 58.94706380733676,
         58.950558356264835, 58.7586094102492, 57.8520545619065],
}


class FakeEndpoint:
    """An endpoint term from two functions of the last slice's curve; it
    rejects no trial before evaluating it."""

    def __init__(self, value, gradient):
        self.value, self.gradient = value, gradient

    def rejects(self, h, energy, bound):
        return False


def quadratic_match(target):
    """Surrogate endpoint term ||c - target||^2 with its exact gradient."""
    return FakeEndpoint(
        lambda curve: float(np.sum((curve.nodes - target.nodes) ** 2)),
        lambda curve: 2.0 * (curve.nodes - target.nodes))


class TestObjective:
    def test_parts_sum(self, rng):
        h = Homotopy(smooth_homotopy(rng, 6, 20))
        tgt = fourier_curve(rng, 20)
        total, energy, match = objective(h, tgt, BV_SPEC, KP)
        assert total == pytest.approx(energy + match, rel=1e-14)
        assert energy == pytest.approx(path_energy(h, BV_SPEC), rel=1e-12)
        assert match == pytest.approx(
            match_distance(h.slice_curve(h.N - 1), tgt, KP), rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("spec", [BV_SPEC, H2_SPEC], ids=["bv2", "h2"])
    def test_energy_agrees_with_paths(self, rng, spec, p):
        spec = replace(spec, exponent=p)
        h = Homotopy(smooth_homotopy(rng, 6, 20))
        _, energy, _ = objective(h, fourier_curve(rng, 20), spec, KP)
        assert energy == pytest.approx(path_energy(h, spec), rel=1e-12)
        assert energy == pytest.approx(
            float(np.mean(step_norms(h, spec) ** p)), rel=1e-12)

    def test_match_term_hook(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 16))
        tgt = fourier_curve(rng, 16)
        hook = quadratic_match(tgt)
        _, _, match = objective(h, tgt, BV_SPEC, KP, endpoint=hook)
        assert match == pytest.approx(hook.value(h.slice_curve(h.N - 1)))


    def test_endpoint_of_other_target_or_params_refused(self, rng):
        h = Homotopy(smooth_homotopy(rng, 4, 16))
        t1, t2 = fourier_curve(rng, 16), fourier_curve(rng, 16)
        for endpoint in (KernelMatch(t1, KP),
                         KernelMatch(t2, KernelParams(sigma=0.4))):
            with pytest.raises(ValueError):
                objective(h, t2, BV_SPEC, KP, endpoint)
            with pytest.raises(ValueError):
                gradient(h, t2, BV_SPEC, KP, endpoint)
        # equal params in another object are the same params
        same = KernelMatch(t2, KernelParams(KP.sigma, KP.delta))
        assert objective(h, t2, BV_SPEC, KP, same) \
            == objective(h, t2, BV_SPEC, KP)


class TestTargetGeometryCache:
    def test_alternating_targets_match_fresh_copies(self, rng):
        # each target keeps its own matching blocks, and the homotopy's
        # cached last slice serves both targets
        h = Homotopy(smooth_homotopy(rng, 4, 20))
        targets = [fourier_curve(rng, 20),
                   fourier_curve(rng, 27, center=(0.55, 0.45))]
        spec = MetricSpec(BV2, (1.0, 1.0, 1.0), 1e-2, 2)
        for tgt in targets + targets + targets[::-1]:
            f = np.array(objective(h, tgt, spec, KP))
            g = gradient(h, tgt, spec, KP)
            fresh_h = Homotopy(h.grid.copy())
            fresh_t = PolyCurve(tgt.nodes.copy())
            assert f.tobytes() == np.array(
                objective(fresh_h, fresh_t, spec, KP)).tobytes()
            assert g.tobytes() == gradient(fresh_h, fresh_t, spec,
                                           KP).tobytes()


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

    @pytest.mark.parametrize("init", ["constant", "linear"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("family", [BV2, H2])
    def test_finite_differences_from_initializers(self, rng, family, p,
                                                  init):
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        spec = replace(BV_SPEC, family=family, exponent=p)
        if init == "linear":
            h = init_linear(src, tgt, 5)
        elif p == 2:
            h = init_constant(src, 5)
        else:
            # the p = 1 kink at zero velocity: the N = 2 layout of
            # test_h2_norm_at_zero_velocity, where every sample is on the
            # last slice (BV2 at N = 5 measured 2.2e-5, an O(h^2) term)
            h = init_constant(src, 2)
            if family == H2:
                spec = replace(spec, weights=(1.0, 0.0, 0.0))
        assert fd_check(h, tgt, spec, KP, num_coords=40, seed=3) <= 1e-5

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
        rep = descend(h0, tgt, spec, KP, cfg, endpoint=quadratic_match(tgt))
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
        # a zero gradient can never satisfy the Armijo condition: the stage
        # ends as a named termination at its first iteration, not a raise
        h0 = Homotopy(smooth_homotopy(rng, 4, 16))
        tgt = fourier_curve(rng, 16)
        calls = []

        def value(curve):
            calls.append(None)
            return 0.0 if len(calls) == 1 else 1e30

        def grad(curve):
            return np.zeros_like(curve.nodes)

        rep = descend(h0, tgt, BV_SPEC, KP, OptimConfig(max_iters=5),
                      endpoint=FakeEndpoint(value, grad))
        assert rep.termination == "line_search_failure"
        assert rep.iters_per_stage == [0]
        assert np.array_equal(rep.homotopy.grid, h0.grid)

    def test_unchanged_grid_stalls(self, rng):
        # H2 with p = 1 at the constant init: every accepted step is below
        # the grid's rounding, so the first one already changes nothing
        src = fourier_curve(rng, 24)
        tgt = fourier_curve(rng, 24)
        h0 = init_constant(src, 5)
        spec = replace(H2_SPEC, exponent=1)
        rep = descend(h0, tgt, spec, KP, OptimConfig(max_iters=20))
        assert rep.termination == "stalled"
        assert rep.iters_per_stage == [0]
        assert len(rep.rows) == 1
        assert np.array_equal(rep.homotopy.grid, h0.grid)

    def test_non_finite_gradient_terminates(self, rng):
        # a NaN gradient would backtrack to min_tau and end the stage as
        # line_search_failure; it is a termination of its own instead
        h0 = Homotopy(smooth_homotopy(rng, 4, 16))
        tgt = fourier_curve(rng, 16)
        hook = FakeEndpoint(lambda curve: 0.0,
                            lambda curve: np.full_like(curve.nodes, np.nan))
        rep = descend(h0, tgt, BV_SPEC, KP, OptimConfig(max_iters=5),
                      endpoint=hook)
        assert rep.termination == "non_finite"
        assert rep.iters_per_stage == [0]
        assert np.array_equal(rep.homotopy.grid, h0.grid)
        rep = continuation(h0, tgt, BV_SPEC, KP, OptimConfig(max_iters=5),
                           endpoint=hook)
        assert rep.termination == "non_finite"
        assert rep.iters_per_stage == [0]

    def test_deterministic(self, rng):
        src = fourier_curve(rng, 16)
        tgt = fourier_curve(rng, 16)
        h0 = init_constant(src, 4)
        cfg = OptimConfig(max_iters=25)
        r1 = descend(h0, tgt, BV_SPEC, KP, cfg)
        r2 = descend(h0, tgt, BV_SPEC, KP, cfg)
        assert np.array_equal(r1.homotopy.grid, r2.homotopy.grid)
        assert r1.objective_trace == r2.objective_trace

    @staticmethod
    def _events(monkeypatch):
        """Wraps optimize.Homotopy, objective and gradient: logs "trial"
        for each grid built, "probe" for each probe call and "gradient"."""
        events = []
        homotopy_, objective_, gradient_ = (optimize.Homotopy,
                                            optimize.objective,
                                            optimize.gradient)

        def homotopy(grid):
            events.append("trial")
            return homotopy_(grid)

        def objective(*args, probe=False, **kwargs):
            if probe:
                events.append("probe")
            return objective_(*args, probe=probe, **kwargs)

        def gradient(*args):
            events.append("gradient")
            return gradient_(*args)

        monkeypatch.setattr(optimize, "Homotopy", homotopy)
        monkeypatch.setattr(optimize, "objective", objective)
        monkeypatch.setattr(optimize, "gradient", gradient)
        return events

    @staticmethod
    def _trials_per_iteration(events):
        """Grids built between consecutive gradient calls."""
        log = " ".join(e for e in events if e != "probe")
        return [part.split().count("trial")
                for part in log.split("gradient")[1:-1]]

    def test_step_policy(self, rng, monkeypatch):
        # the first trial step is 1 / (1 + |g|_inf), each later one twice
        # the last accepted step, and each rejection halves it: an
        # iteration makes log2(first trial step / accepted step) + 1 trials
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        h0 = init_constant(src, 5)
        events = self._events(monkeypatch)
        rep = descend(h0, tgt, BV_SPEC, KP, OptimConfig(max_iters=30))
        assert rep.termination == "max_iters"
        trials = self._trials_per_iteration(events)
        step, gnorm = rep.step_trace, rep.grad_norm_trace
        firsts = [1.0 / (1.0 + gnorm[0])] + [2.0 * s for s in step[1:-1]]
        assert trials == [np.log2(first / s) + 1
                          for first, s in zip(firsts, step[1:])]
        assert trials[:5] == [14, 7, 3, 3, 1]

    def test_failed_first_search_makes_67_trials(self, rng, monkeypatch):
        # the setup of test_line_search_error_on_inconsistent_problem: the
        # search gives up below 1e-20 of its first step, and
        # 2**-66 > 1e-20 >= 2**-67
        h0 = Homotopy(smooth_homotopy(rng, 4, 16))
        tgt = fourier_curve(rng, 16)
        values = iter([0.0])
        hook = FakeEndpoint(lambda curve: next(values, 1e30),
                            lambda curve: np.zeros_like(curve.nodes))
        events = self._events(monkeypatch)
        rep = descend(h0, tgt, BV_SPEC, KP, OptimConfig(max_iters=5),
                      endpoint=hook)
        assert rep.termination == "line_search_failure"
        assert events.count("gradient") == 1
        assert events.count("trial") == 67

    def test_probes_only_before_a_stages_second_gradient(self, rng,
                                                          monkeypatch):
        # only a stage's first line search probes
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        h0 = init_linear(src, tgt, 5)
        events = self._events(monkeypatch)
        descend_ = optimize.descend

        def stage(*args):
            events.append("stage")
            return descend_(*args)

        monkeypatch.setattr(optimize, "descend", stage)
        continuation(h0, tgt, H2_SPEC, KP, OptimConfig(max_iters=10))
        stages = " ".join(events).split("stage")[1:]
        assert len(stages) == 3
        for log in stages:
            before, second, after = log.partition("gradient")[2].partition(
                "gradient")
            assert second and "probe" in before and "probe" not in after


def _report_bits(rep):
    """Everything a run reports, as bytes and plain values."""
    return ([np.array(rep.columns[name]).tobytes() for name in TRACE_COLUMNS],
            rep.homotopy.grid.tobytes(), rep.iters_per_stage,
            rep.termination, repr(rep.stage_objectives))


def _only_cached(h):
    return all(only_cached(h.slice_curve(i)) for i in range(h.N))


class TestBoundedTrials:
    """_line_search hands each Armijo trial its threshold as objective's
    bound: the endpoint may reject a trial on its energy alone or on the
    floor of its match term about the current iterate, and an evaluated
    trial's kernel serves the gradient that follows.  A stage's first line
    search sends its trials to objective's probe first, which may reject
    them on their last step's energy.  None of this may change a decision
    or a bit of the result, along -g or any other descent direction."""

    @pytest.fixture
    def record(self, monkeypatch, builds):
        """Wraps optimize.objective and gradient: counts trials, trials
        rejected before the match on their energy and on the match floor,
        probe calls and the trials they reject, gradients, and kernels
        built within a gradient.  A trial the probe rejects counts as a
        trial, classed by the share the probe returns; a probe that does
        not reject counts only as a probe."""
        counts = dict.fromkeys(["trials", "energy_rejects", "floor_rejects",
                                "probes", "probe_rejects", "gradients",
                                "gradient_builds"], 0)
        objective_, gradient_ = optimize.objective, optimize.gradient

        def objective(h, target, *args, bound=None, probe=False, **kwargs):
            out = objective_(h, target, *args, bound=bound, probe=probe,
                             **kwargs)
            if probe:
                counts["probes"] += 1
                if out[0] != np.inf:
                    return out
                counts["probe_rejects"] += 1
            if bound is not None:
                counts["trials"] += 1
                slack = match_slack(h.n, target.n,
                                    float(np.sum(h.chord_lengths[-1])),
                                    length(target))
                on_energy = out[1] - slack > bound
                counts["energy_rejects"] += on_energy
                counts["floor_rejects"] += out[0] == np.inf and not on_energy
            return out

        def gradient(*args):
            before = len(builds)
            g = gradient_(*args)
            counts["gradients"] += 1
            counts["gradient_builds"] += len(builds) - before
            return g

        monkeypatch.setattr(optimize, "objective", objective)
        monkeypatch.setattr(optimize, "gradient", gradient)
        return counts

    @staticmethod
    def _ignore_bound(monkeypatch):
        # every trial evaluated in full, as descend did before the bound
        # and the probe: a probe call is a full evaluation, which the probe
        # does not reject
        full = optimize.objective

        def objective(*args, bound=None, probe=False, **kwargs):
            return full(*args, **kwargs)

        monkeypatch.setattr(optimize, "objective", objective)

    @pytest.mark.parametrize("init", ["constant", "linear"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("family", [BV2, H2])
    def test_same_result_as_full_evaluation(self, rng, monkeypatch, record,
                                            family, p, init):
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        h0 = init_constant(src, 5) if init == "constant" \
            else init_linear(src, tgt, 5)
        spec = replace(BV_SPEC, family=family, exponent=p)
        cfg = OptimConfig(max_iters=15)
        bounded = [descend(h0, tgt, spec, KP, cfg),
                   continuation(h0, tgt, spec, KP, cfg)]
        counts = dict(record)
        self._ignore_bound(monkeypatch)
        full = [descend(h0, tgt, spec, KP, cfg),
                continuation(h0, tgt, spec, KP, cfg)]
        for a, b in zip(bounded, full):
            assert _report_bits(a) == _report_bits(b)
            assert _only_cached(a.homotopy)
        assert counts["energy_rejects"] > 0
        # every gradient found its curve's kernel kept by a value before it
        assert counts["gradients"] > 0 and counts["gradient_builds"] == 0
        # each stage (descend's, then continuation's three) probes until
        # its first probe that does not reject
        stages = 1 + len(bounded[1].iters_per_stage)
        assert counts["probes"] == counts["probe_rejects"] + stages
        if init == "constant":
            assert counts["probe_rejects"] > 0
        if (family, p, init) == (H2, 1, "constant"):
            # the stall pair of test_unchanged_grid_stalls: descend and
            # each of continuation's three stages make the same 56 trials,
            # of which 4 fail on their energy, 36 on the match floor and
            # 16 only after building their kernel
            assert bounded[1].termination == "stalled"
            assert counts["trials"] == 4 * 56
            assert counts["energy_rejects"] == 4 * 4
            assert counts["floor_rejects"] == 4 * 36
        elif init == "constant":
            assert counts["floor_rejects"] > 0

    @pytest.mark.parametrize("family, eps",
                             [(H2, 0.0), (H2, 1e-170), (BV2, 1e-170)])
    def test_zero_chord_trial_unprobed_where_unsmoothed(
            self, monkeypatch, record, family, eps):
        # the first trial puts node 1 of slice N-2 on node 0, which the
        # immersion test rejects; where (eps/n)^2 is 0 the kernels would
        # divide by that chord's length, so no trial is probed, and the
        # run ends exactly as under full evaluation
        square = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 1.0], [-0.5, 0.5]])
        h0 = Homotopy(np.stack([square] * 3))
        tgt = PolyCurve(square + 0.25)
        # a gradient of sup-norm 1: the first trial step is 1/2
        push = np.zeros(h0.grid.shape)
        push[1, 1] = 1.0
        monkeypatch.setattr(optimize, "gradient", lambda *args: push)
        assert Homotopy(h0.grid - 0.5 * push).validate_slices() == (1, 0)
        spec = MetricSpec(family=family, weights=(1.0, 1.0, 1.0), eps=eps)
        cfg = OptimConfig(max_iters=3)
        probed = descend(h0, tgt, spec, KP, cfg)
        assert record["probes"] == 0 and record["trials"] > 0
        self._ignore_bound(monkeypatch)
        full = descend(h0, tgt, spec, KP, cfg)
        assert _report_bits(probed) == _report_bits(full)

    @pytest.mark.parametrize("init", ["constant", "linear"])
    @pytest.mark.parametrize("family", [BV2, H2])
    def test_exact_along_any_descent_direction(self, rng, monkeypatch,
                                               record, family, init):
        # a stage-start search along -P g, P a positive per-slice and
        # per-node scale: the probe and the bound hold for any direction
        # of negative slope, not only for -g
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        h0 = init_constant(src, 5) if init == "constant" \
            else init_linear(src, tgt, 5)
        args = (tgt, replace(BV_SPEC, family=family), KP, KernelMatch(tgt, KP))
        f, _, _ = objective(h0, *args)
        g = gradient(h0, *args)
        scale = np.linspace(0.5, 3.0, h0.N)[:, None, None] \
            * (1.0 + 0.5 * np.cos(np.arange(h0.n)))[None, :, None]
        d = -scale * g
        tau = optimize.TAU0 / (1.0 + float(np.max(np.abs(g))))
        search = (h0, f, d, float(np.sum(g * d)), tau, 1e-20 * tau, True,
                  args)

        def bits(found):
            t, trial, parts = found
            return t, trial.grid.tobytes(), parts

        screened = bits(optimize._line_search(*search))
        bound_rejects = record["energy_rejects"] + record["floor_rejects"] \
            - record["probe_rejects"]
        assert record["probe_rejects"] > 0
        if family == BV2:
            assert bound_rejects > 0
        self._ignore_bound(monkeypatch)
        assert screened == bits(optimize._line_search(*search))

    def test_rejected_trials_build_few_kernels(self, builds):
        # crossing ellipses at (N, n) = (5, 32) with the default spec and
        # kernel, 10 iterations per stage: each accepted trial and the
        # first stage's start build a kernel, and the energy test and the
        # second-order match floor turn back every rejected trial but (at
        # most) the margin of 2 before its kernel
        theta = 2 * np.pi * np.arange(32) / 32
        src, tgt = (PolyCurve(np.stack([0.5 + rx * np.cos(theta),
                                        0.5 + ry * np.sin(theta)], axis=1))
                    for rx, ry in ((0.35, 0.2), (0.2, 0.35)))
        rep = continuation(init_constant(src, 5), tgt, MetricSpec(), KP,
                           OptimConfig(max_iters=10))
        assert rep.iters_per_stage == [10, 10, 10]
        accepted, starts = sum(rep.iters_per_stage), len(rep.iters_per_stage)
        assert len(builds) <= accepted + starts + 2

    def test_accepted_gradient_bitwise_fresh(self, rng, monkeypatch,
                                             builds):
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        gradient_ = optimize.gradient
        built = []

        def gradient(h, target, spec, params, endpoint):
            before = len(builds)
            g = gradient_(h, target, spec, params, endpoint)
            built.append(len(builds) - before)
            assert g.tobytes() == gradient_(Homotopy(h.grid.copy()), target,
                                            spec, params).tobytes()
            return g

        monkeypatch.setattr(optimize, "gradient", gradient)
        rep = continuation(init_constant(src, 5), tgt, BV_SPEC, KP,
                           OptimConfig(max_iters=10))
        # each gradient, at every stage's start and after each of the ten
        # iterations, takes the kernel its curve's value kept
        assert built == [0] * 33
        assert _only_cached(rep.homotopy)

    def test_unbounded_objective_keeps_nothing(self, rng, builds):
        h = Homotopy(smooth_homotopy(rng, 5, 20))
        tgt = fourier_curve(rng, 20)
        plain = objective(h, tgt, BV_SPEC, KP)
        assert objective(h, tgt, BV_SPEC, KP, bound=np.inf) == plain
        gradient(h, tgt, BV_SPEC, KP)
        assert _only_cached(h) and len(builds) == 3
        # an endpoint passed in keeps the value's kernel for the gradient
        endpoint = KernelMatch(tgt, KP)
        assert objective(h, tgt, BV_SPEC, KP, endpoint, bound=np.inf) == plain
        gradient(h, tgt, BV_SPEC, KP, endpoint)
        assert _only_cached(h) and len(builds) == 4

    def test_unbounded_objective_never_reads_the_floor(self, rng,
                                                        monkeypatch):
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        objective_, match_floor_ = optimize.objective, optimize.match_floor
        bounded, reads = [], []

        def objective(*args, bound=None, **kwargs):
            bounded.append(bound is not None)
            try:
                return objective_(*args, bound=bound, **kwargs)
            finally:
                bounded.pop()

        def match_floor(*args):
            reads.append(bounded[-1])
            return match_floor_(*args)

        monkeypatch.setattr(optimize, "objective", objective)
        monkeypatch.setattr(optimize, "match_floor", match_floor)
        rep = continuation(init_constant(src, 5), tgt, BV_SPEC, KP,
                           OptimConfig(max_iters=10))
        assert reads and all(reads)
        # an endpoint that would reject any trial changes no unbounded value
        h = rep.homotopy
        want = objective_(Homotopy(h.grid.copy()), tgt, BV_SPEC, KP)
        refuse = KernelMatch(tgt, KP)
        refuse.rejects = lambda *args: True
        assert objective_(h, tgt, BV_SPEC, KP, refuse) == want
        assert objective_(h, tgt, BV_SPEC, KP, refuse,
                          bound=want[0] + 1.0)[0] == np.inf

    def test_floor_constants_built_with_the_gradient(self, rng,
                                                     monkeypatch):
        # a gradient builds the floor constants once, a bounded trial about
        # it builds none, and a gradient at another curve replaces them
        h = Homotopy(smooth_homotopy(rng, 5, 20))
        h2 = Homotopy(smooth_homotopy(rng, 5, 20))
        tgt = fourier_curve(rng, 20)
        floor_constants_, match_floor_ = (optimize.floor_constants,
                                          optimize.match_floor)
        built, read = [], []

        def floor_constants(*args):
            built.append(floor_constants_(*args))
            return built[-1]

        def match_floor(constants, *args):
            read.append(constants)
            return match_floor_(constants, *args)

        monkeypatch.setattr(optimize, "floor_constants", floor_constants)
        monkeypatch.setattr(optimize, "match_floor", match_floor)
        endpoint = KernelMatch(tgt, KP)
        for count, hi in enumerate((h, h2), start=1):
            total, _, _ = objective(hi, tgt, BV_SPEC, KP, endpoint)
            gradient(hi, tgt, BV_SPEC, KP, endpoint)
            assert len(built) == count
            for _ in range(2):
                assert objective(Homotopy(hi.grid), tgt, BV_SPEC, KP,
                                 endpoint, bound=total - 1e-9)[0] == np.inf
                gradient(hi, tgt, BV_SPEC, KP, endpoint)
            assert len(built) == count and len(read) == 2 * count
            assert all(constants is built[-1] for constants in read[-2:])
        # the replacing constants are those of the new iterate's last slice
        a2 = h2.slice_curve(h2.N - 1)
        value, kernel = match_distance(a2, tgt, KP, return_kernel=True)
        kl = kernel[2][:, 0]
        grad = match_gradient(a2, tgt, KP, kernel)
        for got, want in zip(read[-1], floor_constants_(a2, tgt, KP, value,
                                                        kl, grad)):
            assert np.array_equal(got, want)

    def test_floor_rejection_leaves_last_slice_alone(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 20))
        tgt = fourier_curve(rng, 20)
        endpoint = KernelMatch(tgt, KP)
        total, energy, match = objective(h, tgt, BV_SPEC, KP, endpoint)
        gradient(h, tgt, BV_SPEC, KP, endpoint)
        trial = Homotopy(h.grid)
        # not rejected on its energy, but on its floor: the same nodes
        # give H_0 less the two slacks, far above total - 1e-9
        out = objective(trial, tgt, BV_SPEC, KP, endpoint,
                        bound=total - 1e-9)
        assert out[0] == np.inf and out[1] == energy and np.isnan(out[2])
        assert not trial._slices
        # without the iterate's gradient there is no floor to reject on
        assert objective(trial, tgt, BV_SPEC, KP,
                         bound=total - 1e-9)[0] == total
        # at a bound the full value meets, the trial is evaluated in full
        assert objective(trial, tgt, BV_SPEC, KP, endpoint,
                         bound=total)[0] == total

    def test_energy_rejection_leaves_last_slice_alone(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 20))
        tgt = fourier_curve(rng, 20)
        total, energy, _ = objective(h, tgt, BV_SPEC, KP)
        trial = Homotopy(h.grid)
        out = objective(trial, tgt, BV_SPEC, KP, bound=0.5 * energy)
        assert out[0] == np.inf and out[1] == energy and np.isnan(out[2])
        # no slice curve was made, so no segment data or kernel either
        assert not trial._slices
        # at a bound the full value meets, the trial is evaluated in full
        assert objective(h, tgt, BV_SPEC, KP, bound=total)[0] == total

    def test_curves_hold_only_their_geometry(self, rng):
        # the match functions and the objective leave nothing on a curve
        # beyond its nodes and cached geometry
        h = Homotopy(smooth_homotopy(rng, 5, 20))
        tgt = fourier_curve(rng, 20)
        a = h.slice_curve(h.N - 1)
        match_distance(a, tgt, KP)
        match_gradient(a, tgt, KP)
        total, _, _ = objective(h, tgt, BV_SPEC, KP)
        objective(h, tgt, BV_SPEC, KP, bound=total)
        gradient(h, tgt, BV_SPEC, KP)
        assert _only_cached(h) and only_cached(tgt)
        match_gradient(a, tgt, KP, match_distance(a, tgt, KP,
                                                  return_kernel=True)[1])
        descend(h, tgt, BV_SPEC, KP, OptimConfig(max_iters=3))
        assert _only_cached(h) and only_cached(tgt)


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

    def test_grad_tol_stop(self, rng):
        # a loose relative tolerance ends each stage before max_iters, at a
        # gradient sup-norm at most grad_tol times the stage's first
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        cfg = OptimConfig(max_iters=500, grad_tol=0.5,
                          eps_schedule=(1e-1, 1e-2))
        rep = continuation(init_linear(src, tgt, 4), tgt, MetricSpec(), KP,
                           cfg)
        assert rep.termination == "grad_tol"
        assert [s["termination"] for s in rep.stage_objectives] \
            == ["grad_tol"] * 2
        norms = rep.grad_norm_trace
        start = 0
        for iters in rep.iters_per_stage:
            assert 0 < iters < cfg.max_iters
            first, last = norms[start], norms[start + iters]
            assert last <= cfg.grad_tol * first
            start += iters + 1
        assert start == len(norms)

    def test_bv2_schedule_ending_at_zero_refused_first(self, rng,
                                                       objective_calls):
        # the BV2 gradient refuses eps = 0; the refusal comes before the
        # stages above it run, not after them
        h0 = Homotopy(smooth_homotopy(rng, 4, 16))
        cfg = OptimConfig(max_iters=2, eps_schedule=(1e-1, 0.0))
        with pytest.raises(ValueError, match="eps > 0"):
            continuation(h0, fourier_curve(rng, 16), BV_SPEC, KP, cfg)
        assert objective_calls == []

    def test_h2_schedule_ending_at_zero_runs(self, rng, objective_calls):
        h0 = Homotopy(smooth_homotopy(rng, 4, 16))
        cfg = OptimConfig(max_iters=2, eps_schedule=(1e-1, 0.0))
        rep = continuation(h0, fourier_curve(rng, 16), H2_SPEC, KP, cfg)
        assert [s["eps"] for s in rep.stage_objectives] == [1e-1, 0.0]
        assert objective_calls

    def test_trace_item_write_persists(self, rng):
        # a column is stored once: writing into a *_trace list changes the
        # report, and the merged rows follow the stages' rows
        src = fourier_curve(rng, 16)
        h0 = init_constant(src, 4)
        cfg = OptimConfig(max_iters=3, eps_schedule=(1e-1, 1e-2))
        rep = continuation(h0, fourier_curve(rng, 16), BV_SPEC, KP, cfg)
        assert len(rep.rows) == sum(i + 1 for i in rep.iters_per_stage)
        final = rep.objective_trace[-1]
        rep.objective_trace[1] = -1.0
        rep.objective_trace[-1] *= 2.0
        col = TRACE_COLUMNS.index("objective")
        assert rep.objective_trace[1] == rep.rows[1][col] == -1.0
        assert rep.objective_trace[-1] == rep.rows[-1][col] == 2.0 * final

    def test_failed_line_search_keeps_earlier_stages(self, rng,
                                                     monkeypatch):
        # from stage 2 on the endpoint rejects every trial: those stages end
        # at their first iteration, and the report keeps stage 1's descent
        src, tgt = fourier_curve(rng, 16), fourier_curve(rng, 16)
        endpoint = quadratic_match(tgt)
        descend_, finals = optimize.descend, []

        def descend(*args):
            rep = descend_(*args)
            finals.append(rep.homotopy)
            endpoint.rejects = lambda h, energy, bound: True
            return rep

        monkeypatch.setattr(optimize, "descend", descend)
        rep = continuation(init_constant(src, 4), tgt, BV_SPEC, KP,
                           OptimConfig(max_iters=5), endpoint=endpoint)
        assert rep.iters_per_stage == [5, 0, 0]
        assert len(rep.rows) == 8
        assert len(rep.stage_objectives) == 3
        assert rep.termination == "line_search_failure"
        assert finals[0] is finals[1] is finals[2] is rep.homotopy

    def test_failed_middle_stage_reported(self, rng, monkeypatch):
        # the endpoint refuses every trial of stage 2 only: stage 3 runs
        # its iterations, and the report names stage 2's failure
        src, tgt = fourier_curve(rng, 16), fourier_curve(rng, 16)
        endpoint = quadratic_match(tgt)
        descend_, stages = optimize.descend, []

        def descend(*args):
            stages.append(None)
            return descend_(*args)

        endpoint.rejects = lambda h, energy, bound: len(stages) == 2
        monkeypatch.setattr(optimize, "descend", descend)
        rep = continuation(init_constant(src, 4), tgt, BV_SPEC, KP,
                           OptimConfig(max_iters=5), endpoint=endpoint)
        assert rep.iters_per_stage == [5, 0, 5]
        assert [s["termination"] for s in rep.stage_objectives] == [
            "max_iters", "line_search_failure", "max_iters"]
        assert rep.termination == "line_search_failure"

    def test_objective_traces_pinned(self):
        # linear-init BV2 and H2 runs at (N, n) = (6, 24), two iterations
        # per stage: a change made for speed must not move these traces;
        # 1e-12 relative leaves room for BLAS rounding between machines
        theta = 2 * np.pi * np.arange(24) / 24
        src = PolyCurve(np.stack([0.5 + 0.3 * np.cos(theta),
                                  0.5 + 0.2 * np.sin(theta)], axis=1))
        r = 0.25 + 0.05 * np.cos(3 * theta)
        tgt = PolyCurve(np.stack([0.55 + r * np.cos(theta),
                                  0.45 + r * np.sin(theta)], axis=1))
        cfg = OptimConfig(max_iters=2)
        for family, trace in PINNED_TRACES.items():
            spec = MetricSpec(family=family, weights=(1.0, 1.0, 1.0))
            rep = continuation(init_linear(src, tgt, 6), tgt, spec, KP, cfg)
            assert rep.iters_per_stage == [2, 2, 2]
            assert rep.objective_trace == pytest.approx(trace, rel=1e-12)

    def test_stage_boundaries_build_no_kernel(self, rng, monkeypatch,
                                              builds):
        rep = self._stage_boundaries(rng, monkeypatch, builds, BV_SPEC, 5)
        assert rep.iters_per_stage == [5, 5, 5]

    def test_stalled_stages_build_no_kernel(self, rng, monkeypatch, builds):
        # the stall pair of test_unchanged_grid_stalls: every stage ends
        # after a trial, so the endpoint evaluated a trial's curve last
        rep = self._stage_boundaries(rng, monkeypatch, builds,
                                     replace(H2_SPEC, exponent=1), 20)
        assert rep.termination == "stalled"
        assert rep.iters_per_stage == [0, 0, 0]

    @staticmethod
    def _stage_boundaries(rng, monkeypatch, builds, spec, iters):
        # H does not depend on eps: after the first stage's start, neither
        # the eps_min re-evaluations nor the later stages' starts build a
        # kernel matrix, and the recorded values are a fresh objective's
        src, tgt = fourier_curve(rng, 24), fourier_curve(rng, 24)
        objective_, gradient_ = optimize.objective, optimize.gradient
        descend_ = optimize.descend
        unbounded, finals = [], []

        def objective(*args, bound=None, probe=False):
            before = len(builds)
            out = objective_(*args, bound=bound, probe=probe)
            if bound is None:
                unbounded.append(len(builds) - before)
            return out

        def gradient(*args):
            before = len(builds)
            g = gradient_(*args)
            assert len(builds) == before
            return g

        def descend(*args):
            rep = descend_(*args)
            finals.append(rep.homotopy)
            return rep

        monkeypatch.setattr(optimize, "objective", objective)
        monkeypatch.setattr(optimize, "gradient", gradient)
        monkeypatch.setattr(optimize, "descend", descend)
        cfg = OptimConfig(max_iters=iters)
        rep = continuation(init_constant(src, 5), tgt, spec, KP, cfg)
        # stage start, eps_min re-evaluation, for each of the three stages
        assert unbounded == [1, 0, 0, 0, 0, 0]
        for h, eps, record in zip(finals, cfg.eps_schedule,
                                  rep.stage_objectives):
            fresh = Homotopy(h.grid.copy())
            assert record["objective"] == objective_(
                fresh, tgt, replace(spec, eps=eps), KP)[0]
            assert record["objective_at_min_eps"] == objective_(
                fresh, tgt, replace(spec, eps=cfg.eps_schedule[-1]),
                KP)[0]
        return rep

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

    @staticmethod
    def _align_loop(source, target):
        """The per-shift loop align_start_node replaced, as its oracle."""
        best_shift, best_cost = 0, np.inf
        for s in range(target.n):
            cost = float(np.sum(np.linalg.norm(
                np.roll(target.nodes, -s, axis=0) - source.nodes, axis=1)))
            if cost < best_cost:
                best_shift, best_cost = s, cost
        return np.roll(target.nodes, -best_shift, axis=0)

    @pytest.mark.parametrize("n", [3, 4, 17, 64, 256])
    def test_align_start_node_matches_loop(self, rng, n):
        for _ in range(5):
            src = fourier_curve(rng, n, wobble=0.2)
            tgt = PolyCurve(np.roll(fourier_curve(rng, n, wobble=0.2).nodes,
                                    int(rng.integers(n)), axis=0))
            assert np.array_equal(align_start_node(src, tgt).nodes,
                                  self._align_loop(src, tgt))

    def test_align_start_node_tie_takes_first_shift(self):
        # shifts 1 and 3 both cost exactly 7 (3-4-5 distances), shifts 0
        # and 2 more; the first minimal shift wins
        src = PolyCurve([[0, 0], [10, 0], [0, 0], [10, 0]])
        tgt = PolyCurve([[10, 0], [0, 0], [10, 3], [0, 4]])
        want = np.roll(tgt.nodes, -1, axis=0)
        assert np.array_equal(align_start_node(src, tgt).nodes, want)
        assert np.array_equal(self._align_loop(src, tgt), want)

    def test_align_start_node_identity(self, rng):
        src = fourier_curve(rng, 20)
        tgt = fourier_curve(rng, 20)
        aligned = align_start_node(src, tgt)
        costs = [float(np.sum(np.linalg.norm(
            np.roll(tgt.nodes, -s, axis=0) - src.nodes, axis=1)))
            for s in range(tgt.n)]
        got = float(np.sum(np.linalg.norm(aligned.nodes - src.nodes, axis=1)))
        assert got == pytest.approx(min(costs))


@pytest.mark.parametrize("cls, field, value", [
    (KernelParams, "sigma", np.nan), (KernelParams, "sigma", np.inf),
    (KernelParams, "delta", np.nan), (MetricSpec, "eps", np.nan),
    (MetricSpec, "eps", np.inf), (MetricSpec, "weights", (1, np.nan, 1)),
    (MetricSpec, "weights", (1, np.inf, 1)), (OptimConfig, "grad_tol", np.nan),
    (OptimConfig, "grad_tol", np.inf),
    (OptimConfig, "eps_schedule", (np.nan,)),
    (OptimConfig, "eps_schedule", (np.inf, 1e-2)),
    # integers beyond the float range
    *(pytest.param(cls, field, value, id=f"{cls.__name__}-{field}-10**400")
      for cls, field, value in [
          (KernelParams, "sigma", 10**400), (MetricSpec, "eps", 10**400),
          (MetricSpec, "weights", (10**400, 0, 1)),
          (OptimConfig, "grad_tol", 10**400),
          (OptimConfig, "eps_schedule", (10**400,))])],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_settings_reject_non_finite(cls, field, value):
    # NaN passes a plain "x <= 0" test, so each validator checks finiteness
    with pytest.raises(ValueError, match="finite"):
        cls(**{field: value})


@pytest.mark.parametrize("value", [2.5, 3.0, -1, "7"])
def test_max_iters_must_be_a_nonnegative_integer(value):
    with pytest.raises(ValueError, match="nonnegative integer"):
        OptimConfig(max_iters=value)


def test_settings_store_converted_values():
    # a float keeps its bits, and max_iters is stored as an int
    cfg = OptimConfig(max_iters=np.int64(3), grad_tol=np.float32(0.5),
                      eps_schedule=(1, 0.1))
    assert type(cfg.max_iters) is int and cfg.max_iters == 3
    assert type(cfg.grad_tol) is float and cfg.eps_schedule == (1.0, 0.1)
    spec = MetricSpec(eps=np.float64(0.1), weights=(1, 0, 1))
    assert type(spec.eps) is float and spec.eps == 0.1
    assert spec.weights == (1.0, 0.0, 1.0)
    kp = KernelParams(1, np.float64(0.05))
    assert (type(kp.sigma), type(kp.delta)) == (float, float)
    assert kp.delta == 0.05
