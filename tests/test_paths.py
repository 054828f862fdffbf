import warnings

import numpy as np
import pytest

from bvgeo import (Homotopy, MetricSpec, PolyCurve, constant_speed_resample,
                   length_bound_check, make_translation_path, path_energy,
                   step_norms, time_constant_speed_reparam, velocity)
from bvgeo.metrics import finite_at_any_chords
from bvgeo.paths import last_step_power, step_powers
from conftest import fourier_curve, smooth_homotopy

SPEC = MetricSpec("bv2", (1, 0, 1), 0.0, 2)


class TestHomotopy:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Homotopy(np.zeros((1, 5, 2)))
        with pytest.raises(ValueError):
            Homotopy(np.zeros((3, 2, 2)))

    def test_validate_slices_reports_first_failure(self, rng):
        grid = smooth_homotopy(rng, 4, 20)
        grid[2, 5] = grid[2, 6]  # collapse one chord on slice 2
        h = Homotopy(grid)
        assert h.validate_slices() == (2, 5)

    def test_validate_slices_reports_first_of_several(self, rng):
        grid = smooth_homotopy(rng, 5, 20)
        # collapsed chords on slices 1 and 3, three of them on slice 1
        for i, j in [(3, 2), (1, 14), (1, 7), (3, 9), (1, 11)]:
            grid[i, j] = grid[i, j + 1]
        assert Homotopy(grid).validate_slices() == (1, 7)
        grid[1] = smooth_homotopy(rng, 5, 20)[1]
        assert Homotopy(grid).validate_slices() == (3, 2)


    def test_slice_curve_one_object_per_index(self, rng):
        h = Homotopy(smooth_homotopy(rng, 4, 12))
        assert h.slice_curve(3) is h.slice_curve(-1)
        assert h.slice_curve(1) is not h.slice_curve(2)
        assert h.slice_curve(2).nodes.tobytes() == h.grid[2].tobytes()
        with pytest.raises(IndexError):
            h.slice_curve(4)

    def test_chords_are_one_rolled_difference(self, rng):
        grid = smooth_homotopy(rng, 5, 9)
        h = Homotopy(grid)
        want = np.moveaxis(np.roll(grid, -1, axis=1) - grid, -1, 0)
        assert h.chords.shape == (2, 5, 9)
        assert h.chords.tobytes() == np.ascontiguousarray(want).tobytes()
        assert h.chords is h.chords
        assert not h.chords.flags.writeable
        # one length pass, the slice curves' own chord lengths bit for bit
        assert h.chord_lengths is h.chord_lengths
        assert not h.chord_lengths.flags.writeable
        assert h.chord_lengths.tobytes() == np.stack(
            [h.slice_curve(i).chord_lengths for i in range(5)]).tobytes()


class TestLastStep:
    """A line search's probe reads the last step's power and the last
    slice's length from the last two slices alone, with the bits of the
    whole path's."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("family, eps", [("bv2", 1e-3), ("bv2", 0.1),
                                             ("h2", 0.0), ("h2", 1e-3)])
    def test_bitwise_the_whole_paths(self, rng, family, eps, p):
        spec = MetricSpec(family, (1.0, 0.37, 1.0), eps, p)
        for N, n in [(2, 7), (5, 20), (48, 64)]:
            grid = smooth_homotopy(rng, N, n)
            alone, whole = Homotopy(grid), Homotopy(grid)
            assert last_step_power(alone, spec) == step_powers(whole,
                                                               spec)[0][-1]
            # formed from the last slice before chord_lengths, and read
            # from its row after
            assert "chord_lengths" not in vars(alone)
            assert alone.last_length == float(whole.chord_lengths[-1].sum())
            assert whole.last_length == alone.last_length


    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    @pytest.mark.parametrize("family", ["bv2", "h2"])
    def test_probe_gate_is_the_finite_domain(self, rng, family, eps):
        # the probe's kernels meet a trial's slices before the immersion
        # test, so the predicate that gates it must hold exactly where the
        # last step's power is finite at a repeated node of slice N-2
        grid = smooth_homotopy(rng, 4, 16)
        grid[-2, 5] = grid[-2, 4]
        h = Homotopy(grid)
        spec = MetricSpec(family, (1.0, 1.0, 1.0), eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                finite = bool(np.isfinite(last_step_power(h, spec)))
            except (RuntimeWarning, ZeroDivisionError):
                finite = False
        assert finite_at_any_chords(spec, h.n) == finite


class TestVelocity:
    def test_static_homotopy(self, rng):
        c = fourier_curve(rng, 16)
        h = make_translation_path(c, (0, 0), 6)
        for i in range(5):
            assert np.allclose(velocity(h, i).coeffs, 0)

    def test_translation_constant(self, rng):
        c = fourier_curve(rng, 16)
        h = make_translation_path(c, (0.3, -0.7), 7)
        for i in range(6):
            assert np.allclose(velocity(h, i).coeffs, [0.3, -0.7], atol=1e-12)

    def test_direct_recomputation(self, rng):
        grid = smooth_homotopy(rng, 6, 24)
        h = Homotopy(grid)
        i = 3
        assert np.allclose(velocity(h, i).coeffs,
                           (grid[i + 1] - grid[i]) * (h.N - 1))

    def test_index_range(self, rng):
        h = make_translation_path(fourier_curve(rng, 10), (1, 0), 4)
        with pytest.raises(IndexError):
            velocity(h, 3)
        with pytest.raises(IndexError):
            velocity(h, -1)


class TestPathEnergy:
    def test_static_is_zero(self, rng):
        c = fourier_curve(rng, 16)
        h = make_translation_path(c, (0, 0), 5)
        assert path_energy(h, SPEC) == 0.0

    def test_translation_square_p2(self, unit_square):
        c = constant_speed_resample(unit_square, 64)
        h = make_translation_path(c, (1.0, 0.0), 10)
        assert path_energy(h, SPEC) == pytest.approx(16.0, rel=1e-10)

    def test_translation_square_p1(self, unit_square):
        c = constant_speed_resample(unit_square, 64)
        h = make_translation_path(c, (1.0, 0.0), 10)
        spec1 = MetricSpec("bv2", (1, 0, 1), 0.0, 1)
        assert path_energy(h, spec1) == pytest.approx(4.0, rel=1e-10)

    def test_time_refinement_converges(self, rng):
        # p=2 energy of a smooth synthetic path under N -> 2N refinement:
        # successive differences must shrink (Richardson-style comparison)
        base = fourier_curve(rng, 32)
        disp = 0.4 * np.stack([np.cos(np.linspace(0, 2 * np.pi, 32, False)),
                               np.sin(np.linspace(0, 2 * np.pi, 32, False))], 1)

        def energy(N):
            t = np.arange(N) / (N - 1)
            grid = base.nodes[None] + np.sin(0.5 * np.pi * t)[:, None, None] \
                * disp[None]
            return path_energy(Homotopy(grid), SPEC)

        e1, e2, e3 = energy(8), energy(16), energy(32)
        assert abs(e3 - e2) < abs(e2 - e1)

    def test_eps_monotone(self, rng):
        for _ in range(20):
            h = Homotopy(smooth_homotopy(rng, 5, 24))
            vals = [path_energy(h, MetricSpec("bv2", (1, 1, 1), e, 2))
                    for e in (0.0, 1e-2, 1e-1)]
            assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_rigid_motion_invariance(self, rng):
        grid = smooth_homotopy(rng, 5, 20)
        ang = 0.9
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = grid @ R.T + np.array([2.0, -1.0])
        spec = MetricSpec("bv2", (1, 1, 1), 1e-2, 2)
        assert path_energy(Homotopy(moved), spec) == pytest.approx(
            path_energy(Homotopy(grid), spec), rel=1e-12)

    def test_time_reversal_symmetry(self, rng):
        grid = smooth_homotopy(rng, 6, 20)
        spec = MetricSpec("bv2", (1, 1, 1), 1e-2, 2)
        forward = path_energy(Homotopy(grid), spec)
        backward = path_energy(Homotopy(grid[::-1]), spec)
        # per-step norms are evaluated at different base slices under
        # reversal, so equality is only exact for slice-symmetric norms;
        # the velocity magnitude itself is sign-symmetric
        h = Homotopy(grid)
        hr = Homotopy(grid[::-1].copy())
        for i in range(h.N - 1):
            v = velocity(h, i).coeffs
            vr = velocity(hr, h.N - 2 - i).coeffs
            assert np.allclose(v, -vr)
        assert backward == pytest.approx(forward, rel=0.2)

    def test_h2_family(self, rng):
        h = Homotopy(smooth_homotopy(rng, 5, 24))
        spec = MetricSpec("h2", (1, 1, 1), 0.0, 2)
        assert path_energy(h, spec) > 0


class TestTimeReparam:
    def test_uniform_translation_unchanged(self, rng):
        c = fourier_curve(rng, 24)
        h = make_translation_path(c, (0.5, 0.2), 8)
        out = time_constant_speed_reparam(h, SPEC)
        assert np.max(np.abs(out.grid - h.grid)) <= 1e-12

    def test_quadratic_spacing_equalized(self, rng):
        c = fourier_curve(rng, 24)
        N = 9
        t = (np.arange(N) / (N - 1)) ** 2
        grid = c.nodes[None] + t[:, None, None] * np.array([0.6, 0.1])
        out = time_constant_speed_reparam(Homotopy(grid), SPEC)
        T = step_norms(out, SPEC)
        assert np.max(T) / np.min(T) <= 1.01
        assert np.allclose(out.grid[0], grid[0])
        assert np.allclose(out.grid[-1], grid[-1])

    def test_energy_never_increases(self, rng):
        for _ in range(10):
            h = Homotopy(smooth_homotopy(rng, 7, 24, amp=0.08))
            out = time_constant_speed_reparam(h, SPEC)
            assert path_energy(out, SPEC) <= path_energy(h, SPEC) * (1 + 1e-9)

    def test_zero_energy_rejected(self, rng):
        c = fourier_curve(rng, 16)
        h = make_translation_path(c, (0, 0), 5)
        with pytest.raises(ValueError):
            time_constant_speed_reparam(h, SPEC)


class TestLengthBounds:
    def test_static(self, rng):
        c = fourier_curve(rng, 16)
        h = make_translation_path(c, (0, 0), 5)
        diag = length_bound_check(h, SPEC)
        assert diag.ok
        assert diag.energy == 0.0
        assert np.allclose(diag.lengths, diag.lengths[0])

    def test_translation_strict(self, unit_square):
        c = constant_speed_resample(unit_square, 32)
        h = make_translation_path(c, (1.0, 0.0), 6)
        diag = length_bound_check(h, SPEC)
        assert diag.ok
        assert diag.energy > 0
        assert diag.lower < diag.lengths.min()
        assert diag.lengths.max() < diag.upper

    def test_adversarial_violation(self, rng):
        # two slices, 40x expansion: with w2 = 0 and a tiny w0 the path
        # length ell = T_0 stays tiny, so the final length lies far outside
        # exp(+-ell); no estimate backs the window when w2 < 1, and the
        # check must flag the slice
        c = fourier_curve(rng, 16, radius=0.05, wobble=0.0)
        spec = MetricSpec("bv2", (1e-3, 0, 0), 0.0, 2)
        grid = np.stack([c.nodes, (c.nodes - 0.5) * 40 + 0.5])
        diag = length_bound_check(Homotopy(grid), spec)
        assert not diag.ok

    @pytest.mark.parametrize("family", ["bv2", "h2"])
    def test_dilating_circle_within_window(self, family):
        # radius grows 1% linearly: E ~ 5e-3 and |log L/L0| ~ 1e-2 > E, so
        # an exp(+-E) window flags slices; exp(+-ell) with ell ~ 5e-2 holds
        t = 2 * np.pi * np.arange(64) / 64
        circle = 0.3 * np.stack([np.cos(t), np.sin(t)], axis=1)
        N = 6
        grid = np.stack([0.5 + (1 + 0.01 * k / (N - 1)) * circle
                         for k in range(N)])
        spec = MetricSpec(family, (1, 0, 1), 0.0, 2)
        diag = length_bound_check(Homotopy(grid), spec)
        assert diag.ok
        ell = float(np.mean(diag.step_norms))
        assert diag.path_length == ell
        assert np.max(np.abs(np.log(diag.lengths / diag.lengths[0]))) \
            > diag.energy
        assert diag.lower == diag.lengths[0] * np.exp(-ell)
        assert diag.upper == diag.lengths[0] * np.exp(ell)


class TestMakeTranslationPath:
    def test_zero_vector_static(self, rng):
        c = fourier_curve(rng, 12)
        h = make_translation_path(c, (0, 0), 4)
        assert np.allclose(h.grid, c.nodes[None])

    def test_endpoints(self, rng):
        c = fourier_curve(rng, 12)
        h = make_translation_path(c, (2.0, 3.0), 5)
        assert np.allclose(h.grid[0], c.nodes)
        assert np.allclose(h.grid[-1], c.nodes + [2.0, 3.0])
