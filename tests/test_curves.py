import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bvgeo import (CurveError, DegenerateSegmentError, Homotopy, PolyCurve,
                   TangentField, constant_speed_resample, frenet_frames, length,
                   normalize_to_unit_square, signed_area, smoothed_norm,
                   validate_immersion)
from bvgeo.curves import (MIN_SPEED_REL, _point_at_arclength, cyclic_shift,
                          first_slow_segment, inner, inner_cm)
from conftest import fourier_curve


class TestPolyCurve:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(CurveError):
            PolyCurve([[0, 0], [1, 0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(CurveError):
            PolyCurve([[0, 0], [1, np.nan], [1, 1]])

    def test_nodes_immutable(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.nodes[0, 0] = 5.0

    def test_equality_is_identity(self):
        # two curves (fields, homotopies) with equal nodes are different
        # objects, each with its own cached geometry: ==, in and hash
        # compare identity and never compare the arrays
        tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        for make in (PolyCurve, TangentField,
                     lambda x: Homotopy(np.stack([x, x]))):
            a, b = make(tri), make(tri)
            assert a == a and a != b
            assert a in [b, a] and a not in [b]
            assert hash(a) == hash(a)
            assert len({a, b, a}) == 2

    def test_field_size_mismatch(self, unit_square):
        from bvgeo.curves import check_sizes
        with pytest.raises(CurveError):
            check_sizes(unit_square, TangentField(np.zeros((5, 2))))


class TestValidateImmersion:
    def test_unit_square_ok(self, unit_square):
        ok, idx = validate_immersion(unit_square)
        assert ok and idx is None

    def test_coincident_nodes_detected(self):
        c = PolyCurve([[0, 0], [1, 0], [1, 0], [0, 1]])
        ok, idx = validate_immersion(c)
        assert not ok
        assert idx == 1

    def test_random_curve_scan_oracle(self, rng):
        n = 64
        c = fourier_curve(rng, n)
        assert np.all(c.chord_lengths >= 0.01)
        ok, _ = validate_immersion(c)
        # oracle: direct scan over segment speeds
        assert ok == bool(np.min(n * c.chord_lengths)
                          > MIN_SPEED_REL * np.sum(c.chord_lengths))
        assert ok


def _first_slow_broadcast(lengths):
    """first_slow_segment's broadcast form: every chord against its
    curve's threshold."""
    min_speed = MIN_SPEED_REL * np.add.reduce(lengths, axis=1, keepdims=True)
    n = lengths.shape[1]
    slow = n * lengths <= min_speed
    if not slow.any():
        return None
    return divmod(int(np.flatnonzero(slow)[0]), n)


@st.composite
def _length_stacks(draw):
    """(S, n) chord lengths spread over orders of magnitude, with zero
    chords, and chords placed within a few ulps of their curve's
    threshold n*l = MIN_SPEED_REL*sum(l), on either side."""
    S, n = draw(st.integers(1, 6)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lengths = 10.0 ** rng.uniform(-draw(st.integers(0, 12)), 2, (S, n))
    lengths[rng.random((S, n)) < draw(st.sampled_from([0.0, 0.02]))] = 0.0
    for _ in range(draw(st.integers(0, 3))):
        i, j = int(rng.integers(S)), int(rng.integers(n))
        others = float(np.sum(lengths[i])) - lengths[i, j]
        x = MIN_SPEED_REL * others / (n - MIN_SPEED_REL)
        for _ in range(draw(st.integers(-3, 3)) % 7):
            x = np.nextafter(x, np.inf)
        lengths[i, j] = x
    return lengths


class TestFirstSlowSegment:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_length_stacks())
    @example(np.zeros((2, 3)))
    @example(np.full((3, 4), 1.0))
    def test_equal_to_broadcast_form(self, lengths):
        assert first_slow_segment(lengths) == _first_slow_broadcast(lengths)


class TestLength:
    def test_unit_square_perimeter(self, unit_square):
        assert length(unit_square) == 4.0

    @pytest.mark.parametrize("n", [3, 7, 128])
    def test_regular_ngon(self, n):
        theta = 2 * np.pi * np.arange(n) / n
        c = PolyCurve(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        assert length(c) == pytest.approx(n * 2 * np.sin(np.pi / n), rel=1e-14)

    def test_against_quadrature(self, rng):
        c = fourier_curve(rng, 128)
        # dense quadrature of |gamma'| over the P1 interpolant: the speed is
        # constant per segment, so sampling it reproduces the chord sums
        samples_per_seg = 10_000
        total = 0.0
        for i in range(c.n):
            speed = c.n * np.linalg.norm(c.chords[i])
            total += np.sum(np.full(samples_per_seg, speed)) \
                / (c.n * samples_per_seg)
        assert total == pytest.approx(length(c), rel=1e-12)

    def test_rigid_motion_invariance(self, rng):
        c = fourier_curve(rng, 50)
        ang = 0.73
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = c.transformed(R, (3.0, -2.0))
        assert length(moved) == pytest.approx(length(c), rel=1e-13)


class TestFrenetFrames:
    def test_horizontal_segment(self):
        c = PolyCurve([[0, 0], [1, 0], [0.5, 1]])
        t, n = frenet_frames(c)
        assert np.allclose(t[0], [1, 0])
        assert np.allclose(n[0], [0, 1])

    def test_vertical_segment(self):
        c = PolyCurve([[0, 0], [1, 0], [1, 1]])
        t, n = frenet_frames(c)
        assert np.allclose(t[1], [0, 1])
        assert np.allclose(n[1], [-1, 0])

    def test_orthonormal_positive_determinant(self, rng):
        for _ in range(10):
            c = fourier_curve(rng, 40)
            t, n = frenet_frames(c)
            assert np.allclose(np.sum(t * n, axis=1), 0, atol=1e-12)
            assert np.allclose(np.linalg.norm(t, axis=1), 1, atol=1e-12)
            assert np.allclose(np.linalg.norm(n, axis=1), 1, atol=1e-12)
            det = t[:, 0] * n[:, 1] - t[:, 1] * n[:, 0]
            assert np.allclose(det, 1, atol=1e-12)

    def test_degenerate_segment_raises(self):
        c = PolyCurve([[0, 0], [0, 0], [1, 1]])
        with pytest.raises(DegenerateSegmentError):
            frenet_frames(c)


class TestConstantSpeedResample:
    def test_uniform_square_fixed_point(self, unit_square):
        out = constant_speed_resample(unit_square, 4)
        assert np.allclose(out.nodes, unit_square.nodes, atol=1e-12)

    def test_clustered_square(self):
        # nodes piled up on the bottom edge; corners land on multiples of
        # the sample spacing so all output chords are equal
        nodes = [[0, 0], [0.1, 0], [0.2, 0], [0.35, 0], [0.6, 0],
                 [1, 0], [1, 1], [0, 1]]
        out = constant_speed_resample(PolyCurve(nodes), 64)
        lens = out.chord_lengths
        assert np.max(lens) / np.min(lens) <= 1 + 1e-9

    def test_length_preserved(self, rng):
        c = fourier_curve(rng, 37)
        out = constant_speed_resample(c, 200)
        assert length(out) <= length(c) + 1e-12
        # new nodes lie on the original polyline: cumulative-arclength oracle
        cum = np.concatenate([[0.0], np.cumsum(c.chord_lengths)])
        for p in out.nodes:
            dists = _point_to_segments(p, c)
            assert np.min(dists) < 1e-12

    def test_idempotent(self, rng):
        c = fourier_curve(rng, 31)
        once = constant_speed_resample(c, 100)
        twice = constant_speed_resample(once, 100)
        scale = np.max(np.abs(once.nodes))
        assert np.max(np.abs(twice.nodes - once.nodes)) <= 1e-9 * scale

    def test_zero_length_raises(self):
        c = PolyCurve([[0.5, 0.5]] * 4)
        with pytest.raises(DegenerateSegmentError):
            constant_speed_resample(c, 8)

    def test_too_few_output_nodes(self, unit_square):
        with pytest.raises(CurveError):
            constant_speed_resample(unit_square, 2)


def _point_to_segments(p, curve):
    a = curve.nodes
    b = np.roll(curve.nodes, -1, axis=0)
    ab = b - a
    t = np.clip(np.sum((p - a) * ab, axis=1)
                / np.maximum(np.sum(ab * ab, axis=1), 1e-300), 0, 1)
    proj = a + t[:, None] * ab
    return np.linalg.norm(proj - p, axis=1)


class TestSmoothedNorm:
    def test_reduces_to_euclidean(self):
        assert smoothed_norm([3.0, 4.0], 0.0) == 5.0

    def test_zero_vector(self):
        assert smoothed_norm([0.0, 0.0], 0.1) == pytest.approx(0.1)

    def test_arithmetic(self):
        assert smoothed_norm([1.0, 1.0], 1.0) == pytest.approx(np.sqrt(3))

    def test_bounds(self, rng):
        for _ in range(100):
            x = rng.standard_normal(2) * 10
            eps = abs(rng.standard_normal())
            v = smoothed_norm(x, eps)
            assert v >= max(np.linalg.norm(x), eps) - 1e-15
            assert v <= np.linalg.norm(x) + eps + 1e-15


# node-grid shapes of the evaluation path: one curve (n, 2), S stacked curves
# (S, n, 2), and S per-node scalars (S, n)
_SHAPES = st.one_of(
    st.tuples(st.integers(3, 12), st.just(2)),
    st.tuples(st.integers(1, 4), st.integers(3, 12), st.just(2)),
    st.tuples(st.integers(1, 4), st.integers(3, 12)))


@st.composite
def _array_pairs(draw):
    shape = draw(_SHAPES)
    return draw(arrays(np.float64, shape)), draw(arrays(np.float64, shape))


class TestVectorHelpers:
    """inner, inner_cm and cyclic_shift stand in for np.sum over the
    length-2 axis and for np.roll on the evaluation path; every bit must
    survive, signed zeros, infinities and NaNs included, also in squares."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_array_pairs())
    @example((np.zeros((3, 2)), -np.zeros((3, 2))))
    @example((np.arange(12.0).reshape(2, 3, 2), np.ones((2, 3, 2))))
    @example((np.arange(6.0).reshape(2, 3), -np.arange(6.0).reshape(2, 3)))
    def test_bitwise_equal_to_numpy_forms(self, pair):
        x, y = pair
        with np.errstate(all="ignore"):
            if x.shape[-1] == 2:
                xm, ym = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
                for a, b, am, bm in [(x, y, xm, ym), (x, x, xm, xm)]:
                    want = np.sum(a * b, axis=-1).tobytes()
                    assert inner(a, b).tobytes() == want
                    assert inner_cm(am, bm).tobytes() == want
        for axis in range(x.ndim):
            for shift in (1, -1):
                assert (cyclic_shift(x, shift, axis).tobytes()
                        == np.roll(x, shift, axis).tobytes())


@pytest.mark.parametrize("shape", [(5, 2), (3, 5, 2), (4, 7)])
@pytest.mark.parametrize("axis", [-1, 0])
def test_cyclic_shift_matches_roll(shape, axis):
    # the node axis -1 takes its own indexing path; both paths against
    # np.roll, with shifts past the axis length and -0.0 entries
    x = np.arange(np.prod(shape), dtype=float).reshape(shape) - 3.0
    x[x == 0.0] = -0.0
    for shift in range(-9, 10):
        assert (cyclic_shift(x, shift, axis).tobytes()
                == np.roll(x, shift, axis).tobytes())


def _resample_numpy_form(curve, m, rel_tol=1e-10, max_passes=200):
    """constant_speed_resample as written with np.roll and np.linalg.norm."""
    seg = curve.chord_lengths
    total = float(np.sum(seg))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = total * np.arange(m) / m
    nodes = _point_at_arclength(curve, cum, s)
    for _ in range(max_passes):
        chords = np.linalg.norm(np.roll(nodes, -1, axis=0) - nodes, axis=1)
        cmin = float(np.min(chords))
        cmax = float(np.max(chords))
        if cmin > 0.0 and cmax / cmin <= 1.0 + rel_tol:
            break
        prof = np.concatenate([[0.0], np.cumsum(chords)])
        targets = prof[-1] * np.arange(m) / m
        s = np.interp(targets, prof, np.concatenate([s, [total]]))
        s[0] = 0.0
        nodes = _point_at_arclength(curve, cum, s)
    return nodes


def _signed_area_numpy_form(curve):
    x = curve.nodes[:, 0]
    y = curve.nodes[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestNumpyFormsPinned:
    """constant_speed_resample and signed_area reduce 2-vectors with inner
    and shift with cyclic_shift; their outputs keep the numpy forms' bits."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 90),
           st.integers(3, 130))
    def test_bitwise_equal(self, seed, n, m):
        rng = np.random.default_rng(seed)
        curve = fourier_curve(rng, n, wobble=0.15)
        if seed % 2:   # uneven node spacing, so several passes run
            curve = PolyCurve(curve.nodes[np.sort(rng.choice(
                n, size=max(3, n - n // 3), replace=False))])
        assert (constant_speed_resample(curve, m).nodes.tobytes()
                == _resample_numpy_form(curve, m).tobytes())
        assert (np.float64(signed_area(curve)).tobytes()
                == np.float64(_signed_area_numpy_form(curve)).tobytes())


class TestCachedGeometry:
    def test_degenerate_chord_raises_on_every_access(self):
        c = PolyCurve([[0, 0], [1, 0], [1, 0], [0, 1]])
        for _ in range(3):
            with pytest.raises(DegenerateSegmentError) as info:
                c.segments
            assert info.value.index == 1
        with pytest.raises(DegenerateSegmentError):
            c.kernel_block
        with pytest.raises(DegenerateSegmentError):
            frenet_frames(c)

    @pytest.mark.parametrize("n", [3, 17, 64])
    def test_cached_equals_fresh_computation(self, rng, n):
        c = fourier_curve(rng, n)
        cached = (c.chords, c.chord_lengths, *c.segments, c.kernel_block,
                  *c.kernel_moments)
        nodes = c.nodes.copy()
        following = np.roll(nodes, -1, axis=0)
        chords = following - nodes
        lens = np.linalg.norm(chords, axis=1)
        tang = chords / lens[:, None]
        normals = np.stack([-tang[:, 1], tang[:, 0]], axis=1)
        mids = 0.5 * (nodes + following)
        block = lens[:, None] * np.column_stack(
            [np.ones(n), np.sum(normals * normals, axis=1), normals])
        origin = np.mean(mids, axis=0)
        centred = mids - origin
        moments = np.hstack([block, block * centred[:, :1],
                             block * centred[:, 1:]])
        fresh = (chords, lens, mids, tang, normals, lens, block, origin,
                 moments)
        assert [x.tobytes() for x in cached] == [x.tobytes() for x in fresh]
        # computed once: a second access returns the same read-only arrays,
        # and frenet_frames hands out the cached tangents and normals
        again = (c.chords, c.chord_lengths, *c.segments, c.kernel_block,
                 *c.kernel_moments)
        assert all(x is y for x, y in zip(cached, again))
        frames = frenet_frames(c)
        assert frames[0] is cached[3] and frames[1] is cached[4]
        assert ([x.tobytes() for x in frames]
                == [tang.tobytes(), normals.tobytes()])
        for x in (*cached, *frames):
            with pytest.raises(ValueError):
                x[0] = 0.0


class TestSignedArea:
    def test_square_ccw(self, unit_square):
        assert signed_area(unit_square) == pytest.approx(1.0)

    def test_flip_changes_sign(self, unit_square):
        flipped = PolyCurve(unit_square.nodes[::-1])
        assert signed_area(flipped) == pytest.approx(-1.0)


class TestNormalize:
    def test_big_square(self):
        c = PolyCurve([[0, 0], [10, 0], [10, 10], [0, 10]])
        out = normalize_to_unit_square(c)
        assert out.nodes.min() >= -1e-12
        assert out.nodes.max() <= 1 + 1e-12

    def test_aspect_preserved(self, rng):
        c = fourier_curve(rng, 33)
        c = PolyCurve(c.nodes * np.array([7.0, 7.0]) + np.array([4.0, -3.0]))
        out = normalize_to_unit_square(c)
        before = c.nodes.max(axis=0) - c.nodes.min(axis=0)
        after = out.nodes.max(axis=0) - out.nodes.min(axis=0)
        assert after[0] / after[1] == pytest.approx(before[0] / before[1],
                                                   rel=1e-12)
