"""Closed piecewise-affine planar curves and their geometric primitives.

A curve is stored as an ordered list of n nodes; indexing is cyclic
(node n == node 0) and the curve is always closed.  Segment i joins node i
to node i+1.  On segment i the derivative of the piecewise-affine
interpolant is the constant n * chord_i, so chord lengths carry all the
metric information.

Everything a curve's geometry determines (chords, lengths, the segments'
midpoints, unit tangents and normals, and the blocks the matching term
multiplies kernel matrices by) is a cached property of the immutable
``PolyCurve``, computed on first use and then shared by every caller.  The
cached arrays are read-only, and every access (also through
``frenet_frames``) returns the same objects: copy one before writing to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# immersion threshold on segment speeds, relative to the curve's length
MIN_SPEED_REL = 1e-8


def converted(kind, x):
    """kind(x) (float or operator.index), or NaN where x has no such value,
    as an int beyond the float range: then every range check refuses it."""
    try:
        return kind(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


class CurveError(ValueError):
    """Invalid curve data (bad shape, too few nodes, non-finite entries)."""


class DegenerateSegmentError(CurveError):
    """A zero-length chord where a positive speed is required."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"degenerate segment at index {index}")


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate plane vectors by +90 degrees: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> over the last, length-2 axis: np.sum's (0 + x0 y0) + x1 y1,
    bit for bit, without the per-call cost of a reduction over that axis.
    A square x0 x0 is never -0.0, so for y is x the 0 + is left out."""
    out = x[..., 0] * y[..., 0]
    if y is not x:
        out += 0.0
    out += x[..., 1] * y[..., 1]
    return out


def inner_cm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``inner`` for coordinate-major arrays, whose leading axis is the
    length-2 one: the same bits, each product running over a whole block
    of one coordinate.  For y is x both squares are one product."""
    if y is x:
        sq = np.square(x)
        out = sq[0]
        out += sq[1]
        return out
    out = x[0] * y[0]
    out += 0.0
    out += x[1] * y[1]
    return out


def cyclic_shift(x: np.ndarray, shift: int, axis: int) -> np.ndarray:
    """np.roll(x, shift, axis) as one concatenation of two slices, in at
    most half of np.roll's time on the arrays of the evaluation path."""
    k = -shift % x.shape[axis]
    if axis == -1:
        # the node axis of the kernels: an Ellipsis costs less per call
        # than a tuple of slice(None) for the leading axes
        return np.concatenate((x[..., k:], x[..., :k]), axis=-1)
    lead = (slice(None),) * (axis % x.ndim)
    return np.concatenate((x[lead + (slice(k, None),)],
                           x[lead + (slice(None, k),)]), axis=axis)


def smoothed_norm(x: np.ndarray, eps: float) -> np.ndarray:
    """sqrt(|x|^2 + eps^2), the smooth surrogate of the Euclidean norm.

    Works on a single vector or on an array of vectors (norm over the last
    axis).  For eps > 0 the result is smooth in x and bounded below by eps.
    """
    x = np.asarray(x, dtype=float)
    return np.sqrt(inner(x, x) + eps * eps)


def _frozen(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _as_nodes(nodes) -> np.ndarray:
    arr = np.asarray(nodes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CurveError(f"nodes must have shape (n, 2), got {arr.shape}")
    if arr.shape[0] < 3:
        raise CurveError(f"need at least 3 nodes, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise CurveError("nodes contain non-finite coordinates")
    return arr


@dataclass(frozen=True, eq=False)
class PolyCurve:
    """Closed piecewise-affine curve with n >= 3 nodes in the plane.

    Equality and hashing are by identity: the cached geometry belongs to
    one object, and comparing node arrays elementwise has no truth value.
    """

    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes",
                           _frozen(_as_nodes(self.nodes).copy()))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def _chord_data(self):
        """(following nodes, chords, chord lengths); one shift serves all."""
        following = cyclic_shift(self.nodes, -1, 0)
        chords = _frozen(following - self.nodes)
        return following, chords, _frozen(np.sqrt(inner(chords, chords)))

    @property
    def chords(self) -> np.ndarray:
        """Forward differences: chords[i] = nodes[i+1] - nodes[i] (cyclic).
        Cached, shared and read-only, as is ``chord_lengths``."""
        return self._chord_data[1]

    @property
    def chord_lengths(self) -> np.ndarray:
        return self._chord_data[2]

    @cached_property
    def segments(self):
        """(midpoints, unit tangents, unit normals, lengths) of the segments.

        Raises DegenerateSegmentError on a zero-length chord, on every
        access: a raising property caches nothing.
        """
        following, chords, lens = self._chord_data
        if not lens.all():
            raise DegenerateSegmentError(int(np.argmin(lens != 0.0)))
        tangents = _frozen(chords / lens[:, None])
        return (_frozen(0.5 * (self.nodes + following)), tangents,
                _frozen(rot90(tangents)), lens)

    # The matching term's target-side blocks, cached here and built (and
    # laid out) by ``matching``, the one module that reads them.
    @cached_property
    def kernel_block(self) -> np.ndarray:
        """``matching.target_block`` of this curve, read-only."""
        from .matching import target_block
        return _frozen(target_block(self))

    @cached_property
    def kernel_moments(self):
        """``matching.target_moments`` of this curve, read-only."""
        from .matching import target_moments
        return tuple(_frozen(x) for x in target_moments(self))

    @property
    def speeds(self) -> np.ndarray:
        """Per-segment speed of the interpolant, n * |chord_i|."""
        return self.n * self.chord_lengths

    def translated(self, u) -> "PolyCurve":
        return PolyCurve(self.nodes + np.asarray(u, dtype=float))

    def transformed(self, rot: np.ndarray, shift=(0.0, 0.0)) -> "PolyCurve":
        """Apply a linear map (2x2 matrix) followed by a translation."""
        return PolyCurve(self.nodes @ np.asarray(rot, dtype=float).T
                         + np.asarray(shift, dtype=float))


@dataclass(frozen=True, eq=False)
class TangentField:
    """Piecewise-affine plane vector field on a curve's node grid.

    coeffs[j] is the value at node j; between nodes the field interpolates
    linearly, matching the hat-function basis of the host curve.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise CurveError(f"coeffs must have shape (n, 2), got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


def check_sizes(curve: PolyCurve, field: TangentField) -> None:
    if curve.n != field.n:
        raise CurveError(
            f"field size {field.n} does not match curve size {curve.n}")


def first_slow_segment(lengths: np.ndarray):
    """Discrete immersion test of S stacked curves, given their (S, n)
    chord lengths: the first (curve, segment) whose speed n*|chord| is at
    most MIN_SPEED_REL times that curve's length, or None."""
    min_speed = MIN_SPEED_REL * np.add.reduce(lengths, axis=1)
    n = lengths.shape[1]
    # rounding is monotone, so no chord is slow where the stack's shortest
    # outruns the largest threshold; only a stack that fails this (two
    # whole-stack reductions) compares every chord with its own
    if n * np.minimum.reduce(lengths, axis=None) > np.maximum.reduce(
            min_speed):
        return None
    slow = n * lengths <= min_speed[:, None]
    if not slow.any():
        return None
    return divmod(int(np.flatnonzero(slow)[0]), n)


def validate_immersion(curve: PolyCurve):
    """Discrete immersion test of one curve (see ``first_slow_segment``):
    (ok, offending_index), with offending_index None when ok."""
    bad = first_slow_segment(curve.chord_lengths[None])
    return (True, None) if bad is None else (False, bad[1])


def length(curve: PolyCurve) -> float:
    """Total length, exact for piecewise-affine curves: sum of chord lengths."""
    return float(np.sum(curve.chord_lengths))


def signed_area(curve: PolyCurve) -> float:
    """Shoelace signed area; positive for counterclockwise simple curves.

    Orientation is never normalized automatically; callers compare signs to
    detect orientation mismatch between two curves.
    """
    x = curve.nodes[:, 0]
    y = curve.nodes[:, 1]
    xn = cyclic_shift(x, -1, 0)
    yn = cyclic_shift(y, -1, 0)
    return float(0.5 * np.sum(x * yn - xn * y))


def frenet_frames(curve: PolyCurve):
    """Per-segment unit tangents and normals.

    tangent_i = chord_i / |chord_i|, normal_i = rot90(tangent_i).
    Raises DegenerateSegmentError on a zero-length chord.  The arrays are
    the curve's cached ``segments`` entries: shared and read-only.
    """
    _, tangents, normals, _ = curve.segments
    return tangents, normals


def _point_at_arclength(curve: PolyCurve, cum: np.ndarray,
                        s: np.ndarray) -> np.ndarray:
    """Points of the polyline at the given cumulative-arclength positions."""
    seg = curve.chord_lengths
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, curve.n - 1)
    local = s - cum[idx]
    safe = np.where(seg[idx] > 0.0, seg[idx], 1.0)
    frac = np.where(seg[idx] > 0.0, local / safe, 0.0)
    return curve.nodes[idx] + frac[:, None] * curve.chords[idx]


# constant_speed_resample's relative chord-length tolerance and pass limit
RESAMPLE_REL_TOL, RESAMPLE_MAX_PASSES = 1e-10, 200


def constant_speed_resample(curve: PolyCurve, m: int) -> PolyCurve:
    """Retrace the curve with m nodes whose chords all have equal length.

    Both the cumulative arclength of a polyline and each correction pass
    are piecewise linear, so every inversion is exact per-segment (no root
    finding).  Starting from equal-arclength spacing, passes redistribute
    the sample positions along the original polyline until the chord
    lengths agree to RESAMPLE_REL_TOL; on a curve whose chords are already
    equal the first pass is the identity, which makes the operation
    idempotent.  New nodes always lie on the original polyline; the first
    node is kept as the basepoint.
    """
    if m < 3:
        raise CurveError(f"need at least 3 output nodes, got {m}")
    seg = curve.chord_lengths
    total = float(np.sum(seg))
    if total <= 0.0:
        raise DegenerateSegmentError(0, "curve has zero total length")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    # equal-arclength initialization
    s = total * np.arange(m) / m
    nodes = _point_at_arclength(curve, cum, s)
    for _ in range(RESAMPLE_MAX_PASSES):
        diff = cyclic_shift(nodes, -1, 0) - nodes
        chords = np.sqrt(inner(diff, diff))
        cmin = float(np.min(chords))
        cmax = float(np.max(chords))
        if cmin > 0.0 and cmax / cmin <= 1.0 + RESAMPLE_REL_TOL:
            break
        # re-space the arclength positions against the chord profile
        prof = np.concatenate([[0.0], np.cumsum(chords)])
        targets = prof[-1] * np.arange(m) / m
        s = np.interp(targets, prof, np.concatenate([s, [total]]))
        s[0] = 0.0
        nodes = _point_at_arclength(curve, cum, s)
    return PolyCurve(nodes)


def normalize_to_unit_square(curve: PolyCurve) -> PolyCurve:
    """Uniformly scale + translate the node set into [0, 1]^2.

    A single scale is used for both axes, so the aspect ratio is preserved;
    the shape is centered along its slack dimension.
    """
    lo = curve.nodes.min(axis=0)
    hi = curve.nodes.max(axis=0)
    span = float(np.max(hi - lo))
    if span <= 0.0:
        raise CurveError("degenerate bounding box")
    scaled = (curve.nodes - lo) / span
    extent = scaled.max(axis=0)
    return PolyCurve(scaled + (1.0 - extent) / 2.0)
