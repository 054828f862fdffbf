"""Closed piecewise-affine planar curves and their geometric primitives.

A curve is stored as an ordered list of n nodes; indexing is cyclic
(node n == node 0) and the curve is always closed.  Segment i joins node i
to node i+1.  On segment i the derivative of the piecewise-affine
interpolant is the constant n * chord_i, so chord lengths carry all the
metric information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# immersion threshold on segment speeds, relative to the curve's length
MIN_SPEED_REL = 1e-8


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


def smoothed_norm(x: np.ndarray, eps: float) -> np.ndarray:
    """sqrt(|x|^2 + eps^2), the smooth surrogate of the Euclidean norm.

    Works on a single vector or on an array of vectors (norm over the last
    axis).  For eps > 0 the result is smooth in x and bounded below by eps.
    """
    x = np.asarray(x, dtype=float)
    sq = np.sum(x * x, axis=-1)
    return np.sqrt(sq + eps * eps)


def _as_nodes(nodes) -> np.ndarray:
    arr = np.asarray(nodes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CurveError(f"nodes must have shape (n, 2), got {arr.shape}")
    if arr.shape[0] < 3:
        raise CurveError(f"need at least 3 nodes, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise CurveError("nodes contain non-finite coordinates")
    return arr


@dataclass(frozen=True)
class PolyCurve:
    """Closed piecewise-affine curve with n >= 3 nodes in the plane."""

    nodes: np.ndarray

    def __post_init__(self):
        arr = _as_nodes(self.nodes)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def chords(self) -> np.ndarray:
        """Forward differences: chords[i] = nodes[i+1] - nodes[i] (cyclic)."""
        return np.roll(self.nodes, -1, axis=0) - self.nodes

    @property
    def chord_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.chords, axis=1)

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


@dataclass(frozen=True)
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


def validate_immersion(curve: PolyCurve, min_speed: float | None = None):
    """Discrete immersion test: min segment speed must exceed min_speed.

    Returns (ok, offending_index); offending_index is None when ok, else the
    first segment whose speed n*|chord| is <= min_speed.  The default
    threshold is MIN_SPEED_REL * length(curve).
    """
    if min_speed is None:
        min_speed = MIN_SPEED_REL * length(curve)
    speeds = curve.speeds
    bad = np.nonzero(speeds <= min_speed)[0]
    if bad.size:
        return False, int(bad[0])
    return True, None


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
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    return float(0.5 * np.sum(x * yn - xn * y))


def frenet_frames(curve: PolyCurve):
    """Per-segment unit tangents and normals.

    tangent_i = chord_i / |chord_i|, normal_i = rot90(tangent_i).
    Raises DegenerateSegmentError on a zero-length chord.
    """
    chords = curve.chords
    lens = np.linalg.norm(chords, axis=1)
    zero = np.nonzero(lens == 0.0)[0]
    if zero.size:
        raise DegenerateSegmentError(int(zero[0]))
    tangents = chords / lens[:, None]
    return tangents, rot90(tangents)


def _point_at_arclength(curve: PolyCurve, cum: np.ndarray,
                        s: np.ndarray) -> np.ndarray:
    """Points of the polyline at the given cumulative-arclength positions."""
    seg = curve.chord_lengths
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, curve.n - 1)
    local = s - cum[idx]
    safe = np.where(seg[idx] > 0.0, seg[idx], 1.0)
    frac = np.where(seg[idx] > 0.0, local / safe, 0.0)
    return curve.nodes[idx] + frac[:, None] * curve.chords[idx]


def constant_speed_resample(curve: PolyCurve, m: int,
                            rel_tol: float = 1e-10,
                            max_passes: int = 200) -> PolyCurve:
    """Retrace the curve with m nodes whose chords all have equal length.

    Both the cumulative arclength of a polyline and each correction pass
    are piecewise linear, so every inversion is exact per-segment (no root
    finding).  Starting from equal-arclength spacing, passes redistribute
    the sample positions along the original polyline until the chord
    lengths agree to rel_tol; on a curve whose chords are already equal the
    first pass is the identity, which makes the operation idempotent.  New
    nodes always lie on the original polyline; the first node is kept as
    the basepoint.
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
    for _ in range(max_passes):
        chords = np.linalg.norm(np.roll(nodes, -1, axis=0) - nodes, axis=1)
        cmin = float(np.min(chords))
        cmax = float(np.max(chords))
        if cmin > 0.0 and cmax / cmin <= 1.0 + rel_tol:
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
