"""Deterministic SVG rendering of homotopies.

One closed polyline per time slice, colored by linear interpolation from
blue (first slice) to red (last slice); the source curve is overlaid in
black and the optional target as a dashed outline.
"""

from __future__ import annotations

import numpy as np

from .curves import PolyCurve
from .paths import Homotopy


# canvas side in pixels; blank border per side, as a share of the extent
SIZE, MARGIN = 512, 0.05


def _slice_color(i: int, N: int) -> str:
    t = i / (N - 1)
    r = round(255 * t)
    b = round(255 * (1.0 - t))
    return f"#{r:02x}00{b:02x}"


def _polyline(nodes: np.ndarray, scale: float, offset: np.ndarray,
              height: float, style: str) -> str:
    pts = (nodes - offset) * scale
    # SVG y axis points down
    np.subtract(height, pts[:, 1], out=pts[:, 1])
    # one format over Python floats, which print as np.float64 does
    coords = " ".join(["%.3f,%.3f"] * len(pts)) % tuple(pts.ravel().tolist())
    return f'  <polygon points="{coords}" fill="none" {style}/>'


def render_svg(h: Homotopy, target: PolyCurve | None = None) -> str:
    """Render a homotopy (and optional target overlay) to an SVG document."""
    stacks = [h.grid.reshape(-1, 2)]
    if target is not None:
        stacks.append(target.nodes)
    allpts = np.vstack(stacks)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(np.max(hi - lo))
    if span <= 0.0:
        span = 1.0
    pad = MARGIN * span
    scale = SIZE / (span + 2 * pad)
    offset = lo - pad
    height = float(SIZE)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
    ]
    for i in range(h.N):
        style = f'stroke="{_slice_color(i, h.N)}" stroke-width="1"'
        lines.append(_polyline(h.grid[i], scale, offset, height, style))
    # source on top in black, target dashed
    lines.append(_polyline(h.grid[0], scale, offset, height,
                           'stroke="#000000" stroke-width="1.5"'))
    if target is not None:
        lines.append(_polyline(
            target.nodes, scale, offset, height,
            'stroke="#000000" stroke-width="1.5" stroke-dasharray="6,4"'))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
