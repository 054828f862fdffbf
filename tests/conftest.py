from functools import cached_property

import numpy as np
import pytest

from bvgeo import PolyCurve, TangentField, matching, optimize


def fourier_curve(rng, n, radius=0.3, wobble=0.08, modes=4, center=(0.5, 0.5)):
    """Random smooth closed curve: a circle with low-frequency radial noise.

    Sampled at n uniform parameters, so chords stay well away from zero and
    every output passes the discrete immersion test.
    """
    theta = 2 * np.pi * np.arange(n) / n
    r = np.full(n, radius)
    for k in range(1, modes + 1):
        amp = wobble / k
        r += amp * rng.uniform(-1, 1) * np.cos(k * theta) \
            + amp * rng.uniform(-1, 1) * np.sin(k * theta)
    nodes = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return PolyCurve(nodes + np.asarray(center))


def smooth_field(rng, n, scale=1.0, modes=4):
    """Random smooth tangent field with the same low-frequency construction."""
    theta = 2 * np.pi * np.arange(n) / n
    vals = np.zeros((n, 2))
    for k in range(modes + 1):
        for trig in (np.cos, np.sin):
            vals += rng.uniform(-1, 1, size=(1, 2)) * trig(k * theta)[:, None]
    return TangentField(scale * vals / (modes + 1))


def smooth_homotopy(rng, N, n, amp=0.05):
    """Random smooth homotopy: a Fourier curve deformed by smooth fields."""
    base = fourier_curve(rng, n)
    grid = np.empty((N, n, 2))
    disp = smooth_field(rng, n, scale=amp).coeffs
    disp2 = smooth_field(rng, n, scale=amp).coeffs
    for i in range(N):
        t = i / (N - 1)
        grid[i] = base.nodes + t * disp + t * (1 - t) * disp2
    return grid


# what a PolyCurve may hold besides its nodes: its cached geometry
_CACHED = {name for name, attr in vars(PolyCurve).items()
           if isinstance(attr, cached_property)}


def only_cached(curve):
    """Whether curve holds nothing but its nodes and cached properties."""
    return set(vars(curve)) <= _CACHED | {"nodes"}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def unit_square():
    return PolyCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def builds(monkeypatch):
    """Counts kernel-matrix builds."""
    calls = []
    build = matching._kernel_matrices

    def counted(*args):
        calls.append(None)
        return build(*args)

    monkeypatch.setattr(matching, "_kernel_matrices", counted)
    return calls


@pytest.fixture
def objective_calls(monkeypatch):
    """Counts ``optimize.objective`` calls."""
    calls = []
    objective = optimize.objective

    def counted(*args, **kwargs):
        calls.append(None)
        return objective(*args, **kwargs)

    monkeypatch.setattr(optimize, "objective", counted)
    return calls
