"""The benchmark's tracer still sees every layer it measures.

perfbench/tracing.py times calls by replacing names in bvgeo's modules, so
a refactor that stops calling through those names would zero its per-layer
metrics without failing anything.  These tests load the tracer by path, as
it is, and check its spans on a tiny run of each traced entry point.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bvgeo import cli, curves, io, matching, metrics, optimize, paths, svg
from bvgeo.metrics import MetricSpec
from bvgeo.optimize import OptimConfig, init_constant
from conftest import fourier_curve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = SimpleNamespace(cli=cli, curves=curves, io=io, matching=matching,
                          metrics=metrics, optimize=optimize, paths=paths,
                          svg=svg)
# the spans a descent must produce
LAYERS = ("matching.match_distance", "matching.match_gradient",
          "metrics.bv2_partials")


@pytest.fixture
def tracing(monkeypatch):
    # no bytecode cache: the test leaves nothing in perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names():
    """Every name of the traced modules and of Homotopy, with its value."""
    owners = list(vars(MODULES).values()) + [paths.Homotopy]
    return {(owner.__name__, key): value for owner in owners
            for key, value in vars(owner).items()}


def _counts(tracer):
    names = [span[0] for span in tracer.spans]
    return {layer: names.count(layer) for layer in LAYERS}


def test_spans_of_continuation_and_geodesic(tracing, rng, tmp_path):
    before = _names()
    tracer = tracing.Tracer()
    patches = tracer.install(MODULES)
    try:
        assert _names() != before
        src, tgt = fourier_curve(rng, 16), fourier_curve(rng, 16)
        MODULES.optimize.continuation(
            init_constant(src, 4), tgt, MetricSpec(eps=1e-2),
            matching.KernelParams(),
            OptimConfig(max_iters=2, eps_schedule=(1e-2,)))
        library = _counts(tracer)
        for name, curve in (("src", src), ("tgt", tgt)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"nodes": curve.nodes.tolist()}))
        config = tmp_path / "run.conf"
        config.write_text("max_iters = 2\neps_schedule = 1e-2\n")
        code = MODULES.cli.main(
            ["geodesic", "--source", str(tmp_path / "src.json"),
             "--target", str(tmp_path / "tgt.json"), "--grid", "3,24",
             "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 0
        total = _counts(tracer)
    finally:
        patches.restore()
    assert all(library[layer] > 0 for layer in LAYERS), library
    assert all(total[layer] > library[layer] for layer in LAYERS), total
    assert tracer.counts["matching.pairs"] > 0
    # restore() put every replaced name back
    assert _names().keys() == before.keys()
    assert all(value is before[key] for key, value in _names().items())
