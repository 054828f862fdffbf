"""Timing hooks installed from outside the package.

bvgeo's modules use from-imports, so a call is intercepted by replacing the
name in the module that looks it up (``bvgeo.optimize.match_distance``, not
``bvgeo.matching.match_distance``).  ``Patches`` swaps names and restores
them; ``Probe`` is the light clock used by untraced runs; ``Tracer`` records
parent-linked spans in memory for the traced run.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

# CPU time of the process, not wall time: on a shared host whose vCPUs
# are preempted (steal time), wall time of a fixed numpy loop had an
# interquartile range of 5.45-9.88 ms against 5.34-6.12 ms of CPU time.
# run.py pins BLAS to one thread, so CPU time is the work the code did.
clock = time.process_time


class Patches:
    """Replaced attributes, restored in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StopAtFirstEval(Exception):
    """Raised by the set-up probe at the first objective call."""


def stop_at_first_objective(bvgeo_modules) -> Patches:
    """Make every objective() lookup raise StopAtFirstEval (set-up timing)."""
    def make(_original):
        def stop(*args, **kwargs):
            raise StopAtFirstEval
        return stop

    patches = Patches()
    patches.replace(bvgeo_modules.optimize, "objective", make)
    patches.replace(bvgeo_modules.cli, "objective", make)
    return patches


class Probe:
    """Light clock for untraced runs: objective() durations and the times
    at which gradient() returns, grouped by descent stage.

    An accepted descent iteration is line search plus one gradient, so the
    interval between two gradient returns within one stage is one
    iteration's wall time.
    """

    def __init__(self):
        self.objective_s: list[float] = []
        self.iteration_s: list[float] = []
        self._last_grad = None

    def take(self) -> tuple[list[float], list[float]]:
        """(objective_s, iteration_s) recorded since the last take."""
        taken = self.objective_s, self.iteration_s
        self.objective_s, self.iteration_s = [], []
        return taken

    def install(self, bvgeo_modules) -> Patches:
        opt, cli = bvgeo_modules.optimize, bvgeo_modules.cli
        patches = Patches()

        def timed_objective(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self.objective_s.append(clock() - t0)
                return out
            return wrapper

        def timed_gradient(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                now = clock()
                if self._last_grad is not None:
                    self.iteration_s.append(now - self._last_grad)
                self._last_grad = now
                return out
            return wrapper

        def stage(fn):
            def wrapper(*args, **kwargs):
                self._last_grad = None
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._last_grad = None
            return wrapper

        patches.replace(opt, "objective", timed_objective)
        patches.replace(cli, "objective", timed_objective)
        patches.replace(opt, "gradient", timed_gradient)
        patches.replace(opt, "descend", stage)
        return patches


class Tracer:
    """Parent-linked spans (name, start, end, parent index) kept in memory,
    plus counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, result) may
        update counters once the call returns."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def install(self, bvgeo_modules) -> Patches:
        """Wrap every layer boundary named in the benchmark's README."""
        m = bvgeo_modules
        patches = Patches()

        def add(owner, attr, name, after=None):
            patches.replace(owner, attr,
                            lambda fn: self.span(name, fn, after))

        def pairs(args, _out):
            self.count("matching.pairs", args[0].n * args[1].n)

        def reject(_args, out):
            if out is not None:
                self.count("paths.immersion_rejects")

        def iters(_args, report):
            self.count("optimize.iters", sum(report.iters_per_stage))

        def written(args, _out):
            self.count("io.bytes_written", Path(args[1]).stat().st_size)

        add(m.optimize, "match_distance", "matching.match_distance", pairs)
        add(m.optimize, "match_gradient", "matching.match_gradient", pairs)
        add(m.optimize, "bv2_norm_and_partials", "metrics.bv2_partials")
        add(m.optimize, "h2_sq_and_partials", "metrics.h2_partials")
        add(m.paths, "bv2_tangent_norm", "metrics.bv2_norm")
        add(m.paths, "h2_tangent_norm_sq", "metrics.h2_norm")
        add(m.paths.Homotopy, "validate_slices", "paths.validate_slices",
            reject)
        add(m.optimize, "Homotopy", "paths.homotopy_new")
        add(m.paths, "time_constant_speed_reparam", "paths.reparam")
        add(m.paths, "length_bound_check", "paths.length_bound")
        add(m.optimize, "objective", "optimize.objective")
        add(m.cli, "objective", "optimize.objective")
        add(m.optimize, "gradient", "optimize.gradient")
        add(m.optimize, "descend", "optimize.descend", iters)
        add(m.optimize, "continuation", "optimize.continuation")
        add(m.cli, "continuation", "optimize.continuation")
        add(m.cli, "align_start_node", "optimize.align_start_node")
        add(m.cli, "constant_speed_resample", "curves.resample")
        add(m.cli, "load_curve", "io.load_curve")
        add(m.cli, "load_homotopy", "io.load_homotopy")
        add(m.cli, "save_homotopy", "io.save_homotopy", written)
        add(m.cli, "render_svg", "svg.render")
        add(m.cli, "main", "cli.main")
        return patches

    def arrays(self):
        """Spans as numpy arrays: names, start, end, parent, self time."""
        names = np.array([s[0] for s in self.spans], dtype=object)
        start = np.array([s[1] for s in self.spans], dtype=float)
        end = np.array([s[2] for s in self.spans], dtype=float)
        parent = np.array([s[3] for s in self.spans], dtype=int)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return names, start, end, parent, dur - child

    def write(self, path: Path) -> None:
        """Write the spans as CSV: index, name, start, end, parent."""
        with path.open("w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent}\n")


# Per-layer metrics named in BENCHMARK.json, with units.  Counts and busy
# times are per operation (traced-phase totals over the number of
# operations); *_ms / *_us figures are medians per call.
LAYER_UNITS = {
    "matching.match_distance.calls": "1/op",
    "matching.match_distance.ms_p50": "ms",
    "matching.match_gradient.calls": "1/op",
    "matching.match_gradient.ms_p50": "ms",
    "matching.busy_s": "s/op",
    "matching.share": "fraction",
    "matching.pairs_per_s": "1/s",
    "metrics.bv2_partials.calls": "1/op",
    "metrics.bv2_partials.us_p50": "us",
    "metrics.bv2_partials.busy_s": "s/op",
    "metrics.h2_partials.calls": "1/op",
    "metrics.h2_partials.us_p50": "us",
    "metrics.h2_partials.busy_s": "s/op",
    "metrics.share": "fraction",
    "paths.validate_slices.calls": "1/op",
    "paths.validate_slices.ms_p50": "ms",
    "paths.immersion_rejects": "1/op",
    "paths.homotopy_new.calls": "1/op",
    "paths.homotopy_new.busy_s": "s/op",
    "paths.reparam_ms": "ms",
    "paths.length_bound_ms": "ms",
    "paths.share": "fraction",
    "optimize.iters": "1/op",
    "optimize.objective.calls": "1/op",
    "optimize.objective.ms_p50": "ms",
    "optimize.objective.self_s": "s/op",
    "optimize.gradient.calls": "1/op",
    "optimize.gradient.ms_p50": "ms",
    "optimize.gradient.self_s": "s/op",
    "optimize.descend.self_s": "s/op",
    "optimize.evals_per_iter": "1/iter",
    "optimize.accept_ratio": "fraction",
    "optimize.align_start_node_ms": "ms",
    "curves.resample_ms": "ms",
    "io.load_curve_ms": "ms",
    "io.load_homotopy_ms": "ms",
    "io.save_homotopy_ms": "ms",
    "io.bytes_written": "B/op",
    "svg.render_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead": "fraction",
}


def layer_metrics(tracer: Tracer, ops: int, run_s_untraced: float,
                  run_s_traced: float) -> dict[str, float]:
    """Aggregate the traced phase's spans into LAYER_UNITS' metrics.

    A layer's share is the self time of its spans (span minus child spans)
    over the time of the operations, so shares of all layers plus the
    benchmark's own remainder add up to one.
    """
    names, start, end, parent, self_s = tracer.arrays()
    dur = end - start
    ops = max(ops, 1)
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    wall = float(dur[names == "bench.op"].sum()) or 1.0

    def mask(name):
        return names == name

    def calls(name):
        return float(mask(name).sum()) / ops

    def p50(name, scale):
        d = dur[mask(name)]
        return float(np.median(d)) * scale if d.size else 0.0

    def busy(name):
        return float(dur[mask(name)].sum()) / ops

    def self_time(name):
        return float(self_s[mask(name)].sum()) / ops

    def share(prefix):
        return float(self_s[layer == prefix].sum()) / wall

    match_busy = float(dur[layer == "matching"].sum())
    counts = tracer.counts
    iters = counts.get("optimize.iters", 0.0)
    parents = names[np.where(parent >= 0, parent, 0)]
    candidates = float(np.sum(mask("paths.validate_slices")
                              & (parent >= 0)
                              & (parents == "optimize.descend")))
    out = {
        "matching.match_distance.calls": calls("matching.match_distance"),
        "matching.match_distance.ms_p50": p50("matching.match_distance", 1e3),
        "matching.match_gradient.calls": calls("matching.match_gradient"),
        "matching.match_gradient.ms_p50": p50("matching.match_gradient", 1e3),
        "matching.busy_s": match_busy / ops,
        "matching.share": share("matching"),
        "matching.pairs_per_s": (counts.get("matching.pairs", 0.0)
                                 / match_busy if match_busy else 0.0),
        "metrics.share": share("metrics"),
        "paths.validate_slices.calls": calls("paths.validate_slices"),
        "paths.validate_slices.ms_p50": p50("paths.validate_slices", 1e3),
        "paths.immersion_rejects":
            counts.get("paths.immersion_rejects", 0.0) / ops,
        "paths.homotopy_new.calls": calls("paths.homotopy_new"),
        "paths.homotopy_new.busy_s": busy("paths.homotopy_new"),
        "paths.reparam_ms": p50("paths.reparam", 1e3),
        "paths.length_bound_ms": p50("paths.length_bound", 1e3),
        "paths.share": share("paths"),
        "optimize.iters": iters / ops,
        "optimize.evals_per_iter": (calls("optimize.objective") * ops / iters
                                    if iters else 0.0),
        "optimize.accept_ratio": iters / candidates if candidates else 0.0,
        "optimize.descend.self_s": self_time("optimize.descend"),
        "optimize.align_start_node_ms": p50("optimize.align_start_node", 1e3),
        "curves.resample_ms": p50("curves.resample", 1e3),
        "io.load_curve_ms": p50("io.load_curve", 1e3),
        "io.load_homotopy_ms": p50("io.load_homotopy", 1e3),
        "io.save_homotopy_ms": p50("io.save_homotopy", 1e3),
        "io.bytes_written": counts.get("io.bytes_written", 0.0) / ops,
        "svg.render_ms": p50("svg.render", 1e3),
        "cli.self_ms": self_time("cli.main") * 1e3 / max(calls("cli.main"),
                                                        1.0),
        "trace.overhead": (run_s_traced / run_s_untraced - 1.0
                           if run_s_untraced else 0.0),
    }
    for kind in ("bv2", "h2"):
        name = f"metrics.{kind}_partials"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us_p50"] = p50(name, 1e6)
        out[f"{name}.busy_s"] = busy(name)
    for name in ("objective", "gradient"):
        span = f"optimize.{name}"
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.ms_p50"] = p50(span, 1e3)
        out[f"{span}.self_s"] = self_time(span)
    return {key: out[key] for key in LAYER_UNITS}
