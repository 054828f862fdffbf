"""bvgeo benchmark: run one workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload ellipse_n128 --seed 0 \
        --seconds 25 --trace 0

The load is a closed loop with one client: the next operation starts when
the previous one returns.  --trace 0 measures the end-to-end metrics with
only the light clock of tracing.Probe installed; --trace 1 splits the time
between such an untraced phase and a traced phase and prints the per-layer
metrics.  Every operation's outputs are checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every check passed, 1 when one failed
and 2 when the package sources are missing.  See README.md for the
workloads and metric definitions.
"""

from __future__ import annotations

import os

# One BLAS thread: CPU time then equals the work the code did, and the
# process starts no more threads than the host has cores.  Must be set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import ctypes.util
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import envinfo
import tracing
from checks import CheckFailed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# Operations are grouped into windows of at least this much CPU time; the
# percentiles are taken per window and averaged (see windows()).
WINDOW_S = 1.0

# End-to-end metrics and units, in BENCHMARK.json's order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "iter_ms.p50": "ms",
    "iter_ms.p90": "ms",
    "eval_ms.p50": "ms",
    "eval_ms.p90": "ms",
    "currents_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def fix_allocator() -> dict | None:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    By default glibc adapts both thresholds as blocks are freed, so whether
    a 1 MB numpy temporary reuses heap pages or is faulted in afresh
    (about 1000 minor faults per n = 256 matching call) depends on the
    process's allocation history.  That made identical runs bimodal by
    30%.  With fixed thresholds, temporaries up to 32 MB reuse heap pages.
    Returns the settings, or None where mallopt is unavailable.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    settings = {"M_MMAP_THRESHOLD": (-3, 32 << 20),
                "M_TRIM_THRESHOLD": (-1, 1 << 30)}
    if not all(mallopt(param, value) for param, value in settings.values()):
        return None
    return {name: value for name, (_, value) in settings.items()}


def load_package() -> SimpleNamespace:
    """Import bvgeo from this checkout's src/, never from anywhere else."""
    if not (SRC / "bvgeo" / "__init__.py").is_file():
        raise ImportError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bvgeo
    from bvgeo import (cli, curves, io, matching, metrics, optimize, paths,
                       svg)
    if Path(bvgeo.__file__).resolve().parent != (SRC / "bvgeo").resolve():
        raise ImportError(f"bvgeo imported from {bvgeo.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, curves=curves, io=io, matching=matching,
                           metrics=metrics, optimize=optimize, paths=paths,
                           svg=svg)


def import_seconds() -> float:
    """Median CPU time of `import bvgeo.cli` in a fresh interpreter."""
    code = ("import time; t = time.process_time(); import bvgeo.cli; "
            "print(time.process_time() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.strip()))
    return float(np.median(times))


def setup_seconds(cls, m, seed, work: Path, tiny: bool, repeats: int):
    """Median CPU time from nothing to the first objective call: input
    generation and writing, loading, resampling, alignment and init.
    Returns (seconds, the last prepared workload)."""
    times = []
    for r in range(repeats):
        wl = cls(m, seed, _fresh_dir(work / f"setup{r}"), tiny)
        patches = tracing.stop_at_first_objective(m)
        t0 = tracing.clock()
        try:
            wl.prepare()
            wl.op(0)
        except tracing.StopAtFirstEval:
            pass
        finally:
            patches.restore()
        times.append(tracing.clock() - t0)
    return float(np.median(times)), wl


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Phase:
    """Closed-loop operations for a fixed time under one hook.

    Under a Probe, each checked operation's samples are kept apart:
    iter_s[i] and eval_s[i] belong to the operation that took op_s[i].
    """

    def __init__(self, wl, m, seconds: float, hook):
        self.op_s, self.outcomes, self.failures = [], [], []
        self.iter_s, self.eval_s = [], []
        self.attempted = 0
        probe = hook if isinstance(hook, tracing.Probe) else None
        op = wl.op
        if isinstance(hook, tracing.Tracer):
            op = hook.span("bench.op", op)
        self.wall_s = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        deadline = time.perf_counter() + seconds
        while True:
            patches = hook.install(m)
            if probe is not None:
                probe.take()
            w0, t0 = time.perf_counter(), tracing.clock()
            error = None
            try:
                result = op(self.attempted)
            except Exception:   # a crash is a failed operation; keep going
                error = traceback.format_exc()
            finally:
                elapsed = tracing.clock() - t0
                wall = time.perf_counter() - w0
                patches.restore()
            self.attempted += 1
            if error is None:
                try:
                    outcome = wl.check(result)
                    self.outcomes.append(outcome)
                    self.op_s.append(elapsed)
                    self.wall_s.append(wall)
                    if probe is not None:
                        it, ev = wl.samples(*probe.take(), outcome)
                        self.iter_s.append(it)
                        self.eval_s.append(ev)
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
            if error is not None:
                self.failures.append(error)
                print(f"operation {self.attempted - 1} failed: {error}",
                      file=sys.stderr)
            if time.perf_counter() >= deadline:
                break
        self.faults_per_op = (resource.getrusage(
            resource.RUSAGE_SELF).ru_minflt - faults) / self.attempted

    def run_s(self) -> float:
        """Mean time of one operation.  A mean, not a median: the host
        switches between a fast and a slow state every few seconds, and a
        median over the two states jumps between them from run to run."""
        return float(np.mean(self.op_s)) if self.op_s else 0.0


def windows(op_s) -> list[list[int]]:
    """Consecutive operation indices grouped into windows of at least
    WINDOW_S of CPU time (the last window may be shorter).

    Within a window the host's speed is about constant, so a percentile
    taken per window and averaged over windows moves in proportion to the
    host's mean speed over the run.  A percentile of all samples at once
    would jump between the host's fast and slow states instead.
    """
    groups, current, total = [], [], 0.0
    for i, seconds in enumerate(op_s):
        current.append(i)
        total += seconds
        if total >= WINDOW_S:
            groups.append(current)
            current, total = [], 0.0
    if current:
        groups.append(current)
    return groups


def windowed_percentile(per_op, groups, q) -> float:
    """Mean over windows of each window's q-th percentile, in ms; each
    window is weighted by its number of operations."""
    values, weights = [], []
    for group in groups:
        samples = [s for i in group for s in per_op[i]]
        if samples:
            values.append(np.percentile(samples, q))
            weights.append(len(group))
    return float(np.average(values, weights=weights)) * 1e3 if values \
        else 0.0


def end_to_end(phase: Phase, setup_s: float):
    groups = windows(phase.op_s)
    ratios = [o.currents_ratio for o in phase.outcomes]
    metrics = {
        "setup_s": setup_s,
        "run_s": phase.run_s(),
        "iter_ms.p50": windowed_percentile(phase.iter_s, groups, 50),
        "iter_ms.p90": windowed_percentile(phase.iter_s, groups, 90),
        "eval_ms.p50": windowed_percentile(phase.eval_s, groups, 50),
        "eval_ms.p90": windowed_percentile(phase.eval_s, groups, 90),
        "currents_ratio": float(np.median(ratios)) if ratios else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"run_s": len(phase.op_s),
               "iter_ms": sum(map(len, phase.iter_s)),
               "eval_ms": sum(map(len, phase.eval_s)),
               "currents_ratio": len(ratios), "setup_s": SETUP_REPEATS}
    return metrics, samples, len(groups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids and budgets (self-test smoke runs)")
    args = parser.parse_args(argv)

    try:
        m = load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = _fresh_dir(WORK / f"{tag}-{os.getpid()}")
    cls = WORKLOADS[args.workload]
    env = envinfo.record(ROOT)
    env["malloc"] = fix_allocator()
    calib_start = envinfo.calibrate()
    try:
        if args.trace:
            setup_s, imp_s = 0.0, 0.0
            wl = cls(m, args.seed, _fresh_dir(work / "run"), args.tiny)
            wl.prepare()
        else:
            imp_s = import_seconds()
            setup_s, wl = setup_seconds(cls, m, args.seed, work, args.tiny,
                                        SETUP_REPEATS)
            setup_s += imp_s
        # a traced run splits its time between an untraced and a traced
        # phase, so every run lasts about --seconds
        phase_s = args.seconds / 2 if args.trace else args.seconds
        untraced = Phase(wl, m, phase_s, tracing.Probe())
        phases = [untraced]
        metrics, samples, n_windows = end_to_end(untraced, setup_s)
        units = dict(END_TO_END)
        if args.trace:
            tracer = tracing.Tracer()
            traced = Phase(wl, m, phase_s, tracer)
            phases.append(traced)
            metrics = tracing.layer_metrics(tracer, len(traced.op_s),
                                            untraced.run_s(), traced.run_s())
            units = dict(tracing.LAYER_UNITS)
            tracer.write(WORK / f"spans-{tag}.csv")
        observations = wl.observations()
        calib_end = envinfo.calibrate()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.failures) for p in phases)
    correct = failed == 0 and all(p.op_s for p in phases)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"env {json.dumps(env)}")
    print("calibration (fixed numpy loop; drift shows here, nothing is "
          "rescaled): " + "  ".join(
              f"{when}.{k} {v:.4f}" for when, c in (("start", calib_start),
                                                   ("end", calib_end))
              for k, v in c.items()))
    if not args.trace:
        print(f"import_s {imp_s:.4f} (median of {IMPORT_REPEATS})")
        print(f"percentiles: mean over {n_windows} windows of at least "
              f"{WINDOW_S:g} s CPU")
        for name, value in metrics.items():
            base = name.split(".")[0]
            print(f"  {name:<22} {value:>14.6g} {units[name]:<6} "
                  f"n={samples.get(base, 1)}")
    else:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    wall = [float(np.mean(p.wall_s)) if p.wall_s else 0.0 for p in phases]
    print(f"  wall-clock run_s {wall[0]:.4g} s against CPU "
          f"{phases[0].run_s():.4g} s (timings above are CPU time)")
    print(f"  minor page faults per operation "
          f"{phases[0].faults_per_op:.4g}")
    print(f"  fail_frac {failed / max(attempted, 1):.4g} "
          f"({failed} of {attempted} operations)")
    for key, value in observations.items():
        print(f"observation {key} {value:.6g}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  calibration={"start": calib_start, "end": calib_end},
                  wall_run_s=wall,
                  samples=samples, windows=n_windows,
                  observations=observations,
                  failures=[f.splitlines()[-1] for p in phases
                            for f in p.failures])
    (WORK / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
