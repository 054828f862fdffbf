"""The benchmark's own tests: each output check fails on a broken input,
the tracer's arithmetic is right, and every workload runs at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests/selftest_perfbench.py

The file name keeps it out of the package's default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bvgeo import (cli, curves, io, matching, metrics, optimize,  # noqa: E402
                   paths, svg)
from checks import CheckFailed  # noqa: E402

M = SimpleNamespace(cli=cli, curves=curves, io=io, matching=matching,
                    metrics=metrics, optimize=optimize, paths=paths, svg=svg)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def prepared(name, tmp_path, seed=1):
    wl = workloads.WORKLOADS[name](M, seed, tmp_path, tiny=True)
    wl.prepare()
    return wl


# --- single checks -------------------------------------------------------

def test_finite_rejects_nan():
    checks.finite("ok", [1.0, 2.0])
    with pytest.raises(CheckFailed):
        checks.finite("bad", [1.0, np.nan])


def test_monotone_stages_rejects_a_rise_within_a_stage():
    checks.monotone_stages([3.0, 2.0, 2.0, 5.0, 4.0], [2, 1])
    with pytest.raises(CheckFailed, match="stage 1"):
        checks.monotone_stages([3.0, 2.0, 2.0, 4.0, 4.5], [2, 1])


def test_monotone_stages_rejects_a_length_mismatch():
    with pytest.raises(CheckFailed):
        checks.monotone_stages([3.0, 2.0, 1.0], [3])


def test_immersed_rejects_a_degenerate_slice():
    ring = workloads.ellipse(0.3, 0.2, 12)
    grid = np.stack([ring, ring, ring])
    checks.immersed(paths.Homotopy(grid))
    grid[2, 5] = grid[2, 4]
    with pytest.raises(CheckFailed, match="slice 2"):
        checks.immersed(paths.Homotopy(grid))


def test_termination_allowed_set():
    checks.termination("max_iters")
    with pytest.raises(CheckFailed):
        checks.termination("line_search_failure")


def test_close_tolerance():
    checks.close("x", 1.0 + 1e-13, 1.0, 1e-12)
    with pytest.raises(CheckFailed):
        checks.close("x", 1.0 + 1e-11, 1.0, 1e-12)
    with pytest.raises(CheckFailed):
        checks.close("x", float("nan"), 1.0, 1e-12)


def test_stages_by_eps():
    assert checks.stages_by_eps([0.1, 0.1, 0.1, 0.01, 0.001, 0.001]) \
        == [2, 0, 1]


# --- workload checks on broken outputs ------------------------------------

def test_ellipse_check_rejects_a_non_monotone_trace(tmp_path):
    wl = prepared("ellipse_n128", tmp_path)
    rep = wl.op(0)
    wl.check(rep)
    rep.objective_trace[1] = rep.objective_trace[0] + 1.0
    with pytest.raises(CheckFailed, match="rises"):
        wl.check(rep)


def test_ellipse_check_rejects_a_wrong_reported_objective(tmp_path):
    wl = prepared("ellipse_n128", tmp_path)
    rep = wl.op(0)
    rep.objective_trace[-1] *= 1 - 1e-9
    with pytest.raises(CheckFailed, match="reported objective"):
        wl.check(rep)


def test_ellipse_check_rejects_a_seed0_reference_miss(tmp_path):
    wl = workloads.WORKLOADS["ellipse_n128"](M, 0, tmp_path, tiny=False)
    wl.prepare()
    wl.cfg = optimize.OptimConfig(max_iters=1)
    wl.kp = matching.KernelParams(sigma=0.4)   # consistent, but off
    with pytest.raises(CheckFailed, match="seed-0"):
        wl.check(wl.op(0))


def test_cli_check_rejects_a_failed_run(tmp_path):
    wl = prepared("cli_n256", tmp_path)
    wl.check(wl.op(0))
    with pytest.raises(CheckFailed, match="exit 2"):
        wl.check((2, "", "error: line search failed"))


def test_cli_check_rejects_a_non_immersed_saved_homotopy(tmp_path):
    wl = prepared("cli_n256", tmp_path)
    result = wl.op(0)
    path = wl.out.with_suffix(".homotopy.json")
    doc = json.loads(path.read_text())
    doc["slices"][-1][1] = doc["slices"][-1][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="immersion"):
        wl.check(result)


def test_fine_time_check_rejects_a_moved_endpoint(tmp_path):
    wl = prepared("fine_time_n64", tmp_path)
    reports, reparam, diag = wl.op(0)
    wl.check((reports, reparam, diag))
    moved = reparam.grid.copy()
    moved[-1] += 1e-3
    with pytest.raises(CheckFailed, match="endpoint"):
        wl.check((reports, paths.Homotopy(moved), diag))


def test_eval_check_rejects_a_wrong_energy_output(tmp_path):
    wl = prepared("eval_n256", tmp_path)
    outs, call_s = wl.op(0)
    wl.check((outs, call_s))
    code, out, err = outs[3]
    fields = workloads.parse_fields(out)
    fields["objective"] = repr(float(fields["objective"]) * (1 + 1e-9))
    outs[3] = (code, " ".join(f"{k} {v}" for k, v in fields.items()), err)
    with pytest.raises(CheckFailed, match="objective"):
        wl.check((outs, call_s))


# --- tracing --------------------------------------------------------------

def test_tracer_self_time_and_restore():
    tracer = tracing.Tracer()
    owner = SimpleNamespace()

    def leaf():
        sum(range(100_000))

    def outer():
        owner.leaf()
        owner.leaf()

    owner.leaf, owner.outer = leaf, outer
    patches = tracing.Patches()
    patches.replace(owner, "leaf", lambda fn: tracer.span("leaf", fn))
    patches.replace(owner, "outer", lambda fn: tracer.span("outer", fn))
    owner.outer()
    patches.restore()
    assert owner.leaf is leaf and owner.outer is outer
    names, start, end, parent, self_s = tracer.arrays()
    assert list(names) == ["outer", "leaf", "leaf"]
    assert list(parent) == [-1, 0, 0]
    dur = end - start
    assert self_s[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert self_s[1] == pytest.approx(dur[1])


def test_probe_counts_one_interval_per_accepted_iteration(tmp_path):
    wl = prepared("ellipse_n128", tmp_path)
    probe = tracing.Probe()
    patches = probe.install(M)
    try:
        rep = wl.op(0)
    finally:
        patches.restore()
    assert len(probe.iteration_s) == sum(rep.iters_per_stage)
    assert optimize.objective.__name__ == "objective"


# --- statistics -------------------------------------------------------------

def test_windows_group_operations_by_cpu_time():
    assert run.windows([0.4, 0.4, 0.4, 1.5, 0.2]) == [[0, 1, 2], [3], [4]]
    assert run.windows([]) == []


def test_windowed_percentile_averages_a_fast_and_a_slow_window():
    # 2 fast operations, then 1 slow one; one operation per window
    per_op = [[1e-3] * 4, [1e-3] * 4, [3e-3] * 4]
    groups = [[0], [1], [2]]
    assert run.windowed_percentile(per_op, groups, 50) \
        == pytest.approx(5 / 3)
    # a window's weight is its number of operations
    assert run.windowed_percentile(per_op, [[0, 1], [2]], 50) \
        == pytest.approx(5 / 3)
    assert run.windowed_percentile([[], []], [[0], [1]], 50) == 0.0


# --- whole runs -------------------------------------------------------------

def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    out = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds",
                    "0.3", "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) \
        == sorted(workloads.WORKLOADS)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "cli_n256", "--seed", "0",
                    "--seconds", "1")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
