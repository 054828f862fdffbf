"""Environment record and host-speed calibration attached to every result."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a
    repository (the benchmark checkout is not one)."""
    head = _read(str(root / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(root / ".git" / ref))
        if not sha:
            for line in _read(str(root / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or None
    return head or None


def source_digest(src: Path) -> str:
    """sha256 over the package's .py files, so a result names the code it
    measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def cache_sizes() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        if level and size:
            out[f"L{level}{suffix}"] = size
    return out


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def thread_count() -> int | None:
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def record(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache": cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def calibrate(repeats: int = 5) -> dict[str, float]:
    """Median CPU and wall ms of a fixed numpy loop shaped like the kernel
    evaluation (exp of a 64k-element array plus a reduction).  Reported
    beside the metrics so host-speed drift shows; never used to rescale
    them."""
    x = np.linspace(-3.0, 3.0, 1 << 16)
    buf = np.empty_like(x)   # no allocation inside the loop: the
    cpu, wall = [], []       # allocator's state must not show up here
    for _ in range(repeats):
        c0, w0 = time.process_time(), time.perf_counter()
        for _ in range(20):
            np.multiply(x, x, out=buf)
            np.negative(buf, out=buf)
            np.exp(buf, out=buf)
            float(np.dot(buf, x))
        cpu.append((time.process_time() - c0) * 1e3)
        wall.append((time.perf_counter() - w0) * 1e3)
    return {"cpu_ms": float(np.median(cpu)), "wall_ms": float(np.median(wall))}
