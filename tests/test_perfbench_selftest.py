"""perfbench's own tests, run as one test of the package's suite.

The benchmark keeps its tests out of the default collection (see
perfbench/tests/selftest_perfbench.py), so a change to a name the benchmark
uses could break them unseen.  This runs them on a copy of perfbench/, src/
and BENCHMARK.json, so that their work files stay out of the repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftests_pass(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests/selftest_perfbench.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
