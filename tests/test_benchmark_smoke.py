"""The benchmark's own smoke test, run as part of the test suite, so that a
change to the public API the benchmark drives fails here first.

The smoke script writes its results and traces under ``perfbench/out/`` of
the tree it runs in, so it runs in a temporary copy of the package, the
benchmark scripts and BENCHMARK.json, and leaves the checkout alone."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_runs_clean(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy2(script, tmp_path / "perfbench")
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
