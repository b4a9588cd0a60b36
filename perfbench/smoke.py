#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload untraced and traced with ``--smoke`` and checks that the
run exits 0 and ends with one JSON line holding exactly ``correct``,
``attempted``, ``failed`` and ``metrics``; that no operation failed and
every check passed; and that the run prints exactly the metrics
BENCHMARK.json names (its end-to-end metrics untraced, its per-layer
metrics traced), each with the unit given there. Exits 1 on the first
problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run_benchmark(workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{label} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            attempted, failed = result["attempted"], result["failed"]
            if not (type(attempted) is int and type(failed) is int
                    and attempted >= 1 and failed == 0 and result["correct"]):
                fail(f"{label}: correct {result['correct']}, "
                     f"attempted {attempted!r}, failed {failed!r}\n{proc.stdout}")
            for name, metric in result["metrics"].items():
                if name not in expected[trace]:
                    fail(f"{label}: {name} is not among BENCHMARK.json's "
                         f"{'per_layer' if trace else 'end_to_end'} metrics")
                if metric != {"value": metric["value"], "unit": units[name]}:
                    fail(f"{label}: {name} printed as {metric}")
            missing = expected[trace] - set(result["metrics"])
            if missing:
                fail(f"{label}: did not print {sorted(missing)}")
            print(f"ok   {label}: attempted {attempted}, "
                  f"{len(result['metrics'])} metrics")

    return 0


if __name__ == "__main__":
    sys.exit(main())
