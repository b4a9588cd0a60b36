#!/usr/bin/env python3
"""synsum benchmark: one workload per process.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 30 --trace 0

Runs from the root of a synsum checkout and imports the package from its
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. A fuller record (revision, numpy version, core count, every
sample, every check) goes to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "decode_beam1_docs_per_s": "docs/s",
    "decode_beam4_docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
    "checkpoint_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("toy", "v20k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for perfbench/smoke.py")
    return parser.parse_args(argv)


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "synsum").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    sizes = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        run = workloads.Run(seconds=args.seconds, workdir=Path(workdir),
                            tracer=tracer)
        if tracer is not None:
            tracer.install()
        try:
            workloads.WORKLOADS[args.workload](run, args.seed, sizes)
        finally:
            if tracer is not None:
                tracer.uninstall()
    run.metrics["peak_rss_mb"] = workloads.peak_rss_mb()

    if tracer is None:
        # a round that failed leaves its rate unmeasured; the run then
        # fails here rather than print a result without it
        metrics = {
            name: {"value": run.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        layers = {}
    else:
        samples, counts = tracing.layer_samples(tracer)
        layers = {name: tracing.summarize(values)
                  for name, values in samples.items()}
        metrics = {}
        for name, summary in sorted(layers.items()):
            unit = tracing.unit_of(name)
            metrics[name] = {"value": summary["median"], "unit": unit}
        for name, value in sorted({**counts, **run.layer_counts}.items()):
            unit = "steps/doc" if name == "decoder.steps" else "nodes"
            metrics[name] = {"value": value, "unit": unit}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "checks": run.checks,
        "counts": run.counts,
        "samples": run.samples,
        "layers": layers,
    }
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record["result"] = result
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(tracer.to_json()) + "\n")

    for name, ok in run.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, summary in sorted(layers.items()):
        print(f"layer {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in summary.items()))
    print(json.dumps({k: record[k] for k in ("git_revision", "numpy", "nproc")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
