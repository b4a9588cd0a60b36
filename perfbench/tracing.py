"""Spans around the benchmark's calls into synsum, and the per-layer metrics
derived from them.

A traced run replaces each public function listed in ``BINDINGS`` on the
module (or class) attribute its callers look up, so ``training.decode_step``
and ``decoder.decode_step`` are wrapped separately. Every wrapped call opens
a span with a name, start, end, parent and root; spans stay in memory and
are written to a side file when the run ends. A span's self time is its
duration minus the time its child spans cover. Durations are process CPU
time, the clock of the end-to-end metrics.

An untraced run installs none of these wrappers, and end-to-end numbers
come only from untraced runs.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from synsum import autodiff, cli, corpus, decoder, encoder, training

# span name -> the attributes that hold the function, one per caller
BINDINGS = {
    "encoder.bilstm": [(encoder, "bilstm")],
    "encoder.gcn_stack": [(encoder, "gcn_stack")],
    "gate.apply_gate": [(decoder, "apply_gate")],
    "decoder.encode_document": [(decoder, "encode_document"),
                                (training, "encode_document"),
                                (cli, "encode_document")],
    "decoder.decode_step": [(decoder, "decode_step"),
                            (training, "decode_step")],
    "training.sequence_loss": [(training, "sequence_loss")],
    "autodiff.Tape.backward": [(autodiff.Tape, "backward")],
    "training.clip_gradients": [(training, "clip_gradients")],
    "training.adagrad_step": [(training, "adagrad_step")],
    "training.load_checkpoint": [(training, "load_checkpoint"),
                                 (cli, "load_checkpoint")],
    "corpus.encode_example": [(corpus, "encode_example"),
                              (cli, "encode_example")],
}

# per-layer metric -> (span whose per-call duration it reports, unit)
TIMED_SPANS = {
    "encoder.bilstm_s": ("encoder.bilstm", "s/doc"),
    "encoder.gcn_s": ("encoder.gcn_stack", "s/doc"),
    "gate.apply_gate_s": ("gate.apply_gate", "s/doc"),
    "decoder.step_s": ("decoder.decode_step", "s/step"),
    "training.forward_s": ("training.sequence_loss", "s/example"),
    "autodiff.backward_s": ("autodiff.Tape.backward", "s/example"),
    "training.clip_s": ("training.clip_gradients", "s/batch"),
    "training.adagrad_s": ("training.adagrad_step", "s/batch"),
    "training.load_checkpoint_s": ("training.load_checkpoint", "s"),
    "corpus.encode_example_s": ("corpus.encode_example", "s/doc"),
}
DERIVED_UNITS = {
    "decoder.search_s": "s/doc",
    "cli.decode_overhead_s": "s/doc",
}

# roots whose spans feed the per-layer metrics: set-up and timed rounds,
# not the correctness checks that run after them
MEASURED_ROOTS = ("setup", "round.train", "round.decode.beam1",
                  "round.decode.beam4")
CLI_ROOTS = ("round.decode.beam1", "round.decode.beam4")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # [name, start, end, parent index or None, root index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = index if parent is None else self.spans[parent][4]
        self.spans.append([name, time.process_time(), None, parent, root])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        # open/close rather than span(): no generator per call on hot paths
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        for name, bindings in BINDINGS.items():
            for owner, attr in bindings:
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        search = cli.beam_search
        wrap = self.wrap

        def beam_search(step_fn, *args, **kwargs):
            return search(wrap("decoder.step_fn", step_fn), *args, **kwargs)

        self._patch(cli, "beam_search", wrap("decoder.beam_search", beam_search))

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[2] - s[1] - covered[i] for i, s in enumerate(self.spans)]

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "root": r}
                for n, s, e, p, r in self.spans
            ],
        }


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, count.

    With fewer than forty samples that percentile is no tail, so only the
    median is given.
    """
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 40:
        level = int(100 * (1 - 10 / len(samples)))
        out[f"p{level}"] = float(np.percentile(samples, level))
    return out


def layer_samples(tracer: Tracer) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Per-call samples of each timed per-layer metric, and exact counts.

    Only spans under a set-up or timed-round root count.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    measured = [spans[s[4]][0] in MEASURED_ROOTS for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if measured[i]:
            by_name[s[0]].append(i)

    samples: dict[str, list[float]] = {}
    for metric, (span, _) in TIMED_SPANS.items():
        if by_name[span]:
            samples[metric] = [spans[i][2] - spans[i][1] for i in by_name[span]]
    # search bookkeeping at beam 4, the width decode_beam4_docs_per_s times
    search = [self_t[i] for i in by_name["decoder.beam_search"]
              if spans[spans[i][4]][0] == "round.decode.beam4"]
    if search:
        samples["decoder.search_s"] = search

    # CLI decode time outside encode_document and beam_search, per document
    inside: dict[int, float] = defaultdict(float)
    docs: Counter = Counter()
    for i in by_name["decoder.encode_document"] + by_name["decoder.beam_search"]:
        name, start, end, _, root = spans[i]
        if spans[root][0] in CLI_ROOTS:
            inside[root] += end - start
            docs[root] += name == "decoder.encode_document"
    overhead = [
        (spans[r][2] - spans[r][1] - inside[r]) / docs[r]
        for r in sorted(inside) if docs[r]
    ]
    if overhead:
        samples["cli.decode_overhead_s"] = overhead

    counts: dict[str, float] = {}
    if by_name["decoder.encode_document"]:
        counts["decoder.steps"] = (
            len(by_name["decoder.decode_step"])
            / len(by_name["decoder.encode_document"])
        )
    return samples, counts


def unit_of(metric: str) -> str:
    if metric in TIMED_SPANS:
        return TIMED_SPANS[metric][1]
    return DERIVED_UNITS[metric]

