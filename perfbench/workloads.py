"""The two benchmark workloads, their inputs and their correctness checks.

Both run the same pipeline, a user's path through synsum, at their own
shape: set up the corpus, train, save a checkpoint, decode it with
``synsum decode`` at beam 1 and beam 4. Every input comes from
``synthetic.generate_documents`` seeded by the run's ``--seed``. A workload
sets up its inputs several times, repeats whole training rounds for half
the run's seconds and whole decode rounds for the other half, sets up the
same number of times again (``setup_s`` is the median of both halves), then
checks the program's outputs outside the timed section. A failed check
marks its operations failed and the run incorrect.

Times are the process's CPU time (``time.process_time``): the program is
single-threaded and does not wait in the timed code, so on an idle machine
this is its wall time, while on a shared virtual machine it leaves out the
time the host gives to other guests (see README).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import math
import random
import resource
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from synsum import autodiff, cli, corpus, decoder, metrics, synthetic, training
from synsum.corpus import STOP_ID
from synsum.model import ModelConfig, ModelParams

# the A9 acceptance setting: harder grammar, widths, batch 4
HARD_GRAMMAR = dict(copy_place=True, distractor_every=1)
A9_WIDTHS = dict(d_emb=16, d_h=16, d_g=32, gcn_layers=2, d_dec=32, d_attn=32)

# v20k corpus: one generator call per disjoint word pool; see README
POOL = 40              # objects, adjectives, places per call; verbs get 2 * POOL
CALL_DOCS = 3 * POOL   # every template word is dealt exactly three times
JOIN = 5               # generated documents joined into one v20k document

FD_EPS = 1e-5          # A1's central-difference step and tolerance
FD_TOL = 1e-4
FD_TENSORS = ("embedding", "lstm_fw/W_x", "gcn/0/fwd", "gate/token_W",
              "dec/cell/W_h", "dec/out_W")

# op names on the tape of one full-model sequence_loss forward; any other
# op name is counted under autodiff.nodes.other
TAPE_OPS = (
    "add", "add_rowvec", "clip", "concat", "gather_rows", "log", "matmul",
    "maximum", "minimum", "mul", "outer", "pick", "relu", "reshape",
    "scatter_rows_sum", "scatter_sum_vec", "sigmoid", "slice_cols",
    "softmax", "sub", "sum_all", "tanh",
)


@dataclass(frozen=True)
class Sizes:
    train_docs: int     # training documents per round
    epochs: int         # epochs per round; one rate sample per epoch
    held_docs: int      # held-out documents, decoded by every CLI call
    calls: int          # v20k generator calls (vocabulary 5 * POOL * calls)
    max_dec_len: dict   # --max-dec-len per beam width
    setups: int         # set-ups before the rounds, and again after them
    min_val_f1: float | None  # toy: least held-out greedy ROUGE-1 F1


FULL = {
    "toy": Sizes(100, 12, 100, 0, {1: 8, 4: 8}, 20, 0.95),
    "v20k": Sizes(4, 1, 1, 100, {1: 12, 4: 4}, 3, None),
}
SMOKE = {
    "toy": Sizes(8, 1, 4, 0, {1: 4, 4: 4}, 2, 0.0),
    "v20k": Sizes(4, 1, 1, 2, {1: 4, 4: 4}, 2, None),
}


@dataclass
class Run:
    """What one run measured and checked."""

    seconds: float
    workdir: Path
    tracer: object = None
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)        # diagnostics
    layer_counts: dict[str, float] = field(default_factory=dict)  # tape nodes
    ops: Counter = field(default_factory=Counter)       # attempted, per group
    failed_ops: Counter = field(default_factory=Counter)
    failed_groups: set = field(default_factory=set)
    checks: dict[str, bool] = field(default_factory=dict)

    def span(self, name: str):
        """A root span in a traced run; nothing otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def check(self, name: str, ok: bool, *groups: str) -> None:
        self.checks[name] = bool(ok)
        if not ok:
            self.failed_groups.update(groups)

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())

    @property
    def failed(self) -> int:
        return sum(
            self.ops[g] if g in self.failed_groups else self.failed_ops[g]
            for g in self.ops
        )

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------------
# inputs


def toy_corpus(seed: int, size: int):
    """A9 corpus: the harder grammar and the 36-id template vocabulary."""
    grammar = synthetic.GrammarConfig(**HARD_GRAMMAR)
    docs = synthetic.generate_documents(seed, size, grammar)
    return docs, corpus.build_vocabulary(
        docs, cap=synthetic.default_vocab_cap(grammar))


def v20k_grammar(call: int) -> synthetic.GrammarConfig:
    """Disjoint word pools per call; entity syllables carry the call number,
    so entity names never repeat across calls."""
    syllables = [f"{s}{call}" for s in synthetic.GrammarConfig().syllables]
    return synthetic.GrammarConfig(
        verbs=[f"v{call}x{i}" for i in range(2 * POOL)],
        objects=[f"o{call}x{i}" for i in range(POOL)],
        adjectives=[f"a{call}x{i}" for i in range(POOL)],
        places=[f"p{call}x{i}" for i in range(POOL)],
        syllables=syllables,
        **HARD_GRAMMAR,
    )


def v20k_corpus(seed: int, calls: int):
    """Generated documents, the same joined JOIN at a time, and a vocabulary
    of 5 * POOL * calls ids that leaves every planted entity out."""
    rng = random.Random(seed)
    base: list[corpus.Document] = []
    for call in range(calls):
        base += synthetic.generate_documents(rng.randrange(2**32), CALL_DOCS,
                                             v20k_grammar(call))
    docs = [
        corpus.Document(
            sentences=[s for d in base[i:i + JOIN] for s in d.sentences],
            reference=[t for d in base[i:i + JOIN] for t in d.reference],
        )
        for i in range(0, len(base), JOIN)
    ]
    vocab = corpus.build_vocabulary(docs, cap=5 * POOL * calls)
    if any(d.reference[0] in vocab.token_to_id for d in base):
        raise RuntimeError("v20k vocabulary holds a planted entity")
    return base, docs, vocab


def model_config(vocab) -> ModelConfig:
    return ModelConfig(vocab_size=vocab.size, **A9_WIDTHS)


def timed_setups(run: Run, sizes: Sizes, build):
    """Run ``build`` ``sizes.setups`` times and return its last inputs.

    A workload calls this before its rounds and again after them, so the
    set-up samples come from both ends of the run; setup_s is the slowest
    of all of them (see ``slowest``). Each set-up and each round starts after a full garbage
    collection, so the collector's state left by earlier work does not leak
    into a timing.
    """
    times, value = run.samples.setdefault("setup_s", []), None
    for _ in range(sizes.setups):
        value = None
        gc.collect()
        with run.span("setup"):
            t0 = time.process_time()
            value = build()
            times.append(time.process_time() - t0)
    run.metrics["setup_s"] = max(times)
    return value


# ---------------------------------------------------------------------------
# helpers shared by the checks


def mean_loss(examples, params, coverage_weight: float) -> float:
    return float(np.mean([
        training.sequence_loss(ex, params, coverage_weight)[0].data
        for ex in examples
    ]))


def finite_difference_ok(example, params, coverage_weight: float):
    """Central differences at the largest-gradient entry of a few tensors
    against Tape.backward; returns (ok, worst relative error)."""
    named = params.named_tensors()
    params.zero_grads()
    with autodiff.Tape() as tape:
        loss, _ = training.sequence_loss(example, params, coverage_weight)
        tape.backward(loss)
    worst = 0.0
    for name in FD_TENSORS:
        tensor = named[name]
        k = int(np.argmax(np.abs(tensor.grad)))
        analytic = float(tensor.grad.ravel()[k])
        flat = tensor.data.reshape(-1)
        orig = flat[k]
        flat[k] = orig + FD_EPS
        plus = float(training.sequence_loss(example, params, coverage_weight)[0].data)
        flat[k] = orig - FD_EPS
        minus = float(training.sequence_loss(example, params, coverage_weight)[0].data)
        flat[k] = orig
        numeric = (plus - minus) / (2 * FD_EPS)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, err)
    params.zero_grads()
    return worst <= FD_TOL, worst


def param_arrays(params) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in params.named_tensors().items()}


def arrays_digest(arrays) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    return digest.hexdigest()


def bitwise_equal(saved: dict, loaded: dict) -> bool:
    return saved.keys() == loaded.keys() and all(
        saved[k].dtype == loaded[k].dtype and saved[k].shape == loaded[k].shape
        and saved[k].tobytes() == loaded[k].tobytes()
        for k in saved
    )


def unigram_f1(candidate, reference) -> float:
    """Clipped-unigram F1, written independently of synsum.metrics."""
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    return 2.0 * overlap / (len(candidate) + len(reference))


def greedy_tokens(example, params, vocab, max_len: int) -> list[str]:
    enc, _, ctx = decoder.encode_document(example, params)
    hyp = decoder.greedy_decode(decoder.make_step_fn(ctx, params),
                                decoder.initial_state(enc, params), max_len=max_len)
    ids = [t for t in hyp.tokens if t != STOP_ID]
    return corpus.ids_to_tokens(ids, vocab, example.oov_tokens)


def node_counts(example, params, coverage_weight: float) -> dict[str, float]:
    """Tape nodes of one sequence_loss forward, in total and per op name."""
    with autodiff.Tape() as tape:
        training.sequence_loss(example, params, coverage_weight)
    ops = Counter(node.op for node in tape.nodes)
    counts = {"autodiff.nodes_per_example": float(len(tape.nodes))}
    for op in TAPE_OPS:
        counts[f"autodiff.nodes.{op}"] = float(ops.pop(op, 0))
    counts["autodiff.nodes.other"] = float(sum(ops.values()))
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# the pipeline: set-up, training rounds, checkpoint, decode rounds, checks


def run_pipeline(run: Run, seed: int, sizes: Sizes, shape: str) -> None:
    paths = {name: run.workdir / name for name in
             ("held.jsonl", "vocab.txt", "model.ckpt", "beam1.txt", "beam4.txt")}

    def build():
        if shape == "toy":
            docs, vocab = toy_corpus(seed, sizes.train_docs + sizes.held_docs)
            train_docs, probe = docs[:sizes.train_docs], docs[0]
        else:
            base, docs, vocab = v20k_corpus(seed, sizes.calls)
            train_docs, probe = docs[:sizes.train_docs], base[0]
        held_docs = docs[-sizes.held_docs:]
        corpus.write_corpus(held_docs, paths["held.jsonl"])
        vocab.save(paths["vocab.txt"])
        return (vocab,
                [corpus.encode_example(d, vocab) for d in train_docs],
                [corpus.encode_example(d, vocab) for d in held_docs],
                corpus.encode_example(probe, vocab))

    vocab, train_ex, held_ex, probe = timed_setups(run, sizes, build)
    config = model_config(vocab)
    train_config = training.TrainConfig(epochs=sizes.epochs, seed=seed)
    weight = train_config.coverage_weight

    train = TrainRounds(run, train_ex, config, train_config)
    decode = DecodeRounds(run, paths, sizes)
    # untimed warm-up on one batch: the allocator settles over the first
    # large arrays, a cost a long training run pays once
    training.train(train_ex[:train_config.batch_size], config,
                   dataclasses.replace(train_config, epochs=1))
    # the first round trains the model every decode round reads; every
    # later round must end with the same parameters
    gc.collect()
    t0 = time.perf_counter()
    train()
    first = time.perf_counter() - t0
    if train.result is None:
        run.check("a training round finished", False, "train")
        return
    params = train.result.params
    training.save_checkpoint(
        paths["model.ckpt"], params, step=train.result.history[-1].step,
        vocab_hash=cli.file_hash(paths["vocab.txt"]),
        accumulators=train.result.accumulators)
    run.metrics["checkpoint_mb"] = paths["model.ckpt"].stat().st_size / 1e6
    with decode.recording():
        decode.warm_up()
        alternate(run.seconds, {train: first, decode: 0.0})
    train.finish()
    decode.finish()
    timed_setups(run, sizes, build)

    with run.span("check"):
        check_training(run, train.result, train_ex, probe, config,
                       train_config, paths["model.ckpt"])
        greedy = [greedy_tokens(ex, params, vocab, sizes.max_dec_len[1])
                  for ex in held_ex]
        check_decoding(run, vocab, params, held_ex, greedy, decode.last,
                       decode.outputs)
        if sizes.min_val_f1 is not None:
            validate(run, held_ex, greedy, sizes.min_val_f1)
    if run.tracer is not None:
        run.layer_counts.update(
            node_counts(train_ex[0], ModelParams(config, seed=seed), weight))


def slowest(rates: list[float]) -> float:
    """The lowest rate of a run's samples.

    The shared host this benchmark was tuned on runs at a steady base speed
    with bursts, lasting from seconds to minutes, in which pure-Python code
    runs up to nearly twice as fast; the median of a run reads the bursts
    it happened to catch. The slowest sample reads the base speed: over ten
    runs its quartile spread was about half the median's (README, Clock).
    """
    return min(rates)


def alternate(seconds: float, spent: dict) -> None:
    """Whole rounds of whichever operation has had less wall time so far,
    until each has had half of ``seconds``. Short rounds so interleave over
    the whole run, and a drift in the host's speed reaches both alike."""
    while min(spent.values()) < seconds / 2:
        operation = min(spent, key=spent.get)
        gc.collect()
        t0 = time.perf_counter()
        operation()
        spent[operation] += time.perf_counter() - t0


class TrainRounds:
    """One call is one ``training.train`` round from the seed; each epoch
    gives one rate sample."""

    def __init__(self, run: Run, train_ex, config, train_config):
        self.run, self.train_ex = run, train_ex
        self.config, self.train_config = config, train_config
        self.result, self.digests = None, set()

    def __call__(self) -> None:
        run, n = self.run, len(self.train_ex) * self.train_config.epochs
        run.ops["train"] += n
        marks = []  # process time at the start and at the end of each epoch

        def on_epoch(_):
            marks.append(time.process_time())

        with run.span("round.train"):
            marks.append(time.process_time())
            try:
                result = training.train(self.train_ex, self.config,
                                        self.train_config, on_epoch=on_epoch)
            except Exception:
                traceback.print_exc()
                run.failed_ops["train"] += n
                return
        run.samples.setdefault("train_examples_per_s", []).extend(
            len(self.train_ex) / (end - start)
            for start, end in zip(marks, marks[1:]))
        self.digests.add(arrays_digest(param_arrays(result.params)))
        self.result = self.result or result

    def finish(self) -> None:
        self.run.metrics["train_examples_per_s"] = slowest(
            self.run.samples["train_examples_per_s"])
        self.run.check("every round ends with bitwise-identical parameters",
                       len(self.digests) == 1, "train")


class DecodeRounds:
    """One call is ``synsum decode`` through ``cli.main`` at beam 1, then at
    beam 4, of the held-out corpus; each call gives one rate sample."""

    def __init__(self, run: Run, paths: dict, sizes: Sizes):
        self.run, self.paths, self.sizes = run, paths, sizes
        self.outputs = {1: set(), 4: set()}  # distinct summary files
        self.last = {1: [], 4: []}           # hypotheses of the last call
        self.hypotheses = []

    @contextlib.contextmanager
    def recording(self):
        """Keep each hypothesis ``cli.beam_search`` returns, for the
        log-probability check; a list append per document is all this adds
        to a timed call."""
        search = cli.beam_search

        def recording_search(*args, **kwargs):
            hyp = search(*args, **kwargs)
            self.hypotheses.append(hyp)
            return hyp

        cli.beam_search = recording_search
        try:
            yield
        finally:
            cli.beam_search = search

    def argv(self, beam: int, max_len: int, len_penalty: str) -> list[str]:
        paths = self.paths
        return ["decode", "--checkpoint", str(paths["model.ckpt"]),
                "--corpus", str(paths["held.jsonl"]),
                "--vocab", str(paths["vocab.txt"]),
                "--out", str(paths[f"beam{beam}.txt"]), "--beam", str(beam),
                "--max-dec-len", str(max_len), "--len-penalty", len_penalty]

    def warm_up(self) -> None:
        """An untimed short beam-4 decode, so the allocator has seen the
        search's large temporaries before the timed calls."""
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.argv(4, 2, "0.4"))

    def decode(self, beam: int, len_penalty: str) -> None:
        run, group, n = self.run, f"beam{beam}", self.sizes.held_docs
        run.ops[group] += n
        del self.hypotheses[:]
        argv = self.argv(beam, self.sizes.max_dec_len[beam], len_penalty)
        with run.span(f"round.decode.{group}"), \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.process_time()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = None
            elapsed = time.process_time() - t0
        if code != 0:
            run.failed_ops[group] += n
            return
        run.samples.setdefault(f"decode_{group}_docs_per_s", []).append(n / elapsed)
        self.outputs[beam].add(
            self.paths[f"{group}.txt"].read_text(encoding="utf-8"))
        self.last[beam] = list(self.hypotheses)

    def __call__(self) -> None:
        self.decode(1, "0")
        self.decode(4, "0.4")

    def finish(self) -> None:
        for beam in (1, 4):
            name = f"decode_beam{beam}_docs_per_s"
            if name in self.run.samples:
                self.run.metrics[name] = slowest(self.run.samples[name])
            self.run.check(f"every beam-{beam} round writes the same summaries",
                           len(self.outputs[beam]) == 1, f"beam{beam}")


# ---------------------------------------------------------------------------
# checks after the timed rounds


def check_training(run: Run, result, train_ex, probe, config, train_config,
                   ckpt: Path) -> None:
    params = result.params
    weight = train_config.coverage_weight
    run.check("no training halt", not result.halted, "train")
    ok, worst = finite_difference_ok(probe, params, weight)
    run.counts["fd_worst_rel_err"] = worst
    run.check("finite differences agree with Tape.backward within 1e-4",
              ok, "train")
    batch = train_ex[:train_config.batch_size]
    before = mean_loss(batch, ModelParams(config, seed=train_config.seed), weight)
    after = mean_loss(batch, params, weight)
    run.counts["loss_init"], run.counts["loss_trained"] = before, after
    run.check("training loss fell below its initial value", after < before,
              "train")
    loaded = training.load_checkpoint(ckpt)
    run.check(
        "load_checkpoint returns the saved parameters bitwise",
        bitwise_equal(param_arrays(params), loaded.arrays)
        and bitwise_equal(result.accumulators, loaded.accumulators),
        "train", "beam1", "beam4")


def check_decoding(run: Run, vocab, params, held_ex, greedy,
                   hypotheses: dict, outputs: dict) -> None:
    if len(outputs[1]) != 1 or len(outputs[4]) != 1:
        return
    n = len(held_ex)
    lines = {beam: next(iter(outputs[beam])).splitlines() for beam in (1, 4)}
    known = all(
        tok in vocab.token_to_id or tok in ex.oov_tokens
        for beam in (1, 4)
        for ex, line in zip(held_ex, lines[beam]) for tok in line.split()
    )
    run.check("every output token is in the vocabulary or a source OOV",
              known and all(len(lines[b]) == n for b in (1, 4)),
              "beam1", "beam4")
    run.check("beam 1 at length penalty 0 equals greedy_decode",
              [" ".join(tokens) for tokens in greedy] == lines[1], "beam1")
    worst = 0.0
    same_tokens = len(hypotheses[4]) == n
    for ex, hyp, line in zip(held_ex, hypotheses[4], lines[4]):
        ids = [t for t in hyp.tokens if t != STOP_ID]
        same_tokens &= " ".join(
            corpus.ids_to_tokens(ids, vocab, ex.oov_tokens)) == line
        worst = max(worst, abs(teacher_forced_log_prob(ex, params, hyp.tokens)
                               - hyp.log_prob))
    run.counts["beam4_log_prob_abs_err"] = worst
    run.check("teacher-forced decode_step reproduces the beam-4 "
              "log-probability within 1e-9", same_tokens and worst <= 1e-9,
              "beam4")


def validate(run: Run, held_ex, greedy, min_f1: float) -> None:
    """Greedy ROUGE-1 F1 on the held-out split, decoded as the A9 gate does
    (``max_len`` 8): the model must have learnt the task, so a change that
    alters what it learns fails the run."""
    run.ops["val"] += len(held_ex)
    theirs = [metrics.rouge(tokens, ex.reference_tokens, "R1").f1
              for ex, tokens in zip(held_ex, greedy)]
    ours = [unigram_f1(tokens, ex.reference_tokens)
            for ex, tokens in zip(held_ex, greedy)]
    f1 = float(np.mean(theirs))
    run.counts["val_rouge1_f1"] = f1
    run.check("metrics.rouge R1 F1 equals an independent clipped-unigram F1",
              all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                  for a, b in zip(theirs, ours)), "val")
    run.check(f"held-out greedy ROUGE-1 F1 is at least {min_f1}",
              f1 >= min_f1, "val")


def teacher_forced_log_prob(example, params, tokens, floor: float = 1e-12) -> float:
    enc, _, ctx = decoder.encode_document(example, params)
    state = decoder.initial_state(enc, params)
    prev, total = corpus.START_ID, 0.0
    for token in tokens:
        final, _, _, state = decoder.decode_step(state, prev, ctx, params)
        total += float(np.log(max(final.data[token], floor)))
        prev = token
    return total


WORKLOADS = {
    "toy": lambda run, seed, sizes: run_pipeline(run, seed, sizes, "toy"),
    "v20k": lambda run, seed, sizes: run_pipeline(run, seed, sizes, "v20k"),
}
