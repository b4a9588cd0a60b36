"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The experiments reuse a
session-scoped training run (16-document synthetic corpus, seed 7) driven
end to end through the CLI.
"""

import json
import time

import numpy as np
import pytest

from synsum import autodiff as ad
from synsum import synthetic as syn
from synsum.autodiff import Tensor
from synsum.cli import main as cli
from synsum.corpus import (
    Document,
    ParsedSentence,
    STOP_ID,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    encode_example,
    ids_to_tokens,
    load_corpus,
)
from synsum.decoder import (
    beam_search,
    decode_step,
    encode_document,
    greedy_decode,
    initial_state,
    length_penalty,
    make_step_fn,
)
from synsum.encoder import gcn_stack, union_edge_index
from synsum.graph import build_document_graph
from synsum.metrics import evaluate_pairs, rouge
from synsum.model import ModelConfig, ModelParams
from synsum.training import (
    TrainConfig,
    load_checkpoint,
    params_from_checkpoint,
    sequence_loss,
    train,
)
from oracles import Rows, batched, edge_tuples, gcn_layer


def report(criterion: str, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {criterion} PASS — {detail}")


# ---------------------------------------------------------------------------
# shared training run (A3, A4)


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory):
    """Seed-7, 16-example corpus trained through the CLI until loss < 0.1."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus = root / "corpus.jsonl"
    out_dir = root / "run"
    assert cli(["synth", "--seed", "7", "--size", "16",
                "--out", str(corpus)]) == 0
    t0 = time.perf_counter()
    assert cli(["train", "--corpus", str(corpus), "--out-dir", str(out_dir),
                "--seed", "0", "--cap", str(syn.default_vocab_cap()),
                "--epochs", "500", "--stop-below", "0.1"]) == 0
    train_seconds = time.perf_counter() - t0
    summaries = root / "summaries.txt"
    assert cli(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                "--corpus", str(corpus), "--vocab", str(out_dir / "vocab.txt"),
                "--out", str(summaries), "--beam", "1", "--max-dec-len", "8",
                "--len-penalty", "0.0"]) == 0
    return {
        "corpus": corpus,
        "out_dir": out_dir,
        "summaries": summaries,
        "train_seconds": train_seconds,
    }


# ---------------------------------------------------------------------------
# A1 gradient integrity


def test_a1_gradient_integrity():
    t0 = time.perf_counter()
    vocab_docs = [
        Document(sentences=[ParsedSentence(["the", "cat", "sat"], [2, 3, 0],
                                           ["det", "nsubj", "root"])],
                 reference=["cat", "sat"]),
        Document(sentences=[ParsedSentence(["near", "the", "door"], [3, 3, 0],
                                           ["case", "det", "root"])],
                 reference=["door"]),
    ]
    vocab = build_vocabulary(vocab_docs, cap=16)
    doc = Document(
        sentences=[
            ParsedSentence(["the", "glif", "sat"], [2, 3, 0],
                           ["det", "nsubj", "root"]),
            ParsedSentence(["near", "the", "door"], [3, 3, 0],
                           ["case", "det", "root"]),
        ],
        reference=["glif", "sat"],  # OOV in the reference exercises copying
    )
    example = encode_example(doc, vocab)
    assert example.oov_tokens == ["glif"]
    assert example.n == 6 and len(example.sentence_bounds) == 2

    config = ModelConfig(vocab_size=vocab.size, d_emb=5, d_h=4, d_g=8,
                         gcn_layers=2, d_dec=6, d_attn=6)
    params = ModelParams(config, seed=20)
    for layer in params.gcn:
        layer["bias"].data[...] = 0.2  # keep relu pre-activations off the kink
    named = params.named_tensors()

    groups = ("embedding", "lstm_fw", "lstm_bw", "gcn/0/fwd", "gcn/0/bwd",
              "gcn/0/self", "gcn/0/adj", "gcn/0/bias", "gcn/1/fwd",
              "gcn/1/bwd", "gcn/1/self", "gcn/1/adj", "gcn/1/bias", "gate/",
              "dec/attn", "dec/cell", "dec/init", "dec/out", "dec/pgen")
    for prefix in groups:
        assert any(name.startswith(prefix) for name in named), prefix

    def f(p):
        loss, _ = sequence_loss(example, params, coverage_weight=1.0)
        return loss

    result = ad.grad_check(f, named, eps=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - t0
    assert result.ok, str(result)
    assert result.max_rel_err < 1e-4
    assert elapsed < 120.0
    report("A1", f"max rel err {result.max_rel_err:.2e} over "
                 f"{len(named)} parameter groups in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A2 graph-convolution oracle equivalence


def random_tree_document(rng) -> Document:
    sentences = []
    for _ in range(rng.integers(1, 4)):
        k = int(rng.integers(1, 5))
        heads = [0] * k
        for i in range(1, k):
            heads[i] = int(rng.integers(0, i)) + 1  # attach to an earlier token
        labels = [rng.choice(["amod", "nsubj", "obl", "dep"]) for _ in range(k)]
        labels[0] = "root"
        sentences.append(ParsedSentence(
            tokens=[f"w{i}" for i in range(k)], heads=heads, labels=labels))
    return Document(sentences=sentences, reference=["w0"])


def test_a2_gcn_matches_dense_adjacency_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        doc = random_tree_document(rng)
        doc.validate()
        graph = build_document_graph(doc)
        n = graph.n
        assert n <= 10
        d_g = 6
        weights = {
            key: Tensor(rng.uniform(-0.8, 0.8, (d_g, d_g)))
            for key in ("fwd", "bwd", "self", "adj")
        }
        weights["bias"] = Tensor(rng.uniform(-0.5, 0.5, d_g))
        h = rng.normal(size=(n, d_g))

        out = gcn_layer(Tensor(h), union_edge_index([graph]), weights)

        # dense oracle: one adjacency matrix per edge class
        adjacency = {k: np.zeros((n, n)) for k in ("fwd", "bwd", "self", "adj")}
        key_of = {0: "fwd", 1: "bwd", 2: "self", 3: "adj"}
        for src, dst, cls, _ in edge_tuples(graph):
            adjacency[key_of[int(cls)]][dst, src] += 1.0
        dense = np.zeros((n, d_g))
        for key, A in adjacency.items():
            dense += A @ h @ weights[key].data
        dense = np.maximum(dense + weights["bias"].data[None, :], 0.0)

        worst = max(worst, float(np.abs(out.data - dense).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    report("A2", f"20 random graphs, max abs diff {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A3 overfit


def test_a3_overfit_synthetic_corpus(overfit_run):
    assert overfit_run["train_seconds"] < 600.0
    log_lines = (overfit_run["out_dir"] / "metrics.log").read_text().splitlines()
    assert 0 < len(log_lines) <= 500
    final_total = float(log_lines[-1].split()[-1])
    assert final_total < 0.1

    docs = list(load_corpus(overfit_run["corpus"]))
    candidates = [line.split() for line in
                  overfit_run["summaries"].read_text().splitlines()]
    rouge_report = evaluate_pairs(candidates, [d.reference for d in docs],
                                  seed=0)
    f1 = rouge_report.summaries["R1"].mean_f1
    assert f1 > 0.95
    report("A3", f"loss {final_total:.4f} after {len(log_lines)} epochs "
                 f"({overfit_run['train_seconds']:.0f}s), greedy R1-F1 {f1:.3f}")


# ---------------------------------------------------------------------------
# A4 copy mechanism


def test_a4_copy_mechanism(overfit_run):
    docs = list(load_corpus(overfit_run["corpus"]))
    candidates = [line.split() for line in
                  overfit_run["summaries"].read_text().splitlines()]
    ckpt = load_checkpoint(overfit_run["out_dir"] / "model.ckpt")
    params = params_from_checkpoint(ckpt)
    vocab = Vocabulary.load(overfit_run["out_dir"] / "vocab.txt")

    copied = 0
    copy_pgens = []
    for doc, cand in zip(docs, candidates):
        entity = doc.reference[0]
        example = encode_example(doc, vocab)
        assert entity in example.oov_tokens  # planted OOV by construction
        if entity in cand:
            copied += 1
        # replay the decode, reading p_gen wherever an extended id is emitted
        enc, _, ctx = encode_document(example, params)
        state = initial_state(enc, params)
        hyp = greedy_decode(make_step_fn(ctx, params), state, max_len=8)
        state = initial_state(enc, params)
        prev = 2
        for token in hyp.tokens:
            _, _, p_gen, state = decode_step(state, prev, ctx, params)
            if token >= vocab.size:
                copy_pgens.append(p_gen.item())
            prev = token if token < vocab.size else UNK_ID
    assert copied >= 15
    mean_pgen = float(np.mean(copy_pgens))
    assert mean_pgen < 0.5
    report("A4", f"entity copied in {copied}/16 outputs, "
                 f"mean p_gen at copy steps {mean_pgen:.4f}")


# ---------------------------------------------------------------------------
# A5 distribution normalization


def test_a5_distribution_normalization(tiny_setup):
    _, vocab, examples, config = tiny_setup
    steps_checked = 0
    worst_sum = 0.0
    worst_cov = 0.0
    rng = np.random.default_rng(0)
    model_seed = 0
    while steps_checked < 1000:
        params = ModelParams(config, seed=model_seed)
        example = examples[int(rng.integers(0, len(examples)))]
        enc, _, ctx = encode_document(example, params)
        state = initial_state(enc, params)
        prev = 2
        for t in range(1, 21):
            final, attention, p_gen, state = decode_step(state, prev, ctx,
                                                         params)
            worst_sum = max(worst_sum, abs(float(final.data.sum()) - 1.0))
            worst_cov = max(worst_cov,
                            abs(float(state.coverage.data.sum()) - t))
            assert (final.data >= 0).all()
            prev = int(rng.integers(0, config.vocab_size))
            steps_checked += 1
            if steps_checked == 1000:
                break
        model_seed += 1
    assert worst_sum < 1e-9
    assert worst_cov < 1e-9
    report("A5", f"1000 random steps: max |sum-1| {worst_sum:.2e}, "
                 f"max coverage drift {worst_cov:.2e}")


# ---------------------------------------------------------------------------
# A6 receptive field


def test_a6_receptive_field_on_path_graph():
    n, layers = 7, 2
    doc = Document(
        sentences=[ParsedSentence(
            tokens=[f"t{i}" for i in range(n)],
            heads=[0] + list(range(1, n)),  # chain: token i heads token i+1
            labels=["root"] + ["dep"] * (n - 1),
        )],
        reference=["t0"],
    )
    graph = build_document_graph(doc)
    config = ModelConfig(vocab_size=10, d_emb=4, d_h=3, d_g=5,
                         gcn_layers=layers, d_dec=4, d_attn=4)
    params = ModelParams(config, seed=1)
    rng = np.random.default_rng(0)
    for layer in params.gcn:  # positive weights keep every relu unit active
        for key in ("fwd", "bwd", "self", "adj"):
            layer[key].data[...] = rng.uniform(0.05, 0.1, layer[key].shape)
        layer["bias"].data[...] = 0.1
    idx = union_edge_index([graph])
    base_h = rng.uniform(0.5, 1.0, (n, config.d_g))
    base_out = gcn_stack(Tensor(base_h), idx, params).data
    mismatches = 0
    for j in range(n):
        perturbed = base_h.copy()
        perturbed[j] += 0.5
        changed = np.abs(
            gcn_stack(Tensor(perturbed), idx, params).data - base_out
        ).max(axis=1) > 0
        expected = np.array([abs(i - j) <= layers for i in range(n)])
        if not (changed == expected).all():
            mismatches += 1
    assert mismatches == 0
    report("A6", f"perturbation reach equals BFS distance <= {layers} "
                 f"for all {n} nodes (exact)")


# ---------------------------------------------------------------------------
# A7 ROUGE fixtures


def test_a7_rouge_fixtures(tmp_path, capsys):
    # library path
    r1 = rouge(["the", "cat", "sat"], ["the", "cat"], "R1")
    r2 = rouge(["the", "cat", "sat"], ["the", "cat"], "R2")
    rl = rouge(["the", "cat", "sat"], ["the", "cat"], "RL")
    assert abs(r1.f1 - 0.8) < 1e-12 and r1.recall == 1.0
    assert abs(r2.f1 - 2 / 3) < 1e-12
    assert (rl.precision, rl.recall, rl.f1) == \
        (r1.precision, r1.recall, r1.f1)
    for metric in ("R1", "R2", "RL"):
        same = rouge(["a", "b"], ["a", "b"], metric)
        assert same.f1 == 1.0
        disjoint = rouge(["a", "b"], ["c", "d"], metric)
        assert disjoint.f1 == 0.0

    # CLI path reproduces the same numbers
    corpus = tmp_path / "refs.jsonl"
    corpus.write_text(json.dumps({
        "sentences": [{"tokens": ["the", "cat"], "heads": [2, 0],
                       "labels": ["det", "root"]}],
        "reference": ["the", "cat"],
    }) + "\n")
    cands = tmp_path / "cands.txt"
    cands.write_text("the cat sat\n")
    assert cli(["eval", "--candidates", str(cands),
                "--references", str(corpus), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["metrics"]["R1"]["f1"] - 0.8) < 1e-9
    assert abs(out["metrics"]["R2"]["f1"] - 2 / 3) < 1e-9
    report("A7", "hand-counted fixture reproduced through library and CLI")


# ---------------------------------------------------------------------------
# A8 beam oracle


def toy_table_step(table):
    def step(state, y_prev):
        prefix = state + (y_prev,) if state else (y_prev,)
        return np.log(np.asarray(table[prefix[1:]])), prefix

    return step


def random_step(seed, vocab):
    def step(state, y_prev):
        prefix = (state or ()) + (y_prev,)
        rng = np.random.default_rng(abs(hash((seed,) + prefix)) % (2 ** 31))
        return np.log(rng.dirichlet(np.ones(vocab))), prefix

    return step


def exhaustive_best(step_fn, max_len, alpha, vocab, stop_id):
    best = None

    def visit(state, prev, tokens, logp):
        nonlocal best
        log_probs, new_state = step_fn(state, prev)
        full = tokens + [stop_id]
        score = (logp + float(log_probs[stop_id])) / \
            length_penalty(len(full), alpha)
        key = (-score, tuple(full))
        if best is None or key < best[0]:
            best = (key, full)
        if len(tokens) + 1 < max_len:
            for w in range(vocab):
                if w != stop_id:
                    visit(new_state, w, tokens + [w],
                          logp + float(log_probs[w]))

    visit((), 2, [], 0.0)
    return best[1]


def test_a8_beam_oracle():
    table = {
        (): [0.50, 0.45, 0.05],
        (0,): [0.40, 0.55, 0.05],
        (1,): [0.05, 0.05, 0.90],
        (0, 0): [0.10, 0.10, 0.80],
        (0, 1): [0.30, 0.30, 0.40],
        (1, 0): [0.20, 0.20, 0.60],
        (1, 1): [0.30, 0.30, 0.40],
    }
    step = toy_table_step(table)
    for alpha in (0.0, 0.4, 8.0):
        hyp = beam_search(batched(step), Rows([()]), beam=2, max_len=3,
                          alpha=alpha, stop_id=2, start_id=2)
        expected = exhaustive_best(step, max_len=3, alpha=alpha, vocab=3,
                                   stop_id=2)
        assert hyp.tokens == expected, (alpha, hyp.tokens, expected)

    agreements = 0
    for seed in range(50):
        step = batched(random_step(seed, vocab=6))
        greedy = greedy_decode(step, Rows([()]), max_len=4, stop_id=5,
                               start_id=2)
        beam = beam_search(step, Rows([()]), beam=1, max_len=4, alpha=0.0,
                           stop_id=5, start_id=2)
        assert beam.tokens == greedy.tokens
        assert abs(beam.log_prob - greedy.log_prob) < 1e-12
        agreements += 1
    report("A8", f"beam=2 matches exhaustive enumeration (3 penalties); "
                 f"beam=1 == greedy on {agreements}/50 random models")


# ---------------------------------------------------------------------------
# A9 ablation direction


def test_a9_ablation_direction():
    # the harder grammar (cross-sentence place copying, distractor in every
    # document) separates the ablations; the default grammar saturates
    t0 = time.perf_counter()
    grammar = syn.GrammarConfig(copy_place=True, distractor_every=1)
    docs = syn.generate_documents(seed=11, size=500, grammar=grammar)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap(grammar))
    examples = [encode_example(d, vocab) for d in docs]
    train_ex, val_ex = examples[:400], examples[400:]
    for doc in docs:
        assert doc.reference[0] not in vocab.token_to_id  # planted OOV holds

    def validation_f1(params):
        scores = []
        for ex in val_ex:
            enc, _, ctx = encode_document(ex, params)
            hyp = greedy_decode(make_step_fn(ctx, params),
                                initial_state(enc, params), max_len=8)
            tokens = ids_to_tokens([t for t in hyp.tokens if t != STOP_ID],
                                   vocab, ex.oov_tokens)
            scores.append(rouge(tokens, ex.reference_tokens, "R1").f1)
        return float(np.mean(scores))

    ordered = 0
    rows = []
    for seed in (1, 2, 3):
        scores = {}
        for name, (gate_off, gcn_off) in {
            "full": (False, False),
            "-Attn-Gate": (True, False),
            "-GCNs": (True, True),
        }.items():
            config = ModelConfig(vocab_size=vocab.size, d_emb=16, d_h=16,
                                 d_g=32, gcn_layers=2, d_dec=32, d_attn=32,
                                 ablate_gate=gate_off, ablate_gcn=gcn_off)
            result = train(train_ex, config,
                           TrainConfig(epochs=3, seed=seed))
            scores[name] = validation_f1(result.params)
        rows.append(scores)
        if scores["full"] >= scores["-Attn-Gate"] >= scores["-GCNs"]:
            ordered += 1
    elapsed = time.perf_counter() - t0
    assert ordered >= 2, rows
    detail = "; ".join(
        f"seed{i+1} full={r['full']:.3f} gate-={r['-Attn-Gate']:.3f} "
        f"gcn-={r['-GCNs']:.3f}" for i, r in enumerate(rows)
    )
    report("A9", f"ordering held in {ordered}/3 seeds ({elapsed:.0f}s): "
                 f"{detail}")


# ---------------------------------------------------------------------------
# A10 determinism


def test_a10_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        corpus = root / "corpus.jsonl"
        out_dir = root / "run"
        assert cli(["synth", "--seed", "13", "--size", "6",
                    "--out", str(corpus)]) == 0
        assert cli(["train", "--corpus", str(corpus),
                    "--out-dir", str(out_dir), "--seed", "5",
                    "--cap", str(syn.default_vocab_cap()),
                    "--epochs", "3", "--d-emb", "8", "--d-h", "6",
                    "--d-g", "12", "--d-dec", "8", "--d-attn", "8"]) == 0
        summaries = root / "summaries.txt"
        assert cli(["decode", "--checkpoint", str(out_dir / "model.ckpt"),
                    "--corpus", str(corpus),
                    "--vocab", str(out_dir / "vocab.txt"),
                    "--out", str(summaries), "--beam", "2",
                    "--max-dec-len", "8"]) == 0
        outputs.append({
            "corpus": corpus.read_bytes(),
            "checkpoint": (out_dir / "model.ckpt").read_bytes(),
            "vocab": (out_dir / "vocab.txt").read_bytes(),
            "summaries": summaries.read_bytes(),
        })
    assert outputs[0]["corpus"] == outputs[1]["corpus"]
    assert outputs[0]["checkpoint"] == outputs[1]["checkpoint"]
    assert outputs[0]["vocab"] == outputs[1]["vocab"]
    assert outputs[0]["summaries"] == outputs[1]["summaries"]
    report("A10", "two seeded runs: checkpoints bitwise identical, "
                  "decode outputs byte identical")
