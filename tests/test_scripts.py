"""Smoke tests for the experiment scripts in scripts/, at toy sizes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from synsum import synthetic as syn
from synsum.corpus import STOP_ID, build_vocabulary, encode_example, ids_to_tokens
from synsum.decoder import encode_document, greedy_decode, initial_state, make_step_fn
from synsum.metrics import rouge
from synsum.model import ModelConfig
from synsum.training import TrainConfig, train

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ablations():
    return load_script("run_ablations")


def test_run_ablations_runs(ablations, capsys):
    ablations.main(["--size", "24", "--held-out", "6", "--epochs", "1",
                    "--seeds", "1"])
    out = capsys.readouterr().out
    assert "18 train / 6 validation" in out
    for name in ("full", "-Attn-Gate", "-GCNs"):
        assert f"seed 1 {name:>10}: val R1-F1" in out
    assert "ordering held in" in out


def test_validation_f1_is_greedy_rouge1(ablations):
    grammar = syn.GrammarConfig(copy_place=True, distractor_every=1)
    docs = syn.generate_documents(seed=11, size=24, grammar=grammar)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap(grammar))
    examples = [encode_example(d, vocab) for d in docs]
    config = ModelConfig(vocab_size=vocab.size, d_emb=16, d_h=16, d_g=32,
                         gcn_layers=2, d_dec=32, d_attn=32)
    # trained until F1 is above 0 and a wider beam would give another F1
    params = train(examples[:18], config, TrainConfig(epochs=16, seed=1)).params
    val = examples[18:]
    scores = []
    for ex in val:
        enc, _, ctx = encode_document(ex, params)
        hyp = greedy_decode(make_step_fn(ctx, params),
                            initial_state(enc, params), max_len=8)
        tokens = ids_to_tokens([t for t in hyp.tokens if t != STOP_ID],
                               vocab, ex.oov_tokens)
        scores.append(rouge(tokens, ex.reference_tokens, "R1").f1)
    assert np.mean(scores) > 0
    assert ablations.validation_f1(params, val, vocab) == float(np.mean(scores))


def test_run_overfit_runs(tmp_path, capsys):
    overfit = load_script("run_overfit")
    assert overfit.run(seed=7, size=4, epochs=2, workdir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "planted entity copied:" in out
    assert (tmp_path / "summaries.txt").read_text().count("\n") == 4
