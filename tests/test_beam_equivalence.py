"""Equivalence of the short-list beam search with a full-sort oracle.

``scalar_beam_search`` is the reference: it builds one hypothesis per
(live hypothesis, token) pair and sorts them all, the direct reading of the
search's contract. ``decoder.beam_search`` must agree with it exactly, on
best tokens, bitwise log-probabilities and the finished pool in order.
"""

import random

import numpy as np

from synsum import cli
from synsum import decoder as dec
from synsum import synthetic as syn
from synsum.corpus import (START_ID, STOP_ID, Vocabulary, build_vocabulary,
                           encode_example)
from synsum.decoder import Hypothesis
from synsum.model import ModelConfig, ModelParams


def scalar_beam_search(step_fn, init_state, beam, max_len, alpha=0.0,
                       stop_id=STOP_ID, start_id=START_ID,
                       return_pool=False):
    live = [Hypothesis([], 0.0, init_state)]
    finished = []
    for step in range(max_len):
        last = step == max_len - 1
        candidates = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else start_id
            log_probs, state = step_fn(hyp.state, prev)
            allowed = [stop_id] if last else range(len(log_probs))
            for token in allowed:
                candidates.append(
                    Hypothesis(
                        hyp.tokens + [token],
                        hyp.log_prob + float(log_probs[token]),
                        state,
                        finished=token == stop_id,
                    )
                )
        candidates.sort(key=lambda h: (-h.log_prob, tuple(h.tokens)))
        next_live = []
        for cand in candidates:
            if cand.finished:
                finished.append(cand)
            else:
                next_live.append(cand)
            if len(next_live) == beam:
                break
        live = next_live
        if not live:
            break
    best = min(finished, key=lambda h: (-h.score(alpha), tuple(h.tokens)))
    if return_pool:
        return best, finished
    return best


def quantised_model(seed, vocab, levels):
    """Log-probabilities drawn from ``levels`` values per step, so equal
    scores, and ties at the beam cut-off, are common."""
    def step(state, y_prev):
        prefix = state + (y_prev,)
        rng = np.random.default_rng([seed, *prefix])
        values = np.log(rng.uniform(0.05, 1.0, size=levels))
        return values[rng.integers(levels, size=vocab)], prefix

    return step


def assert_same_search(got, expected):
    (best, pool), (best_ref, pool_ref) = got, expected
    assert best.tokens == best_ref.tokens
    assert best.log_prob.hex() == best_ref.log_prob.hex()
    assert [(h.tokens, h.log_prob.hex(), h.finished) for h in pool] \
        == [(h.tokens, h.log_prob.hex(), h.finished) for h in pool_ref]


def test_beam_search_matches_scalar_oracle_with_forced_ties():
    rng = random.Random(0)
    for case in range(1200):
        vocab = rng.randint(2, 9)
        step = quantised_model(case, vocab, levels=rng.randint(1, 3))
        kwargs = dict(beam=rng.randint(1, 5), max_len=rng.randint(1, 6),
                      alpha=rng.choice([0.0, 0.4, 1.0]),
                      stop_id=rng.randrange(vocab), start_id=vocab,
                      return_pool=True)
        assert_same_search(dec.beam_search(step, (), **kwargs),
                           scalar_beam_search(step, (), **kwargs))


def test_beam_search_matches_scalar_oracle_on_real_model(monkeypatch):
    docs = syn.generate_documents(seed=5, size=3)
    base = build_vocabulary(docs, cap=syn.default_vocab_cap())
    tokens = base.id_to_token + [f"filler{i}" for i in range(2000 - base.size)]
    vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)},
                       id_to_token=tokens)
    config = ModelConfig(vocab_size=vocab.size, d_emb=6, d_h=4, d_g=8,
                         gcn_layers=1, d_dec=6, d_attn=6)
    params = ModelParams(config, seed=1)
    examples = [encode_example(doc, vocab) for doc in docs]

    def decode_with(search):
        searches = []

        def recording(*args, **kwargs):
            searches.append(search(*args, return_pool=True, **kwargs))
            return searches[-1][0]

        monkeypatch.setattr(cli, "beam_search", recording)
        outputs = [tokens for tokens, _ in cli.decode_corpus(
            examples, params, vocab, beam=4, max_len=6, alpha=0.4)]
        return outputs, searches

    outputs, searches = decode_with(dec.beam_search)
    outputs_ref, searches_ref = decode_with(scalar_beam_search)
    assert outputs == outputs_ref
    for got, expected in zip(searches, searches_ref, strict=True):
        assert_same_search(got, expected)
