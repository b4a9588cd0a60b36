"""Equivalence of the short-list beam search with a full-sort oracle.

``scalar_beam_search`` is the reference: it builds one hypothesis per
(live hypothesis, token) pair and sorts them all, the direct reading of the
search's contract, and it always runs to ``max_len``. ``decoder.beam_search``
stops once no live hypothesis can beat the best finished one, so it must
agree with the oracle exactly on the best tokens and their bitwise
log-probability, and its finished pool must be a prefix of the oracle's, in
order, that no hypothesis past the prefix outranks.
"""

import random

import numpy as np
import pytest

from synsum import cli
from synsum import decoder as dec
from synsum import synthetic as syn
from synsum.corpus import (START_ID, STOP_ID, Vocabulary, build_vocabulary,
                           encode_example)
from synsum.decoder import Hypothesis
from synsum.model import ModelConfig, ModelParams
from oracles import Rows, batched


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


def assert_same_search(got, expected, alpha):
    """``got`` is a stopped search, ``expected`` the oracle's: the same best
    hypothesis, bit for bit, and a pool that is a prefix of the oracle's,
    past which nothing outranks the best by ``(-score, tokens)``."""
    (best, pool), (best_ref, pool_ref) = got, expected
    assert best.tokens == best_ref.tokens
    assert best.log_prob.hex() == best_ref.log_prob.hex()
    assert [(h.tokens, h.log_prob.hex(), h.finished) for h in pool] \
        == [(h.tokens, h.log_prob.hex(), h.finished)
            for h in pool_ref[:len(pool)]]
    rank = (-best.score(alpha), tuple(best.tokens))
    assert all((-h.score(alpha), tuple(h.tokens)) > rank
               for h in pool_ref[len(pool):])


def test_beam_search_matches_scalar_oracle_with_forced_ties():
    rng = random.Random(0)
    stopped = {}
    for case in range(1200):
        vocab = rng.randint(2, 9)
        step = quantised_model(case, vocab, levels=rng.randint(1, 3))
        kwargs = dict(beam=rng.randint(1, 5), max_len=rng.randint(1, 6),
                      alpha=rng.choice([-0.5, 0.0, 0.4, 1.0, 8.0]),
                      stop_id=rng.randrange(vocab), start_id=vocab,
                      return_pool=True)
        got = dec.beam_search(batched(step), Rows([()]), **kwargs)
        expected = scalar_beam_search(step, (), **kwargs)
        assert_same_search(got, expected, kwargs["alpha"])
        if len(got[1]) < len(expected[1]):
            stopped[kwargs["alpha"]] = stopped.get(kwargs["alpha"], 0) + 1
    # the stop fires at every length penalty, so each is checked
    assert sorted(stopped) == [-0.5, 0.0, 0.4, 1.0, 8.0], stopped


def log_prob_rows(rows, default=-3.0):
    """Step function over three tokens (STOP is 2, START is 3) whose
    log-probabilities are ``rows[prefix]``, or ``default`` everywhere."""
    def step(prefix, y_prev):
        prefix = prefix + (y_prev,) if y_prev != 3 else prefix
        return np.array(rows.get(prefix, [default] * 3)), prefix

    return step


@pytest.mark.parametrize("rows, alpha, beam, best_tokens", [
    # [0] and [STOP] tie at log 0.45 and [0, STOP] adds 0.0: the finished
    # [STOP] only equals the live bound, and the tie goes to [0, STOP]
    ({(): [np.log(0.45), np.log(0.1), np.log(0.45)],
      (0,): [-50.0, -50.0, 0.0]}, 0.0, 2, [0, 2]),
    # under alpha < 0 the shortest reachable length bounds a live score:
    # [STOP] at -0.6 beats [0] at -0.5 over the penalty of length 4, but
    # not over that of length 2, where [0, STOP] finishes
    ({(): [-0.5, -2.0, -0.6], (0,): [-3.0, -3.0, 0.0]}, -0.5, 2, [0, 2]),
])
def test_stop_bound_is_tight(rows, alpha, beam, best_tokens):
    step = log_prob_rows(rows)
    kwargs = dict(beam=beam, max_len=4, alpha=alpha, stop_id=2, start_id=3,
                  return_pool=True)
    got = dec.beam_search(batched(step), Rows([()]), **kwargs)
    expected = scalar_beam_search(step, (), **kwargs)
    assert got[0].tokens == best_tokens
    assert_same_search(got, expected, alpha)


def test_positive_log_probabilities_disable_the_stop():
    # After the first step, the finished [STOP] (+0.1) outscores the live
    # [0] (-1.0) at every length penalty, so the stop rule alone would end
    # the search there; the +3.0 at (0,) then makes [0, 0, STOP] the best.
    step = log_prob_rows({(): [-1.0, -2.0, 0.1], (0,): [3.0, -1.0, -0.5],
                          (0, 0): [-1.0, -1.0, 0.0]}, default=-1.0)
    for alpha in (-0.5, 0.0, 0.4, 8.0):
        for beam in (1, 2, 3):
            kwargs = dict(beam=beam, max_len=3, alpha=alpha, stop_id=2,
                          start_id=3, return_pool=True)
            best, pool = dec.beam_search(batched(step), Rows([()]), **kwargs)
            best_ref, pool_ref = scalar_beam_search(step, (), **kwargs)
            assert best.tokens == best_ref.tokens == [0, 0, 2]
            assert best.log_prob.hex() == best_ref.log_prob.hex()
            assert [(h.tokens, h.log_prob.hex()) for h in pool] \
                == [(h.tokens, h.log_prob.hex()) for h in pool_ref]


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
        assert_same_search(got, expected, alpha=0.4)
