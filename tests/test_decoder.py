import logging

import numpy as np
import pytest

from synsum import decoder as dec
from synsum.autodiff import Tensor
from synsum.corpus import STOP_ID, UNK_ID, build_vocabulary, encode_example
from synsum import synthetic as syn
from synsum.model import ModelConfig, ModelParams


@pytest.fixture
def decode_setup(tiny_setup):
    _, vocab, examples, config = tiny_setup
    params = ModelParams(config, seed=0)
    example = examples[0]
    enc, gated, ctx = dec.encode_document(example, params)
    state = dec.initial_state(enc, params)
    return params, example, ctx, state, vocab


def pin_p_gen(params, p_gen):
    """Pin p_gen to exactly 1.0 or 0.0 through the parameters: with zero
    weights the gate's logit is its bias, and sigmoid(+-1e3) rounds to 1.0
    or 0.0."""
    pg = params.pgen
    for name in ("ctx_w", "state_w", "x_w"):
        pg[name].data[...] = 0.0
    pg["b"].data[...] = {1.0: 1e3, 0.0: -1e3}[p_gen]


def scatter_oracle(attention, ext_ids, size):
    """Plain-loop reference for the copy distribution."""
    out = np.zeros(size)
    for a, ext in zip(attention, ext_ids):
        out[ext] += a
    return out


# ---------------------------------------------------------------------------
# decode_step


def test_pure_generation_endpoint(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    pin_p_gen(params, 1.0)
    final, attention, p_gen, _ = dec.decode_step(state, 2, ctx, params)
    assert p_gen.item() == 1.0
    v = params.config.vocab_size
    assert not final.data[v:].any()  # OOV ids unreachable when only generating
    assert abs(final.data.sum() - 1.0) < 1e-9


def test_pure_copy_endpoint(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    pin_p_gen(params, 0.0)
    final, attention, p_gen, _ = dec.decode_step(state, 2, ctx, params)
    size = params.config.vocab_size + len(example.oov_tokens)
    expected = scatter_oracle(attention.data, example.source_ext_ids, size)
    np.testing.assert_allclose(final.data, expected, atol=1e-12)


def test_pure_copy_two_distinct_tokens():
    docs = syn.generate_documents(seed=1, size=2)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    from synsum.corpus import Document, ParsedSentence

    doc = Document(
        sentences=[ParsedSentence(tokens=["qq", "zz"], heads=[2, 0],
                                  labels=["nsubj", "root"])],
        reference=["qq"],
    )
    example = encode_example(doc, vocab)
    assert example.oov_tokens == ["qq", "zz"]
    config = ModelConfig(vocab_size=vocab.size, d_emb=4, d_h=3, d_g=6,
                         gcn_layers=1, d_dec=4, d_attn=4)
    params = ModelParams(config, seed=5)
    enc, _, ctx = dec.encode_document(example, params)
    state = dec.initial_state(enc, params)
    pin_p_gen(params, 0.0)
    final, attention, _, _ = dec.decode_step(state, 2, ctx, params)
    v = vocab.size
    np.testing.assert_allclose(final.data[v], attention.data[0], atol=1e-15)
    np.testing.assert_allclose(final.data[v + 1], attention.data[1], atol=1e-15)
    assert abs(final.data[v] + final.data[v + 1] - 1.0) < 1e-12


def test_final_distribution_normalizes_and_mixes(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    final, attention, p_gen, _ = dec.decode_step(state, 2, ctx, params)
    assert abs(final.data.sum() - 1.0) < 1e-9
    assert (final.data >= 0).all()
    # OOV slots receive exactly the copy share of their attention mass
    v = params.config.vocab_size
    size = v + len(example.oov_tokens)
    copy = scatter_oracle(attention.data, example.source_ext_ids, size)
    np.testing.assert_allclose(
        final.data[v:], (1.0 - p_gen.item()) * copy[v:], atol=1e-12
    )


def test_copy_channel_puts_no_mass_off_source(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    pin_p_gen(params, 0.0)
    final, attention, _, _ = dec.decode_step(state, 2, ctx, params)
    on_source = set(example.source_ext_ids)
    off_source = [i for i in range(final.shape[0]) if i not in on_source]
    assert not final.data[off_source].any()


def test_oov_input_embeds_as_unk(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    oov_id = params.config.vocab_size  # first temporary id
    f1, a1, p1, _ = dec.decode_step(state, oov_id, ctx, params)
    f2, a2, p2, _ = dec.decode_step(state, UNK_ID, ctx, params)
    np.testing.assert_array_equal(f1.data, f2.data)


def test_coverage_accumulates_attention(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    prev = 2
    for t in range(1, 6):
        final, attention, _, state = dec.decode_step(state, prev, ctx, params)
        assert abs(state.coverage.data.sum() - t) < 1e-9
        prev = int(np.argmax(final.data))
        if prev >= params.config.vocab_size:
            prev = UNK_ID


# ---------------------------------------------------------------------------
# coverage loss


def test_coverage_loss_zero_on_first_step():
    a = Tensor(np.array([0.25, 0.5, 0.25]))
    c = Tensor(np.zeros(3))
    assert dec.coverage_loss(a, c).item() == 0.0


def test_coverage_loss_equal_vectors_sum_to_one():
    a = Tensor(np.array([0.1, 0.6, 0.3]))
    assert abs(dec.coverage_loss(a, a).item() - 1.0) < 1e-12


def test_coverage_loss_hand_case():
    a = Tensor(np.array([0.5, 0.5]))
    c = Tensor(np.array([0.2, 0.9]))
    assert abs(dec.coverage_loss(a, c).item() - 0.7) < 1e-12


# ---------------------------------------------------------------------------
# masking


def full_mask(n):
    return dec.ContentMask(q=np.ones(n), threshold=0.0)


def test_full_mask_equals_unmasked_exactly(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    f_plain, a_plain, _, _ = dec.decode_step(state, 2, ctx, params)
    f_mask, a_mask, _, _ = dec.decode_step(state, 2, ctx, params,
                                           mask=full_mask(ctx.n))
    np.testing.assert_array_equal(f_plain.data, f_mask.data)
    np.testing.assert_array_equal(a_plain.data, a_mask.data)


def test_empty_mask_falls_back_with_log(decode_setup, caplog):
    params, example, ctx, state, vocab = decode_setup
    empty = dec.ContentMask(q=np.zeros(ctx.n), threshold=1.0 + 1e-9)
    with caplog.at_level(logging.WARNING):
        f_mask, _, _, _ = dec.decode_step(state, 2, ctx, params, mask=empty)
    assert any("falling back" in rec.message for rec in caplog.records)
    f_plain, _, _, _ = dec.decode_step(state, 2, ctx, params)
    np.testing.assert_array_equal(f_mask.data, f_plain.data)


def test_damped_mask_reweights_copy_distribution(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    rng = np.random.default_rng(0)
    q = rng.uniform(0.05, 0.95, ctx.n)
    mask = dec.ContentMask(q=q, threshold=0.1, damp=True)
    pin_p_gen(params, 0.0)
    final, attention, _, _ = dec.decode_step(state, 2, ctx, params, mask=mask)
    damped = attention.data * q
    expected = scatter_oracle(damped / damped.sum(), example.source_ext_ids,
                              final.shape[0])
    np.testing.assert_allclose(final.data, expected, atol=1e-12)


def test_zero_init_decoder_state_flag(tiny_setup):
    _, vocab, examples, _ = tiny_setup
    from synsum.model import ModelConfig, ModelParams

    config = ModelConfig(vocab_size=vocab.size, d_emb=6, d_h=4, d_g=8,
                         gcn_layers=1, d_dec=6, d_attn=6,
                         zero_init_decoder=True)
    params = ModelParams(config, seed=0)
    enc, _, ctx = dec.encode_document(examples[0], params)
    state = dec.initial_state(enc, params)
    assert not state.hidden.data.any()
    assert not state.cell.data.any()


def test_partial_mask_renormalizes_copy_distribution(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    q = np.zeros(ctx.n)
    q[: ctx.n // 2] = 1.0
    mask = dec.ContentMask(q=q, threshold=0.5)
    pin_p_gen(params, 0.0)
    final, attention, _, _ = dec.decode_step(state, 2, ctx, params, mask=mask)
    # copy mass lands only on selected positions and still sums to one
    selected_ids = {example.source_ext_ids[i] for i in range(ctx.n) if q[i]}
    unselected_ids = set(example.source_ext_ids) - selected_ids
    assert abs(final.data.sum() - 1.0) < 1e-9
    assert not final.data[sorted(unselected_ids)].any()
    # the attention returned (used for context/coverage) stays unmasked
    assert abs(attention.data.sum() - 1.0) < 1e-9
    assert attention.data[ctx.n // 2:].any()


# ---------------------------------------------------------------------------
# beam search and greedy


def table_model(table, vocab):
    """Step function driven by a prefix-indexed probability table."""

    def step(state, y_prev):
        prefix = state + (y_prev,) if state else (y_prev,)
        probs = table[prefix[1:]]  # drop the START marker
        return np.log(np.asarray(probs)), prefix

    return step


def random_model(seed, vocab):
    def step(state, y_prev):
        prefix = (state or ()) + (y_prev,)
        rng = np.random.default_rng(abs(hash((seed,) + prefix)) % (2 ** 31))
        p = rng.dirichlet(np.ones(vocab))
        return np.log(p), prefix

    return step


def enumerate_best(step_fn, max_len, alpha, vocab, stop_id=STOP_ID):
    """Exhaustive scoring of every content sequence up to the length cap."""
    best = None

    def visit(state, prev, tokens, logp):
        nonlocal best
        log_probs, new_state = step_fn(state, prev)
        finished = (
            tokens + [stop_id],
            logp + float(log_probs[stop_id]),
        )
        score = finished[1] / dec.length_penalty(len(finished[0]), alpha)
        key = (-score, tuple(finished[0]))
        if best is None or key < best[0]:
            best = (key, finished)
        if len(tokens) + 1 < max_len:
            for w in range(vocab):
                if w == stop_id:
                    continue
                visit(new_state, w, tokens + [w],
                      logp + float(log_probs[w]))

    visit((), 2, [], 0.0)
    return best[1]


TOY_TABLE = {
    (): [0.50, 0.45, 0.05],
    (0,): [0.40, 0.55, 0.05],
    (1,): [0.05, 0.05, 0.90],
    (0, 0): [0.10, 0.10, 0.80],
    (0, 1): [0.30, 0.30, 0.40],
    (1, 0): [0.20, 0.20, 0.60],
    (1, 1): [0.30, 0.30, 0.40],
}
TOY_VOCAB = 3  # tokens 0, 1 and STOP (id 2 doubles as the stop id here)


def test_beam_two_matches_exhaustive_enumeration():
    step = table_model(TOY_TABLE, TOY_VOCAB)
    for alpha in (0.0, 0.4):
        hyp = dec.beam_search(step, (), beam=2, max_len=3, alpha=alpha,
                              stop_id=2, start_id=2)
        tokens, logp = enumerate_best(step, max_len=3, alpha=alpha,
                                      vocab=TOY_VOCAB, stop_id=2)
        assert hyp.tokens == tokens
        assert abs(hyp.log_prob - logp) < 1e-12


def test_length_penalty_changes_the_winner():
    step = table_model(TOY_TABLE, TOY_VOCAB)
    raw = dec.beam_search(step, (), beam=3, max_len=3, alpha=0.0,
                          stop_id=2, start_id=2)
    assert raw.tokens == [1, 2]  # highest raw probability: 0.45 * 0.9
    long_biased = dec.beam_search(step, (), beam=3, max_len=3, alpha=8.0,
                                  stop_id=2, start_id=2)
    assert long_biased.tokens == [0, 0, 2]  # penalty now favors length


def test_beam_one_equals_greedy_on_random_models():
    for seed in range(50):
        step = random_model(seed, vocab=6)
        greedy = dec.greedy_decode(step, (), max_len=4, stop_id=5, start_id=2)
        beam = dec.beam_search(step, (), beam=1, max_len=4, alpha=0.0,
                               stop_id=5, start_id=2)
        assert beam.tokens == greedy.tokens
        assert abs(beam.log_prob - greedy.log_prob) < 1e-12


def test_beam_never_loses_to_greedy_when_it_survives():
    surviving = 0
    for seed in range(20):
        step = random_model(seed, vocab=5)
        greedy = dec.greedy_decode(step, (), max_len=4, stop_id=4, start_id=2)
        for beam_width in (2, 3):
            best, pool = dec.beam_search(step, (), beam=beam_width, max_len=4,
                                         alpha=0.4, stop_id=4, start_id=2,
                                         return_pool=True)
            if any(h.tokens == greedy.tokens for h in pool):
                surviving += 1
                assert best.score(0.4) >= greedy.score(0.4) - 1e-12
    assert surviving > 10  # the condition is not vacuous


def test_beam_tie_breaks_toward_lower_token_ids():
    uniform = {(): [0.45, 0.45, 0.1]}
    for prefix in [(0,), (1,)]:
        uniform[prefix] = [0.25, 0.25, 0.5]
    step = table_model(uniform, 3)
    hyp = dec.beam_search(step, (), beam=2, max_len=2, alpha=0.0,
                          stop_id=2, start_id=2)
    # sequences [0, 2] and [1, 2] tie at 0.45 * 0.5; the lower id must win
    assert hyp.tokens == [0, 2]


def test_hypothesis_log_prob_non_increasing():
    step = random_model(123, vocab=5)
    state = ()
    prev, logp = 2, 0.0
    history = [0.0]
    for _ in range(5):
        log_probs, state = step(state, prev)
        prev = int(np.argmax(log_probs))
        logp += float(log_probs[prev])
        history.append(logp)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_beam_requires_positive_width():
    with pytest.raises(ValueError):
        dec.beam_search(random_model(0, 4), (), beam=0, max_len=3)


def test_model_greedy_decode_runs(decode_setup):
    params, example, ctx, state, vocab = decode_setup
    step = dec.make_step_fn(ctx, params)
    hyp = dec.greedy_decode(step, state, max_len=8)
    assert hyp.finished
    assert hyp.tokens[-1] == STOP_ID
    assert len(hyp.tokens) <= 9
    assert hyp.log_prob <= 0.0


# ---------------------------------------------------------------------------
# content selector


def test_selector_predictions_inside_unit_interval():
    rng = np.random.default_rng(0)
    states = [rng.normal(size=(6, 4)) for _ in range(3)]
    targets = [rng.integers(0, 2, 6).astype(float) for _ in range(3)]
    selector = dec.train_content_selector(states, targets, epochs=50)
    mask = selector.predict(states[0], threshold=0.1)
    assert ((mask.q > 0) & (mask.q < 1)).all()


def held_out_auc(q, y):
    pos, neg = q[y == 1], q[y == 0]
    return float((pos[:, None] > neg[None, :]).mean()
                 + 0.5 * (pos[:, None] == neg[None, :]).mean())


def test_selector_auc_on_synthetic_corpus_states():
    # references copy exactly the planted salient tokens; the selector must
    # recover them from encoder states, scored on a held-out split
    docs = syn.generate_documents(seed=21, size=120)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    examples = [encode_example(d, vocab) for d in docs]
    config = ModelConfig(vocab_size=vocab.size, d_emb=16, d_h=16, d_g=32,
                         gcn_layers=2, d_dec=32, d_attn=32)
    params = ModelParams(config, seed=0)
    states, targets = [], []
    for ex in examples:
        enc, _, _ = dec.encode_document(ex, params)
        states.append(enc.fused.data.copy())
        ref = set(ex.reference_tokens)
        targets.append(np.array([1.0 if tok in ref else 0.0
                                 for tok in ex.source_tokens]))
    selector = dec.train_content_selector(states[:100], targets[:100])
    q, y = [], []
    for s, t in zip(states[100:], targets[100:]):
        q.extend(selector.predict(s, 0.1).q)
        y.extend(t)
    auc = held_out_auc(np.array(q), np.array(y))
    assert auc > 0.9


def test_threshold_zero_selects_everything():
    selector = dec.ContentSelector(w=np.zeros(3), b=0.0, mean=np.zeros(3),
                                   std=np.ones(3))
    mask = selector.predict(np.zeros((5, 3)), threshold=0.0)
    assert mask.selected().all()
