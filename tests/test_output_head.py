"""The decoder's output head over all teacher-forced steps at once.

``composed_decode_step`` is the decoder step as it was written before the
recurrence and the output head were split: the head composed per step from
single primitives (27 tape nodes, ``_row_dot`` for p_gen). It stays here as
the oracle. The head over stacked rows, and ``decode_step`` over one row,
must be bitwise equal to it, and the new row-wise primitives must match
finite differences and, forward, their vector counterparts.
"""

import numpy as np
import pytest

from synsum import autodiff as ad
from synsum import synthetic as syn
from synsum.autodiff import Tape, Tensor
from synsum.corpus import UNK_ID, Vocabulary, build_vocabulary, encode_example
from synsum.decoder import (
    ContentMask,
    StepState,
    decode_step,
    encode_batch,
    encode_document,
    initial_state,
    output_head,
    teacher_force,
)
from synsum.model import ModelConfig, ModelParams
from synsum.training import sequence_loss
from oracles import (
    fold_sum,
    log,
    lstm_cell,
    maximum,
    minimum,
    outer,
    pick,
    pick_rows,
    pointer_mix,
    same_bits,
    scatter_sum_vec,
    stack,
    sub,
    sum_all,
    sum_rows,
)
from test_lstm_cell import TOY_WIDTHS


def _row_dot(row, w):
    return pick(
        ad.reshape(ad.matmul(row, ad.reshape(w, (w.shape[0], 1))), (1,)), 0
    )


def composed_decode_step(state, y_prev, ctx, params, mask=None):
    """The per-step decoder with the composed head; the context is a (1, d)
    row and the coverage a (1, n) row in ``StepState`` as it is now."""
    config = params.config
    vocab_size, n, d = config.vocab_size, ctx.n, config.enc_dim
    coverage = ad.reshape(state.coverage, (n,))
    input_id = y_prev if y_prev < vocab_size else UNK_ID
    emb = ad.gather_rows(params.embedding, [input_id])
    x = ad.concat([emb, state.prev_context], axis=1)
    cell = params.dec_cell
    hidden, c = lstm_cell(ad.matmul(x, cell["W_x"]), state.hidden,
                             state.cell, cell["W_h"], cell["b"])
    attn = params.attn
    dec_proj = ad.reshape(ad.matmul(hidden, attn["dec_W"]), (config.d_attn,))
    features = ad.add_rowvec(ad.add_rowvec(ctx.enc_attn_proj, dec_proj),
                             attn["b"])
    if config.use_coverage:
        features = ad.add(features, outer(coverage, attn["cov_w"]))
    scores = ad.reshape(
        ad.matmul(ad.tanh(features), ad.reshape(attn["v"], (config.d_attn, 1))),
        (n,),
    )
    attention = ad.softmax(scores)
    copy_attention = attention
    if mask is not None:
        if mask.damp:
            damped = attention.data * mask.q
            copy_attention = Tensor(damped / damped.sum())
        else:
            copy_attention = ad.softmax(scores, mask=mask.selected())
    context = ad.reshape(
        ad.matmul(ad.reshape(attention, (1, n)), ctx.enc_states), (d,)
    )
    out = params.out_proj
    vocab_logits = ad.reshape(
        ad.add_rowvec(
            ad.matmul(ad.concat([hidden, ad.reshape(context, (1, d))], axis=1),
                      out["W"]),
            out["b"],
        ),
        (vocab_size,),
    )
    vocab_dist = ad.softmax(vocab_logits)
    pg = params.pgen
    p_gen = ad.sigmoid(ad.add(
        ad.add(_row_dot(ad.reshape(context, (1, d)), pg["ctx_w"]),
               _row_dot(hidden, pg["state_w"])),
        ad.add(_row_dot(x, pg["x_w"]), pg["b"]),
    ))
    extended = vocab_size + ctx.n_oov
    gen_dist = (ad.concat([vocab_dist, Tensor(np.zeros(ctx.n_oov))])
                if ctx.n_oov else vocab_dist)
    copy_dist = scatter_sum_vec(copy_attention, ctx.source_ext_ids, extended)
    final = ad.add(ad.mul(gen_dist, p_gen),
                   ad.mul(copy_dist, sub(1.0, p_gen)))
    new_state = StepState(hidden=hidden, cell=c,
                          coverage=ad.reshape(ad.add(coverage, attention),
                                              (1, n)),
                          prev_context=ad.reshape(context, (1, d)))
    return final, attention, p_gen, new_state


def oov_corpus(cap, pad_to=None, size=6, seed=3):
    """Examples whose sources hold OOV tokens (a small vocabulary cap),
    optionally with the vocabulary padded to ``pad_to`` ids."""
    docs = syn.generate_documents(seed=seed, size=size)
    vocab = build_vocabulary(docs, cap=cap)
    if pad_to is not None:
        tokens = vocab.id_to_token + [
            f"filler{i}" for i in range(pad_to - vocab.size)
        ]
        vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)},
                           id_to_token=tokens)
    return vocab, [encode_example(doc, vocab) for doc in docs]


CASES = {
    "toy": dict(cap=None, pad_to=None, config={}),
    "toy-oov": dict(cap=12, pad_to=None, config={}),
    "v2000-oov": dict(cap=12, pad_to=2000, config={}),
    "no-coverage": dict(cap=12, pad_to=None, config=dict(use_coverage=False)),
}


def case_model(name):
    case = CASES[name]
    vocab, examples = oov_corpus(case["cap"] or syn.default_vocab_cap(),
                                 case["pad_to"])
    config = ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS, **case["config"])
    return ModelParams(config, seed=5), examples


def forced_head(example, params):
    """One example's lockstep teacher forcing, then its output head: the
    final distributions, attention and coverage rows, one row per step."""
    (rows,) = teacher_force([example], encode_batch([example], params), params)
    final, _ = output_head(rows.hidden, rows.context, rows.x, rows.attention,
                           example.source_ext_ids, len(example.oov_tokens),
                           params)
    return final, rows.attention, rows.coverage


@pytest.mark.parametrize("name", sorted(CASES))
def test_teacher_forced_rows_bitwise_equal_per_step_oracle(name):
    params, examples = case_model(name)
    if name != "toy":
        assert any(ex.oov_tokens for ex in examples)
    assert any(len(set(ex.source_ext_ids)) < len(ex.source_ext_ids)
               for ex in examples)  # repeated source ids copy-accumulate
    for example in examples:
        enc, _, ctx = encode_document(example, params)
        inputs = example.target_ids[:-1]
        final, attention, coverage = forced_head(example, params)
        assert final.shape == (len(inputs),
                               params.config.vocab_size + ctx.n_oov)
        state = step_state = initial_state(enc, params)
        for t, y_prev in enumerate(inputs):
            assert same_bits(coverage.data[t], state.coverage.data[0])
            want, want_attention, want_p_gen, state = composed_decode_step(
                state, y_prev, ctx, params)
            assert same_bits(final.data[t], want.data)
            assert same_bits(attention.data[t], want_attention.data)
            got, got_attention, got_p_gen, step_state = decode_step(
                step_state, y_prev, ctx, params)
            assert same_bits(got.data, want.data)
            assert same_bits(got_attention.data, want_attention.data)
            assert same_bits(got_p_gen.data, want_p_gen.data)
            assert same_bits(step_state.prev_context.data,
                             state.prev_context.data)


def composed_sequence_loss(example, params, coverage_weight):
    """The per-step loss: one composed step and one scalar term at a time."""
    enc, _, ctx = encode_document(example, params)
    state = initial_state(enc, params)
    nll_sum = cov_sum = None
    for y_prev, gold in zip(example.target_ids[:-1],
                            example.target_ext_ids[1:]):
        coverage = ad.reshape(state.coverage, (ctx.n,))
        final, attention, _, state = composed_decode_step(state, y_prev, ctx,
                                                          params)
        nll = ad.mul(log(maximum(pick(final, gold), 1e-12)), -1.0)
        cov = sum_all(minimum(attention, coverage))
        nll_sum = nll if nll_sum is None else ad.add(nll_sum, nll)
        cov_sum = cov if cov_sum is None else ad.add(cov_sum, cov)
    steps = len(example.target_ids) - 1
    return ad.mul(ad.add(nll_sum, ad.mul(cov_sum, coverage_weight)),
                  1.0 / steps)


@pytest.mark.parametrize("name", ["toy-oov", "v2000-oov"])
def test_sequence_loss_bitwise_and_gradients_close_to_oracle(name):
    params, examples = case_model(name)
    named = params.named_tensors()

    def run(loss_fn):
        params.zero_grads()
        with Tape() as tape:
            loss = loss_fn()
            tape.backward(loss)
        return loss.data, {k: t.grad.copy() for k, t in named.items()
                           if t.grad is not None}

    for example in examples:
        loss, grads = run(lambda: sequence_loss(example, params, 1.0)[0])
        want, want_grads = run(
            lambda: composed_sequence_loss(example, params, 1.0))
        assert same_bits(loss, want)
        assert grads.keys() == want_grads.keys()
        scale = max(np.abs(g).max() for g in want_grads.values())
        for key, g in want_grads.items():
            assert np.abs(grads[key] - g).max() <= 1e-12 * scale, key


@pytest.mark.parametrize("damp", [False, True])
def test_masked_decode_step_bitwise_equals_oracle(damp):
    params, examples = case_model("toy-oov")
    example = examples[0]
    enc, _, ctx = encode_document(example, params)
    q = np.linspace(0.0, 1.0, example.n)
    mask = ContentMask(q=q, threshold=0.5, damp=damp)
    state = want_state = initial_state(enc, params)
    for y_prev in example.target_ids[:-1]:
        got, _, got_p_gen, state = decode_step(state, y_prev, ctx, params,
                                               mask=mask)
        want, _, want_p_gen, want_state = composed_decode_step(
            want_state, y_prev, ctx, params, mask=mask)
        assert same_bits(got.data, want.data)
        assert same_bits(got_p_gen.data, want_p_gen.data)


# ---------------------------------------------------------------------------
# the row-wise primitives


def rand(rng, shape, scale=1.0):
    return Tensor(rng.normal(0, scale, shape), requires_grad=True)


def test_pointer_mix_grad_check():
    rng = np.random.default_rng(0)
    ids = [1, 5, 1, 6, 0]  # a repeated id and two past the 5-id vocabulary
    probe = rng.normal(size=(3, 7))
    params = {
        "vocab": rand(rng, (3, 5)),
        "attention": rand(rng, (3, 5)),
        "p_gen": Tensor(rng.uniform(0.1, 0.9, (3, 1)), requires_grad=True),
    }

    def f(p):
        out = pointer_mix(p["vocab"], p["attention"], p["p_gen"], ids, 7)
        return sum_all(ad.mul(out, probe))

    report = ad.grad_check(f, params, tol=1e-6)
    assert report.ok, str(report)


def test_pointer_mix_rows_bitwise_equal_composition():
    rng = np.random.default_rng(1)
    ids = np.array([3, 0, 3, 9, 10, 3])
    vocab = rng.dirichlet(np.ones(9), size=4)
    attention = rng.dirichlet(np.ones(6), size=4)
    p_gen = rng.uniform(0, 1, (4, 1))
    out = pointer_mix(Tensor(vocab), Tensor(attention), Tensor(p_gen), ids, 11)
    for r in range(4):
        p = Tensor(p_gen[r, 0])
        gen = ad.concat([Tensor(vocab[r]), Tensor(np.zeros(2))])
        copy = scatter_sum_vec(Tensor(attention[r]), ids, 11)
        want = ad.add(ad.mul(gen, p), ad.mul(copy, sub(1.0, p)))
        assert same_bits(out.data[r], want.data)


def test_pointer_mix_rejects_bad_shapes():
    vocab, attention = Tensor(np.ones((2, 4))), Tensor(np.ones((2, 3)))
    with pytest.raises(ad.ShapeError):
        pointer_mix(vocab, attention, Tensor(np.ones(2)), [0, 1, 2], 4)
    with pytest.raises(ad.ShapeError):
        pointer_mix(vocab, attention, Tensor(np.ones((2, 1))), [0, 1], 4)
    with pytest.raises(IndexError):
        pointer_mix(vocab, attention, Tensor(np.ones((2, 1))), [0, 1, 4], 4)


def test_row_softmax_grad_check():
    rng = np.random.default_rng(2)
    probe = rng.normal(size=(3, 5))
    params = {"x": rand(rng, (3, 5), scale=2.0)}
    report = ad.grad_check(
        lambda p: sum_all(ad.mul(ad.softmax(p["x"]), probe)), params,
        tol=1e-6)
    assert report.ok, str(report)


@pytest.mark.parametrize("width", [7, 36, 129, 2000, 20000, 20037])
def test_row_softmax_bitwise_equals_vector_softmax(width):
    rng = np.random.default_rng(width)
    x = rng.normal(0, 4.0, (5, width))
    rows = ad.softmax(Tensor(x)).data
    for r in range(5):
        assert same_bits(rows[r], ad.softmax(Tensor(x[r])).data)


def test_row_softmax_rejects_a_mask():
    with pytest.raises(ad.ShapeError):
        ad.softmax(Tensor(np.zeros((2, 3))), mask=np.ones((2, 3), dtype=bool))


def test_pick_rows_grad_check_and_values():
    rng = np.random.default_rng(3)
    params = {"x": rand(rng, (4, 6))}
    cols = [5, 0, 5, 2]
    picked = pick_rows(params["x"], cols).data
    assert same_bits(picked, params["x"].data[np.arange(4), cols])
    report = ad.grad_check(
        lambda p: sum_all(ad.mul(pick_rows(p["x"], cols),
                                    Tensor([1.0, -2.0, 0.5, 3.0]))),
        params, tol=1e-6)
    assert report.ok, str(report)
    with pytest.raises(IndexError):
        pick_rows(params["x"], [0, 1, 2, 6])


@pytest.mark.parametrize("width", [1, 7, 8, 18, 90, 129, 2000])
def test_sum_rows_bitwise_equals_vector_sum(width):
    x = np.random.default_rng(width).normal(size=(6, width))
    sums = sum_rows(Tensor(x)).data
    for r in range(6):
        assert sums[r].tobytes() == x[r].sum().tobytes()
    assert sum_rows(Tensor(x[0])).data.tobytes() == x[0].sum().tobytes()


def test_fold_sum_is_a_left_fold():
    for size in (1, 2, 9, 40):
        x = np.random.default_rng(size).normal(size=size)
        total = x[0]
        for v in x[1:]:
            total = total + v
        assert fold_sum(Tensor(x)).data.tobytes() == total.tobytes()


@pytest.mark.parametrize("name,build", [
    ("sum_rows", lambda p: sum_rows(ad.mul(p["x"], p["x"]))),
    ("fold_sum", lambda p: fold_sum(sum_rows(ad.tanh(p["x"])))),
    ("stack", lambda p: sum_rows(ad.reshape(ad.mul(
        s := stack([p["x"], ad.tanh(p["x"]), Tensor(np.ones((3, 4)))]),
        s), (9, 4)))),
])
def test_reduction_and_stack_grad_check(name, build):
    rng = np.random.default_rng(5)
    params = {"x": rand(rng, (3, 4))}
    report = ad.grad_check(lambda p: fold_sum(ad.reshape(build(p), (-1,))),
                           params, tol=1e-6)
    assert report.ok, str(report)


# ---------------------------------------------------------------------------
# column-blocked multi-row matmul


@pytest.mark.parametrize("rows,inner,width", [
    (2, 3, 4095), (2, 3, 4096), (2, 3, 4097), (3, 2, 8193), (21, 4, 5),
    (21, 80, 1), (2, 112, 128), (2, 113, 128), (2, 3, 256), (2, 3, 257),
    (2, 128, 128), (2, 129, 128), (2, 3, 1280), (2, 3, 1281),
])
def test_multi_row_matmul_matches_triple_loop_oracle(rows, inner, width):
    # shapes on both sides of the column-block boundary, of the largest
    # output folded by np.add.reduce (2 x 1,280) and of the most terms in
    # one of its chunks (128 for 256 entries)
    rng = np.random.default_rng(rows * 10000 + width)
    a = rng.normal(size=(rows, inner))
    b = rng.normal(size=(inner, width))
    expected = np.zeros((rows, width))
    for i in range(rows):
        for j in range(width):
            for k in range(inner):
                expected[i, j] += a[i, k] * b[k, j]
    out = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_array_equal(out.data, expected)
    for i in range(rows):  # each row is the one-row product of that row
        assert same_bits(out.data[i], ad.matmul(Tensor(a[i:i + 1]),
                                                Tensor(b)).data[0])


def test_teacher_forced_head_records_one_mixture_node():
    params, examples = case_model("toy-oov")
    example = examples[0]
    with Tape() as tape:
        forced_head(example, params)
    ops = [node.op for node in tape.nodes]
    # the recurrence is one scan node, the head and its mixture one node
    assert ops.count("decoder_scan") == 1
    assert ops.count("pointer_head") == 1
    assert "softmax" not in ops and "pointer_mix" not in ops
