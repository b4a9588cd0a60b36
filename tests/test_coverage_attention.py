"""The fused ``coverage_attention`` and ``generation_gate`` primitives and
the row-batched decoder.

``composed_recurrence`` is the decoder's recurrence as it was written before
the attention was fused and the state held R rows: 17 tape nodes a step, one
state row, the coverage a vector. ``composed_head`` is the output head with
p_gen composed from 10 nodes. They stay here as the oracle. Each row of the
fused, R-row decoder must be bitwise equal to them forward, under every
content mask; a one-row teacher-forced loss must have bitwise their loss and
gradients; and R-row decoder steps must be bitwise R one-row steps.
"""

from typing import NamedTuple

import numpy as np
import pytest

from synsum import autodiff as ad
from synsum import cli
from synsum import decoder as dec
from synsum.autodiff import Tape, Tensor
from synsum.corpus import STOP_ID, UNK_ID, ids_to_tokens
from synsum.decoder import (
    ContentMask,
    ContentSelector,
    decode_step,
    encode_document,
    initial_state,
    recurrence_step,
)
from synsum.model import ModelConfig, ModelParams
from synsum.training import sequence_loss
from oracles import (
    composed_recurrence_step,
    coverage_attention,
    generation_gate,
    loss_from_rows,
    lstm_cell,
    outer,
    pointer_mix,
    same_bits,
    stack,
    sum_all,
)
from test_beam_equivalence import assert_same_search, scalar_beam_search
from test_output_head import CASES, case_model, oov_corpus


class VectorState(NamedTuple):
    hidden: Tensor        # (1, d_dec)
    cell: Tensor          # (1, d_dec)
    coverage: Tensor      # (n,)
    prev_context: Tensor  # (1, d)


def composed_recurrence(state, y_prev, ctx, params, mask=None):
    """One row of the recurrence from single primitives. Returns (x,
    attention vector, attention row, copy row, next state)."""
    config = params.config
    n = ctx.n
    input_id = y_prev if y_prev < config.vocab_size else UNK_ID
    emb = ad.gather_rows(params.embedding, [input_id])
    x = ad.concat([emb, state.prev_context], axis=1)
    dec_cell = params.dec_cell
    hidden, cell = lstm_cell(ad.matmul(x, dec_cell["W_x"]), state.hidden,
                                state.cell, dec_cell["W_h"], dec_cell["b"])
    attn = params.attn
    dec_proj = ad.reshape(ad.matmul(hidden, attn["dec_W"]), (config.d_attn,))
    features = ad.add_rowvec(
        ad.add_rowvec(ctx.enc_attn_proj, dec_proj), attn["b"]
    )
    if config.use_coverage:
        features = ad.add(features, outer(state.coverage, attn["cov_w"]))
    scores = ad.reshape(ad.matmul(ad.tanh(features), ctx.attn_v), (n,))
    attention = ad.softmax(scores)
    copy_attention = attention
    if mask is not None:
        if mask.damp:
            damped = attention.data * mask.q
            total = damped.sum()
            if total > 0:
                copy_attention = Tensor(damped / total)
        else:
            selected = mask.selected()
            if selected.any() and not selected.all():
                copy_attention = ad.softmax(scores, mask=selected)
    attention_row = ad.reshape(attention, (1, n))
    copy_row = (attention_row if copy_attention is attention
                else ad.reshape(copy_attention, (1, n)))
    new_state = VectorState(hidden, cell, ad.add(state.coverage, attention),
                            ad.matmul(attention_row, ctx.enc_states))
    return x, attention, attention_row, copy_row, new_state


def composed_gate(context, hidden, x, params):
    def column_dot(rows, w):
        return ad.matmul(rows, ad.reshape(w, (w.shape[0], 1)))

    pg = params.pgen
    return ad.sigmoid(ad.add(
        ad.add(column_dot(context, pg["ctx_w"]),
               column_dot(hidden, pg["state_w"])),
        ad.add(column_dot(x, pg["x_w"]), pg["b"]),
    ))


def composed_head(hidden, context, x, copy_attention, ctx, params):
    """``output_head`` with p_gen composed from single primitives."""
    out = params.out_proj
    vocab_dist = ad.softmax(ad.add_rowvec(
        ad.matmul(ad.concat([hidden, context], axis=1), out["W"]), out["b"]))
    p_gen = composed_gate(context, hidden, x, params)
    final = pointer_mix(vocab_dist, copy_attention, p_gen,
                           ctx.source_ext_ids,
                           params.config.vocab_size + ctx.n_oov)
    return final, p_gen


def vector_state(state, row=0):
    """Row ``row`` of a ``StepState`` as the oracle's state."""
    return VectorState(Tensor(state.hidden.data[row:row + 1]),
                       Tensor(state.cell.data[row:row + 1]),
                       Tensor(state.coverage.data[row]),
                       Tensor(state.prev_context.data[row:row + 1]))


def composed_sequence_loss(example, params, coverage_weight):
    """``sequence_loss`` with the composed recurrence under teacher forcing."""
    enc, _, ctx = encode_document(example, params)
    init = initial_state(enc, params)
    state = VectorState(init.hidden, init.cell, Tensor(np.zeros(ctx.n)),
                        init.prev_context)
    hiddens, contexts, xs, attention_rows, coverages = [], [], [], [], []
    for y_prev in example.target_ids[:-1]:
        coverages.append(state.coverage)
        x, _, _, copy_row, state = composed_recurrence(state, y_prev, ctx,
                                                       params)
        hiddens.append(state.hidden)
        contexts.append(state.prev_context)
        xs.append(x)
        attention_rows.append(copy_row)
    attention = ad.concat(attention_rows, axis=0)
    final, _ = composed_head(ad.concat(hiddens, axis=0),
                             ad.concat(contexts, axis=0),
                             ad.concat(xs, axis=0), attention, ctx, params)
    return loss_from_rows(final, example.target_ext_ids[1:], attention,
                          stack(coverages), coverage_weight)


# ---------------------------------------------------------------------------
# the primitive


def attention_inputs(rng, rows, n=5, width=4, d_dec=3, d=6, coverage=True):
    def rand(shape, scale=1.0):
        return Tensor(rng.normal(0, scale, shape), requires_grad=True)

    params = {
        "hidden": rand((rows, d_dec)), "dec_W": rand((d_dec, width), 0.5),
        "enc_proj": rand((n, width)), "b": rand((width,)),
        "coverage": Tensor(rng.uniform(0, 2, (rows, n)), requires_grad=True),
        "v": rand((width, 1)), "enc_states": rand((n, d)),
    }
    if coverage:
        params["cov_w"] = rand((width,))
    return params


def call_attention(p):
    return coverage_attention(p["hidden"], p["dec_W"], p["enc_proj"],
                                 p["b"], p["coverage"], p.get("cov_w"),
                                 p["v"], p["enc_states"])


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("coverage", [True, False])
@pytest.mark.parametrize("reached", ["all", "context", "coverage"])
def test_coverage_attention_grad_check(rows, coverage, reached):
    rng = np.random.default_rng(rows * 10 + coverage)
    params = attention_inputs(rng, rows, coverage=coverage)
    probes = [Tensor(rng.normal(size=shape))
              for shape in ((rows, 5), (rows, 6), (rows, 5), (rows, 5))]
    used = {"all": range(4), "context": [1], "coverage": [2]}[reached]

    def f(p):
        outs = call_attention(p)
        terms = [sum_all(ad.mul(outs[i], probes[i])) for i in used]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total

    report = ad.grad_check(f, params, tol=1e-6)
    assert report.ok, str(report)


@pytest.mark.parametrize("rows", [1, 3])
def test_generation_gate_grad_check_and_bitwise_composition(rows):
    rng = np.random.default_rng(rows)
    config = ModelConfig(vocab_size=8, d_emb=3, d_h=2, d_g=4, gcn_layers=1,
                         d_dec=5, d_attn=4)
    params = ModelParams(config, seed=rows)
    params.pgen["b"].data[...] = 0.3
    inputs = {name: Tensor(rng.normal(size=(rows, width)), requires_grad=True)
              for name, width in (("context", config.enc_dim),
                                  ("hidden", config.d_dec),
                                  ("x", config.d_emb + config.enc_dim))}
    probe = Tensor(rng.normal(size=(rows, 1)))
    tensors = {**inputs, **params.pgen}

    def gate(p, fn):
        return sum_all(ad.mul(fn(p["context"], p["hidden"], p["x"]), probe))

    def fused(c, h, x):
        return generation_gate(c, h, x, params.pgen["ctx_w"],
                                  params.pgen["state_w"], params.pgen["x_w"],
                                  params.pgen["b"])

    report = ad.grad_check(lambda p: gate(p, fused), tensors, tol=1e-6)
    assert report.ok, str(report)

    def grads(fn):
        for t in tensors.values():
            t.zero_grad()
        with Tape() as tape:
            value = gate(tensors, fn)
            tape.backward(value)
        return value.data, {k: t.grad for k, t in tensors.items()}

    value, got = grads(fused)
    want_value, want = grads(lambda c, h, x: composed_gate(c, h, x, params))
    assert same_bits(value, want_value)
    for key in tensors:
        assert same_bits(got[key], want[key]), key


def test_coverage_attention_rejects_bad_shapes():
    p = attention_inputs(np.random.default_rng(0), 2)
    for key, shape in (("coverage", (2, 4)), ("v", (4,)), ("b", (3,)),
                       ("cov_w", (5,)), ("enc_states", (4, 6))):
        bad = dict(p, **{key: Tensor(np.zeros(shape))})
        with pytest.raises(ad.ShapeError):
            call_attention(bad)


def test_one_recurrence_step_records_one_node():
    """One ``ad.decoder_scan`` node, where the composition records five:
    ``gather_rows``, ``concat``, ``matmul``, ``lstm_cell`` and
    ``coverage_attention``."""
    params, examples = case_model("toy-oov")
    enc, _, ctx = encode_document(examples[0], params)
    state = initial_state(enc, params)
    with Tape() as tape:
        recurrence_step(state, [examples[0].target_ids[0]], ctx, params)
    assert [node.op for node in tape.nodes] == ["decoder_scan"]
    with Tape() as tape:
        composed_recurrence_step(state, [examples[0].target_ids[0]], ctx,
                                 params)
    assert [node.op for node in tape.nodes] == [
        "gather_rows", "concat", "matmul", "lstm_cell", "coverage_attention"]


# ---------------------------------------------------------------------------
# one row: bitwise the composition, forward and backward


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_row_loss_and_gradients_bitwise_equal_composition(name):
    params, examples = case_model(name)
    named = params.named_tensors()

    def run(loss_fn):
        params.zero_grads()
        with Tape() as tape:
            loss = loss_fn()
            tape.backward(loss)
        return loss.data, {k: t.grad for k, t in named.items()
                           if t.grad is not None}

    for example in examples:
        loss, grads = run(lambda: sequence_loss(example, params, 1.0)[0])
        want, want_grads = run(
            lambda: composed_sequence_loss(example, params, 1.0)[0])
        assert same_bits(loss, want)
        assert grads.keys() == want_grads.keys()
        for key, g in want_grads.items():
            assert same_bits(grads[key], g), key


# ---------------------------------------------------------------------------
# R rows: each row bitwise the composition and the one-row step


def batch_state(example, params, rows, seed):
    """An R-row state after a few distinct teacher-forced steps per row,
    with each row's next previous token."""
    enc, _, ctx = encode_document(example, params)
    rng = np.random.default_rng(seed)
    extended = params.config.vocab_size + ctx.n_oov
    state = initial_state(enc, params).take([0] * rows)
    for _ in range(2):
        _, _, _, state = decode_step(state, rng.integers(0, extended, rows),
                                     ctx, params)
    tokens = [int(t) for t in rng.integers(0, extended, rows)]
    tokens[0] = extended - 1  # an OOV id when the document has one
    return ctx, state, tokens


def composed_rows(state, tokens, ctx, params, mask):
    """Each row through the composed recurrence and the one-row head."""
    out = []
    for row, y_prev in enumerate(tokens):
        x, attention, _, copy_row, new = composed_recurrence(
            vector_state(state, row), y_prev, ctx, params, mask)
        final, p_gen = composed_head(new.hidden, new.prev_context, x,
                                     copy_row, ctx, params)
        out.append((final.data[0], attention.data, p_gen.data[0],
                    new.hidden.data[0], new.cell.data[0],
                    new.coverage.data, new.prev_context.data[0]))
    return out


def assert_rows_equal(got, state, want):
    final, attention, p_gen, new = got
    for row, expected in enumerate(want):
        actual = (final.data[row], attention.data[row], p_gen.data[row],
                  new.hidden.data[row], new.cell.data[row],
                  new.coverage.data[row], new.prev_context.data[row])
        assert all(same_bits(a, b) for a, b in zip(actual, expected,
                                                   strict=True)), row


def selection(n, kind):
    q = np.linspace(0.0, 1.0, n)
    return {
        "none": None,
        "hard": ContentMask(q=q, threshold=0.5),
        "damp": ContentMask(q=q, threshold=0.5, damp=True),
        "empty": ContentMask(q=q, threshold=2.0),
    }[kind]


@pytest.mark.parametrize("name", ["toy", "toy-oov", "v2000-oov",
                                  "no-coverage"])
@pytest.mark.parametrize("kind", ["none", "hard", "damp", "empty"])
def test_rows_bitwise_equal_composition(name, kind):
    params, examples = case_model(name)
    for index, example in enumerate(examples[:3]):
        ctx, state, tokens = batch_state(example, params, rows=4, seed=index)
        mask = selection(ctx.n, kind)
        got = decode_step(state, tokens, ctx, params, mask=mask)
        assert_rows_equal(got, state, composed_rows(state, tokens, ctx,
                                                    params, mask))


def test_damped_row_with_zero_total_falls_back_alone():
    """Attention sharp enough to underflow to exact zeros: one row puts
    none of its mass where the selector does, another does."""
    params, examples = case_model("toy-oov")
    params.attn["v"].data *= 3000.0
    params.attn["enc_W"].data *= 1000.0
    params.attn["dec_W"].data *= 1000.0
    ctx, state, tokens = batch_state(examples[0], params, rows=4, seed=1)
    attention = decode_step(state, tokens, ctx, params)[1].data
    zero_in_0 = (attention[0] == 0) & (attention[1:] > 0).any(axis=0)
    assert zero_in_0.any()
    q = np.where(zero_in_0, 1.0, 0.0)
    mask = ContentMask(q=q, threshold=0.5, damp=True)
    assert (attention[1:] * q).sum(axis=1).max() > 0
    got = decode_step(state, tokens, ctx, params, mask=mask)
    assert_rows_equal(got, state, composed_rows(state, tokens, ctx, params,
                                                mask))


@pytest.mark.parametrize("rows", [3, 40])  # R * n below and above 512
@pytest.mark.parametrize("pad_to", [None, 2000])
def test_rows_bitwise_equal_one_row_steps(rows, pad_to):
    vocab, examples = oov_corpus(cap=12, pad_to=pad_to)
    params, _ = case_model("toy-oov" if pad_to is None else "v2000-oov")
    example = examples[0]
    ctx, state, tokens = batch_state(example, params, rows, seed=rows)
    assert (rows * ctx.n > 512) == (rows == 40)
    got = decode_step(state, tokens, ctx, params)
    for row, y_prev in enumerate(tokens):
        final, attention, p_gen, new = decode_step(state.take([row]), y_prev,
                                                   ctx, params)
        assert final.shape == (final.shape[0],) and p_gen.shape == ()
        assert same_bits(got[0].data[row], final.data)
        assert same_bits(got[1].data[row], attention.data)
        assert same_bits(got[2].data[row, 0], p_gen.data)
        for a, b in zip(got[3].take([row]).__dict__.values(),
                        new.__dict__.values()):
            assert same_bits(a.data, b.data)


def test_row_count_must_match_tokens():
    params, examples = case_model("toy")
    enc, _, ctx = encode_document(examples[0], params)
    state = initial_state(enc, params).take([0, 0])
    with pytest.raises(ValueError):
        decode_step(state, 4, ctx, params)


# ---------------------------------------------------------------------------
# batched search against the scalar oracle


def reference_decode(examples, params, vocab, beam, selector, damp):
    """Each document encoded alone by ``encode_document`` and searched by
    ``scalar_beam_search``: (tokens, gate, (best, pool)) per document."""
    decoded = []
    for example in examples:
        enc, gated, ctx = encode_document(example, params)
        mask = None
        if selector is not None:
            mask = selector.predict(enc.fused.data, 0.5)
            mask.damp = damp
        best, pool = scalar_beam_search(
            dec.make_step_fn(ctx, params, mask=mask), initial_state(enc, params),
            beam=beam, max_len=6, alpha=0.4, return_pool=True)
        ids = [t for t in best.tokens if t != STOP_ID]
        decoded.append((ids_to_tokens(ids, vocab, example.oov_tokens), gated,
                        (best, pool)))
    return decoded


@pytest.mark.parametrize("beam", [1, 2, 3, 4, 5, 6])
def test_batched_decode_corpus_matches_scalar_search_under_a_mask(
        beam, monkeypatch):
    # chunks of 4: the 6-document corpus ends in a partial chunk, and at
    # beams 1 and 4 a corpus of 2 chunks + 3 documents is decoded as well
    monkeypatch.setattr(cli, "DECODE_CHUNK", 4)
    params, examples = case_model("toy-oov")
    vocab, _ = oov_corpus(cap=12)
    corpora = [(vocab, examples)]
    if beam in (1, 4):
        corpora.append(oov_corpus(cap=12, size=2 * cli.DECODE_CHUNK + 3,
                                  seed=4))
    rng = np.random.default_rng(0)
    d = params.config.enc_dim
    selector = ContentSelector(w=rng.normal(size=d), b=0.0,
                               mean=np.zeros(d), std=np.full(d, 0.05))

    def decode_with(vocab, examples, selector, damp):
        searches = []

        def recording(*args, **kwargs):
            searches.append(dec.beam_search(*args, return_pool=True, **kwargs))
            return searches[-1][0]

        monkeypatch.setattr(cli, "beam_search", recording)
        outputs = list(cli.decode_corpus(
            iter(examples), params, vocab, beam=beam, max_len=6, alpha=0.4,
            selector=selector, threshold=0.5, damp=damp))
        return [(tokens, gated, search)
                for (tokens, gated), search in zip(outputs, searches,
                                                   strict=True)]

    for vocab, examples in corpora:
        assert vocab.size == params.config.vocab_size
        masks = [selector.predict(encode_document(ex, params)[0].fused.data,
                                  0.5) for ex in examples]
        assert any(0 < m.selected().sum() < len(m.q) for m in masks)
        for chosen, damp in ((None, False), (selector, False),
                             (selector, True)):
            got = decode_with(vocab, examples, chosen, damp)
            expected = reference_decode(examples, params, vocab, beam, chosen,
                                        damp)
            assert len(got) == len(expected) == len(examples)
            for (tokens, gated, search), (tokens_ref, gated_ref, search_ref) \
                    in zip(got, expected):
                assert tokens == tokens_ref
                assert_same_search(search, search_ref, alpha=0.4)
                for field in ("attention", "gate", "gated"):
                    a, b = getattr(gated, field), getattr(gated_ref, field)
                    assert (a is None) == (b is None)
                    assert a is None or same_bits(a.data, b.data)
