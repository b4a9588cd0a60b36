"""The fused ``lstm_cell`` and the oracle ``lstm_scan`` against the
composition they replaced.

``composed_cell``, ``composed_scan`` and ``composed_bilstm`` are the LSTM
cell, scan and BiLSTM as they were written from single primitives before the
cell was fused (18 tape nodes a step). They stay here as the oracle: the
decoder's ``lstm_cell``, the encoder's ``ad.bilstm_scan`` (one node for both
directions, one document here) and the per-direction ``lstm_scan`` of
``oracles.py`` (its ragged batches, and ``bilstm_scan``'s, are checked in
``test_batched_encoder.py``) must be bitwise equal to them forward, and
their gradients must match to rounding (the backward sums a scan's
input-projection gradients in one matrix product instead of step by step,
so only their order differs).
"""

import numpy as np
import pytest

from synsum import autodiff as ad
from synsum import encoder
from synsum import synthetic as syn
from synsum.autodiff import Tape, Tensor
from synsum.corpus import Vocabulary, build_vocabulary, encode_example
from synsum.decoder import decode_step, encode_document, initial_state
from synsum.model import ModelConfig, ModelParams
from synsum.training import sequence_loss
import oracles
from oracles import (
    composed_decode_step,
    composed_sequence_loss,
    lstm_cell,
    lstm_scan,
    same_bits,
    slice_cols,
    sum_all,
)

TOY_WIDTHS = dict(d_emb=16, d_h=16, d_g=32, gcn_layers=2, d_dec=32, d_attn=32)


def composed_gates(z, c, d):
    i_gate = ad.sigmoid(slice_cols(z, 0, d))
    f_gate = ad.sigmoid(slice_cols(z, d, 2 * d))
    g_cand = ad.tanh(slice_cols(z, 2 * d, 3 * d))
    o_gate = ad.sigmoid(slice_cols(z, 3 * d, 4 * d))
    c_new = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, g_cand))
    h_new = ad.mul(o_gate, ad.tanh(c_new))
    return h_new, c_new


def composed_cell(x_proj, h, c, W_h, b):
    """Drop-in for ``ad.lstm_cell`` built from single primitives."""
    z = ad.add_rowvec(ad.add(x_proj, ad.matmul(h, W_h)), b)
    return composed_gates(z, c, h.shape[1])


def composed_scan(x, cell, d_h, reverse=False):
    """The scan with the input projected one row at a time, inside the loop."""
    n = x.shape[0]
    h = Tensor(np.zeros((1, d_h)))
    c = Tensor(np.zeros((1, d_h)))
    states = [None] * n
    order = range(n - 1, -1, -1) if reverse else range(n)
    for i in order:
        x_i = ad.gather_rows(x, [i])
        z = ad.add_rowvec(
            ad.add(ad.matmul(x_i, cell["W_x"]), ad.matmul(h, cell["W_h"])),
            cell["b"],
        )
        h, c = composed_gates(z, c, d_h)
        states[i] = h
    return states, h, c


def composed_bilstm(x, params, lengths=None):
    assert lengths in (None, (x.shape[0],))  # one document
    d_h = params.config.d_h
    fw_states, fw_h, fw_c = composed_scan(x, params.lstm_fw, d_h)
    bw_states, bw_h, bw_c = composed_scan(x, params.lstm_bw, d_h, reverse=True)
    rows = [
        ad.concat([fw_states[i], bw_states[i]], axis=1) for i in range(x.shape[0])
    ]
    return ad.concat(rows, axis=0), (ad.concat([fw_h, bw_h], axis=1),
                                     ad.concat([fw_c, bw_c], axis=1))


@pytest.fixture
def composed_model(monkeypatch):
    """Route the encoder, and the composed decoder of ``oracles.py``,
    through the single-primitive cell."""

    def use():
        monkeypatch.setattr(encoder, "bilstm", composed_bilstm)
        monkeypatch.setattr(oracles, "lstm_cell", composed_cell)

    return use


def random_cell(rng, d, rows=1, scale=1.0):
    """Inputs for one cell; ``scale`` pushes pre-activations to both tails."""
    return dict(
        x_proj=Tensor(rng.normal(0, scale, (rows, 4 * d)), requires_grad=True),
        h=Tensor(rng.uniform(-1, 1, (1, d)), requires_grad=True),
        c=Tensor(rng.normal(0, scale, (1, d)), requires_grad=True),
        W_h=Tensor(rng.uniform(-0.5, 0.5, (d, 4 * d)), requires_grad=True),
        b=Tensor(rng.normal(0, scale, 4 * d), requires_grad=True),
    )


def corpus(seed, size, vocab_size=None):
    docs = syn.generate_documents(seed=seed, size=size)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    if vocab_size is not None:
        tokens = vocab.id_to_token + [
            f"filler{i}" for i in range(vocab_size - vocab.size)
        ]
        vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)},
                           id_to_token=tokens)
    return vocab, [encode_example(doc, vocab) for doc in docs]


# ---------------------------------------------------------------------------
# the primitive alone


@pytest.mark.parametrize("reached", ["both", "h", "c"])
@pytest.mark.parametrize("rows", [None, 2])
def test_lstm_cell_gradients_match_finite_differences(reached, rows):
    """``rows`` None is ``random_cell``'s one-row cell; 2 steps two rows
    at once, as beam search steps its hypotheses."""
    rng = np.random.default_rng(4)
    params = random_cell(rng, d=3)
    if rows is not None:
        params.update(
            x_proj=Tensor(rng.normal(size=(rows, 12)), requires_grad=True),
            h=Tensor(rng.uniform(-1, 1, (rows, 3)), requires_grad=True),
            c=Tensor(rng.normal(size=(rows, 3)), requires_grad=True),
        )
    probe_h = rng.uniform(-1, 1, (rows or 1, 3))
    probe_c = rng.uniform(-1, 1, (rows or 1, 3))

    def f(p):
        h, c = lstm_cell(p["x_proj"], p["h"], p["c"], p["W_h"], p["b"])
        terms = []
        if reached in ("both", "h"):
            terms.append(sum_all(ad.mul(h, probe_h)))
        if reached in ("both", "c"):
            terms.append(sum_all(ad.mul(c, probe_c)))
        return terms[0] if len(terms) == 1 else ad.add(*terms)

    report = ad.grad_check(f, params, eps=1e-5, tol=1e-6)
    assert report.ok, str(report)


def test_lstm_cell_unreached_outputs_leave_no_gradient():
    rng = np.random.default_rng(0)
    p = random_cell(rng, d=2)
    with Tape() as tape:
        h, c = lstm_cell(p["x_proj"], p["h"], p["c"], p["W_h"], p["b"])
        loss = sum_all(ad.mul(p["h"], 1.0))  # the cell's outputs unused
        tape.backward(loss)
    assert h.grad is None and c.grad is None
    assert p["W_h"].grad is None and p["x_proj"].grad is None


def test_lstm_cell_is_one_tape_node():
    rng = np.random.default_rng(0)
    p = random_cell(rng, d=4)
    with Tape() as tape:
        lstm_cell(p["x_proj"], p["h"], p["c"], p["W_h"], p["b"])
    assert [node.op for node in tape.nodes] == ["lstm_cell"]


def test_lstm_cell_rejects_bad_shapes():
    """Two rows of projections for one row of state, and one row of
    projections for two rows of state (the cell carries no rows)."""
    rng = np.random.default_rng(0)
    p = random_cell(rng, d=3, rows=2)
    with pytest.raises(ad.ShapeError):
        lstm_cell(p["x_proj"], p["h"], p["c"], p["W_h"], p["b"])
    two_states = rng.normal(size=(2, 2, 3))
    with pytest.raises(ad.ShapeError):
        lstm_cell(p["x_proj"].data[:1], *two_states, p["W_h"], p["b"])


@pytest.mark.parametrize("d", [1, 3, 6, 16, 32])
@pytest.mark.parametrize("scale", [0.5, 4.0, 40.0])
def test_lstm_cell_forward_bitwise_equals_composition(d, scale):
    rng = np.random.default_rng(d * 100 + int(scale))
    for _ in range(20):
        p = random_cell(rng, d, scale=scale)
        h, c = lstm_cell(p["x_proj"], p["h"], p["c"], p["W_h"], p["b"])
        h_ref, c_ref = composed_cell(p["x_proj"], p["h"], p["c"], p["W_h"],
                                     p["b"])
        assert same_bits(h.data, h_ref.data)
        assert same_bits(c.data, c_ref.data)


# ---------------------------------------------------------------------------
# encoder scan and decoder step


@pytest.mark.parametrize("widths", [dict(d_emb=4, d_h=3), dict(d_emb=16, d_h=16)])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 2, 9])
def test_lstm_scan_bitwise_equals_composition(widths, reverse, n):
    config = ModelConfig(vocab_size=8, d_g=6, gcn_layers=1, d_dec=4,
                         d_attn=4, **widths)
    params = ModelParams(config, seed=n)
    x = Tensor(np.random.default_rng(n).normal(size=(n, config.d_emb)))
    cell = params.lstm_fw
    states, h, c = lstm_scan(ad.matmul(x, cell["W_x"]), cell["W_h"],
                             cell["b"], (n,), reverse)
    states_ref, h_ref, c_ref = composed_scan(x, cell, config.d_h, reverse)
    assert states.shape == (n, config.d_h)
    for i, expected in enumerate(states_ref):
        assert same_bits(states.data[i:i + 1], expected.data)
    assert same_bits(h.data, h_ref.data) and same_bits(c.data, c_ref.data)


@pytest.mark.parametrize("vocab_size", [None, 2000])
def test_decode_step_bitwise_equals_composition(vocab_size, composed_model):
    vocab, examples = corpus(seed=5, size=3, vocab_size=vocab_size)
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=2)

    def run(step):
        outputs = []
        for example in examples:
            enc, _, ctx = encode_document(example, params)
            state = initial_state(enc, params)
            for y_prev in example.target_ids[:-1]:
                final, attention, p_gen, state = step(state, y_prev, ctx,
                                                      params)
                outputs.append((final.data, attention.data, p_gen.data,
                                state.hidden.data, state.cell.data))
        return outputs

    fused = run(decode_step)
    composed_model()
    composed = run(composed_decode_step)
    for got, expected in zip(fused, composed, strict=True):
        assert all(same_bits(a, b) for a, b in zip(got, expected, strict=True))


@pytest.mark.parametrize("vocab_size", [None, 2000])
def test_sequence_loss_bitwise_and_gradients_close(vocab_size, composed_model):
    vocab, examples = corpus(seed=9, size=3, vocab_size=vocab_size)
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=6)
    named = params.named_tensors()

    def run(loss_fn):
        results = []
        for example in examples:
            params.zero_grads()
            with Tape() as tape:
                loss, _ = loss_fn(example, params, 1.0)
                tape.backward(loss)
            grads = {name: t.grad.copy() for name, t in named.items()
                     if t.grad is not None}
            results.append((loss.data, grads))
        return results

    fused = run(sequence_loss)
    composed_model()
    composed = run(composed_sequence_loss)
    for (loss, grads), (loss_ref, grads_ref) in zip(fused, composed,
                                                    strict=True):
        assert same_bits(loss, loss_ref)
        assert grads.keys() == grads_ref.keys()
        for name, g_ref in grads_ref.items():
            scale = np.abs(g_ref).max()
            assert np.abs(grads[name] - g_ref).max() <= 1e-12 * scale, name


def test_toy_width_sequence_loss_tape_size():
    """Pins the tape of one example at toy widths (22-id vocabulary, 18
    source tokens, 4 decoder steps). The fused cell took it from 1,006 nodes
    to 320, one output head over all the steps' rows to 196, one
    coverage-attention node per step to 148, one p_gen node to 139, one
    scan node per encoder direction from 136 to 100, one node regrouping
    the teacher-forced steps' rows, in place of five concatenations, to 96,
    and one scan node for both directions (in place of two and three
    concatenations) and one node per graph convolution layer (in place of
    13) to 68, and one scan node for the decoder recurrence (in place of
    five a step and one regrouping node) and one node for the output head
    and the loss (in place of 17) to 32; a change that re-inflates the tape
    should fail here first."""
    vocab, examples = corpus(seed=7, size=2)
    example = examples[0]
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=0)
    with Tape() as tape:
        sequence_loss(example, params, 1.0)
    ops = [node.op for node in tape.nodes]
    assert (vocab.size, example.n, len(example.target_ids)) == (22, 18, 5)
    assert ops.count("decoder_scan") == 1
    assert ops.count("pointer_head") == 1
    assert ops.count("bilstm_scan") == 1
    assert ops.count("gcn_layer") == params.config.gcn_layers
    assert "slice_cols" not in ops and "lstm_cell" not in ops
    assert len(ops) == 32
