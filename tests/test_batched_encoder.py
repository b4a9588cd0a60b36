"""The document-batched training step against the per-example loop it
replaced.

``per_example_gradients`` is the loop ``train`` ran over a minibatch before
the encoder was batched: one tape per example, which encodes and decodes it
alone and is backpropagated before the next example starts. It stays here
as the oracle. ``training.batch_gradients`` must give every document
bitwise the same loss, and every gradient to rounding: the encoder, gate
and embedding gradients sum over the batch's documents in one product
instead of one per document, and so do the decoder recurrence's, which
steps the documents in lockstep.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import autodiff as ad
from synsum import decoder
from synsum import synthetic as syn
from synsum import training as tr
from synsum.autodiff import Tape, Tensor
from synsum.corpus import Document, Vocabulary, build_vocabulary, encode_example
from synsum.decoder import encode_batch, encode_document, encode_documents
from synsum.encoder import encode
from synsum.gate import document_vector
from synsum.model import ModelConfig, ModelParams
from oracles import lstm_scan, same_bits, split_rows, sum_all
from test_lstm_cell import composed_scan

TOY_WIDTHS = dict(d_emb=16, d_h=16, d_g=32, gcn_layers=2, d_dec=32, d_attn=32)
ABLATIONS = [
    {},
    dict(ablate_gate=True),
    dict(ablate_gcn=True, ablate_gate=True),
    dict(tie_fwd_bwd=True),
    dict(use_coverage=False),
]


def mixed_corpus(vocab_size=None):
    """Seven examples of mixed lengths: two lengths from the generator
    (each several times, so some batches hold equal lengths), a
    one-sentence document and a document cut short by ``max_source_len``."""
    docs = syn.generate_documents(seed=11, size=5)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    if vocab_size is not None:
        tokens = vocab.id_to_token + [
            f"filler{i}" for i in range(vocab_size - vocab.size)
        ]
        vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)},
                           id_to_token=tokens)
    one_sentence = Document(sentences=docs[1].sentences[:1],
                            reference=docs[1].reference)
    examples = [encode_example(d, vocab) for d in docs]
    examples.insert(2, encode_example(one_sentence, vocab))
    examples.append(encode_example(docs[3], vocab, max_source_len=10))
    return vocab, examples


# gradient -> the gradient whose scale measures its rounding
RESIDUE_SCALES = {"gate/score_b": "gate/score_W",
                  "dec/attn/b": "dec/attn/enc_W",
                  "dec/attn/dec_W": "dec/attn/enc_W",
                  "dec/attn/cov_w": "dec/attn/enc_W"}


def per_example_gradients(batch, params, coverage_weight):
    """The oracle: the training step as one tape per example."""
    stats = []
    for example in batch:
        with Tape() as tape:
            loss, example_stats = tr.sequence_loss(example, params,
                                                   coverage_weight)
            tape.backward(ad.mul(loss, 1.0 / len(batch)))
        stats.append(example_stats)
    return stats


def gradients(step, batch, params, coverage_weight):
    params.zero_grads()
    stats = step(batch, params, coverage_weight)
    return stats, {name: t.grad.copy()
                   for name, t in params.named_tensors().items()
                   if t.grad is not None}


def test_mixed_corpus_has_the_lengths_it_promises():
    _, examples = mixed_corpus()
    lengths = [ex.n for ex in examples]
    assert len(set(lengths)) >= 4
    assert any(lengths.count(n) > 1 for n in lengths)
    assert min(lengths) == len(examples[2].source_ids)
    assert len(examples[2].sentence_bounds) == 1


@pytest.mark.parametrize("vocab_size", [None, 2000])
@pytest.mark.parametrize("overrides", ABLATIONS,
                         ids=lambda o: "-".join(o) or "full")
def test_batches_match_the_per_example_oracle(vocab_size, overrides):
    vocab, examples = mixed_corpus(vocab_size)
    config = ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS, **overrides)
    params = ModelParams(config, seed=4)
    weight = 1.0 if config.use_coverage else 0.0
    for batch_size in range(1, 6):
        # the last batch of each size but 1 is a partial one
        for lo in range(0, len(examples), batch_size):
            batch = examples[lo:lo + batch_size]
            stats, grads = gradients(tr.batch_gradients, batch, params, weight)
            stats_ref, grads_ref = gradients(per_example_gradients, batch,
                                             params, weight)
            assert [(s.nll, s.coverage) for s in stats] == [
                (s.nll, s.coverage) for s in stats_ref]
            assert grads.keys() == grads_ref.keys()
            for name, g_ref in grads_ref.items():
                # gate/score_b's gradient is a residue of cancellation,
                # about 1e-3 of gate/score_W's at these parameters: the
                # rounding of its terms is measured on score_W's scale.
                # dec/attn/b, dec_W and cov_w sum the attention features'
                # gradients over source positions, where the softmax nearly
                # cancels them, so theirs is measured on dec/attn/enc_W's,
                # which takes those terms one position at a time
                scale_name = RESIDUE_SCALES.get(name, name)
                scale = np.abs(grads_ref[scale_name]).max()
                assert np.abs(grads[name] - g_ref).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("vocab_size", [None, 2000])
def test_batched_losses_are_bitwise_the_unbatched_ones(vocab_size):
    vocab, examples = mixed_corpus(vocab_size)
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=5)
    alone = [tr.sequence_loss(ex, params, 1.0)[0].data for ex in examples]
    for batch_size in (2, 3, 5, 7):
        for lo in range(0, len(examples), batch_size):
            batch = examples[lo:lo + batch_size]
            rows = decoder.teacher_force(batch, encode_batch(batch, params),
                                         params)
            for k, forced in enumerate(rows):
                loss, _ = tr.sequence_loss(batch[k], params, 1.0, forced)
                assert same_bits(loss.data, alone[lo + k])


def test_batched_encoder_states_are_bitwise_each_documents_own():
    vocab, examples = mixed_corpus()
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=6)
    batched = encode_documents(examples, params)
    for example, (enc, gated) in zip(examples, batched, strict=True):
        enc_ref, gated_ref, _ = encode_document(example, params)
        assert enc.n == enc_ref.n == example.n
        for got, ref in [(enc.fused, enc_ref.fused),
                         *zip(enc.final_states, enc_ref.final_states),
                         (gated.attention, gated_ref.attention),
                         (gated.gate, gated_ref.gate),
                         (gated.gated, gated_ref.gated)]:
            assert same_bits(got.data, ref.data)
    # the batch's semantic and structural rows (column blocks of ``fused``,
    # which ``concat`` copies bitwise) and its document vectors
    batch = encode(examples, params)
    doc_vectors, _ = document_vector(batch.fused, params, batch.lengths)
    offsets = np.cumsum((0,) + batch.lengths)
    width = 2 * params.config.d_h
    for k, i in enumerate(batch.order):
        alone = encode([examples[i]], params)
        rows = slice(offsets[k], offsets[k + 1])
        for got, ref in [
                (batch.fused.data[rows, :width], alone.fused.data[:, :width]),
                (batch.fused.data[rows, width:], alone.fused.data[:, width:]),
                (doc_vectors.data[k:k + 1],
                 document_vector(alone.fused, params)[0].data)]:
            assert same_bits(got, ref)


def test_document_views_are_off_the_tape_and_share_the_batch_arrays(
        monkeypatch):
    """A document's fused, final and gated states, attention and gate
    values view the batch's arrays, off the tape: decoding reads them, and
    training reads the batch whole (``decoder.teacher_force``)."""
    vocab, examples = mixed_corpus()
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=6)
    made = {}
    for name in ("encode", "apply_gate"):
        def record(*args, real=getattr(decoder, name), name=name):
            made[name] = real(*args)
            return made[name]
        monkeypatch.setattr(decoder, name, record)
    documents = encode_documents(examples, params)
    batch, gate = made["encode"], made["apply_gate"]
    for enc, gated in documents:
        for view, whole in [(enc.fused, batch.fused),
                            *zip(enc.final_states, batch.final_states),
                            (gated.attention, gate.attention),
                            (gated.gate, gate.gate),
                            (gated.gated, gate.gated)]:
            assert not view.requires_grad
            assert np.shares_memory(view.data, whole.data)


def test_encode_stacks_the_longest_document_first():
    vocab, examples = mixed_corpus()
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=0)
    batch = encode(examples, params)
    lengths = [ex.n for ex in examples]
    assert batch.lengths == tuple(sorted(lengths, reverse=True))
    assert [lengths[i] for i in batch.order] == list(batch.lengths)
    assert sorted(batch.order) == list(range(len(examples)))
    assert batch.fused.shape[0] == sum(lengths)
    assert all(t.shape == (len(examples), 2 * params.config.d_h)
               for t in batch.final_states)
    with pytest.raises(ValueError, match="empty batch"):
        encode([], params)


def test_summed_loss_of_a_three_document_batch_grad_check():
    vocab, examples = mixed_corpus()
    config = ModelConfig(vocab_size=vocab.size, d_emb=3, d_h=2, d_g=3,
                         gcn_layers=1, d_dec=3, d_attn=3)
    params = ModelParams(config, seed=8)
    for layer in params.gcn:
        layer["bias"].data[...] = 0.2  # keep relu pre-activations off the kink
    batch = [examples[0], examples[2], examples[6]]
    assert len({ex.n for ex in batch}) == 3
    # the head's weights see each document on its own tape, as before
    checked = {name: t for name, t in params.named_tensors().items()
               if not name.startswith(("dec/out_", "dec/pgen/"))}

    def f(p):
        rows = decoder.teacher_force(batch, encode_batch(batch, params),
                                     params)
        losses = [tr.sequence_loss(ex, params, 1.0, forced)[0]
                  for ex, forced in zip(batch, rows)]
        return ad.add(ad.add(losses[0], losses[1]), losses[2])

    # the summed loss is about 13, and one ulp of it over a 1e-5 step is
    # about 1e-4 of the smallest gradients checked; a 1e-4 step keeps the
    # rounding a tenth of that
    report = ad.grad_check(f, checked, eps=1e-4, tol=1e-4)
    assert report.ok, str(report)


def test_toy_four_document_batch_tape_size():
    """Pins the nodes of a toy 4-document batch (18, 14, 18 and 14 source
    tokens, 4 decoder steps each). Its batch tape records 24 encoder nodes,
    where the per-direction scans and the composed graph convolutions
    recorded 55: one ``bilstm_scan`` for both directions and one
    ``gcn_layer`` a layer. Then 10 for the decoder recurrence of the four in
    lockstep: 3 ``gather_rows`` putting the gated and the two final states
    in target order (the encoder stacks 0, 2, 1, 3), the attention
    projection and ``v``'s reshape, 4 for the initial state and one
    ``decoder_scan`` for all the steps, where the composition recorded 5 a
    step and one ``by_document`` (30 in all). No ``split_rows`` cuts the
    batch into documents and no ``concat`` stacks them again. Each
    document's head and loss record one ``pointer_head`` on a tape of their
    own, where the composition recorded 17."""
    docs = syn.generate_documents(seed=7, size=4)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    batch = [encode_example(d, vocab) for d in docs]
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=0)
    with Tape() as batch_tape:
        encoded = encode_batch(batch, params)
        encoder_nodes = len(batch_tape.nodes)
        rows = decoder.teacher_force(batch, encoded, params)
    recurrence = batch_tape.nodes[encoder_nodes:]
    nodes = [encoder_nodes, len(recurrence)]
    for example, forced in zip(batch, rows):
        with Tape() as tape:
            tr.sequence_loss(example, params, 1.0, forced)
        nodes.append(len(tape.nodes))
    ops = [node.op for node in batch_tape.nodes]
    recurrence_ops = [node.op for node in recurrence]
    assert [ex.n for ex in batch] == [18, 14, 18, 14]
    assert encoded[0].order == (0, 2, 1, 3)
    assert nodes == [24, 10, 1, 1, 1, 1]
    assert ops.count("bilstm_scan") == 1 and ops.count("gcn_layer") == 2
    assert "split_rows" not in ops and "concat" not in recurrence_ops
    assert recurrence_ops[:3] == ["gather_rows"] * 3
    assert recurrence_ops.count("decoder_scan") == 1
    assert recurrence[-1].op == "decoder_scan"


def test_decoder_tapes_are_freed_one_by_one():
    """A 4-document batch at V = 6,000 peaks below 1.5 times a 1-document
    one: each document's decoder tape is freed before the next is built.

    The targets are 31 steps, as long as a v20k document's. With the
    4-step targets of ``mixed_corpus`` a decoder tape (about 0.5 MB) is
    smaller than ``dec/out_W``'s gradient and the 1.5 MB product that adds
    a second document's terms to it, and the ratio cannot tell merged tapes
    (1.9) from separate ones (1.7). At 31 steps and V = 2,000 the composed
    head read 3.1 against 1.3; the fused head (``ad.pointer_head``) keeps
    far less, and there it reads 2.1 against 1.7 (3.6 and 5.4 MB against
    7.5 MB with every head tape kept). At V = 6,000 the head's V-wide rows
    dominate again: 1.9 against 1.4.
    """
    docs = syn.generate_documents(seed=11, size=24)
    vocab, _ = mixed_corpus(6000)
    references = [t for d in docs for t in d.reference]
    batch = [
        encode_example(Document(sentences=docs[k].sentences,
                                reference=references[8 * k:8 * k + 30]),
                       vocab)
        for k in range(4)
    ]
    assert [len(ex.target_ids) for ex in batch] == [32] * 4
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=1)

    def peak(documents):
        params.zero_grads()
        tr.batch_gradients(documents, params, 1.0)  # warm-up, untraced
        params.zero_grads()
        tracemalloc.start()
        try:
            tr.batch_gradients(documents, params, 1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(batch[:1])
    four = peak(batch)
    assert four < 1.5 * one, (one, four)


# ---------------------------------------------------------------------------
# the primitives the batch adds


def scan_inputs(rng, n_rows, d, scale=1.0):
    return dict(
        x_proj=Tensor(rng.normal(0, scale, (n_rows, 4 * d)), requires_grad=True),
        W_h=Tensor(rng.uniform(-0.5, 0.5, (d, 4 * d)), requires_grad=True),
        b=Tensor(rng.normal(0, scale, 4 * d), requires_grad=True),
    )


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("reached", [
    ("states", "h", "c"), ("states",), ("h",), ("c",), ("h", "c"),
], ids=["all", "states", "h", "c", "finals"])
def test_lstm_scan_ragged_grad_check(reached, reverse):
    """Documents of 4, 2, 2 and 1 rows: two end early, two tie. Each of the
    three outputs is reached in some cases and left unreached in others."""
    lengths = (4, 2, 2, 1)
    d = 3
    rng = np.random.default_rng(3)
    params = scan_inputs(rng, sum(lengths), d)
    probes = dict(states=rng.uniform(-1, 1, (sum(lengths), d)),
                  h=rng.uniform(-1, 1, (4, d)), c=rng.uniform(-1, 1, (4, d)))

    def f(p):
        states, h, c = lstm_scan(p["x_proj"], p["W_h"], p["b"], lengths,
                                 reverse)
        outputs = dict(states=states, h=h, c=c)
        return functools.reduce(ad.add, [
            sum_all(ad.mul(outputs[name], probes[name])) for name in reached
        ])

    # the first rows' gradients shrink to about 1e-6 through the steps, where
    # a central difference's rounding (about 1e-11) is 1e-6 of them
    report = ad.grad_check(f, params, eps=1e-5, tol=1e-5)
    assert report.ok, str(report)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
        lambda ns: tuple(sorted(ns, reverse=True))),
    d=st.sampled_from([1, 3, 16]),
    reverse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lstm_scan_documents_are_bitwise_their_solo_scans(lengths, d, reverse,
                                                          seed):
    """Every document's state rows and final states in a ragged, longest
    first batch are bitwise those of scanning it alone and of the composed
    scan of ``test_lstm_cell.py``."""
    rng = np.random.default_rng(seed)
    d_emb = 4
    x = rng.normal(0, 2, (sum(lengths), d_emb))
    cell = dict(W_x=Tensor(rng.uniform(-1, 1, (d_emb, 4 * d))),
                W_h=Tensor(rng.uniform(-1, 1, (d, 4 * d))),
                b=Tensor(rng.normal(size=4 * d)))

    def scan(rows, doc_lengths):
        return lstm_scan(ad.matmul(Tensor(rows), cell["W_x"]), cell["W_h"],
                         cell["b"], doc_lengths, reverse)

    states, h, c = scan(x, lengths)
    start = 0
    for k, n in enumerate(lengths):
        rows = slice(start, start + n)
        start += n
        solo_states, solo_h, solo_c = scan(x[rows], (n,))
        assert same_bits(states.data[rows], solo_states.data)
        assert same_bits(h.data[k:k + 1], solo_h.data)
        assert same_bits(c.data[k:k + 1], solo_c.data)
        ref_states, ref_h, ref_c = composed_scan(Tensor(x[rows]), cell, d,
                                                 reverse)
        assert same_bits(states.data[rows],
                         np.concatenate([s.data for s in ref_states]))
        assert same_bits(h.data[k:k + 1], ref_h.data)
        assert same_bits(c.data[k:k + 1], ref_c.data)


def test_lstm_scan_is_one_node_and_checks_lengths():
    """One tape node for any batch; lengths that are not longest first,
    that do not sum to the rows (too many or too few) or that hold an empty
    document are a ``ShapeError``, as is a state width the weights do not
    have."""
    rng = np.random.default_rng(5)
    p = scan_inputs(rng, 5, d=2)
    with Tape() as tape:
        outputs = lstm_scan(p["x_proj"], p["W_h"], p["b"], (3, 1, 1))
    assert [node.op for node in tape.nodes] == ["lstm_scan"]
    assert [t.shape for t in outputs] == [(5, 2), (3, 2), (3, 2)]
    for lengths in [(2, 3), (1, 3, 1), (3, 1), (3, 3), (), (5, 0)]:
        with pytest.raises(ad.ShapeError):
            lstm_scan(p["x_proj"], p["W_h"], p["b"], lengths)
    with pytest.raises(ad.ShapeError):
        lstm_scan(p["x_proj"], p["W_h"].data[:, :6], p["b"], (5,))


def test_split_rows_grad_check_and_one_block_records_nothing():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    probes = [rng.normal(size=(n, 2)) for n in (1, 3, 2)]

    def f(p):
        parts = split_rows(p["x"], (1, 3, 2))
        # the middle block is left unreached
        return ad.add(sum_all(ad.mul(parts[0], probes[0])),
                      sum_all(ad.mul(parts[2], probes[2])))

    report = ad.grad_check(f, {"x": x}, eps=1e-6, tol=1e-8)
    assert report.ok, str(report)
    with Tape() as tape:
        assert split_rows(x, (6,)) == (x,)
    assert tape.nodes == []
    with pytest.raises(ad.ShapeError):
        split_rows(x, (2, 3))


def test_segment_softmax_and_pool_are_bitwise_per_segment():
    rng = np.random.default_rng(2)
    lengths = (7, 7, 3, 1)
    scores = rng.normal(0, 5, sum(lengths))
    h = rng.normal(size=(sum(lengths), 64))
    weights = ad.segment_softmax(Tensor(scores), lengths)
    pooled = ad.segment_pool(weights, Tensor(h), lengths)
    lo = 0
    for k, n in enumerate(lengths):
        w_ref = ad.softmax(Tensor(scores[lo:lo + n]))
        pooled_ref = ad.matmul(ad.reshape(w_ref, (1, n)), Tensor(h[lo:lo + n]))
        assert same_bits(weights.data[lo:lo + n], w_ref.data)
        assert same_bits(pooled.data[k:k + 1], pooled_ref.data)
        lo += n
    with pytest.raises(ad.ShapeError):
        ad.segment_softmax(Tensor(scores), (7, 7, 3))
    with pytest.raises(ad.ShapeError):
        ad.segment_pool(weights, Tensor(h), (7, 7, 4, 0))


def test_segment_softmax_and_pool_grad_check():
    rng = np.random.default_rng(4)
    lengths = (3, 1, 2)
    params = {"x": Tensor(rng.normal(size=6), requires_grad=True),
              "h": Tensor(rng.normal(size=(6, 2)), requires_grad=True)}
    probe = rng.normal(size=(3, 2))

    def f(p):
        weights = ad.segment_softmax(p["x"], lengths)
        return sum_all(ad.mul(ad.segment_pool(weights, p["h"], lengths),
                                 probe))

    report = ad.grad_check(f, params, eps=1e-6, tol=1e-7)
    assert report.ok, str(report)


def test_backward_without_a_loss_starts_from_gradients_on_the_tape():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 3)))
    with Tape() as first:
        y = ad.tanh(ad.matmul(x, w))
    with Tape() as second:
        loss = sum_all(ad.mul(y, y))
        second.backward(loss)
    assert w.grad is None
    first.backward()
    chained = w.grad.copy()
    w.zero_grad()
    with Tape() as tape:
        tape.backward(sum_all(ad.mul(ad.tanh(ad.matmul(x, w)),
                                        ad.tanh(ad.matmul(x, w)))))
    np.testing.assert_allclose(chained, w.grad, rtol=1e-12)
