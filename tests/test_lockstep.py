"""The lockstep teacher-forced decoder and the primitives it adds.

``decoder.teacher_force`` steps every document of a minibatch as one row of
one recurrence step per target position, over the documents' stacked
encoder states. Its oracle is each document alone: ``ad.coverage_attention``
with ``spans`` must give every row bitwise the value of its document's own
call, and every loss and statistic of ``training.batch_gradients`` must be
bitwise that of ``training.sequence_loss`` on the document alone.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import autodiff as ad
from synsum import synthetic as syn
from synsum import training as tr
from synsum.autodiff import Tape, Tensor
from synsum.corpus import Document, build_vocabulary, encode_example
from synsum.model import ModelConfig, ModelParams
from oracles import (
    by_document,
    composed_teacher_force,
    coverage_attention,
    same_bits,
    sum_all,
)
from test_batched_encoder import TOY_WIDTHS

D_DEC, WIDTH, D_CTX = 3, 5, 4


def attention_inputs(rng, lengths, rows, coverage_feature=True):
    """Random inputs of ``coverage_attention`` for documents of ``lengths``
    stacked rows and ``rows`` state rows, each naming its document."""
    total = sum(lengths)
    bounds = np.cumsum([0] + list(lengths))
    spans = [(int(bounds[k]), int(bounds[k + 1])) for k in rows]
    inputs = dict(
        hidden=rng.normal(size=(len(rows), D_DEC)),
        dec_W=rng.normal(size=(D_DEC, WIDTH)),
        enc_proj=rng.normal(size=(total, WIDTH)),
        b=rng.normal(size=WIDTH),
        coverage=rng.uniform(0, 2, sum(hi - lo for lo, hi in spans)),
        cov_w=rng.normal(size=WIDTH) if coverage_feature else None,
        v=rng.normal(size=(WIDTH, 1)),
        enc_states=rng.normal(size=(total, D_CTX)),
    )
    return inputs, spans


def attend(inputs, spans=None):
    return coverage_attention(
        *(None if inputs[k] is None else Tensor(inputs[k]) for k in (
            "hidden", "dec_W", "enc_proj", "b", "coverage", "cov_w", "v",
            "enc_states")), spans)


@settings(max_examples=120, deadline=None)
@given(
    documents=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 4)),
                       min_size=1, max_size=6),
    coverage_feature=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_rows_are_bitwise_each_documents_own_call(documents,
                                                       coverage_feature, seed):
    """1-6 documents of 1-20 source rows (ties included), 1-4 state rows
    each, the rows shuffled: every output row equals the row of the call
    over its document alone."""
    rng = np.random.default_rng(seed)
    lengths = [n for n, _ in documents]
    rows = [k for k, (_, r) in enumerate(documents) for _ in range(r)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    inputs, spans = attention_inputs(rng, lengths, rows, coverage_feature)
    att, ctx, cov, scores = (t.data for t in attend(inputs, spans))
    offsets = np.cumsum([0] + [hi - lo for lo, hi in spans])
    for k, (lo, hi) in enumerate(dict.fromkeys(spans)):
        mine = [r for r, span in enumerate(spans) if span == (lo, hi)]
        alone = dict(inputs, hidden=inputs["hidden"][mine],
                     enc_proj=inputs["enc_proj"][lo:hi],
                     enc_states=inputs["enc_states"][lo:hi],
                     coverage=np.stack([inputs["coverage"][offsets[r]:
                                                           offsets[r + 1]]
                                        for r in mine]))
        want = [t.data for t in attend(alone)]
        for j, r in enumerate(mine):
            flat = slice(offsets[r], offsets[r + 1])
            assert same_bits(att[flat], want[0][j])
            assert same_bits(ctx[r], want[1][j])
            assert same_bits(cov[flat], want[2][j])
            assert same_bits(scores[flat], want[3][j])


@pytest.mark.parametrize("coverage_feature", [True, False])
@pytest.mark.parametrize("reached", [
    ("att", "ctx", "cov", "scores"), ("att",), ("ctx",), ("cov",),
    ("scores",), ("ctx", "cov"),
], ids="-".join)
def test_span_attention_grad_check(reached, coverage_feature):
    """Three documents of 3, 1 and 2 rows, four state rows (the first
    document's twice, out of order); each output reached in some cases and
    unreached in others."""
    rng = np.random.default_rng(7)
    inputs, spans = attention_inputs(rng, (3, 1, 2), [0, 2, 0, 1],
                                     coverage_feature)
    params = {k: Tensor(v, requires_grad=True) for k, v in inputs.items()
              if v is not None}
    probes = {name: rng.uniform(-1, 1, shape) for name, shape in (
        ("att", 9), ("ctx", (4, D_CTX)), ("cov", 9), ("scores", 9))}

    def f(p):
        outs = dict(zip(("att", "ctx", "cov", "scores"), coverage_attention(
            p["hidden"], p["dec_W"], p["enc_proj"], p["b"], p["coverage"],
            p.get("cov_w"), p["v"], p["enc_states"], spans)))
        return functools.reduce(ad.add, [
            sum_all(ad.mul(outs[name], probes[name])) for name in reached])

    # b's gradient sums terms the softmax nearly cancels (about 5e-6 here),
    # where a central difference's rounding (about 1e-11) is 1e-5 of it
    report = ad.grad_check(f, params, tol=1e-6, scale_floor=1e-4)
    assert report.ok, str(report)


def test_span_layout_that_does_not_fit_the_rows_is_a_shape_error():
    rng = np.random.default_rng(3)
    inputs, spans = attention_inputs(rng, (3, 2), [0, 1])
    attend(inputs, spans)  # the layout itself fits
    for bad in ([(0, 3)],                    # fewer spans than rows
                [(0, 3), (3, 5), (0, 1)],    # more spans than rows
                [(0, 3), (3, 6)],            # past the stacked rows
                [(0, 3), (3, 3)],            # an empty span
                [(-1, 2), (3, 5)],           # before them
                [(0, 3, 5), (3, 5, 5)],      # not (start, stop) pairs
                [(0, 2), (3, 5)]):           # coverage is 5 entries, not 4
        with pytest.raises(ad.ShapeError):
            attend(inputs, bad)
    with pytest.raises(ad.ShapeError):       # shared coverage with spans
        attend(dict(inputs, coverage=np.zeros((2, 5))), spans)


# ---------------------------------------------------------------------------
# by_document


def scan_steps(rng, lengths, live_counts, width=2):
    """Steps of a lockstep scan: a matrix and a flat vector per step."""
    bounds = np.cumsum([0] + list(lengths))
    return [(Tensor(rng.normal(size=(live, width)), requires_grad=True),
             Tensor(rng.normal(size=bounds[live]), requires_grad=True))
            for live in live_counts]


def test_by_document_regroups_each_documents_blocks_in_step_order():
    rng = np.random.default_rng(0)
    lengths, live_counts = (3, 1, 2), (3, 3, 2, 1)
    steps = scan_steps(rng, lengths, live_counts)
    with Tape() as tape:
        documents = by_document(steps, lengths)
    assert [node.op for node in tape.nodes] == ["by_document"]
    bounds = np.cumsum((0,) + lengths)
    for k, (rows, flat) in enumerate(documents):
        held = [t for t, live in enumerate(live_counts) if live > k]
        assert same_bits(rows.data, np.stack([steps[t][0].data[k]
                                              for t in held]))
        assert same_bits(flat.data, np.stack([
            steps[t][1].data[bounds[k]:bounds[k + 1]] for t in held]))


def test_by_document_grad_check_with_an_unreached_document():
    rng = np.random.default_rng(1)
    lengths, live_counts = (2, 3, 1), (3, 2, 2, 1)
    steps = scan_steps(rng, lengths, live_counts)
    params = {f"{t}/{q}": x for t, step in enumerate(steps)
              for q, x in enumerate(step)}
    probes = [[rng.normal(size=x.shape) for x in doc]
              for doc in by_document(steps, lengths)]

    def f(p):
        steps_p = [(p[f"{t}/0"], p[f"{t}/1"]) for t in range(len(steps))]
        documents = by_document(steps_p, lengths)
        # document 1's rows are left unreached, and so is document 2
        return functools.reduce(ad.add, [
            sum_all(ad.mul(documents[0][0], probes[0][0])),
            sum_all(ad.mul(documents[0][1], probes[0][1])),
            sum_all(ad.mul(documents[1][1], probes[1][1]))])

    report = ad.grad_check(f, params, eps=1e-6, tol=1e-8)
    assert report.ok, str(report)


def test_by_document_checks_the_step_layout():
    rng = np.random.default_rng(2)
    lengths = (3, 1, 2)
    good = scan_steps(rng, lengths, (3, 2))
    by_document(good, lengths)
    growing = scan_steps(rng, lengths, (2, 3))
    not_all = scan_steps(rng, lengths, (2, 1))
    odd_flat = [good[0], (good[1][0], Tensor(np.zeros(3)))]  # 3 != 1 or 4
    odd_width = [good[0], (Tensor(np.zeros((2, 5))), good[1][1])]
    disagree = [good[0], (Tensor(np.zeros((1, 2))), good[1][1])]
    for steps, lens in [(growing, lengths), (not_all, lengths),
                        (odd_flat, lengths), (odd_width, lengths),
                        (disagree, lengths), ([], lengths), (good, ()),
                        (good, (3, 1, 2, 1))]:
        with pytest.raises(ad.ShapeError):
            by_document(steps, lens)


# ---------------------------------------------------------------------------
# the lockstep batch against each document alone


@functools.lru_cache(maxsize=1)
def ragged_corpus():
    """Seven documents of mixed source lengths (``mixed_corpus``'s), each
    reference long enough to cut to any target length up to 12."""
    docs = syn.generate_documents(seed=11, size=5)
    vocab = build_vocabulary(docs, cap=syn.default_vocab_cap())
    references = [t for d in docs for t in d.reference] * 4
    sources = [d.sentences for d in docs]
    sources.insert(2, docs[1].sentences[:1])
    sources.append(docs[3].sentences)
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=12)
    return vocab, sources, references, params


def cut_examples(cuts):
    vocab, sources, references, _ = ragged_corpus()
    examples = [encode_example(Document(sentences=source,
                                        reference=references[5 * k:5 * k + cut]),
                               vocab)
                for k, (source, cut) in enumerate(zip(sources, cuts))]
    # the last document cut short by max_source_len, as in mixed_corpus
    examples[6] = encode_example(Document(sentences=sources[6],
                                          reference=references[30:30 + cuts[6]]),
                                 vocab, max_source_len=10)
    return examples


@settings(max_examples=30, deadline=None)
@given(cuts=st.lists(st.integers(1, 12), min_size=7, max_size=7),
       batch=st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True))
def test_lockstep_losses_and_stats_are_each_documents_alone(cuts, batch):
    """Target lengths made ragged (1 to 12 tokens): every document's loss
    and stats in ``batch_gradients`` are bitwise ``sequence_loss`` on it
    alone, in the batch's order."""
    examples = cut_examples(cuts)
    params = ragged_corpus()[3]
    chosen = [examples[i] for i in batch]
    seen = []
    real = tr.sequence_loss

    def recording(example, params, coverage_weight, encoded=None):
        loss, stats = real(example, params, coverage_weight, encoded)
        seen.append((example, loss.data))
        return loss, stats

    tr.sequence_loss = recording
    try:
        params.zero_grads()
        stats = tr.batch_gradients(chosen, params, 1.0)
    finally:
        tr.sequence_loss = real
    assert [example for example, _ in seen] == chosen
    for example, (_, loss), got in zip(chosen, seen, stats):
        want_loss, want = real(example, params, 1.0)
        assert same_bits(loss, want_loss.data)
        assert (got.nll, got.coverage, got.steps) == (want.nll, want.coverage,
                                                      want.steps)


def test_ragged_targets_shrink_the_lockstep_state():
    """Targets of 12, 3 and 1 tokens (13, 4 and 2 decoder inputs): the
    recurrence drops the documents that have ended, so each step has as
    many rows as documents with inputs left."""
    examples = cut_examples([12, 3, 1, 5, 5, 5, 5])[:3]
    params = ragged_corpus()[3]
    with Tape() as tape:
        rows = tr.teacher_force(examples, tr.encode_batch(examples, params),
                                 params)
    (scan,) = [node for node in tape.nodes if node.op == "decoder_scan"]
    assert scan.out[-3].shape[0] == 1  # the last step's cell: one row left
    assert [r.hidden.shape[0] for r in rows] == [13, 4, 2]
    with Tape() as tape:
        composed_teacher_force(examples, tr.encode_batch(examples, params),
                               params)
    cells = [node.out[0].shape[0] for node in tape.nodes
             if node.op == "lstm_cell"]
    assert cells == [3, 3, 2, 2] + [1] * 9


# ---------------------------------------------------------------------------
# gradients handed over, never shared


def assert_no_shared_grads(tapes, params):
    tensors = {id(t): t for t in params.named_tensors().values()}
    for tape in tapes:
        for node in tape.nodes:
            for t in node.out if type(node.out) is tuple else (node.out,):
                tensors[id(t)] = t
    grads = [t.grad for t in tensors.values() if t.grad is not None]
    # the nodes' outputs have gradients too, not only the parameters
    assert len(grads) > len(params.named_tensors())
    for a, b in itertools.combinations(grads, 2):
        assert not np.shares_memory(a, b)


def test_no_two_gradients_share_memory_after_a_sequence_loss():
    examples = cut_examples([6] * 7)
    params = ragged_corpus()[3]
    params.zero_grads()
    with Tape() as tape:
        loss, _ = tr.sequence_loss(examples[0], params, 1.0)
        tape.backward(loss)
    assert_no_shared_grads([tape], params)


def test_no_two_gradients_share_memory_after_a_four_document_batch(
        monkeypatch):
    examples = cut_examples([6, 2, 9, 4, 5, 5, 5])[:4]
    params = ragged_corpus()[3]
    tapes = []

    class RecordedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(tr, "Tape", RecordedTape)
    params.zero_grads()
    tr.batch_gradients(examples, params, 1.0)
    assert len(tapes) == 5  # the batch's, then one per document's head
    assert_no_shared_grads(tapes, params)
