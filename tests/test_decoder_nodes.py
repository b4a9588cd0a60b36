"""The decoder's two nodes against the compositions they replace.

``ad.decoder_scan`` runs the whole recurrence of a teacher-forced batch (or
one search step) as one node, and ``ad.pointer_head`` a document's output
head with its loss (or a search step's head) as one more. Their oracles are
the compositions of ``tests/oracles.py``: ``composed_teacher_force`` (five
nodes a step, ``split_rows`` and ``by_document``), ``composed_decode_step``
and ``composed_batch_gradients`` (``output_head`` then ``loss_from_rows``).
Every forward value, loss and statistic must be bitwise theirs, and so must
every gradient: the nodes sum each gradient term in the composition's order.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synsum import autodiff as ad
from synsum import decoder as dec
from synsum import training as tr
from synsum.autodiff import Tape, Tensor
from synsum.corpus import (
    UNK_ID,
    Document,
    ParsedSentence,
    build_vocabulary,
    encode_example,
)
from synsum.model import ModelConfig, ModelParams
from oracles import (
    composed_batch_gradients,
    composed_decode_step,
    composed_teacher_force,
    same_bits,
    sum_all,
)

SMALL = dict(d_emb=3, d_h=2, d_g=4, gcn_layers=1, d_dec=4, d_attn=3)
WORDS = [f"w{i}" for i in range(12)]


def chain(tokens):
    return ParsedSentence(tokens=list(tokens),
                          heads=[0] + list(range(1, len(tokens))),
                          labels=["root"] + ["dep"] * (len(tokens) - 1))


def examples_of(documents):
    """Examples of (source, reference) token lists over ``WORDS``, with a
    vocabulary of the 6 most frequent words: a reference word outside it is
    a copied OOV when its source holds it, and UNK otherwise."""
    docs = [Document(sentences=[chain(source)], reference=reference)
            for source, reference in documents]
    vocab = build_vocabulary(
        [Document(sentences=[chain(WORDS[:6] * 3)], reference=[])] + docs,
        cap=10)
    return vocab, [encode_example(doc, vocab) for doc in docs]


documents_strategy = st.lists(
    st.tuples(st.lists(st.sampled_from(WORDS), min_size=1, max_size=9),
              st.lists(st.sampled_from(WORDS), max_size=7)),
    min_size=1, max_size=6)


def model(vocab, coverage, seed):
    config = ModelConfig(vocab_size=vocab.size, use_coverage=coverage,
                         **SMALL)
    return ModelParams(config, seed=seed)


def gradients(params, run):
    params.zero_grads()
    stats = run()
    return stats, {name: t.grad for name, t in
                   params.named_tensors().items() if t.grad is not None}


@settings(max_examples=40, deadline=None)
@given(documents=documents_strategy, coverage=st.booleans(),
       seed=st.integers(0, 2**16))
# golds whose copy mass sums 2 to 6 source positions, in and out of the
# vocabulary, where the order of the sum shows in the last bits
@example(documents=[(["w0"] * 5 + ["w1"], ["w0", "w1"]),
                    (["w9"] * 6 + ["w2"] * 2, ["w9", "w2", "w9"]),
                    (["w10", "w3"] * 4, ["w10", "w3", "w10"])],
         coverage=False, seed=0)
def test_lockstep_batch_is_bitwise_the_composition(documents, coverage,
                                                   seed):
    """1-6 documents of 1-9 source rows and targets of 1-8 steps (ties
    included), with in-vocabulary, copied and UNK golds: the rows, every
    loss and statistic, and every gradient of the batch are bitwise the
    composition's, and each document's rows and loss its solo run's."""
    vocab, examples = examples_of(documents)
    params = model(vocab, coverage, seed)
    encoded = dec.encode_batch(examples, params)
    rows = dec.teacher_force(examples, encoded, params)
    want = composed_teacher_force(examples, encoded, params)
    for got, ref in zip(rows, want, strict=True):
        for a, b in zip(vars(got).values(), vars(ref).values(), strict=True):
            assert same_bits(a.data, b.data)
    for k, example in enumerate(examples):
        (solo,) = dec.teacher_force([example],
                                    dec.encode_batch([example], params),
                                    params)
        for a, b in zip(vars(rows[k]).values(), vars(solo).values()):
            assert same_bits(a.data, b.data)
    stats, grads = gradients(params, lambda: tr.batch_gradients(
        examples, params, 1.0))
    stats_ref, grads_ref = gradients(params, lambda: composed_batch_gradients(
        examples, params, 1.0))
    assert stats == stats_ref
    assert grads.keys() == grads_ref.keys()
    for name, g in grads_ref.items():
        assert same_bits(grads[name], g), name
    for example, got in zip(examples, stats):
        loss, alone = tr.sequence_loss(example, params, 1.0)
        assert got == alone


def test_golds_cover_vocabulary_copies_and_unk():
    """The fixture the Hypothesis test draws from reaches all three kinds
    of gold: an in-vocabulary id, an extended id copied from the source,
    and UNK for a reference word the source lacks."""
    vocab, (example,) = examples_of([(["w0", "w9", "w1"], ["w0", "w9", "w11"])])
    assert example.target_ext_ids[1:-1] == [vocab.token_to_id["w0"],
                                            vocab.size, UNK_ID]


# ---------------------------------------------------------------------------
# one search step


def search_setup(seed=3):
    vocab, examples = examples_of([(["w0", "w9", "w1", "w10", "w9"],
                                    ["w9", "w0"])])
    params = model(vocab, True, seed)
    enc, _, ctx = dec.encode_document(examples[0], params)
    state = dec.initial_state(enc, params)
    for y_prev in (examples[0].target_ids[0], vocab.size):  # then an OOV
        _, _, _, state = dec.decode_step(state, y_prev, ctx, params)
    return vocab, ctx, state, params


@pytest.mark.parametrize("mask", ["none", "hard", "damp"])
def test_search_step_over_repeated_rows_is_bitwise_the_composition(mask):
    """Rows gathered with repeats (``take``), an OOV and an in-vocabulary
    previous token, under no mask, the hard mask and damping: one step is
    bitwise the composed step, row by row and for the state."""
    vocab, ctx, state, params = search_setup()
    rows = state.take([0, 0, 0, 0])
    q = np.linspace(0.0, 1.0, ctx.n)
    content = {"none": None,
               "hard": dec.ContentMask(q=q, threshold=0.5),
               "damp": dec.ContentMask(q=q, threshold=0.5, damp=True)}[mask]
    tokens = [vocab.size, 5, UNK_ID, 5]
    got = dec.decode_step(rows, tokens, ctx, params, mask=content)
    want = composed_decode_step(rows, tokens, ctx, params, mask=content)
    for a, b in zip(got[:3], want[:3]):
        assert same_bits(a.data, b.data)
    for a, b in zip(vars(got[3]).values(), vars(want[3]).values()):
        assert same_bits(a.data, b.data)
    one = dec.decode_step(state, 5, ctx, params, mask=content)
    one_ref = composed_decode_step(state, 5, ctx, params, mask=content)
    for a, b in zip(one[:3], one_ref[:3]):
        assert same_bits(a.data, b.data)


def test_search_records_two_nodes():
    _, ctx, state, params = search_setup()
    rows = state.take([0, 0])
    with Tape() as tape:
        dec.decode_step(rows, [4, 5], ctx, params)
    assert [node.op for node in tape.nodes] == ["decoder_scan", "pointer_head"]


# ---------------------------------------------------------------------------
# gradients: finite differences with each output reached or not


D_EMB, D_DEC, WIDTH, D_CTX, VOCAB = 2, 3, 3, 2, 5


def scan_inputs(rng, spans, coverage_feature):
    rows = len(spans) if spans else 2
    n = 5
    tensors = dict(
        embedding=rng.normal(size=(VOCAB, D_EMB)),
        hidden=rng.normal(size=(rows, D_DEC)),
        cell=rng.normal(size=(rows, D_DEC)),
        context=rng.normal(size=(rows, D_CTX)),
        coverage=(rng.uniform(0, 1, sum(b - a for a, b in spans)) if spans
                  else rng.uniform(0, 1, (rows, n))),
        W_x=rng.normal(0, 0.5, (D_EMB + D_CTX, 4 * D_DEC)),
        W_h=rng.normal(0, 0.5, (D_DEC, 4 * D_DEC)),
        b=rng.normal(size=4 * D_DEC),
        dec_W=rng.normal(size=(D_DEC, WIDTH)),
        enc_proj=rng.normal(size=(n, WIDTH)),
        attn_b=rng.normal(size=WIDTH),
        v=rng.normal(size=(WIDTH, 1)),
        enc_states=rng.normal(size=(n, D_CTX)),
    )
    if coverage_feature:
        tensors["cov_w"] = rng.normal(size=WIDTH)
    return {k: Tensor(v, requires_grad=True) for k, v in tensors.items()}


def scan(p, steps, spans):
    return ad.decoder_scan(
        p["embedding"], steps, p["hidden"], p["cell"], p["context"],
        p["coverage"], p["W_x"], p["W_h"], p["b"], p["dec_W"], p["enc_proj"],
        p["attn_b"], p.get("cov_w"), p["v"], p["enc_states"], spans)


LAYOUTS = {
    # three rows, two of them over one source row too, ending at steps 1,
    # 3 and 4
    "lockstep": ([[1, 4, 0], [2, 3], [0, 1], [4]], [(0, 2), (2, 5), (4, 5)]),
    "one-source": ([[1, 2], [0, 4]], None),
}


@pytest.mark.parametrize("coverage_feature", [True, False])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("reached", ["all", "rows", "flat", "last"])
def test_decoder_scan_grad_check(layout, reached, coverage_feature):
    """Every output is reached in ``all`` and in its own group, and
    unreached in the others: the first sequence's row quantities (``rows``)
    or attention and coverage (``flat``), or the last step's cell, coverage
    and scores (``last``)."""
    steps, spans = LAYOUTS[layout]
    rng = np.random.default_rng(len(reached) + 10 * coverage_feature)
    params = scan_inputs(rng, spans, coverage_feature)
    sequences, last = scan(params, steps, spans)
    names = ("x", "hidden", "context", "attention", "coverage")
    probes = {(k, q): rng.normal(size=t.shape)
              for k, seq in enumerate(sequences) for q, t in zip(names, seq)}
    probes.update({("last", q): rng.normal(size=t.shape)
                   for q, t in zip(("cell", "coverage", "scores"), last)})

    def wanted(key):
        owner, quantity = key
        if reached in ("all", "last"):
            return reached == "all" or owner == "last"
        # the first sequence only: the others stay unreached
        group = names[:3] if reached == "rows" else names[3:]
        return owner == 0 and quantity in group

    def f(p):
        sequences, last = scan(p, steps, spans)
        outputs = {(k, q): t for k, seq in enumerate(sequences)
                   for q, t in zip(names, seq)}
        outputs.update({("last", q): t for q, t in
                        zip(("cell", "coverage", "scores"), last)})
        return functools.reduce(ad.add, [
            sum_all(ad.mul(outputs[key], probes[key]))
            for key in sorted(outputs, key=str) if wanted(key)])

    report = ad.grad_check(f, params, tol=1e-6, scale_floor=1e-4)
    assert report.ok, str(report)


def head_inputs(rng, rows=3, n=4, vocab=5):
    d_h, d = 3, 2
    tensors = dict(
        hidden=rng.normal(size=(rows, d_h)),
        context=rng.normal(size=(rows, d)),
        x=rng.normal(size=(rows, 4)),
        attention=rng.dirichlet(np.ones(n), size=rows),
        out_W=rng.normal(size=(d_h + d, vocab)),
        out_b=rng.normal(size=vocab),
        ctx_w=rng.normal(size=d),
        state_w=rng.normal(size=d_h),
        x_w=rng.normal(size=4),
        gate_b=np.array(0.2),
    )
    return {k: Tensor(v, requires_grad=True) for k, v in tensors.items()}


HEAD_IDS = [1, 5, 1, 6]  # a repeated id and two past the 5-id vocabulary


def head(p, **loss):
    return ad.pointer_head(p["hidden"], p["context"], p["x"], p["attention"],
                           p["out_W"], p["out_b"], p["ctx_w"], p["state_w"],
                           p["x_w"], p["gate_b"], HEAD_IDS, 7, **loss)


@pytest.mark.parametrize("reached", ["both", "final", "p_gen"])
def test_pointer_head_search_form_grad_check(reached):
    rng = np.random.default_rng(len(reached))
    params = head_inputs(rng)
    probe_final, probe_p = rng.normal(size=(3, 7)), rng.normal(size=(3, 1))

    def f(p):
        final, p_gen = head(p)
        terms = []
        if reached in ("both", "final"):
            terms.append(sum_all(ad.mul(final, probe_final)))
        if reached in ("both", "p_gen"):
            terms.append(sum_all(ad.mul(p_gen, probe_p)))
        return functools.reduce(ad.add, terms)

    report = ad.grad_check(f, params, tol=1e-6)
    assert report.ok, str(report)


@pytest.mark.parametrize("weight", [0.0, 0.7])
def test_pointer_head_loss_form_grad_check(weight):
    """Golds in the vocabulary, copied past it (id 5, at one position) and
    at a repeated source id (1, at two positions)."""
    rng = np.random.default_rng(7)
    params = head_inputs(rng)
    params["coverage"] = Tensor(rng.uniform(0, 0.6, (3, 4)),
                                requires_grad=True)

    def f(p):
        return head(p, gold=[1, 5, 3], coverage=p["coverage"],
                    coverage_weight=weight, floor=1e-12)[0]

    report = ad.grad_check(f, params, tol=1e-6)
    assert report.ok, str(report)


# ---------------------------------------------------------------------------
# malformed inputs


def test_decoder_scan_names_each_malformed_input():
    rng = np.random.default_rng(0)
    steps, spans = LAYOUTS["lockstep"]
    good = scan_inputs(rng, spans, True)
    scan(good, steps, spans)  # fits
    for bad_steps in ([[1, 5, 0], [2]], [[1, -1, 0]], [[1, 2], [1, 2, 3]],
                      [[1, 2, 3], []], []):
        with pytest.raises(ad.ShapeError):  # ids, live counts
            scan(good, bad_steps, spans)
    for bad_spans in ([(0, 2), (2, 5)], [(0, 2), (2, 6), (4, 5)],
                      [(0, 2), (2, 2), (4, 5)], [(-1, 2), (2, 5), (4, 5)],
                      [(0, 2), (2, 4), (4, 5)]):  # coverage 5, not 6
        with pytest.raises(ad.ShapeError):
            scan(good, steps, bad_spans)
    for name, shape in (("hidden", (3, 2)), ("cell", (2, D_DEC)),
                        ("context", (3, 3)), ("W_x", (3, 4 * D_DEC)),
                        ("W_h", (D_DEC, D_DEC)), ("dec_W", (D_DEC, 2)),
                        ("v", (WIDTH,)), ("cov_w", (2,)),
                        ("enc_states", (4, D_CTX))):
        bad = dict(good, **{name: Tensor(np.zeros(shape))})
        with pytest.raises(ad.ShapeError):  # widths
            scan(bad, steps, spans)


def test_pointer_head_names_each_malformed_input():
    rng = np.random.default_rng(1)
    good = head_inputs(rng)
    coverage = Tensor(np.zeros((3, 4)))
    head(good)
    head(good, gold=[0, 1, 2], coverage=coverage)
    for name, shape in (("attention", (3, 3)), ("context", (2, 2)),
                        ("out_W", (4, 5)), ("x_w", (3,)), ("gate_b", (1,))):
        with pytest.raises(ad.ShapeError):
            head(dict(good, **{name: Tensor(np.zeros(shape))}))
    for gold, cov in (([0, 1], coverage), ([0, 1, 7], coverage),
                      ([0, -1, 2], coverage),
                      ([0, 1, 2], Tensor(np.zeros((3, 3))))):
        with pytest.raises(ad.ShapeError):
            head(good, gold=gold, coverage=cov)
    with pytest.raises(ad.ShapeError):
        ad.pointer_head(*(good[k] for k in (
            "hidden", "context", "x", "attention", "out_W", "out_b", "ctx_w",
            "state_w", "x_w", "gate_b")), [1, 5, 1, 7], 7)
