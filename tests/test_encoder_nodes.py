"""The encoder's two fused nodes against the compositions they replaced.

``ad.bilstm_scan`` steps both BiLSTM directions of a ragged batch in one
node; its oracle is ``oracles.composed_bilstm``: one per-direction
``lstm_scan`` each and three ``concat``. ``ad.gcn_layer`` is one typed-edge
graph convolution layer; its oracle is ``oracles.composed_gcn_layer``, the
13-node composition (``composed_gcn_stack`` a stack of them). The encoder
must be bitwise its compositions, forward and backward, and each document
bitwise its solo encode.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import autodiff as ad
from synsum import encoder
from synsum.autodiff import Tape, Tensor
from synsum.corpus import (
    Document,
    ParsedSentence,
    build_vocabulary,
    encode_example,
)
from synsum.model import ModelConfig, ModelParams
from oracles import (
    GCN_CLASSES,
    composed_bilstm,
    composed_gcn_layer,
    composed_gcn_stack,
    gcn_layer,
    same_bits,
    sum_all,
)

WORDS = [f"w{i}" for i in range(7)]


def random_document(rng, n: int, adjacency: bool) -> Document:
    """A document of ``n`` tokens whose sentences are random trees: one
    sentence without ``adjacency``, else two or more where ``n`` allows
    (a one-token document has no ADJ edge either way)."""
    count = min(n, int(rng.integers(2, 4))) if adjacency else 1
    cuts = sorted(rng.choice(np.arange(1, n), count - 1, replace=False).tolist())
    sentences = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        k = hi - lo
        heads = [0] + [int(rng.integers(0, i)) + 1 for i in range(1, k)]
        sentences.append(ParsedSentence(
            tokens=[WORDS[int(rng.integers(len(WORDS)))] for _ in range(k)],
            heads=heads, labels=["root"] + ["dep"] * (k - 1)))
    return Document(sentences=sentences, reference=["w0"])


def random_batch(seed, lengths, d, adjacency, tie, layers, project):
    rng = np.random.default_rng(seed)
    docs = [random_document(rng, n, adjacency) for n in lengths]
    vocab = build_vocabulary(docs, cap=12)
    examples = [encode_example(doc, vocab) for doc in docs]
    config = ModelConfig(vocab_size=vocab.size, d_emb=3, d_h=d,
                         d_g=2 * d + 1 if project else 2 * d,
                         gcn_layers=layers, d_dec=3, d_attn=3,
                         tie_fwd_bwd=tie)
    params = ModelParams(config, seed=seed % 1000)
    return rng, examples, params


def encode_with_gradients(examples, params, probes):
    """The encoder's outputs and every parameter's gradient of a probe
    loss that reaches the fused states and both final states."""
    params.zero_grads()
    with Tape() as tape:
        batch = encoder.encode(examples, params)
        outputs = (batch.fused, *batch.final_states)
        loss = functools.reduce(ad.add, [
            sum_all(ad.mul(t, probe)) for t, probe in zip(outputs, probes)])
        tape.backward(loss)
    grads = {name: t.grad.copy() for name, t in params.named_tensors().items()
             if t.grad is not None}
    return [t.data for t in outputs], grads


batches = st.fixed_dictionaries(dict(
    seed=st.integers(0, 2**32 - 1),
    # input order is shuffled by the seed; ties are likely at these sizes
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    d=st.sampled_from([1, 3, 16]),
    adjacency=st.booleans(),
    tie=st.booleans(),
    layers=st.sampled_from([0, 1, 3]),
    project=st.booleans(),
))


@settings(max_examples=40, deadline=None)
@given(case=batches)
def test_encoder_is_bitwise_its_compositions_forward_and_backward(case):
    rng, examples, params = random_batch(**case)
    n, width = sum(case["lengths"]), params.config.enc_dim
    probes = [rng.normal(size=(n, width)),
              *rng.normal(size=(2, len(examples), 2 * params.config.d_h))]
    outputs, grads = encode_with_gradients(examples, params, probes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "bilstm", composed_bilstm)
        patch.setattr(encoder, "gcn_stack", composed_gcn_stack)
        ref_outputs, ref_grads = encode_with_gradients(examples, params,
                                                       probes)
    assert all(same_bits(a, b) for a, b in zip(outputs, ref_outputs,
                                               strict=True))
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert same_bits(g, ref_grads[name]), name


@settings(max_examples=30, deadline=None)
@given(case=batches)
def test_each_document_is_bitwise_its_solo_encode(case):
    _, examples, params = random_batch(**case)
    batch = encoder.encode(examples, params)
    bounds = np.cumsum((0,) + batch.lengths)
    for k, i in enumerate(batch.order):
        alone = encoder.encode([examples[i]], params)
        assert same_bits(batch.fused.data[bounds[k]:bounds[k + 1]],
                         alone.fused.data)
        for got, ref in zip(batch.final_states, alone.final_states):
            assert same_bits(got.data[k:k + 1], ref.data)


def test_the_encoder_records_one_scan_and_one_node_a_layer():
    _, examples, params = random_batch(seed=3, lengths=(4, 2, 4), d=3,
                                       adjacency=True, tie=False, layers=3,
                                       project=True)
    with Tape() as tape:
        encoder.encode(examples, params)
    assert [node.op for node in tape.nodes] == [
        "gather_rows", "matmul", "matmul", "bilstm_scan", "matmul",
        "gcn_layer", "gcn_layer", "gcn_layer", "concat"]


# ---------------------------------------------------------------------------
# bilstm_scan


def scan_inputs(rng, lengths, d):
    rows = sum(lengths)
    return dict(
        x_fw=Tensor(rng.normal(size=(rows, 4 * d)), requires_grad=True),
        x_bw=Tensor(rng.normal(size=(rows, 4 * d)), requires_grad=True),
        W_fw=Tensor(rng.uniform(-0.5, 0.5, (d, 4 * d)), requires_grad=True),
        b_fw=Tensor(rng.normal(size=4 * d), requires_grad=True),
        W_bw=Tensor(rng.uniform(-0.5, 0.5, (d, 4 * d)), requires_grad=True),
        b_bw=Tensor(rng.normal(size=4 * d), requires_grad=True),
    )


def scan(p, lengths):
    return ad.bilstm_scan(p["x_fw"], p["x_bw"], p["W_fw"], p["b_fw"],
                          p["W_bw"], p["b_bw"], lengths)


@pytest.mark.parametrize("reached", [
    ("states", "h", "c"), ("states",), ("h",), ("c",), ("h", "c"),
], ids=["all", "states", "h", "c", "finals"])
def test_bilstm_scan_ragged_grad_check(reached):
    """Documents of 4, 2, 2 and 1 rows: two end early, two tie. Each of the
    three outputs is reached in some cases and left unreached in others."""
    lengths, d = (4, 2, 2, 1), 3
    rng = np.random.default_rng(8)
    params = scan_inputs(rng, lengths, d)
    probes = dict(states=rng.uniform(-1, 1, (sum(lengths), 2 * d)),
                  h=rng.uniform(-1, 1, (4, 2 * d)),
                  c=rng.uniform(-1, 1, (4, 2 * d)))

    def f(p):
        outputs = dict(zip(("states", "h", "c"), scan(p, lengths)))
        return functools.reduce(ad.add, [
            sum_all(ad.mul(outputs[name], probes[name])) for name in reached
        ])

    # the first rows' gradients shrink to about 1e-6 through the steps, where
    # a central difference's rounding (about 1e-11) is 1e-6 of them
    report = ad.grad_check(f, params, eps=1e-5, tol=1e-5)
    assert report.ok, str(report)


def test_bilstm_scan_unreached_outputs_leave_no_gradient():
    rng = np.random.default_rng(0)
    p = scan_inputs(rng, (2, 1), 2)
    with Tape() as tape:
        scan(p, (2, 1))
        tape.backward(sum_all(ad.mul(p["x_fw"], 1.0)))
    assert all(p[name].grad is None for name in p if name != "x_fw")


SCAN_ERRORS = {
    "no documents": dict(lengths=()),
    "an empty document": dict(lengths=(5, 0)),
    "not longest first": dict(lengths=(2, 3)),
    "too few rows": dict(lengths=(3, 1)),
    "too many rows": dict(lengths=(3, 3)),
    "W_h too narrow": dict(W_fw=np.zeros((2, 6))),
    "W_h of another width": dict(W_bw=np.zeros((3, 12))),
    "b too wide": dict(b_bw=np.zeros(9)),
    "x too narrow": dict(x_bw=np.zeros((5, 7))),
    "no state width": dict(W_fw=np.zeros((0, 0)), W_bw=np.zeros((0, 0)),
                           b_fw=np.zeros(0), b_bw=np.zeros(0),
                           x_fw=np.zeros((5, 0)), x_bw=np.zeros((5, 0))),
}


@pytest.mark.parametrize("case", SCAN_ERRORS.values(), ids=SCAN_ERRORS.keys())
def test_bilstm_scan_rejects_what_does_not_fit(case):
    rng = np.random.default_rng(5)
    p = scan_inputs(rng, (3, 1, 1), d=2)
    lengths = case.get("lengths", (3, 1, 1))
    p.update({k: Tensor(v) for k, v in case.items() if k != "lengths"})
    with pytest.raises(ad.ShapeError, match="bilstm_scan"):
        scan(p, lengths)


def test_bilstm_scan_is_one_node():
    rng = np.random.default_rng(5)
    p = scan_inputs(rng, (3, 1, 1), d=2)
    with Tape() as tape:
        outputs = scan(p, (3, 1, 1))
    assert [node.op for node in tape.nodes] == ["bilstm_scan"]
    assert [t.shape for t in outputs] == [(5, 4), (3, 4), (3, 4)]


# ---------------------------------------------------------------------------
# gcn_layer


def gcn_inputs(rng, tie=False, d_in=3, d_out=4):
    layer = {key: Tensor(rng.uniform(-0.8, 0.8, (d_in, d_out)),
                         requires_grad=True) for key in GCN_CLASSES}
    if tie:
        layer["bwd"] = layer["fwd"]
    # a bias this large keeps every pre-activation off the kink at 0
    layer["bias"] = Tensor(rng.choice([-3.0, 3.0], d_out), requires_grad=True)
    return layer


# edges of a 5-node graph: rows 0 and 4 are nobody's FWD source
EDGES = {"fwd": ([1, 1, 2, 3], [0, 2, 3, 4]), "bwd": ([0, 2, 3, 4], [1, 1, 2, 3]),
         "self": ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4]), "adj": ([1, 4], [4, 1])}


@pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("adjacency", [True, False], ids=["adj", "no-adj"])
def test_gcn_layer_grad_check(tie, adjacency):
    rng = np.random.default_rng(12)
    layer = gcn_inputs(rng, tie)
    edges = dict(EDGES, adj=EDGES["adj"] if adjacency else ([], []))
    h = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    probe = rng.uniform(-1, 1, (5, 4))
    params = {"h": h, "bias": layer["bias"],
              **{key: layer[key] for key in ("fwd", "bwd", "self", "adj")
                 if not (tie and key == "bwd")}}

    def f(p):
        return sum_all(ad.mul(gcn_layer(h, edges, layer), probe))

    report = ad.grad_check(f, params, eps=1e-6, tol=1e-7)
    assert report.ok, str(report)
    if not adjacency:
        assert not report.per_param["adj"] and layer["adj"].grad is None


def test_gcn_layer_is_one_node_and_an_unreached_one_leaves_no_gradient():
    rng = np.random.default_rng(2)
    layer = gcn_inputs(rng)
    h = Tensor(rng.normal(size=(5, 3)))
    with Tape() as tape:
        gcn_layer(h, EDGES, layer)
        tape.backward(sum_all(ad.mul(layer["bias"], 1.0)))
    assert [node.op for node in tape.nodes] == ["gcn_layer", "mul", "sum_all"]
    assert h.grad is None
    assert all(layer[key].grad is None for key in GCN_CLASSES)


def _nan_canonical(x):
    return np.where(np.isnan(x), np.nan, x)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       values=st.sampled_from(["normal", "signed zeros", "specials"]))
def test_gcn_layer_sums_repeated_edges_as_np_add_at(seed, n, values):
    """Random edges repeat destinations and sources; the composition's
    ``scatter_rows_sum`` sums them with ``np.add.at``. With "signed zeros"
    every message is -0.0 (h is -0.0, the weights positive), which
    ``np.add.at`` into zeros makes +0.0."""
    rng = np.random.default_rng(seed)
    edges = {key: tuple(rng.integers(0, n, (2, int(rng.integers(0, 3 * n))))
                        .tolist()) for key in GCN_CLASSES}
    edges["self"] = (list(range(n)) * 2, list(range(n)) * 2)
    layer = gcn_inputs(rng)
    if values == "signed zeros":
        h_data = np.full((n, 3), -0.0)
        for key in GCN_CLASSES:
            np.abs(layer[key].data, out=layer[key].data)
    else:
        h_data = rng.normal(size=(n, 3))
        if values == "specials":
            mask = rng.random((n, 3)) < 0.3
            h_data[mask] = rng.choice(
                [0.0, -0.0, np.inf, -np.inf, np.nan], mask.sum())
    probe = rng.uniform(-1, 1, (n, 4))
    results = []
    for layer_fn in (gcn_layer, composed_gcn_layer):
        h = Tensor(h_data, requires_grad=True)
        ad.zero_grads(layer.values())
        with np.errstate(invalid="ignore"), Tape() as tape:
            out = layer_fn(h, edges, layer)
            tape.backward(sum_all(ad.mul(out, probe)))
        results.append([out.data, h.grad]
                       + [layer[key].grad for key in (*GCN_CLASSES, "bias")])
    for got, want in zip(*results):  # a class with no edges: None twice
        assert (got is None and want is None) or same_bits(
            _nan_canonical(got), _nan_canonical(want))


GCN_ERRORS = {
    "sources and destinations differ": dict(fwd=([1, 1], [0])),
    "a negative source": dict(fwd=([-1], [0])),
    "a source past the rows": dict(bwd=([5], [0])),
    "a destination past the rows": dict(self=([0], [5])),
    "no edges at all": {key: ([], []) for key in GCN_CLASSES},
    "a weight of the wrong width": dict(W_self=np.zeros((3, 5))),
    "a weight of the wrong depth": dict(W_adj=np.zeros((4, 4))),
    "a bias of the wrong width": dict(bias=np.zeros(3)),
    "an h that is not a matrix": dict(h=np.zeros(5)),
}


@pytest.mark.parametrize("case", GCN_ERRORS.values(), ids=GCN_ERRORS.keys())
def test_gcn_layer_rejects_what_does_not_fit(case):
    rng = np.random.default_rng(3)
    layer = gcn_inputs(rng)
    edges = dict(EDGES)
    h = Tensor(rng.normal(size=(5, 3)))
    for key, value in case.items():
        if key in edges:
            edges[key] = value
        elif key == "h":
            h = Tensor(value)
        else:
            layer[key.removeprefix("W_")] = Tensor(value)
    with pytest.raises(ad.ShapeError, match="gcn_layer"):
        gcn_layer(h, edges, layer)
