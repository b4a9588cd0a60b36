import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import autodiff as ad
from synsum import encoder as enc
from synsum import synthetic as syn
from synsum.autodiff import Tape, Tensor
from synsum.corpus import Document, ParsedSentence, build_vocabulary, encode_example
from synsum.graph import build_document_graph
from synsum.model import ModelConfig, ModelParams
from oracles import (
    edge_tuples,
    gcn_layer,
    graph_from_edges,
    sum_all,
    union_edge_index_oracle,
)


def path_document(n):
    """Single sentence whose dependency edges form a path 0-1-...-(n-1)."""
    return Document(
        sentences=[
            ParsedSentence(
                tokens=[f"t{i}" for i in range(n)],
                heads=[0] + list(range(1, n)),  # token i+1 hangs off token i
                labels=["root"] + ["dep"] * (n - 1),
            )
        ],
        reference=["t0"],
    )


def dense_gcn_oracle(h, graph, layer_weights):
    """Brute-force reference: one dense adjacency matrix per edge class."""
    n = graph.n
    adjacency = {key: np.zeros((n, n)) for key in ("fwd", "bwd", "self", "adj")}
    key_of = {0: "fwd", 1: "bwd", 2: "self", 3: "adj"}
    for src, dst, cls, _ in edge_tuples(graph):
        adjacency[key_of[int(cls)]][dst, src] += 1.0
    total = np.zeros((n, layer_weights["bias"].shape[0]))
    for key, A in adjacency.items():
        total += A @ h @ layer_weights[key].data
    return np.maximum(total + layer_weights["bias"].data[None, :], 0.0)


# ---------------------------------------------------------------------------
# embedding


def test_embed_repeated_ids_give_identical_rows(tiny_params):
    out = enc.embed([5, 5], tiny_params)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_embed_one_hot_identity():
    config = ModelConfig(vocab_size=6, d_emb=6, d_h=2, d_g=4, gcn_layers=1,
                         d_dec=4, d_attn=4)
    params = ModelParams(config, seed=0)
    params.embedding.data[...] = np.eye(6)
    out = enc.embed([3, 0], params)
    np.testing.assert_array_equal(out.data[0], np.eye(6)[3])
    np.testing.assert_array_equal(out.data[1], np.eye(6)[0])


def test_embed_gradient_hits_used_rows_only(tiny_params):
    ids = [2, 7, 2]
    with Tape() as tape:
        out = enc.embed(ids, tiny_params)
        tape.backward(sum_all(out))
    grad = tiny_params.embedding.grad
    np.testing.assert_array_equal(grad[7], np.ones(grad.shape[1]))
    np.testing.assert_array_equal(grad[2], 2 * np.ones(grad.shape[1]))  # used twice
    untouched = [i for i in range(grad.shape[0]) if i not in ids]
    assert not grad[untouched].any()


def test_embed_rejects_out_of_range(tiny_params):
    with pytest.raises(IndexError):
        enc.embed([tiny_params.config.vocab_size], tiny_params)


# ---------------------------------------------------------------------------
# bilstm


def test_bilstm_single_token_shape(tiny_params):
    x = Tensor(np.random.default_rng(0).normal(size=(1, tiny_params.config.d_emb)))
    h_e, finals = enc.bilstm(x, tiny_params)
    assert h_e.shape == (1, 2 * tiny_params.config.d_h)
    assert len(finals) == 2
    assert all(f.shape == (1, 2 * tiny_params.config.d_h) for f in finals)


def test_backward_scan_equals_forward_scan_on_reversed_input(tiny_params):
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, tiny_params.config.d_emb)))
    x_rev = Tensor(x.data[::-1].copy())
    cell = tiny_params.lstm_fw
    d = tiny_params.config.d_h

    def scan(rows):
        # both directions run the forward direction's weights
        x_proj = ad.matmul(rows, cell["W_x"])
        return ad.bilstm_scan(x_proj, x_proj, cell["W_h"], cell["b"],
                              cell["W_h"], cell["b"], (5,))

    states, h, c = scan(x)
    states_rev, h_rev, c_rev = scan(x_rev)
    for i in range(5):
        np.testing.assert_array_equal(
            states.data[i, d:], states_rev.data[4 - i, :d]
        )
    np.testing.assert_array_equal(h.data[:, d:], h_rev.data[:, :d])
    np.testing.assert_array_equal(c.data[:, d:], c_rev.data[:, :d])


def test_bilstm_gradients_match_finite_differences():
    config = ModelConfig(vocab_size=8, d_emb=4, d_h=3, d_g=6, gcn_layers=1,
                         d_dec=4, d_attn=4)
    params = ModelParams(config, seed=3)
    rng = np.random.default_rng(5)
    x_data = rng.uniform(-1, 1, (4, 4))
    probe = Tensor(rng.uniform(-1, 1, (4, 6)))
    checked = {
        name: t for name, t in params.named_tensors().items()
        if name.startswith("lstm")
    }

    def f(p):
        h_e, _ = enc.bilstm(Tensor(x_data), params)
        return sum_all(ad.mul(h_e, probe))

    report = ad.grad_check(f, checked, eps=1e-5, tol=1e-4)
    assert report.ok, str(report)


# ---------------------------------------------------------------------------
# graph convolution


def test_gcn_layer_zero_weights_give_zero_output(tiny_params):
    graph = build_document_graph(path_document(4))
    idx = enc.union_edge_index([graph])
    layer = tiny_params.gcn[0]
    for key in ("fwd", "bwd", "self", "adj"):
        layer[key].data[...] = 0.0
    layer["bias"].data[...] = 0.0
    h = Tensor(np.random.default_rng(0).normal(size=(4, tiny_params.config.d_g)))
    out = gcn_layer(h, idx, layer)
    assert not out.data.any()


def test_gcn_layer_identity_on_self_loop_only_node():
    config = ModelConfig(vocab_size=4, d_emb=3, d_h=2, d_g=4, gcn_layers=1,
                         d_dec=3, d_attn=3)
    params = ModelParams(config, seed=0)
    doc = Document(
        sentences=[ParsedSentence(tokens=["x"], heads=[0], labels=["root"])],
        reference=["x"],
    )
    graph = build_document_graph(doc)
    layer = params.gcn[0]
    layer["self"].data[...] = np.eye(4)
    layer["bias"].data[...] = 0.0
    h = Tensor(np.array([[0.5, 0.0, 1.25, 0.75]]))
    out = gcn_layer(h, enc.union_edge_index([graph]), layer)
    np.testing.assert_array_equal(out.data, h.data)


def test_gcn_layer_matches_dense_adjacency_oracle(tiny_params):
    doc = Document(
        sentences=[
            ParsedSentence(tokens=["a", "b", "c"], heads=[2, 0, 2],
                           labels=["x", "root", "y"]),
        ],
        reference=["a"],
    )
    graph = build_document_graph(doc)
    h = np.random.default_rng(2).normal(size=(3, tiny_params.config.d_g))
    layer = tiny_params.gcn[0]
    out = gcn_layer(Tensor(h), enc.union_edge_index([graph]), layer)
    expected = dense_gcn_oracle(h, graph, layer)
    assert np.abs(out.data - expected).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_union_edge_index_matches_the_per_edge_walk(seed, size):
    grammar = syn.GrammarConfig(copy_place=True, distractor_every=1)
    graphs = [build_document_graph(doc)
              for doc in syn.generate_documents(seed, size, grammar)]
    union = enc.union_edge_index(graphs)
    expected = union_edge_index_oracle(graphs)
    assert union.keys() == expected.keys()
    for key, (src, dst) in union.items():
        assert src.dtype == dst.dtype == np.intp
        assert src.tolist() == expected[key][0]
        assert dst.tolist() == expected[key][1]


# ---------------------------------------------------------------------------
# full encoder


def test_encode_shapes():
    docs = [path_document(5)]
    vocab = build_vocabulary(docs, cap=12)
    example = encode_example(docs[0], vocab)
    config = ModelConfig(vocab_size=vocab.size, d_emb=5, d_h=4, d_g=6,
                         gcn_layers=2, d_dec=6, d_attn=6)
    params = ModelParams(config, seed=0)
    doc_enc = enc.encode([example], params)
    assert doc_enc.fused.shape == (5, 8 + 6)
    assert all(f.shape == (1, 8) for f in doc_enc.final_states)


def test_receptive_field_matches_graph_distance():
    # perturb one row of the graph-convolution input; the change must reach
    # exactly the nodes within L hops on the dependency path
    n, L = 7, 2
    graph = build_document_graph(path_document(n))
    config = ModelConfig(vocab_size=10, d_emb=4, d_h=3, d_g=5, gcn_layers=L,
                         d_dec=4, d_attn=4)
    params = ModelParams(config, seed=1)
    rng = np.random.default_rng(0)
    # positive weights and inputs keep every unit active through relu
    for layer in params.gcn:
        for key in ("fwd", "bwd", "self", "adj"):
            layer[key].data[...] = rng.uniform(0.05, 0.1, layer[key].shape)
        layer["bias"].data[...] = 0.1
    base_h = rng.uniform(0.5, 1.0, (n, config.d_g))
    idx = enc.union_edge_index([graph])
    base_out = enc.gcn_stack(Tensor(base_h), idx, params).data
    for j in range(n):
        perturbed = base_h.copy()
        perturbed[j] += 0.5
        new_out = enc.gcn_stack(Tensor(perturbed), idx, params).data
        changed = np.abs(new_out - base_out).max(axis=1) > 0
        expected = np.array([abs(i - j) <= L for i in range(n)])
        np.testing.assert_array_equal(changed, expected)


def test_gcn_stack_equivariant_to_node_relabeling(tiny_setup):
    docs, vocab, examples, config = tiny_setup
    params = ModelParams(config, seed=2)
    example = examples[0]
    graph = example.graph
    n = graph.n
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(n, config.d_g))
    out = enc.gcn_stack(Tensor(h0), enc.union_edge_index([graph]), params).data

    perm = rng.permutation(n)
    # relabel nodes: node i becomes perm[i]
    permuted_edges = [
        (int(perm[src]), int(perm[dst]), cls, label)
        for src, dst, cls, label in edge_tuples(graph)
    ]
    permuted = graph_from_edges(
        n, permuted_edges, roots=[int(perm[r]) for r in graph.roots],
        label_names=graph.label_names,
    )
    h0_perm = np.empty_like(h0)
    h0_perm[perm] = h0
    out_perm = enc.gcn_stack(
        Tensor(h0_perm), enc.union_edge_index([permuted]), params
    ).data
    np.testing.assert_allclose(out_perm[perm], out, atol=1e-12)


def test_encode_zero_gcn_layers_concatenates_projection(tiny_setup):
    docs, vocab, examples, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=8, d_h=6, d_g=10,
                         gcn_layers=0, d_dec=10, d_attn=10)
    params = ModelParams(config, seed=0)
    assert params.gcn_input_proj is not None  # 2*d_h != d_g needs a projection
    doc_enc = enc.encode([examples[0]], params)
    semantic, _ = enc.bilstm(enc.embed(examples[0].source_ids, params), params)
    with np.errstate(all="ignore"):
        h0 = np.add.accumulate(
            semantic.data[:, :, None] * params.gcn_input_proj.data[None],
            axis=1,
        )[:, -1]
    np.testing.assert_array_equal(doc_enc.fused.data[:, :12], semantic.data)
    np.testing.assert_allclose(doc_enc.fused.data[:, 12:], h0, atol=1e-12)


def test_encode_identity_projection_when_widths_match(tiny_setup):
    _, vocab, examples, config = tiny_setup
    matched = ModelConfig(vocab_size=vocab.size, d_emb=8, d_h=6, d_g=12,
                          gcn_layers=1, d_dec=10, d_attn=10)
    params = ModelParams(matched, seed=0)
    assert params.gcn_input_proj is None  # 2*d_h == d_g, identity input


def test_encode_gcn_ablation_reduces_to_semantic(tiny_setup):
    docs, vocab, examples, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=8, d_h=6, d_g=12,
                         gcn_layers=2, d_dec=10, d_attn=10, ablate_gcn=True)
    params = ModelParams(config, seed=0)
    doc_enc = enc.encode([examples[0]], params)
    semantic, _ = enc.bilstm(enc.embed(examples[0].source_ids, params), params)
    assert doc_enc.fused.shape == (examples[0].n, 12)
    np.testing.assert_array_equal(doc_enc.fused.data, semantic.data)


def test_encode_outputs_finite(tiny_setup):
    _, _, examples, config = tiny_setup
    params = ModelParams(config, seed=4)
    for example in examples[:4]:
        doc_enc = enc.encode([example], params)
        assert np.isfinite(doc_enc.fused.data).all()


def test_encode_gradients_match_finite_differences():
    docs = [path_document(4)]
    vocab = build_vocabulary(docs, cap=10)
    example = encode_example(docs[0], vocab)
    config = ModelConfig(vocab_size=vocab.size, d_emb=3, d_h=2, d_g=4,
                         gcn_layers=2, d_dec=3, d_attn=3)
    params = ModelParams(config, seed=6)
    # keep relu pre-activations away from the kink, where central
    # differences would disagree with the subgradient convention
    for layer in params.gcn:
        layer["bias"].data[...] = 0.2
    rng = np.random.default_rng(7)
    probe = Tensor(rng.uniform(-1, 1, (4, config.enc_dim)))
    checked = {
        name: t for name, t in params.named_tensors().items()
        if name.startswith(("embedding", "lstm", "gcn"))
    }

    def f(p):
        doc_enc = enc.encode([example], params)
        return sum_all(ad.mul(doc_enc.fused, probe))

    report = ad.grad_check(f, checked, eps=1e-5, tol=1e-4)
    assert report.ok, str(report)


def test_tied_directions_share_one_tensor(tiny_setup):
    _, vocab, _, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=8, d_h=6, d_g=12,
                         gcn_layers=2, d_dec=10, d_attn=10, tie_fwd_bwd=True)
    params = ModelParams(config, seed=0)
    for layer in params.gcn:
        assert layer["fwd"] is layer["bwd"]
    names = params.named_tensors()
    assert "gcn/0/dep" in names
    assert "gcn/0/fwd" not in names
