import numpy as np

from synsum import autodiff as ad
from synsum import gate as gt
from synsum.autodiff import Tape, Tensor
from synsum.model import ModelConfig, ModelParams
from synsum.training import sequence_loss


def small_params(d_h=3, d_g=6, vocab=8, seed=0):
    config = ModelConfig(vocab_size=vocab, d_emb=4, d_h=d_h, d_g=d_g,
                         gcn_layers=1, d_dec=5, d_attn=5)
    return ModelParams(config, seed=seed)


def set_gate(params, score_W, score_b, query, token_W, doc_W, b):
    params.gate["score_W"].data[...] = score_W
    params.gate["score_b"].data[...] = score_b
    params.gate["query"].data[...] = query
    params.gate["token_W"].data[...] = token_W
    params.gate["doc_W"].data[...] = doc_W
    params.gate["b"].data[...] = b


# ---------------------------------------------------------------------------
# document vector


def test_single_token_attention_is_one():
    params = small_params()
    h = Tensor(np.random.default_rng(0).normal(size=(1, params.config.enc_dim)))
    pooled, weights = gt.document_vector(h, params)
    np.testing.assert_array_equal(weights.data, [1.0])
    np.testing.assert_allclose(pooled.data, h.data, atol=1e-12)


def test_identical_rows_give_uniform_attention():
    params = small_params()
    row = np.random.default_rng(1).normal(size=params.config.enc_dim)
    h = Tensor(np.tile(row, (4, 1)))
    pooled, weights = gt.document_vector(h, params)
    np.testing.assert_allclose(weights.data, np.full(4, 0.25), atol=1e-12)
    np.testing.assert_allclose(pooled.data, row[None, :], atol=1e-12)


def test_document_vector_matches_hand_evaluation():
    # d = 2 model evaluated against the formulas written out by hand in numpy
    params = small_params(d_h=1, d_g=2, vocab=6)  # wait: enc_dim = 2*1 + 2 = 4
    d = params.config.enc_dim
    rng = np.random.default_rng(3)
    score_W = rng.uniform(-0.5, 0.5, (d, d))
    score_b = rng.uniform(-0.5, 0.5, d)
    query = rng.uniform(-0.5, 0.5, d)
    set_gate(params, score_W, score_b, query,
             np.zeros((d, d)), np.zeros((d, d)), np.zeros(d))
    h = rng.uniform(-1, 1, (3, d))

    u = np.tanh(h @ score_W + score_b)
    scores = u @ query
    e = np.exp(scores - scores.max())
    weights_expected = e / e.sum()
    pooled_expected = weights_expected @ h

    pooled, weights = gt.document_vector(Tensor(h), params)
    np.testing.assert_allclose(weights.data, weights_expected, atol=1e-12)
    np.testing.assert_allclose(pooled.data, pooled_expected[None, :],
                               atol=1e-12)


def test_attention_shift_invariance_through_constant_query_offset():
    # adding a constant to all scores leaves the weights unchanged exactly
    params = small_params()
    d = params.config.enc_dim
    rng = np.random.default_rng(4)
    h = Tensor(rng.uniform(-1, 1, (5, d)))
    # re-derive the scores through the same primitives, then shift; scores
    # are quantized to a dyadic grid so that adding the constant is exact
    u = ad.tanh(ad.add_rowvec(ad.matmul(h, params.gate["score_W"]),
                              params.gate["score_b"]))
    scores = ad.reshape(ad.matmul(u, ad.reshape(params.gate["query"], (d, 1))),
                        (5,))
    grid = np.round(scores.data * 2.0 ** 20) / 2.0 ** 20
    base = ad.softmax(Tensor(grid))
    shifted = ad.softmax(Tensor(grid + 3.0))
    np.testing.assert_array_equal(shifted.data, base.data)


# ---------------------------------------------------------------------------
# selective gate


def test_zero_parameters_halve_the_states():
    params = small_params()
    d = params.config.enc_dim
    set_gate(params, np.zeros((d, d)), np.zeros(d), np.zeros(d),
             np.zeros((d, d)), np.zeros((d, d)), np.zeros(d))
    h = Tensor(np.random.default_rng(5).normal(size=(3, d)))
    pooled, _ = gt.document_vector(h, params)
    g, gated = gt.selective_gate(h, pooled, params)
    np.testing.assert_array_equal(g.data, np.full((3, d), 0.5))
    np.testing.assert_allclose(gated.data, h.data / 2, atol=1e-15)


def test_saturated_bias_passes_states_through():
    params = small_params()
    d = params.config.enc_dim
    set_gate(params, np.zeros((d, d)), np.zeros(d), np.zeros(d),
             np.zeros((d, d)), np.zeros((d, d)), np.full(d, 30.0))
    h = Tensor(np.random.default_rng(6).normal(size=(2, d)))
    pooled, _ = gt.document_vector(h, params)
    g, gated = gt.selective_gate(h, pooled, params)
    assert np.abs(gated.data - h.data).max() < 1e-9


def test_selective_gate_matches_hand_evaluation():
    params = small_params(d_h=1, d_g=2, vocab=6)
    d = params.config.enc_dim
    rng = np.random.default_rng(7)
    token_W = rng.uniform(-0.5, 0.5, (d, d))
    doc_W = rng.uniform(-0.5, 0.5, (d, d))
    b = rng.uniform(-0.5, 0.5, d)
    set_gate(params, np.zeros((d, d)), np.zeros(d), np.zeros(d),
             token_W, doc_W, b)
    h = rng.uniform(-1, 1, (2, d))
    doc_vec = rng.uniform(-1, 1, d)

    logits = h @ token_W + doc_W.T @ doc_vec + b
    g_expected = 1.0 / (1.0 + np.exp(-logits))
    gated_expected = h * g_expected

    g, gated = gt.selective_gate(Tensor(h), Tensor(doc_vec[None, :]), params)
    np.testing.assert_allclose(g.data, g_expected, atol=1e-12)
    np.testing.assert_allclose(gated.data, gated_expected, atol=1e-12)


def test_gate_strictly_inside_unit_interval_and_shrinks():
    params = small_params(seed=9)
    d = params.config.enc_dim
    h = Tensor(np.random.default_rng(10).normal(size=(6, d)))
    result = gt.apply_gate(h, params)
    assert (result.gate.data > 0).all() and (result.gate.data < 1).all()
    assert (np.sign(result.gated.data) == np.sign(h.data)).all() or \
        np.allclose(result.gated.data[np.sign(result.gated.data) !=
                                      np.sign(h.data)], 0)
    assert (np.abs(result.gated.data) <= np.abs(h.data)).all()
    assert abs(result.attention.data.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# bypass / ablation


def test_gate_bypass_is_identity(tiny_setup):
    _, vocab, _, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=8, d_h=6, d_g=12,
                         gcn_layers=1, d_dec=10, d_attn=10, ablate_gate=True)
    params = ModelParams(config, seed=0)
    h = Tensor(np.random.default_rng(11).normal(size=(4, config.enc_dim)))
    assert gt.apply_gate(h, params).gated is h


def test_ablated_gate_receives_zero_gradient(tiny_setup):
    _, vocab, examples, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=8, d_h=6, d_g=12,
                         gcn_layers=1, d_dec=10, d_attn=10, ablate_gate=True)
    params = ModelParams(config, seed=0)
    with Tape() as tape:
        loss, _ = sequence_loss(examples[0], params, coverage_weight=1.0)
        tape.backward(loss)
    for name, tensor in params.named_tensors().items():
        if name.startswith("gate/"):
            assert tensor.grad is None or not tensor.grad.any(), name
        elif name.startswith(("lstm", "dec/")):
            assert tensor.grad is not None and tensor.grad.any(), name


def test_ablated_model_still_passes_gradient_check(tiny_setup):
    _, vocab, examples, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=4, d_h=3, d_g=6,
                         gcn_layers=1, d_dec=4, d_attn=4, ablate_gate=True)
    params = ModelParams(config, seed=1)
    for layer in params.gcn:
        layer["bias"].data[...] = 0.2
    example = examples[0]
    checked = {
        name: t for name, t in params.named_tensors().items()
        if not name.startswith("gate/") and name != "embedding"
    }

    def f(p):
        loss, _ = sequence_loss(example, params, coverage_weight=1.0)
        return loss

    report = ad.grad_check(f, checked, eps=1e-5, tol=1e-4)
    assert report.ok, str(report)


def test_gate_parameters_receive_gradient_through_decoder_loss(tiny_setup):
    _, _, examples, config = tiny_setup
    params = ModelParams(config, seed=2)
    with Tape() as tape:
        loss, _ = sequence_loss(examples[0], params, coverage_weight=1.0)
        tape.backward(loss)
    for name in ("score_W", "query", "token_W", "doc_W"):
        grad = params.gate[name].grad
        assert grad is not None and np.abs(grad).max() > 0, name
