"""Deferred weight gradients in ``Tape.backward``.

``matmul`` files its right operand's terms and ``gather_rows`` its rows
with the sweep, which sums each tensor's terms in one operation. Only the
order of gradient sums may change: forward values stay bitwise as before,
and gradients agree with finite differences and with the per-step products
they replace.
"""

import hashlib

import numpy as np
import pytest

from synsum import autodiff as ad
from synsum.autodiff import Tape, Tensor
from synsum.model import ModelConfig, ModelParams
from synsum.training import sequence_loss
from oracles import sum_all, transpose
from test_lstm_cell import TOY_WIDTHS, corpus


def tensors(rng, **shapes):
    return {name: Tensor(rng.normal(0, 0.5, shape), requires_grad=True)
            for name, shape in shapes.items()}


@pytest.mark.parametrize("vocab_size", [None, 2000])
def test_output_weight_gradient_is_one_product_over_the_steps(vocab_size,
                                                              monkeypatch):
    vocab, examples = corpus(seed=9, size=2, vocab_size=vocab_size)
    params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                         seed=4)
    out_W = params.out_proj["W"]
    filed = []
    real_pending_for = ad._pending_for

    def recording_pending_for(t):
        terms = real_pending_for(t)
        if t is out_W:
            filed.append(terms)
        return terms

    monkeypatch.setattr(ad, "_pending_for", recording_pending_for)
    example = examples[0]
    with Tape() as tape:
        loss, _ = sequence_loss(example, params, 1.0)
        tape.backward(loss)
    # the output head projects the stacked rows of every step at once, and
    # files one term: those rows and their logits' gradient
    assert len(filed) == 1 and len(filed[0].lhs) == 1
    A, G = filed[0].lhs[0], filed[0].grads[0]
    assert A.shape == (len(example.target_ids) - 1, out_W.shape[0])
    scale = max(np.abs(t.grad).max() for t in params.named_tensors().values()
                if t.grad is not None)
    assert np.abs(out_W.grad - A.T @ G).max() <= 1e-12 * scale


def test_non_leaf_right_operand_of_several_matmuls_grad_check():
    params = tensors(np.random.default_rng(0), u=(3, 2), v=(2, 4), x=(2, 3))

    def f(p):
        w = ad.tanh(ad.matmul(p["u"], p["v"]))       # non-leaf, 3 x 4
        y = ad.add(ad.matmul(p["x"], w),              # w as the right operand
                   ad.matmul(ad.sigmoid(p["x"]), w))  # ... twice
        k = ad.matmul(w, transpose(w))             # w on the left as well
        r = ad.mul(w, w)                              # and elementwise
        return ad.add(ad.add(sum_all(ad.mul(y, y)), sum_all(k)),
                      sum_all(r))

    report = ad.grad_check(f, params, tol=1e-6)
    assert report.ok, str(report)


def test_gathered_matrix_that_is_also_a_matmul_weight_grad_check():
    params = tensors(np.random.default_rng(1), E=(5, 3), x=(2, 5))

    def f(p):
        E = p["E"]
        rows = ad.gather_rows(E, [1, 3, 1, 1, 0])     # repeated indices
        more = ad.gather_rows(E, [3, 3])
        logits = ad.matmul(ad.tanh(rows), transpose(E))
        proj = ad.matmul(p["x"], E)                    # E as the right operand
        return ad.add(ad.add(sum_all(ad.mul(logits, logits)),
                             sum_all(ad.mul(proj, more))),
                      sum_all(ad.matmul(ad.tanh(proj), transpose(more))))

    report = ad.grad_check(f, params, tol=1e-6)
    assert report.ok, str(report)


def test_sequence_loss_values_are_pinned():
    """Hash of full-model losses taken before gradient terms were deferred:
    deferring changes gradient sums only, never a forward value."""
    digest = hashlib.sha256()
    for vocab_size in (None, 2000):
        vocab, examples = corpus(seed=5, size=4, vocab_size=vocab_size)
        params = ModelParams(ModelConfig(vocab_size=vocab.size, **TOY_WIDTHS),
                             seed=3)
        for example in examples:
            with Tape() as tape:
                loss, _ = sequence_loss(example, params, 1.0)
                tape.backward(loss)
            digest.update(loss.data.tobytes())
    assert digest.hexdigest() == (
        "40aaa7fa6b38a43707df9ef6d21b452eb257c617ff693456b99680d3cf12734e"
    )


def test_failed_backward_leaves_no_pending_terms():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    W = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def loss_of():
        return sum_all(ad.matmul(ad.tanh(x), W))

    def fail(g):
        raise RuntimeError("boom")

    with Tape() as tape:
        loss = loss_of()
    tape.nodes[0].backward = fail  # tanh runs after matmul filed W's term
    with pytest.raises(RuntimeError, match="boom"):
        tape.backward(loss)

    ad.zero_grads([x, W])
    with Tape() as tape:
        tape.backward(loss_of())
    expected = np.tanh(x.data).T @ np.ones((2, 2))
    assert np.array_equal(W.grad, expected)
