from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsum import autodiff as ad
from synsum.autodiff import Tape, Tensor
from oracles import (
    log,
    matmul_fold,
    maximum,
    minimum,
    outer,
    pick,
    relu,
    same_bits,
    scatter_rows_sum,
    scatter_sum_vec,
    slice_cols,
    sub,
    sum_all,
    transpose,
)


def fd_gradient(build, tensors, eps=1e-6):
    """Central-difference gradient of a scalar-valued builder, per tensor."""
    grads = []
    for t in tensors:
        flat = t.data.ravel()
        g = np.zeros(flat.size)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            fp = float(build().data)
            flat[k] = orig - eps
            fm = float(build().data)
            flat[k] = orig
            g[k] = (fp - fm) / (2 * eps)
        grads.append(g.reshape(t.shape))
    return grads


def analytic_gradient(build, tensors):
    ad.zero_grads(tensors)
    with Tape() as tape:
        loss = build()
        tape.backward(loss)
    return [t.grad if t.grad is not None else np.zeros(t.shape) for t in tensors]


def assert_matches_fd(build, tensors, tol=1e-6):
    analytic = analytic_gradient(build, tensors)
    numeric = fd_gradient(build, tensors)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
        assert (np.abs(a - n) / denom).max() < tol


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_orthogonal_selection():
    out = ad.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
    np.testing.assert_array_equal(out.data, [[0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_array_equal(out.data, expected)


@pytest.mark.parametrize("inner,width", [(64, 512), (64, 513), (64, 2560),
                                         (64, 2561), (1, 3), (1, 600)])
def test_one_row_matmul_matches_triple_loop_oracle(inner, width):
    # one-row products of one and of 64 terms, narrow and wide
    rng = np.random.default_rng(inner * 1000 + width)
    a = rng.normal(size=(1, inner))
    b = rng.normal(size=(inner, width))
    expected = np.zeros((1, width))
    for j in range(width):
        for k in range(inner):
            expected[0, j] += a[0, k] * b[k, j]
    out = ad.matmul(Tensor(a), Tensor(b))
    np.testing.assert_array_equal(out.data, expected)


# every NaN a fold can give, read as one: IEEE 754 leaves the sign and
# payload of a NaN sum of two NaNs to whichever operand the hardware keeps,
# and neither NumPy's loops nor a Python triple loop fix the operand order
def _nan_canonical(x):
    return np.where(np.isnan(x), np.nan, x)


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
_ORACLE_OPS = 70_000  # multiply-adds per case, to keep the Python loop quick


@st.composite
def fold_shapes(draw):
    """(rows, inner, cols) on every route of ``_matmul_data``: one entry
    (accumulate), one column (the transposed product), one row, and columns
    on both sides of einsum's 8,192-element buffer and at the V = 20k head,
    with inner axes of 1 and of 97 or more where the Python oracle allows."""
    kind = draw(st.sampled_from(["entry", "column", "row", "wide", "small"]))
    if kind == "entry":
        rows, cols = 1, 1
    elif kind == "column":
        rows, cols = draw(st.integers(2, 40)), 1
    elif kind == "row":
        rows, cols = 1, draw(st.sampled_from([2, 3, 129, 3000]))
    elif kind == "wide":
        rows = draw(st.integers(1, 3))
        cols = draw(st.sampled_from([8191, 8192, 8193, 20_000]))
    else:
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(2, 64))
    inner = draw(st.sampled_from(
        [1, draw(st.integers(2, 24)), draw(st.integers(97, 160))]))
    if rows * cols * inner > _ORACLE_OPS:
        inner = draw(st.integers(1, max(1, _ORACLE_OPS // (rows * cols))))
    return rows, inner, cols


def _fold_operand(rng, shape, common, values, layout):
    if values == "signed zeros":  # most folds are of -0.0 terms only
        x = np.where(rng.random(shape) < 0.9, common, -common)
    else:
        x = rng.normal(size=shape)
        if values == "specials":
            mask = rng.random(shape) < 0.4
            x[mask] = rng.choice(_SPECIALS, mask.sum())
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.full((2 * shape[0], 3 * shape[1]), 7.0)
        wide[::2, ::3] = x
        return wide[::2, ::3]
    return x


_FOLD_VALUES = st.sampled_from(["normal", "specials", "signed zeros"])
_FOLD_LAYOUTS = st.sampled_from(["C", "F", "strided"])


def _check_fold(einsum_folds, shape, seed, values, layout):
    rows, inner, cols = shape
    rng = np.random.default_rng(seed)
    a = _fold_operand(rng, (rows, inner), -0.0, values, layout)
    b = _fold_operand(rng, (inner, cols), 1.0, values, layout)
    with np.errstate(invalid="ignore"), \
            patch.object(ad, "_EINSUM_FOLDS", einsum_folds):
        # Tensor makes its data C-ordered; the fused primitives hand the
        # fold views of any layout
        got = ad._matmul_data(a, b)
    assert same_bits(_nan_canonical(got), _nan_canonical(matmul_fold(a, b)))


@settings(max_examples=300, deadline=None)
@given(shape=fold_shapes(), seed=st.integers(0, 2**32 - 1),
       values=_FOLD_VALUES, layout=_FOLD_LAYOUTS)
def test_matmul_forward_is_the_term_zero_fold_byte_for_byte(shape, seed,
                                                            values, layout):
    _check_fold(True, shape, seed, values, layout)


@settings(max_examples=150, deadline=None)
@given(shape=fold_shapes(), seed=st.integers(0, 2**32 - 1),
       values=_FOLD_VALUES, layout=_FOLD_LAYOUTS)
def test_the_loop_over_k_is_the_term_zero_fold_byte_for_byte(shape, seed,
                                                              values, layout):
    # the route every product takes where einsum fails the probe
    _check_fold(False, shape, seed, values, layout)


@pytest.mark.parametrize("einsum_folds", [True, False])
@settings(max_examples=100, deadline=None)
@given(stack=st.integers(1, 3), rows=st.integers(1, 6),
       inner=st.sampled_from([1, 2, 7, 97]), cols=st.sampled_from([2, 3, 33]),
       seed=st.integers(0, 2**32 - 1), values=_FOLD_VALUES,
       layout=_FOLD_LAYOUTS)
def test_matmul_stack_is_each_slice_s_term_zero_fold(
        einsum_folds, stack, rows, inner, cols, seed, values, layout):
    rng = np.random.default_rng(seed)
    a = [_fold_operand(rng, (rows, inner), -0.0, values, layout)
         for _ in range(stack)]
    b = [_fold_operand(rng, (inner, cols), 1.0, values, layout)
         for _ in range(stack)]
    with np.errstate(invalid="ignore"), \
            patch.object(ad, "_EINSUM_FOLDS", einsum_folds):
        got = ad._matmul_stack(np.stack(a), np.stack(b))
    want = np.stack([matmul_fold(x, y) for x, y in zip(a, b)])
    assert same_bits(_nan_canonical(got), _nan_canonical(want))


def _fused_einsum(subscripts, a, b):
    """einsum as a fused multiply-add kernel: each product is added to the
    running sum with one rounding. Exact rationals, once for each distinct
    pair of a row and a column."""
    out = np.empty(a.shape[:2] + b.shape[2:])
    sums = {}
    for s, r, c in np.ndindex(out.shape):
        key = (a[s, r].tobytes(), b[s, :, c].tobytes())
        if key not in sums:
            acc = Fraction(0)
            for x, y in zip(a[s, r].tolist(), b[s, :, c].tolist()):
                acc = Fraction(float(acc + Fraction(x) * Fraction(y)))
            sums[key] = float(acc)
        out[s, r, c] = sums[key]
    return out


def _pairwise_einsum(subscripts, a, b):
    """einsum summing each entry's products pairwise: neighbours first."""
    terms = a[:, :, :, None] * b[:, None, :, :]
    while terms.shape[2] > 1:
        odd = terms[:, :, 2 * (terms.shape[2] // 2):]
        terms = np.concatenate(
            [terms[:, :, 0:-1:2] + terms[:, :, 1::2], odd], axis=2)
    return terms[:, :, 0]


def _reversed_einsum(subscripts, a, b, _einsum=np.einsum):
    """einsum summing each entry's products from the last."""
    return _einsum(subscripts, a[:, :, ::-1], b[:, ::-1])


def test_the_einsum_probe_passes_numpy_s_einsum_here():
    # the kernels this NumPy runs fold in order; on a build where they do
    # not, the probe routes every product to the loop over k instead
    assert ad._einsum_folds() and ad._EINSUM_FOLDS


@pytest.mark.parametrize("fake", [_fused_einsum, _pairwise_einsum,
                                  _reversed_einsum])
def test_the_einsum_probe_rejects_fused_and_reordered_sums(fake):
    with patch.object(np, "einsum", fake):
        assert not ad._einsum_folds()


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# elementwise


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_bitwise_equals_masked_piecewise_form():
    x = np.concatenate([np.random.default_rng(0).normal(0, 20, 997),
                        [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0,
                         -800.0, np.inf, -np.inf]])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    assert ad.sigmoid(Tensor(x)).data.tobytes() == want.tobytes()


def test_sigmoid_extreme_inputs_do_not_overflow():
    out = ad.sigmoid(Tensor([-800.0, 800.0]))
    np.testing.assert_allclose(out.data, [0.0, 1.0])


def test_tanh_at_zero():
    assert ad.tanh(Tensor(0.0)).item() == 0.0


def test_minimum_pointwise():
    out = minimum(Tensor([0.3, 0.7]), Tensor([0.5, 0.2]))
    np.testing.assert_array_equal(out.data, [0.3, 0.2])


def test_relu_subgradient_zero_at_zero():
    x = Tensor([0.0, -1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(relu(x))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_elementwise_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_scalar_broadcast():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(ad.mul(x, 3.0))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


# ---------------------------------------------------------------------------
# softmax


@pytest.mark.parametrize("c", [0.0, -7.5, 123.0])
def test_softmax_constant_logits_uniform(c):
    out = ad.softmax(Tensor([c, c, c]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_softmax_single_element():
    np.testing.assert_array_equal(ad.softmax(Tensor([4.2])).data, [1.0])


def test_softmax_hand_evaluated():
    out = ad.softmax(Tensor([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_shift_invariance_small_ints_exact():
    x = np.array([0.5, -1.25, 2.0])
    base = ad.softmax(Tensor(x)).data
    for c in (1.0, -3.0, 10.0):
        np.testing.assert_array_equal(ad.softmax(Tensor(x + c)).data, base)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=1, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_sums_to_one_and_shift_invariant(logits, c):
    x = np.array(logits)
    out = ad.softmax(Tensor(x)).data
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out >= 0).all()
    shifted = ad.softmax(Tensor(x + c)).data
    np.testing.assert_allclose(shifted, out, atol=1e-12)


def test_softmax_mask_zeroes_positions():
    out = ad.softmax(Tensor([1.0, 2.0, 3.0]), mask=[True, False, True])
    assert out.data[1] == 0.0
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_all_masked_raises():
    with pytest.raises(ad.DegenerateDistributionError):
        ad.softmax(Tensor([1.0, 2.0]), mask=[False, False])


# ---------------------------------------------------------------------------
# backward / tape


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_product_of_scalars():
    x = Tensor(3.0, requires_grad=True)
    y = Tensor(4.0, requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.mul(x, y))
    assert x.grad == 4.0
    assert y.grad == 3.0


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = ad.mul(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(out)


def test_backward_rejects_disconnected_loss():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        _ = ad.mul(x, 2.0)
        with pytest.raises(ValueError, match="connected"):
            tape.backward(Tensor(1.0))


def test_gradient_accumulation_matches_single_use_decomposition():
    rng = np.random.default_rng(3)
    xv = rng.normal(size=4)
    y1 = rng.normal(size=4)
    y2 = rng.normal(size=4)

    x = Tensor(xv, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(ad.add(ad.mul(x, Tensor(y1)), ad.mul(x, Tensor(y2))))
        tape.backward(loss)
    shared_grad = x.grad.copy()

    # two independent copies, one use each, summed afterwards
    xa = Tensor(xv, requires_grad=True)
    xb = Tensor(xv, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(ad.add(ad.mul(xa, Tensor(y1)), ad.mul(xb, Tensor(y2))))
        tape.backward(loss)
    np.testing.assert_array_equal(shared_grad, xa.grad + xb.grad)


def test_tape_replay_bitwise_deterministic():
    rng = np.random.default_rng(9)
    w = rng.normal(size=(4, 3))
    x = rng.normal(size=(3, 2))

    def run():
        wt = Tensor(w, requires_grad=True)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ad.sigmoid(ad.matmul(wt, xt))
            loss = sum_all(ad.mul(out, out))
            tape.backward(loss)
        return wt.grad.tobytes(), xt.grad.tobytes()

    assert run() == run()


def test_ops_without_tape_do_not_track():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = ad.mul(x, 3.0)
    assert out.grad is None
    np.testing.assert_array_equal(out.data, [3.0, 6.0])


# ---------------------------------------------------------------------------
# finite differences for every primitive


def _rand(shape, seed, lo=-1.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape), requires_grad=True)


PRIMITIVE_CASES = {
    "matmul": lambda: ((a := _rand((3, 4), 1), b := _rand((4, 2), 2)),
                       lambda: sum_all(ad.mul(m := ad.matmul(a, b), m))),
    "add": lambda: ((a := _rand((3, 2), 3), b := _rand((3, 2), 4)),
                    lambda: sum_all(ad.mul(s := ad.add(a, b), s))),
    "sub": lambda: ((a := _rand((3, 2), 5), b := _rand((3, 2), 6)),
                    lambda: sum_all(ad.mul(s := sub(a, b), s))),
    "mul": lambda: ((a := _rand((4,), 7), b := _rand((4,), 8)),
                    lambda: sum_all(ad.sigmoid(ad.mul(a, b)))),
    "mul_scalar": lambda: ((a := _rand((4,), 9), s := _rand((), 10)),
                           lambda: sum_all(ad.tanh(ad.mul(a, s)))),
    "sigmoid": lambda: ((a := _rand((5,), 11),),
                        lambda: sum_all(ad.mul(y := ad.sigmoid(a), y))),
    "tanh": lambda: ((a := _rand((5,), 12),),
                     lambda: sum_all(ad.mul(y := ad.tanh(a), y))),
    # keep relu inputs away from the kink at 0
    "relu": lambda: ((a := _rand((6,), 13, 0.2, 1.0),),
                     lambda: sum_all(ad.mul(y := relu(a), y))),
    "minimum": lambda: ((a := _rand((5,), 14), b := _rand((5,), 15)),
                        lambda: sum_all(ad.mul(y := minimum(a, b), y))),
    "maximum": lambda: ((a := _rand((5,), 16), b := _rand((5,), 17)),
                        lambda: sum_all(ad.mul(y := maximum(a, b), y))),
    "softmax": lambda: ((a := _rand((6,), 18),),
                        lambda: sum_all(ad.mul(y := ad.softmax(a), y))),
    "softmax_masked": lambda: ((a := _rand((6,), 19),),
                               lambda: sum_all(
                                   ad.mul(y := ad.softmax(a, mask=[1, 0, 1, 1, 0, 1]), y))),
    "log": lambda: ((a := _rand((5,), 20, 0.5, 2.0),),
                    lambda: sum_all(ad.mul(y := log(a), y))),
    "concat_rows": lambda: ((a := _rand((2, 3), 21), b := _rand((1, 3), 22)),
                            lambda: sum_all(ad.mul(y := ad.concat([a, b], axis=0), y))),
    "concat_cols": lambda: ((a := _rand((2, 2), 23), b := _rand((2, 3), 24)),
                            lambda: sum_all(ad.mul(y := ad.concat([a, b], axis=1), y))),
    "reshape": lambda: ((a := _rand((2, 3), 25),),
                        lambda: sum_all(ad.mul(y := ad.reshape(a, (6,)), y))),
    "transpose": lambda: ((a := _rand((2, 3), 26),),
                          lambda: sum_all(ad.mul(y := transpose(a), y))),
    "slice_cols": lambda: ((a := _rand((3, 5), 27),),
                           lambda: sum_all(ad.mul(y := slice_cols(a, 1, 4), y))),
    "gather_rows": lambda: ((a := _rand((4, 3), 28),),
                            lambda: sum_all(
                                ad.mul(y := ad.gather_rows(a, [0, 2, 2, 3]), y))),
    "scatter_rows_sum": lambda: ((a := _rand((4, 3), 29),),
                                 lambda: sum_all(ad.mul(
                                     y := scatter_rows_sum(a, [0, 1, 1, 3], [2, 0, 2, 1], 3),
                                     y))),
    "add_rowvec": lambda: ((a := _rand((3, 4), 30), v := _rand((4,), 31)),
                           lambda: sum_all(ad.mul(y := ad.add_rowvec(a, v), y))),
    "outer": lambda: ((u := _rand((3,), 32), v := _rand((4,), 33)),
                      lambda: sum_all(ad.mul(y := outer(u, v), y))),
    "pick": lambda: ((a := _rand((5,), 34),),
                     lambda: ad.mul(p := pick(a, 2), p)),
    "scatter_sum_vec": lambda: ((a := _rand((4,), 35),),
                                lambda: sum_all(ad.mul(
                                    y := scatter_sum_vec(a, [0, 2, 2, 1], 4), y))),
    # keep clip inputs away from the boundaries
    "clip": lambda: ((a := _rand((5,), 36, -0.4, 0.4),),
                     lambda: sum_all(ad.mul(y := ad.clip(a, -0.5, 0.5), y))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_backward_matches_finite_differences(name):
    tensors, build = PRIMITIVE_CASES[name]()
    assert_matches_fd(build, tensors)


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_quadratic():
    theta = Tensor(3.0, requires_grad=True)
    params = {"theta": theta}
    report = ad.grad_check(lambda p: ad.mul(p["theta"], p["theta"]), params)
    assert report.ok
    assert report.max_rel_err < 1e-9


def test_grad_check_constant_function():
    theta = Tensor([1.0, -2.0], requires_grad=True)
    report = ad.grad_check(lambda p: Tensor(5.0) + 0.0 * sum_all(p["theta"]),
                           {"theta": theta})
    assert report.ok
    assert report.max_rel_err == 0.0


def test_grad_check_detects_nondeterminism():
    theta = Tensor(1.0, requires_grad=True)
    calls = {"n": 0}

    def flaky(params):
        calls["n"] += 1
        return ad.mul(params["theta"], float(calls["n"]))

    with pytest.raises(ad.DeterminismError):
        ad.grad_check(flaky, {"theta": theta})


def test_grad_check_composite_graph():
    rng = np.random.default_rng(42)
    w = Tensor(rng.uniform(-0.5, 0.5, (3, 3)), requires_grad=True)
    v = Tensor(rng.uniform(-0.5, 0.5, (3,)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 3)))

    def f(p):
        h = ad.tanh(ad.matmul(x, p["w"]))
        scores = ad.reshape(ad.matmul(h, ad.reshape(p["v"], (3, 1))), (2,))
        return sum_all(ad.mul(ad.softmax(scores), scores))

    report = ad.grad_check(f, {"w": w, "v": v}, eps=1e-5, tol=1e-6)
    assert report.ok, str(report)
