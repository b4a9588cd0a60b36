"""Dense float64 tensors with reverse-mode automatic differentiation.

Gradients are recorded on an explicit tape: every primitive executed while a
Tape is active appends one node, and ``Tape.backward`` replays the nodes in
reverse order, accumulating gradients additively into every tensor reached.
Forward execution order is already topological, so the reverse sweep visits
each node exactly once and is bitwise deterministic. With no active tape the
same primitives run forward-only, which is how inference-time decoding stays
cheap.

Weight gradients are summed late. ``matmul`` does not add ``a.T @ g`` into
its right operand's gradient; it files ``(a, g)`` against that tensor, and
``gather_rows`` likewise files ``(indices, g)`` against the gathered matrix.
The sweep flushes a tensor's pending terms just before it reads the
gradient of the node that produced it, and flushes every term still pending
(the leaves: parameters) when it ends. A flush is one matrix product over
the stacked rows, ``concat(a).T @ concat(g)``, and one ``np.add.at`` over
the stacked indices, so a decoder weight used at every step costs one
product per example instead of one per step. A flush into a gradient that
already exists (a later document's terms) adds its product a column block
at a time, never forming a temporary the size of the weight. Reverse
topological order means every term is filed before its flush. Only the
order in which gradient terms are summed changes; forward values do not.
A backward hands a gradient array it made to the tensor it is for, which
keeps it as its ``grad``; a view, or an array another tensor receives too,
is copied first, so no two tensors' gradients share memory.

A primitive may have several outputs: ``bilstm_scan`` records one node for
both directions' states and final states, ``decoder_scan`` one node for
every sequence's rows and the last step's state. Its backward receives one
gradient per output, ``None`` for an output that nothing downstream
reached, and is skipped only when no output was reached.

Tapes can be chained. ``backward()`` without a loss starts from the
gradients already on the tape's tensors, so a tape whose outputs a later
tape read carries on that tape's backward pass. Training records the
encoder of a minibatch and its decoder recurrence, all documents in
lockstep, on one tape, and each document's output head and loss on one
more, which is backpropagated and freed before the next document's is
built; it leaves its gradients on the document's rows of the recurrence
(``decoder_scan``'s outputs). The batch tape is backpropagated last: head
tapes, then the recurrence, then the encoder.

Row-wise primitives (``matmul`` with several rows, ``softmax`` of a matrix,
``pointer_head``) give each row bitwise the value the one-row form gives
it, and the segment primitives (``segment_softmax``, ``segment_pool``,
``bilstm_scan``, ``decoder_scan``) give each segment of rows the value it
has alone, so stacking the rows of several decoder steps, beam hypotheses
or documents into one call never changes a forward value.

The encoder is two such nodes. ``bilstm_scan`` steps both directions of a
BiLSTM together over a batch of documents, longest first: their input
projections are gathered once into a time-major (T, 2, B, 4d) buffer, so
step t's documents are a leading slice, ``h @ W_h`` of both directions is
one fold (each direction's bitwise its own product), the cell arithmetic
runs once on (2, live, ·) arrays, and the states are scattered back to the
row layout once; backpropagation through time runs in the same time-major
layout. Both scans form what the cell's backward reads of the forward
(``_cell_factors``) once for all their steps, so a step's backward is three
whole-width products, the cell's own products in their own order. ``gcn_layer`` is one typed-edge graph convolution layer: per edge
class it multiplies only the class's distinct source rows, sums their
messages into zeros in edge order, ``np.add.at``'s sums, skips a class with
no edges, adds the classes in order, then the bias, then the rectifier.

The decoder is two more. ``decoder_scan`` runs T steps of the recurrence
(embedding, LSTM cell, coverage attention) over R rows that drop out as
their sequences end: one search step, or a teacher-forced minibatch whose
rows each attend over their own document's segment of the stacked encoder
rows, on ragged (flat) coverage. Each row's softmax sums exactly its own
positions, never padded (``np.sum`` blocks its pairwise sum by the row
length, and a +0.0 pad turns a -0.0 sum into +0.0); its context, a left
fold, may run on past them over -0.0 terms, which leave every sum as it
is. ``h @ dec_W`` of a step and ``h @ W_h`` of the next are one product,
each entry its own fold. Its backward is one pass of backpropagation
through time that sums every term as the five-node step composition did:
weight and bias terms one step at a time from the last, and one stacked
term each for what that composition filed per step. ``pointer_head`` is a
document's output head (vocabulary softmax, p_gen, copy mixture) and, given
the golds, its teacher-forced loss, whose sums fold in step order; only
the gold entries of the final distribution are formed.

The compositions a fused primitive is checked against use primitives that
nothing else needs (``lstm_cell``, ``coverage_attention``, ``split_rows``,
``by_document``, ``generation_gate``, ``pointer_mix``, ``pick_rows``,
``fold_sum``, the per-direction ``lstm_scan`` and more); those live with
the tests, in ``tests/oracles.py``.

The forward matrix product is one left fold per output entry: its k
products summed in ascending order from product 0, bitwise the triple loop
of ``tests/oracles.py`` (up to the sign and payload of a NaN, which IEEE 754
leaves to the hardware). ``_matmul_data`` folds with ``np.einsum``, whose
loop is that fold up to a -0.0 fix-up: an import-time probe checks it, and
where it fails each product is a loop over k, one rank-1 term at a time.

Shape rules are strict: elementwise primitives accept exactly-matching shapes
or a scalar on one side, nothing else. ``gcn_layer``'s rectifier uses
subgradient 0 at 0; ``pointer_head``'s coverage minimum gives the tie
subgradient to the attention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "DegenerateDistributionError",
    "DeterminismError",
    "GradCheckReport",
    "matmul",
    "add",
    "mul",
    "sigmoid",
    "tanh",
    "softmax",
    "segment_softmax",
    "segment_pool",
    "concat",
    "reshape",
    "gather_rows",
    "gcn_layer",
    "add_rowvec",
    "clip",
    "bilstm_scan",
    "decoder_scan",
    "pointer_head",
    "zero_grads",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy a primitive's contract."""


class DegenerateDistributionError(ValueError):
    """softmax was asked to normalize over an empty support."""


class DeterminismError(RuntimeError):
    """A function assumed deterministic returned two different values."""


class Tensor:
    """A dense float64 array, optionally participating in gradient tracking.

    ``data`` is always a contiguous float64 ndarray (row-major). ``grad`` is
    lazily allocated during backward and has the same shape as ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # asarray keeps 0-d scalars 0-d; ascontiguousarray would promote them
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; all dispatch to the module-level primitives
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def reshape(self, shape: Sequence[int]):
        return reshape(self, shape)


class _Node:
    """One recorded primitive. ``out`` is its output tensor, or a tuple of
    output tensors for a multi-output primitive, whose ``backward`` then
    takes one gradient (or ``None``) per output."""

    __slots__ = ("op", "out", "backward")

    def __init__(self, op: str, out: Tensor | tuple[Tensor, ...],
                 backward: Callable[..., None]):
        self.op = op
        self.out = out
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of primitives; reverse replay is backpropagation.

    Use as a context manager around the forward pass, then call
    ``backward(loss)`` once. Calling backward twice without re-running the
    forward pass double-accumulates into ``.grad``; zero grads between steps.

    ``backward()`` without a loss starts from the gradients already on the
    tape's tensors. Tapes chain this way: a later tape whose forward read
    some of this tape's outputs leaves their gradients there in its own
    backward pass, and this tape's backward carries them on to its inputs.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPE_STACK.pop()
        return False

    def backward(self, loss: Tensor | None = None) -> None:
        if loss is not None:
            if loss.data.shape != ():
                raise ValueError(
                    f"backward requires a scalar loss, got shape "
                    f"{loss.data.shape}"
                )
            # a tensor recorded on any tape requires grad, so this also
            # covers a loss computed on this one
            if not loss.requires_grad:
                raise ValueError("loss tensor is not connected to this tape")
        pending = _PENDING
        try:
            if loss is not None:
                _accumulate(loss, np.ones((), dtype=np.float64))
            for node in reversed(self.nodes):
                out = node.out
                if type(out) is tuple:
                    for t in out:
                        if t in pending:
                            pending.pop(t).flush(t)
                    grads = [t.grad for t in out]
                    if any(g is not None for g in grads):
                        node.backward(*grads)
                    continue
                if out in pending:
                    pending.pop(out).flush(out)
                grad = out.grad
                if grad is None:
                    continue
                node.backward(grad)
            for t, terms in pending.items():
                terms.flush(t)
        finally:
            pending.clear()


class _PendingGrad:
    """Gradient terms filed against one tensor during ``Tape.backward``:
    matmul right-operand terms ``a.T @ g`` and gathered rows ``(idx, g)``."""

    __slots__ = ("lhs", "grads", "rows", "row_grads")

    def __init__(self):
        self.lhs: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []
        self.row_grads: list[np.ndarray] = []

    def flush(self, t: Tensor) -> None:
        if self.lhs:
            a, g = _stack(self.lhs), _stack(self.grads)
            if t.grad is None:
                t.grad = a.T @ g  # a fresh array
            else:
                # a block at a time: no temporary the size of the gradient
                for lo in range(0, g.shape[1], _FLUSH_COLS):
                    hi = lo + _FLUSH_COLS
                    t.grad[:, lo:hi] += a.T @ g[:, lo:hi]
        if self.rows:
            if t.grad is None:
                t.grad = np.zeros(t.shape)
            np.add.at(t.grad, _stack(self.rows), _stack(self.row_grads))


# pending terms per tensor; filled and emptied within one Tape.backward
_PENDING: dict[Tensor, _PendingGrad] = {}


def _pending_for(t: Tensor) -> _PendingGrad:
    terms = _PENDING.get(t)
    if terms is None:
        terms = _PENDING[t] = _PendingGrad()
    return terms


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(op: str, out: Tensor | tuple[Tensor, ...],
            backward: Callable[..., None]) -> None:
    # the outputs of a multi-output primitive share one requires_grad flag
    tape = _active_tape()
    first = out[0] if type(out) is tuple else out
    if tape is not None and first.requires_grad:
        tape.nodes.append(_Node(op, out, backward))


def _accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``t.grad``. A first gradient is stored as it is, so
    the caller hands over a temporary that nothing else holds; a view, or an
    array another tensor also receives, goes through ``_accumulate_copy``."""
    if t.grad is None:
        t.grad = grad if type(grad) is np.ndarray else np.asarray(grad, np.float64)
    else:
        t.grad += grad


def _accumulate_copy(t: Tensor, grad: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        t.grad += grad


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# primitives


# Column-block width in which a flush adds its product into a gradient that
# already exists: at dec/out_W's 96 rows a block is 393 KB, where the whole
# product at V = 20,000 is 15 MB.
_FLUSH_COLS = 512


# np.einsum("srk,skc->src") on C-ordered operands with two or more columns
# is the forward fold: NumPy's iterator runs c innermost and k in ascending
# order outside it, one multiply and one add per term. It starts each entry
# from +0.0, not from product 0, which differs only where every product is
# -0.0; a fix-up restores those. With one column k would run innermost, in a
# dot kernel that does not sum in order, so that product is folded as its
# transpose. Whether einsum folds depends on how NumPy built its kernels, so
# an import-time probe checks it; where it fails, every product is the loop
# over k.
def _einsum_folds() -> bool:
    """Whether ``np.einsum("srk,skc->src")`` is the ascending left fold of
    each entry's products, at 2 and at 8,193 columns. Row 0 sums -1 + x * x
    with x = 1 + 2**-30, 2**-60 more when fused; row 1 sums 2**53, 0, seven
    1s, -2**53 and 0.5, which is 0.5 in this order only."""
    x = 1.0 + 2.0 ** -30
    a = np.array([[-1.0, x] + [0.0] * 9,
                  [2.0 ** 53, 0.0] + [1.0] * 7 + [-2.0 ** 53, 0.5]])
    b = np.ones(11)
    b[1] = x
    want = np.array([list(itertools.accumulate(row * b))[-1] for row in a])
    # two slices at 2 columns, one at 8,193: two there (a 1.4 MB operand)
    # raised a toy run's peak RSS by about 1 MB, as glibc serves later
    # arrays up to the size of a freed block from its heap
    a, want = np.stack([a, a[::-1]]), np.stack([want, want[::-1]])[:, :, None]
    return all((np.einsum("srk,skc->src", a[:s],
                          np.tile(b[:, None], (s, 1, cols))) == want[:s]).all()
               for s, cols in ((2, 2), (1, 8193)))


_EINSUM_FOLDS = _einsum_folds()


def matmul(a, b) -> Tensor:
    """2-D matrix product with sequential accumulation over the inner axis.

    The forward pass sums rank-1 terms in ascending k order, which makes the
    result bitwise identical to a naive triple loop (BLAS reorders the sum).
    The backward pass has no such obligation and uses fast matrix products;
    the gradient of ``b`` is filed with ``Tape.backward`` and summed there.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(_matmul_data(a.data, b.data), a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            terms = _pending_for(b)
            terms.lhs.append(a.data)
            terms.grads.append(g)

    _record("matmul", out, backward)
    return out


def _matmul_data(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """``av @ bv`` summed over k in ascending order, one left fold per entry.

    Every row is the same fold as the one-row product of that row, so
    stacking rows into one call never changes a value."""
    rows, inner = av.shape
    cols = bv.shape[1]
    if inner == 0 or rows * cols == 0:
        return np.zeros((rows, cols))
    if rows * cols == 1:
        return np.add.accumulate(av[0] * bv[:, 0])[-1:, None].copy()
    if cols == 1:
        return _matmul_data(bv.T, av.T).T
    return _matmul_stack(av[None], bv[None])[0]


def _matmul_stack(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """``av[i] @ bv[i]`` for each i of a leading axis, each bitwise
    ``_matmul_data(av[i], bv[i])``. Needs k >= 1 and two or more columns."""
    av, bv = np.ascontiguousarray(av), np.ascontiguousarray(bv)
    if not _EINSUM_FOLDS:
        out = av[:, :, :1] * bv[:, None, 0]
        for k in range(1, av.shape[2]):
            out += av[:, :, k, None] * bv[:, None, k]
        return out
    out = np.einsum("srk,skc->src", av, bv)
    zero = out == 0
    if zero.any():
        s, r, c = np.nonzero(zero)
        terms = av[s, r] * bv[s, :, c]
        negative = ((terms == 0) & np.signbit(terms)).all(axis=1)
        out[s[negative], r[negative], c[negative]] = -0.0
    return out


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    # exact-shape or scalar broadcast only; anything else is a silent-bug trap
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(shape: tuple[int, ...], g: np.ndarray) -> np.ndarray:
    # undo scalar broadcast on the backward path
    if shape == () and g.shape != ():
        return g.sum()
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_copy(a, _reduce_to(a.shape, g))
        if b.requires_grad:
            _accumulate_copy(b, _reduce_to(b.shape, g))

    _record("add", out, backward)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(a.shape, g * b.data))
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, g * a.data))

    _record("mul", out, backward)
    return out


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # piecewise form never exponentiates a positive argument, so no overflow:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, where
    # exp(-|x|) is each branch's exponential; one division serves both
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_data(x.data)
    out = Tensor(y, x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * y * (1.0 - y))

    _record("sigmoid", out, backward)
    return out


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y, x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (1.0 - y * y))

    _record("tanh", out, backward)
    return out


def _softmax_data(x: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Softmax of a vector or of each row of a matrix, over the positions
    ``keep`` selects (all of them when it is None); each row is bitwise the
    vector value of that row."""
    if keep is None:
        z = np.exp(x - x.max(axis=-1, keepdims=True))
        return z / z.sum(axis=-1, keepdims=True)
    y = np.zeros_like(x)
    # boolean indexing of a matrix's columns returns a column-major array,
    # whose row sums would not be the pairwise sums of the vector form
    sub_x = np.ascontiguousarray(x[..., keep])
    z = np.exp(sub_x - sub_x.max(axis=-1, keepdims=True))
    y[..., keep] = z / z.sum(axis=-1, keepdims=True)
    return y


def softmax(x, mask=None) -> Tensor:
    """Normalized exponential over a vector, or over each row of a matrix,
    max-subtracted for stability. A matrix row gets bitwise the values the
    vector form gives that row.

    ``mask`` is an optional boolean vector over positions, shared by every
    row of a matrix; masked-out positions get exactly zero probability and
    zero gradient. Raises if nothing remains unmasked.
    """
    x = _as_tensor(x)
    if x.data.ndim not in (1, 2) or x.data.size == 0:
        raise ShapeError(
            f"softmax expects a nonempty vector or matrix, got shape {x.shape}"
        )
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != x.shape[-1:]:
            raise ShapeError(
                f"softmax mask {keep.shape} needs one entry per position of "
                f"each row, got input {x.shape}"
            )
        if not keep.any():
            raise DegenerateDistributionError("softmax: all positions masked")
    else:
        keep = None
    y = _softmax_data(x.data, keep)
    out = Tensor(y, x.requires_grad)

    def backward(g: np.ndarray) -> None:
        # dx_i = y_i * (g_i - <g, y>) per row; zero where y is zero
        inner = (np.dot(g, y) if y.ndim == 1
                 else np.einsum("ij,ij->i", g, y)[:, None])
        _accumulate(x, y * (g - inner))

    _record("softmax", out, backward)
    return out


def segment_softmax(x, lengths: Sequence[int]) -> Tensor:
    """Softmax of each consecutive segment of a vector, ``lengths[k]``
    entries in segment k; each segment is bitwise the vector ``softmax`` of
    its entries alone."""
    x = _as_tensor(x)
    bounds = _segments(lengths, x.shape[0] if x.data.ndim == 1 else -1,
                       "segment_softmax")
    y = np.concatenate([_softmax_data(x.data[lo:hi]) for lo, hi in bounds])
    out = Tensor(y, x.requires_grad)

    def backward(g: np.ndarray) -> None:
        dx = np.empty_like(y)
        for lo, hi in bounds:
            dx[lo:hi] = y[lo:hi] * (g[lo:hi] - np.dot(g[lo:hi], y[lo:hi]))
        _accumulate(x, dx)

    _record("segment_softmax", out, backward)
    return out


def segment_pool(weights, x, lengths: Sequence[int]) -> Tensor:
    """Weighted sum of the rows of each consecutive segment of a matrix:
    ``out[k] = sum of weights[i] * x[i]`` over segment k's rows, a left fold
    in row order, bitwise the one-row ``matmul`` of that segment's weights
    and rows. Returns one row per segment."""
    w, x = _as_tensor(weights), _as_tensor(x)
    if w.data.ndim != 1 or x.data.ndim != 2 or w.shape[0] != x.shape[0]:
        raise ShapeError(f"segment_pool: weights {w.shape} vs rows {x.shape}")
    bounds = _segments(lengths, x.shape[0], "segment_pool")
    out = Tensor(
        np.concatenate([_matmul_data(w.data[None, lo:hi], x.data[lo:hi])
                        for lo, hi in bounds]),
        w.requires_grad or x.requires_grad,
    )
    segment_of_row = np.repeat(np.arange(len(bounds)), lengths)

    def backward(g: np.ndarray) -> None:
        g_rows = g[segment_of_row]
        if w.requires_grad:
            _accumulate(w, np.einsum("ij,ij->i", x.data, g_rows))
        if x.requires_grad:
            _accumulate(x, w.data[:, None] * g_rows)

    _record("segment_pool", out, backward)
    return out


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = Tensor(
        np.concatenate([p.data for p in parts], axis=axis),
        any(p.requires_grad for p in parts),
    )
    def backward(g: np.ndarray) -> None:
        lo = 0
        for p in parts:
            hi = lo + p.data.shape[axis]
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate_copy(p, g[tuple(idx)])
            lo = hi

    _record("concat", out, backward)
    return out


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape), x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate_copy(x, g.reshape(x.shape))

    _record("reshape", out, backward)
    return out


def gather_rows(x, indices) -> Tensor:
    """Select rows of a matrix by integer index (rows may repeat)."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a matrix, got shape {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(
            f"gather_rows: index out of range for {x.shape[0]} rows"
        )
    out = Tensor(x.data[idx], x.requires_grad)

    def backward(g: np.ndarray) -> None:
        terms = _pending_for(x)
        terms.rows.append(idx.reshape(-1))
        terms.row_grads.append(g.reshape(idx.size, x.shape[1]))

    _record("gather_rows", out, backward)
    return out


def _segments(lengths: Sequence[int], total: int,
              op: str) -> list[tuple[int, int]]:
    """(start, stop) of consecutive segments of ``lengths`` rows each,
    which must cover exactly ``total`` rows."""
    bounds = [0]
    for length in lengths:
        bounds.append(bounds[-1] + length)
    if not lengths or min(lengths) < 1 or bounds[-1] != total:
        raise ShapeError(
            f"{op}: segment lengths {list(lengths)} do not split {total} rows"
        )
    return list(zip(bounds, bounds[1:]))


def _scatter_groups(keys: np.ndarray, n: int) -> list:
    """The edges of ``keys`` (values in [0, n)) in groups with no key twice
    in a group, each key's edges in successive groups in edge order. Adding
    the groups one after another into zeros, one indexed add each, sums
    each key's terms as ``np.add.at`` does: from 0.0, in edge order."""
    counts = np.bincount(keys, minlength=n)
    if counts.max() <= 1:
        return [slice(None)]
    order = np.argsort(keys, kind="stable")
    rank = np.arange(keys.size) - (np.cumsum(counts) - counts)[keys[order]]
    order = order[np.argsort(rank, kind="stable")]
    bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def gcn_layer(h, edges, weights, bias) -> Tensor:
    """One typed-edge graph convolution over the rows of ``h``, one node:

        out[i] = relu( sum over classes c, over the edges k of class c with
                       dst_c[k] = i, of  h[src_c[k]] @ W_c   + bias )

    ``edges`` holds each class's ``(src, dst)`` index arrays and ``weights``
    its matrix, in the same order. A class multiplies only its distinct
    source rows; every row of a product is the fold of the one-row product,
    so which rows are multiplied together never changes a value. Each class
    sums its messages into zeros in edge order, bitwise ``np.add.at``'s sum
    (``_scatter_groups``), and its backward sums over sources the same way;
    a class with no edges is skipped; the classes are added in order, then the bias,
    then the rectifier (subgradient 0 at 0). These are the IEEE operations
    of the composition from ``matmul``, ``scatter_rows_sum``, ``add``,
    ``add_rowvec`` and ``relu`` nodes. The backward files each weight's
    term as ``matmul`` does, ``(h, dx)`` over all rows, and hands ``h`` its
    terms one class at a time, last class first, as that composition's
    backward does, so the gradients are bitwise its gradients too."""
    h, bias = _as_tensor(h), _as_tensor(bias)
    weights = [_as_tensor(w) for w in weights]
    n, width = h.shape if h.data.ndim == 2 else (-1, -1)
    out_width = bias.shape[0] if bias.data.ndim == 1 else -1
    if (n < 0 or out_width < 0 or len(edges) != len(weights)
            or any(w.shape != (width, out_width) for w in weights)):
        raise ShapeError(
            f"gcn_layer: h {h.shape}, weights {[w.shape for w in weights]} "
            f"and bias {bias.shape} for {len(edges)} edge classes do not fit")
    classes = []
    for (src, dst), w in zip(edges, weights):
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ShapeError(f"gcn_layer: edge sources {src.shape} and "
                             f"destinations {dst.shape} differ")
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            raise ShapeError(f"gcn_layer: an edge lies outside [0, {n})")
        if src.size:
            classes.append((src, dst, w))
    if not classes:
        raise ShapeError("gcn_layer: no edge to convolve over")
    agg = None
    for src, dst, w in classes:
        sources, inverse = np.unique(src, return_inverse=True)
        messages = _matmul_data(h.data[sources], w.data)
        summed = np.zeros((n, out_width))
        for group in _scatter_groups(dst, n):
            summed[dst[group]] += messages[inverse[group]]
        if agg is None:
            agg = summed
        else:
            agg += summed
    agg += bias.data
    mask = agg > 0
    grad = h.requires_grad or bias.requires_grad or any(
        w.requires_grad for w in weights)
    out = Tensor(np.maximum(agg, 0.0), grad)

    def backward(g: np.ndarray) -> None:
        g = g * mask
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))
        for src, dst, w in reversed(classes):
            dx = np.zeros((n, out_width))
            for group in _scatter_groups(src, n):
                dx[src[group]] += g[dst[group]]
            if h.requires_grad:
                _accumulate(h, dx @ w.data.T)
            if w.requires_grad:
                terms = _pending_for(w)
                terms.lhs.append(h.data)
                terms.grads.append(dx)

    _record("gcn_layer", out, backward)
    return out


def add_rowvec(m, v) -> Tensor:
    """Add a length-d vector to every row of an n-by-d matrix."""
    m, v = _as_tensor(m), _as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {m.shape} and {v.shape}")
    out = Tensor(m.data + v.data[None, :], m.requires_grad or v.requires_grad)

    def backward(g: np.ndarray) -> None:
        if m.requires_grad:
            _accumulate_copy(m, g)
        if v.requires_grad:
            _accumulate(v, g.sum(axis=0))

    _record("add_rowvec", out, backward)
    return out


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where unclipped."""
    x = _as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi), x.requires_grad)
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * inside)

    _record("clip", out, backward)
    return out


def _cell_gates(z, c_prev):
    """The cell arithmetic from its pre-activations ``z`` (..., 4d) on:
    (h', c', gates, tanh(c')), elementwise over any leading axes."""
    d = c_prev.shape[-1]
    gates = _sigmoid_data(z)
    gates[..., 2 * d:3 * d] = np.tanh(z[..., 2 * d:3 * d])
    i, f, g, o = (gates[..., k * d:(k + 1) * d] for k in range(4))
    c_new = f * c_prev + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, gates, tc


def _cell_factors(gates, tc, c_prev):
    """What the cell's backward reads of its forward, elementwise over any
    leading axes, formed once for any number of steps: (gates, Y, Z, W,
    1 - tanh(c')**2). Gate block by block, with (i, f, g, o) the gates,

        dz = dc * g * i * (1 - i),  dc * c * f * (1 - f),
             dc * i * (1 - g * g),  dh * tanh(c') * o * (1 - o)

    is ``((X * Y) * Z) * W`` with ``X = [dc, dc, dc, dh]``, ``Y = [g, c, i,
    tanh(c')]``, ``Z = [i, f, 1 - g * g, o]`` and ``W = [1 - i, 1 - f, 1,
    1 - o]``: the same products in the same order, the third block's last
    one exact."""
    d = tc.shape[-1]
    i, f, g, o = (gates[..., k * d:(k + 1) * d] for k in range(4))
    Y = np.concatenate([g, c_prev, i, tc], axis=-1)
    Z = gates.copy()
    Z[..., 2 * d:3 * d] = 1.0 - g * g
    W = 1.0 - gates
    W[..., 2 * d:3 * d] = 1.0
    return gates, Y, Z, W, 1.0 - tc * tc


def _cell_backward(dh, dc, factors):
    """``dz`` and the input cell state's gradient of one cell step, from its
    outputs' gradients (``None`` for one that nothing reached) and its
    ``_cell_factors``, elementwise over any leading axes."""
    gates, Y, Z, W, dtc = factors
    d = dtc.shape[-1]
    if dh is not None:
        dc_h = dh * gates[..., 3 * d:] * dtc
        dc = dc_h if dc is None else dc + dc_h
    dz = np.concatenate([dc, dc, dc, dc if dh is None else dh], axis=-1)
    dz *= Y
    dz *= Z
    dz *= W
    if dh is None:
        dz[..., 3 * d:] = 0.0
    return dz, dc * gates[..., d:2 * d]


def bilstm_scan(
    x_fw, x_bw, W_fw, b_fw, W_bw, b_bw, lengths: Sequence[int]
) -> tuple[Tensor, Tensor, Tensor]:
    """Both directions of a BiLSTM over documents of ``lengths`` rows each,
    longest first, stacked in ``x_fw`` and ``x_bw`` (each token's ``x @
    W_x`` of the forward and the backward direction): one node, whose
    backward runs backpropagation through time.

    From zero states, step t runs the LSTM cell's arithmetic over the
    documents still running, each on its row at position t (from the end
    for the backward direction), both directions at once. The input
    projections are gathered once into a time-major (T, 2, B, 4d) buffer,
    and states are kept in one of (T + 1, 2, B, d), so step t's rows are
    the leading ``live`` of axis 2. ``h @ W_h`` of both directions is one
    fold (``_matmul_stack``), bitwise each direction's ``_matmul_data``, so
    every value is the one of scanning each document alone in each
    direction. Returns the states of every row of ``x_fw``, (N, 2d), and
    each document's final hidden and cell states, (B, 2d) each: the forward
    direction's columns first."""
    x_fw, x_bw, W_fw, b_fw, W_bw, b_bw = (
        _as_tensor(t) for t in (x_fw, x_bw, W_fw, b_fw, W_bw, b_bw))
    lengths = tuple(lengths)
    d = W_fw.shape[0] if W_fw.data.ndim == 2 else -1
    total = sum(lengths)
    if (d < 1 or not lengths or min(lengths) < 1
            or any(m < k for m, k in zip(lengths, lengths[1:]))
            or W_fw.shape != (d, 4 * d) or W_bw.shape != (d, 4 * d)
            or b_fw.shape != (4 * d,) or b_bw.shape != (4 * d,)
            or x_fw.shape != (total, 4 * d) or x_bw.shape != (total, 4 * d)):
        raise ShapeError(
            f"bilstm_scan: shapes x {x_fw.shape} and {x_bw.shape}, W_h "
            f"{W_fw.shape} and {W_bw.shape}, b {b_fw.shape} and {b_bw.shape} "
            f"and lengths {lengths} (longest first, none empty, summing to "
            f"the rows) do not fit")
    n = np.asarray(lengths)
    steps, docs = lengths[0], len(n)
    t = np.arange(steps)[:, None]
    valid = t < n                                        # (T, B)
    live = np.count_nonzero(valid, axis=1)               # documents a step
    # the row each direction reads at (step, document), for the valid pairs
    first = np.cumsum(n) - n
    rows_fw = (first + t)[valid]
    rows_bw = (first + n - 1 - t)[valid]
    xs = np.zeros((steps, 2, docs, 4 * d))
    xs[:, 0][valid] = x_fw.data[rows_fw]
    xs[:, 1][valid] = x_bw.data[rows_bw]
    W = np.stack([W_fw.data, W_bw.data])
    b = np.stack([b_fw.data, b_bw.data])[:, None, :]
    hs = np.zeros((steps + 1, 2, docs, d))  # hs[t]: the states step t reads
    cs = np.zeros((steps + 1, 2, docs, d))
    gate_buf = np.zeros((steps, 2, docs, 4 * d))
    tc_buf = np.zeros((steps, 2, docs, d))
    for k in range(steps):
        m = live[k]
        h, c, gate_buf[k, :, :m], tc_buf[k, :, :m] = _cell_gates(
            (xs[k, :, :m] + _matmul_stack(hs[k, :, :m], W)) + b, cs[k, :, :m])
        hs[k + 1, :, :m], cs[k + 1, :, :m] = h, c
    states = np.empty((total, 2 * d))
    states[rows_fw, :d] = hs[1:, 0][valid]
    states[rows_bw, d:] = hs[1:, 1][valid]
    every = np.arange(docs)
    grad = any(x.requires_grad for x in (x_fw, x_bw, W_fw, b_fw, W_bw, b_bw))
    outs = (Tensor(states, grad),
            Tensor(hs[n, :, every].reshape(docs, 2 * d), grad),
            Tensor(cs[n, :, every].reshape(docs, 2 * d), grad))

    def backward(d_states, dh_final, dc_final) -> None:
        # the recurrent gradients into each document's states; a document
        # that has ended keeps its final states' gradients for its last step
        dh_next, dc_next = (
            np.zeros((2, docs, d)) if g is None
            else g.reshape(docs, 2, d).transpose(1, 0, 2).copy()
            for g in (dh_final, dc_final))
        ds = None
        if d_states is not None:
            ds = np.zeros((steps, 2, docs, d))
            ds[:, 0][valid] = d_states[rows_fw, :d]
            ds[:, 1][valid] = d_states[rows_bw, d:]
        dzs = np.empty((steps, 2, docs, 4 * d))
        factors = _cell_factors(gate_buf, tc_buf, cs[:-1])
        for k in range(steps - 1, -1, -1):
            m = live[k]
            dh = dh_next[:, :m] if ds is None else ds[k, :, :m] + dh_next[:, :m]
            dz, dc_next[:, :m] = _cell_backward(
                dh, dc_next[:, :m], [a[k, :, :m] for a in factors])
            dzs[k, :, :m] = dz
            if k:
                dh_next[0, :m] = dz[0] @ W_fw.data.T
                dh_next[1, :m] = dz[1] @ W_bw.data.T
        # each direction's rows in row order, the backward direction's first
        # as in the per-direction scans' backward: the dz of every row, and
        # the h it read, so the weights' gradients are one product each
        for j, rows, x, W_h, b_j in ((1, rows_bw, x_bw, W_bw, b_bw),
                                     (0, rows_fw, x_fw, W_fw, b_fw)):
            dz_all = np.empty(x.shape)
            dz_all[rows] = dzs[:, j][valid]
            if W_h.requires_grad:
                h_all = np.empty((total, d))
                h_all[rows] = hs[:-1, j][valid]
                _accumulate(W_h, h_all.T @ dz_all)
            if b_j.requires_grad:
                _accumulate(b_j, dz_all.sum(axis=0))
            if x.requires_grad:
                _accumulate(x, dz_all)

    _record("bilstm_scan", outs, backward)
    return outs


# ---------------------------------------------------------------------------
# the decoder


def _fold(terms: np.ndarray) -> np.ndarray:
    """The left fold over axis 0 of C-ordered ``terms``, term 0 first: the
    sum ``_matmul_data`` forms for each output entry."""
    if terms[0].size == 1:
        return np.add.accumulate(terms.reshape(len(terms)))[-1:].reshape(
            terms.shape[1:])
    return np.add.reduce(terms, axis=0, initial=-0.0)


class _SpanLayout:
    """Where L decoder rows with sources of their own read the stacked
    encoder rows: row r over rows ``bounds[r] = (start, stop)``, on flat
    coverage, row r's entries after row r - 1's."""

    __slots__ = ("rows", "total", "offsets", "row_of", "pos", "distinct",
                 "groups", "inside", "outside", "sources")

    def __init__(self, bounds: np.ndarray, enc_states: np.ndarray):
        starts, lengths = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
        self.rows, self.total = len(lengths), int(lengths.sum())
        self.offsets = np.zeros(self.rows + 1, dtype=np.intp)
        np.cumsum(lengths, out=self.offsets[1:])
        self.row_of = np.repeat(np.arange(self.rows), lengths)  # per entry
        self.pos = (np.arange(self.total)                       # its source row
                    + (starts - self.offsets[:-1])[self.row_of])
        self.distinct = np.unique(self.pos).size == self.total
        # a softmax sums the rows of one length as one block
        self.groups = []
        for n in sorted(set(lengths.tolist())):
            group = np.flatnonzero(lengths == n)
            self.groups.append((group, self.offsets[group, None] + np.arange(n)))
        # the context is one left fold over the longest row's positions, a
        # shorter row's padded with -0.0 terms, which add nothing
        grid = np.arange(lengths.max())
        self.inside = grid < lengths[:, None]                  # (rows, longest)
        self.outside = ~self.inside.T
        at = starts[:, None] + np.minimum(grid, lengths[:, None] - 1)
        self.sources = enc_states[at.T]                        # (longest, rows, d)


def _attend(h_proj, cov, enc_proj, b, cov_w, v, enc_states, layout):
    """Coverage attention of one decoder step's rows on arrays, from their
    ``h @ dec_W``: (attention, context, scores, tanh of the features).
    ``layout`` None: every row over all of ``enc_proj``'s rows, on (rows, n)
    coverage."""
    if layout is None:
        rows, n = cov.shape
        features = enc_proj[None] + h_proj[:, None]
        features += b
        if cov_w is not None:
            features += cov[:, :, None] * cov_w
        tanh_f = np.tanh(features, out=features).reshape(rows * n, -1)
        scores = _matmul_data(tanh_f, v).reshape(rows, n)
        att = _softmax_data(scores)
        return att, _matmul_data(att, enc_states), scores, tanh_f
    row_of = layout.row_of
    tanh_f = enc_proj[layout.pos]
    tanh_f += h_proj[row_of]
    tanh_f += b
    if cov_w is not None:
        tanh_f += cov[:, None] * cov_w
    np.tanh(tanh_f, out=tanh_f)
    scores = _matmul_data(tanh_f, v).reshape(layout.total)
    # the max and the exponentials entry by entry, each row's sum over a
    # (rows of that length, length) block, as _softmax_data sums
    z = np.exp(scores - np.maximum.reduceat(scores, layout.offsets[:-1])[row_of])
    sums = np.empty(layout.rows)
    for group, index in layout.groups:
        sums[group] = z[index].sum(axis=-1)
    att = z / sums[row_of]
    weights = np.zeros(layout.inside.shape)
    weights[layout.inside] = att
    terms = np.empty(layout.sources.shape)
    np.multiply(weights.T[:, :, None], layout.sources, out=terms)
    terms[layout.outside] = -0.0
    return att, _fold(terms), scores, tanh_f


def _plus(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """``a + b``, where ``None`` is a gradient nothing reached."""
    if a is None:
        return b
    return a if b is None else a + b


def _carried(base, carry, shape) -> np.ndarray | None:
    """``base`` (or zeros of ``shape``) plus ``carry`` over its first rows:
    a step output's gradient, and what the next step, over the rows still
    live, hands back to it."""
    if carry is None:
        return base
    if len(carry) == shape[0]:
        return carry if base is None else base + carry
    base = np.zeros(shape) if base is None else base.copy()
    base[:len(carry)] += carry
    return base


def decoder_scan(embedding, steps, hidden, cell, context, coverage, W_x, W_h,
                 b, dec_W, enc_proj, attn_b, cov_w, v, enc_states, spans=None):
    """T steps of the decoder recurrence over R state rows, one node.

    ``steps[t]`` holds the embedding ids that step t reads, one per row
    still live: the first ``len(steps[t])`` rows, a count that never grows
    (the first is R). From the state ``hidden``, ``cell`` (R, d_dec),
    ``context`` (R, d) and ``coverage``, each step runs, for its rows:

        x = [embedding[id]; previous context]
        hidden, cell = LSTM cell of x @ W_x, with W_h and b
        attention, context = coverage attention of hidden (dec_W, enc_proj,
            attn_b, cov_w or None for no coverage feature, the column v,
            enc_states), and coverage += attention

    ``spans`` None: every row attends over all n rows of ``enc_proj`` and
    ``enc_states``, on (R, n) coverage, and the rows form one sequence.
    Otherwise row r attends over rows ``spans[r] = (start, stop)``, on flat
    coverage (row r's entries after row r - 1's), and each row is a
    sequence of its own. Each step runs the IEEE operations of the
    composition from ``gather_rows``, ``concat``, ``matmul``, ``lstm_cell``
    and ``coverage_attention`` nodes in ``tests/oracles.py``, so every value
    is bitwise that composition's, and each row's the value of scanning it
    alone.

    Returns (sequences, last). Each sequence is (x, hidden, context,
    attention, coverage before the step): its rows at every step it is live
    in, in step order (rows in row order within a step), attention and
    coverage (rows, n_r) matrices. ``last`` is (cell, coverage after,
    scores) of the last step's rows.

    The backward is one pass of backpropagation through time. It sums every
    gradient term in the order that composition's backward does: the
    per-step weight and bias terms one step at a time from the last, and
    the terms that composition files against ``W_x``, ``dec_W``, ``v``,
    ``enc_states`` and ``embedding`` as one term each, stacked from the
    last step, which ``Tape.backward`` flushes as it flushed theirs."""
    (embedding, hidden, cell, context, coverage, W_x, W_h, b, dec_W, enc_proj,
     attn_b, v, enc_states) = (_as_tensor(t) for t in (
        embedding, hidden, cell, context, coverage, W_x, W_h, b, dec_W,
        enc_proj, attn_b, v, enc_states))
    cov_w = None if cov_w is None else _as_tensor(cov_w)
    ids = [np.asarray(step, dtype=np.intp) for step in steps]
    live = [len(step) for step in ids]
    if (not ids or any(step.ndim != 1 for step in ids) or min(live) < 1
            or any(later > now for now, later in zip(live, live[1:]))):
        raise ShapeError(f"decoder_scan: steps of {live} rows; each step "
                         f"needs 1 to as many rows as the step before")
    vocab, d_emb = embedding.shape if embedding.data.ndim == 2 else (0, -1)
    # on the ids as given: Python's min and max of a list are the cheapest
    if min(map(min, steps)) < 0 or max(map(max, steps)) >= vocab:
        raise ShapeError(f"decoder_scan: an input id lies outside the "
                         f"{vocab} rows of the embedding")
    rows = live[0]
    d_dec = W_h.shape[0] if W_h.data.ndim == 2 else -1
    n, width = enc_proj.shape if enc_proj.data.ndim == 2 else (0, -1)
    d = enc_states.shape[1] if enc_states.data.ndim == 2 else -1
    bounds = None
    cov_shape = (rows, n)
    if spans is not None:
        bounds = np.asarray(spans, dtype=np.intp)
        if (bounds.shape != (rows, 2) or (bounds[:, 0] < 0).any()
                or (bounds[:, 1] > n).any()
                or (bounds[:, 1] <= bounds[:, 0]).any()):
            raise ShapeError(f"decoder_scan: spans {list(spans)} are not "
                             f"{rows} nonempty (start, stop) rows of {n}")
        cov_shape = (int((bounds[:, 1] - bounds[:, 0]).sum()),)
    if (n < 1 or d_dec < 1 or d < 1 or hidden.shape != (rows, d_dec)
            or cell.shape != (rows, d_dec) or context.shape != (rows, d)
            or coverage.shape != cov_shape
            or W_x.shape != (d_emb + d, 4 * d_dec)
            or W_h.shape != (d_dec, 4 * d_dec) or b.shape != (4 * d_dec,)
            or dec_W.shape != (d_dec, width) or attn_b.shape != (width,)
            or (cov_w is not None and cov_w.shape != (width,))
            or v.shape != (width, 1) or enc_states.shape != (n, d)):
        raise ShapeError(
            f"decoder_scan: widths do not fit: embedding {embedding.shape}, "
            f"hidden {hidden.shape}, cell {cell.shape}, context "
            f"{context.shape}, coverage {coverage.shape}, W_x {W_x.shape}, "
            f"W_h {W_h.shape}, b {b.shape}, dec_W {dec_W.shape}, enc_proj "
            f"{enc_proj.shape}, attn_b {attn_b.shape}, cov_w "
            f"{None if cov_w is None else cov_w.shape}, v {v.shape}, "
            f"enc_states {enc_states.shape}")
    inputs = (embedding, hidden, cell, context, coverage, W_x, W_h, b, dec_W,
              enc_proj, attn_b, v, enc_states)
    if cov_w is not None:
        inputs += (cov_w,)
    grad = any(t.requires_grad for t in inputs)
    attend = (enc_proj.data, attn_b.data,
              None if cov_w is None else cov_w.data, v.data, enc_states.data)
    # h @ dec_W (a step's attention) and h @ W_h (the next step's cell) are
    # one product: each entry is its own fold, whatever the other columns
    both = (np.concatenate([dec_W.data, W_h.data], axis=1)
            if len(ids) > 1 else None)
    layouts: dict[int, _SpanLayout] = {}
    h, c, ctx, cov = hidden.data, cell.data, context.data, coverage.data
    h_w = _matmul_data(h, W_h.data)
    cache = []  # per step: x, h and c read, gates, tanh(c'), h, context,
    #             coverage read, attention, tanh(features), layout
    for t, (step, count) in enumerate(zip(ids, live)):
        layout = None
        if bounds is not None:
            layout = layouts.get(count)
            if layout is None:
                layout = layouts[count] = _SpanLayout(bounds[:count],
                                                      enc_states.data)
            cov = cov[:layout.total]
        else:
            cov = cov[:count]
        x = np.concatenate([embedding.data[step], ctx[:count]], axis=1)
        h_prev, c_prev = h[:count], c[:count]
        h, c, gates, tc = _cell_gates(
            (_matmul_data(x, W_x.data) + h_w[:count]) + b.data[None, :], c_prev)
        proj = _matmul_data(h, both if t + 1 < len(ids) else dec_W.data)
        h_w = proj[:, width:]
        att, ctx, scores, tanh_f = _attend(proj[:, :width], cov, *attend,
                                           layout)
        cache.append((x, h_prev, c_prev, gates, tc, h, ctx, cov, att, tanh_f,
                      layout))
        cov = cov + att
    # every step's rows stacked in step order, then regrouped by sequence
    quantities = [np.concatenate([entry[k] for entry in cache])
                  if len(cache) > 1 else cache[0][k] for k in (0, 5, 6, 8, 7)]
    first_row = list(itertools.accumulate(live, initial=0))
    if bounds is None:
        index = first_entry = None
        outs = [Tensor(q, grad) for q in quantities]  # one sequence
    else:
        lengths = (bounds[:, 1] - bounds[:, 0]).tolist()
        flat = list(itertools.accumulate(lengths, initial=0))
        first_entry = list(itertools.accumulate((flat[k] for k in live),
                                                initial=0))
        steps_of = [sum(count > r for count in live) for r in range(rows)]
        index = (np.concatenate([np.asarray(first_row[:t]) + r
                                 for r, t in enumerate(steps_of)]),
                 np.concatenate([(np.asarray(first_entry[:t])[:, None]
                                  + flat[r] + np.arange(lengths[r])).ravel()
                                 for r, t in enumerate(steps_of)]))
        quantities = [q[index[k >= 3]] for k, q in enumerate(quantities)]
        outs, row, entry = [], 0, 0
        for t, n_r in zip(steps_of, lengths):
            outs += [Tensor(q[row:row + t], grad) for q in quantities[:3]]
            outs += [Tensor(q[entry:entry + t * n_r].reshape(t, n_r), grad)
                     for q in quantities[3:]]
            row, entry = row + t, entry + t * n_r
    outs = tuple(outs) + (Tensor(c, grad), Tensor(cov, grad),
                          Tensor(scores, grad))

    def backward(*grads) -> None:
        g_cell, g_next_cov, g_scores = grads[-3:]
        stacked = []  # per quantity, step-major, or None where none reached
        for k in range(5):
            parts = grads[k:-3:5]
            if all(g is None for g in parts):
                stacked.append(None)
                continue
            blocks = [np.zeros(out.shape) if g is None else g
                      for g, out in zip(parts, outs[k:-3:5])]
            if index is None:
                stacked.append(blocks[0])
                continue
            # a matrix's blocks stack as rows, a flat vector's as entries
            g_all = np.concatenate(blocks, axis=None if k >= 3 else 0)
            g_step = np.empty_like(g_all)
            g_step[index[k >= 3]] = g_all
            stacked.append(g_step)
        entry_at = first_entry or first_row

        def part(k: int, t: int) -> np.ndarray | None:
            at = first_row if k < 3 else entry_at
            g = stacked[k]
            return None if g is None else g[at[t]:at[t + 1]]

        factors = _cell_factors(*(
            np.concatenate([entry[k] for entry in cache]) if len(cache) > 1
            else cache[0][k] for k in (3, 4, 2)))
        emb, wx, dec, v_terms, enc = [], [], [], [], []
        carry_h = carry_c = carry_ctx = carry_cov = None
        for t in range(len(cache) - 1, -1, -1):
            x, h_prev, _, _, _, h_t, _, cov_t, att, tanh_f, layout = cache[t]
            count = live[t]
            last = t == len(cache) - 1
            g_h = _carried(part(1, t), carry_h, h_t.shape)
            g_ctx = _carried(part(2, t), carry_ctx, (count, d))
            g_c = g_cell if last else _carried(None, carry_c, h_t.shape)
            g_cov = (g_next_cov if last
                     else _carried(None, carry_cov, cov_t.shape))
            # the attention: its own gradient, the context's, the coverage's
            g_a = part(3, t)
            if g_ctx is not None:
                if layout is None:
                    g_a = _plus(g_a, g_ctx @ enc_states.data.T)
                    spread = att
                else:
                    g_a = _plus(g_a, np.einsum(
                        "ij,ij->i", g_ctx[layout.row_of],
                        enc_states.data[layout.pos]))
                    spread = np.zeros((count, n))
                    spread[layout.row_of, layout.pos] = att
                if enc_states.requires_grad:
                    enc.append((spread, g_ctx))
            g_a = _plus(g_cov, g_a)
            ds = g_scores if last else None
            if g_a is not None:
                if layout is None:
                    # one row takes the vector dot of the one-row softmax
                    inner = (np.dot(g_a[0], att[0]) if count == 1
                             else np.einsum("ij,ij->i", g_a, att)[:, None])
                    ds = _plus(att * (g_a - inner), ds)
                else:
                    inner = np.add.reduceat(g_a * att, layout.offsets[:-1])
                    ds = _plus(att * (g_a - inner[layout.row_of]), ds)
            g_cov_in = _plus(part(4, t), g_cov)
            if ds is not None:
                ds = ds.reshape(-1, 1)
                if v.requires_grad:
                    v_terms.append((tanh_f, ds))
                g_f = (ds @ v.data.T) * (1.0 - tanh_f * tanh_f)
                if cov_w is not None:
                    g_cov_in = _plus(g_cov_in,
                                     (g_f @ cov_w.data).reshape(cov_t.shape))
                    if cov_w.requires_grad:
                        _accumulate(cov_w, g_f.T @ cov_t.reshape(-1))
                if attn_b.requires_grad:
                    _accumulate(attn_b, g_f.sum(axis=0))
                if layout is None:
                    g_f = g_f.reshape(count, n, width)
                    if enc_proj.requires_grad:
                        _accumulate(enc_proj, g_f.sum(axis=0))
                    g_dec = g_f.sum(axis=1)
                else:
                    if enc_proj.requires_grad:
                        if enc_proj.grad is None:
                            enc_proj.grad = np.zeros(enc_proj.shape)
                        if layout.distinct:  # np.add.at's sum, much faster
                            enc_proj.grad[layout.pos] += g_f
                        else:
                            np.add.at(enc_proj.grad, layout.pos, g_f)
                    g_dec = np.add.reduceat(g_f, layout.offsets[:-1], axis=0)
                g_h = _plus(g_h, g_dec @ dec_W.data.T)
                if dec_W.requires_grad:
                    dec.append((h_t, g_dec))
            # the cell, its input product, then the embedding and context
            g_x = part(0, t)
            carry_h = carry_c = None
            if g_h is not None or g_c is not None:
                dz, dc_prev = _cell_backward(g_h, g_c, [
                    a[first_row[t]:first_row[t + 1]] for a in factors])
                g_x = _plus(g_x, dz @ W_x.data.T)
                if W_x.requires_grad:
                    wx.append((x, dz))
                if W_h.requires_grad:
                    _accumulate(W_h, h_prev.T @ dz)
                if b.requires_grad:
                    _accumulate(b, dz.sum(axis=0))
                if t:
                    carry_h, carry_c = dz @ W_h.data.T, dc_prev
                else:
                    if hidden.requires_grad:
                        _accumulate(hidden, dz @ W_h.data.T)
                    if cell.requires_grad:
                        _accumulate(cell, dc_prev)
            carry_ctx = None
            if g_x is not None:
                if embedding.requires_grad:
                    emb.append((ids[t], g_x[:, :d_emb]))
                carry_ctx = g_x[:, d_emb:]
                if not t and context.requires_grad:
                    _accumulate_copy(context, carry_ctx)
            carry_cov = g_cov_in
            if not t and g_cov_in is not None and coverage.requires_grad:
                _accumulate_copy(coverage, g_cov_in)
        # one term each, stacked from the last step, as the per-step nodes
        # filed theirs
        for tensor, terms in ((W_x, wx), (dec_W, dec), (v, v_terms),
                              (enc_states, enc)):
            if terms:
                pending = _pending_for(tensor)
                pending.lhs.append(_stack([a for a, _ in terms]))
                pending.grads.append(_stack([g for _, g in terms]))
        if emb:
            pending = _pending_for(embedding)
            pending.rows.append(_stack([i for i, _ in emb]))
            pending.row_grads.append(np.concatenate([g for _, g in emb]))

    _record("decoder_scan", outs, backward)
    return [outs[k:k + 5] for k in range(0, len(outs) - 3, 5)], outs[-3:]


def pointer_head(hidden, context, x, attention, out_W, out_b, ctx_w, state_w,
                 x_w, gate_b, ids, size: int, gold=None, coverage=None,
                 coverage_weight: float = 0.0, floor: float = 0.0):
    """The pointer-generator output head over R rows of one document, one
    node:

        P_vocab = softmax([hidden; context] @ out_W + out_b)
        p_gen = sigmoid((context @ ctx_w + hidden @ state_w) + (x @ x_w + gate_b))
        final = p_gen * P_vocab + (1 - p_gen) * copy

    over the extended vocabulary of ``size`` ids, where ``copy[r][ids[i]]``
    sums ``attention[r, i]`` over source positions i in ascending order.
    These are the IEEE operations of the composition from ``concat``,
    ``matmul``, ``add_rowvec``, ``softmax``, ``generation_gate`` and
    ``pointer_mix`` nodes in ``tests/oracles.py``, so every row is bitwise
    its value there.

    Without ``gold`` it returns (final (R, size), p_gen (R, 1)). With
    ``gold``, one id per row, and ``coverage`` (R, n), it returns the
    teacher-forced loss of the rows instead, with its two sums:

        (loss, nll_sum, cov_sum), loss = (nll_sum + cov_sum * coverage_weight) / R

    ``nll_sum`` folds ``-log(max(final[r, gold[r]], floor))`` and
    ``cov_sum`` each row's sum of ``minimum(attention, coverage)``, both in
    row order, as ``loss_from_rows`` in ``tests/oracles.py`` does. Only the
    gold entries of ``final`` are formed, each the composition's value: a
    gold's copy mass is the left fold of its positions' attention. The
    backward computes every gradient with the composition's expressions;
    the gold gradient is sparse, and the sums over its zero entries, which
    the composition forms, are exact, so the gradients are bitwise its
    gradients too."""
    (hidden, context, x, attention, out_W, out_b, ctx_w, state_w, x_w,
     gate_b) = (_as_tensor(t) for t in (hidden, context, x, attention, out_W,
                                        out_b, ctx_w, state_w, x_w, gate_b))
    idx = np.asarray(ids, dtype=np.intp)
    rows = hidden.shape[0] if hidden.data.ndim == 2 else -1
    vocab = out_b.shape[0] if out_b.data.ndim == 1 else -1
    d_h = hidden.shape[1] if rows >= 0 else -1
    gate_rows = ((context, ctx_w), (hidden, state_w), (x, x_w))
    if (rows < 1 or vocab < 1 or size < vocab or idx.ndim != 1
            or context.data.ndim != 2
            or out_W.shape != (d_h + context.shape[1], vocab)
            or attention.shape != (rows, idx.size) or gate_b.shape != ()
            or any(r.data.ndim != 2 or w.data.ndim != 1
                   or r.shape != (rows, w.size) for r, w in gate_rows)
            or (idx.size and (idx.min() < 0 or idx.max() >= size))):
        raise ShapeError(
            f"pointer_head: shapes hidden {hidden.shape}, context "
            f"{context.shape}, x {x.shape}, attention {attention.shape}, "
            f"out_W {out_W.shape}, out_b {out_b.shape}, gate weights "
            f"{[w.shape for _, w in gate_rows]}, gate_b {gate_b.shape}, ids "
            f"{idx.shape} within {size} do not fit")
    inputs = (hidden, context, x, attention, out_W, out_b, ctx_w, state_w,
              x_w, gate_b)
    cat = np.concatenate([hidden.data, context.data], axis=1)
    gen = _softmax_data(_matmul_data(cat, out_W.data) + out_b.data[None, :])
    # the three dot products as one fold, each padded with -0.0 terms, which
    # add nothing, past its own length
    terms = np.full((max(w.size for _, w in gate_rows), 3, rows), -0.0)
    for i, (r, w) in enumerate(gate_rows):
        np.multiply(w.data[:, None], r.data.T, out=terms[:w.size, i])
    dots = _fold(terms)
    p = _sigmoid_data((dots[0] + dots[1]) + (dots[2] + gate_b.data))[:, None]
    q = 1.0 - p
    att = attention.data

    def head_backward(dlogits, dp) -> None:
        # p_gen's gate, then the vocabulary projection and its input rows
        if dp is not None:
            g_sum = dp * p * (1.0 - p)
            for r, w in gate_rows:
                if r.requires_grad:
                    _accumulate(r, g_sum @ w.data[None, :])
                if w.requires_grad:
                    _accumulate(w, (r.data.T @ g_sum).reshape(w.shape))
            if gate_b.requires_grad:
                _accumulate(gate_b, g_sum.sum())
        if dlogits is None:
            return
        if out_b.requires_grad:
            _accumulate(out_b, dlogits.sum(axis=0))
        if out_W.requires_grad:
            terms = _pending_for(out_W)
            terms.lhs.append(cat)
            terms.grads.append(dlogits)
        if hidden.requires_grad or context.requires_grad:
            g_cat = dlogits @ out_W.data.T
            if hidden.requires_grad:
                _accumulate_copy(hidden, g_cat[:, :d_h])
            if context.requires_grad:
                _accumulate_copy(context, g_cat[:, d_h:])

    if gold is None:
        copy = np.zeros((rows, size))
        np.add.at(copy, (np.arange(rows)[:, None], idx[None, :]), att)
        final = np.zeros((rows, size))
        np.multiply(gen, p, out=final[:, :vocab])
        copy *= q
        final += copy
        grad = any(t.requires_grad for t in inputs)
        outs = (Tensor(final, grad), Tensor(p, grad))

        def backward(g_final, g_p) -> None:
            dlogits = None
            if g_final is not None:
                g_gen, g_copy = g_final[:, :vocab], g_final[:, idx]
                g_vd = g_gen * p
                if attention.requires_grad:
                    _accumulate(attention, g_copy * q)
                g_p = _plus(g_p, (np.einsum("ij,ij->i", g_gen, gen)
                                  - np.einsum("ij,ij->i", g_copy, att))[:, None])
                dlogits = gen * (g_vd - np.einsum("ij,ij->i", g_vd, gen)[:, None])
            head_backward(dlogits, g_p)

        _record("pointer_head", outs, backward)
        return outs

    golds = np.asarray(gold, dtype=np.intp)
    coverage = _as_tensor(coverage)
    if (golds.shape != (rows,) or golds.min() < 0 or golds.max() >= size
            or coverage.shape != attention.shape):
        raise ShapeError(f"pointer_head: gold ids {golds.shape} within {size}"
                         f" and coverage {coverage.shape} do not fit "
                         f"{rows} rows of attention {attention.shape}")
    every = np.arange(rows)
    matched = idx[None, :] == golds[:, None]             # (R, n)
    # a gold's copy mass: 0.0, then its positions' attention in order
    terms = np.zeros((rows, idx.size + 1))
    terms[:, 1:] = np.where(matched, att, -0.0)
    copied = np.add.accumulate(terms, axis=1)[:, -1]
    generated = golds < vocab
    hit = (every[generated], golds[generated])
    picked = np.zeros(rows)
    picked[generated] = gen[hit] * p[generated, 0]
    picked += copied * q[:, 0]
    prob = np.maximum(picked, floor)
    nll_sum = np.add.accumulate(np.log(prob) * -1.0)[-1]
    taken = att <= coverage.data
    cov_sum = np.add.accumulate(np.minimum(att, coverage.data).sum(axis=-1))[-1]
    loss = Tensor((nll_sum + cov_sum * coverage_weight) * (1.0 / rows),
                  any(t.requires_grad for t in inputs + (coverage,)))

    def backward(g) -> None:
        g_add = g * (1.0 / rows)
        g_cov = np.broadcast_to(g_add * coverage_weight, att.shape)
        if attention.requires_grad:
            _accumulate(attention, g_cov * taken)
        if coverage.requires_grad:
            _accumulate(coverage, g_cov * ~taken)
        g_pick = ((np.broadcast_to(g_add, (rows,)) * -1.0) / prob) * (
            picked >= floor)
        # the mixture's gradient: only the gold entries are nonzero. The
        # composition's g[:, ids] is column-major, and einsum's order of sums
        # follows the layout, so this is built column-major too
        g_copy = np.asfortranarray(np.where(matched, g_pick[:, None], 0.0))
        if attention.requires_grad:
            _accumulate(attention, g_copy * q)
        g_vd = np.zeros((rows, vocab))
        g_vd[hit] = g_pick[generated] * p[generated, 0]
        dgen = np.zeros(rows)
        dgen[generated] = g_pick[generated] * gen[hit]
        inner = np.zeros(rows)
        inner[generated] = g_vd[hit] * gen[hit]
        # sums whose other terms are +0.0: x + 0.0, as the dense sums give
        dp = ((dgen + 0.0) - np.einsum("ij,ij->i", g_copy, att))[:, None]
        np.subtract(g_vd, (inner + 0.0)[:, None], out=g_vd)
        head_backward(np.multiply(gen, g_vd, out=g_vd), dp)

    _record("pointer_head", loss, backward)
    return loss, float(nll_sum), float(cov_sum)


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckEntry:
    path: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    """Per-parameter comparison of analytic gradients to central differences."""

    tol: float
    max_rel_err: float
    per_param: dict[str, float]
    failures: list[GradCheckEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        lines = [f"grad check: max rel err {self.max_rel_err:.3e} (tol {self.tol:g})"]
        for path, err in self.per_param.items():
            lines.append(f"  {path}: {err:.3e}")
        for f in self.failures:
            lines.append(
                f"  FAIL {f.path}[{f.index}]: analytic {f.analytic:.6e} "
                f"vs numeric {f.numeric:.6e} (rel {f.rel_err:.3e})"
            )
        return "\n".join(lines)


def _rel_err(a: float, n: float, floor: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), floor)


def grad_check(
    f: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    scale_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients of ``f(params)`` against central differences.

    ``f`` must be deterministic (verified by evaluating it twice) and return a
    scalar tensor built from the tensors in ``params``. Each scalar entry is
    perturbed by +/- ``eps`` in place; relative errors use a ``scale_floor``
    denominator guard so near-zero gradient pairs do not divide by zero.
    """
    v1 = float(f(params).data)
    v2 = float(f(params).data)
    if v1 != v2:
        raise DeterminismError(
            f"grad_check: two evaluations disagree ({v1!r} vs {v2!r})"
        )

    zero_grads(params.values())
    with Tape() as tape:
        loss = f(params)
        tape.backward(loss)

    per_param: dict[str, float] = {}
    failures: list[GradCheckEntry] = []
    max_err = 0.0
    for path, tensor in params.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros(tensor.shape)
        analytic = analytic.ravel()
        flat = tensor.data.ravel()
        worst = 0.0
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = float(f(params).data)
            flat[k] = orig - eps
            f_minus = float(f(params).data)
            flat[k] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = _rel_err(float(analytic[k]), numeric, scale_floor)
            if err > worst:
                worst = err
            if err > tol:
                failures.append(
                    GradCheckEntry(path, k, float(analytic[k]), numeric, err)
                )
        per_param[path] = worst
        max_err = max(max_err, worst)
    return GradCheckReport(tol=tol, max_rel_err=max_err, per_param=per_param, failures=failures)
