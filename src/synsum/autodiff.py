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

A primitive may have several outputs: ``lstm_cell`` records one node for
the new hidden and cell state together, ``bilstm_scan`` one node for both
directions' states and final states, ``split_rows`` one node for all the
blocks it cuts a tensor into, ``by_document`` one node for every document's
rows of a lockstep scan. Its backward receives one gradient per output,
``None`` for an output that nothing downstream reached, and is skipped only
when no output was reached.

Tapes can be chained. ``backward()`` without a loss starts from the
gradients already on the tape's tensors, so a tape whose outputs a later
tape read carries on that tape's backward pass. Training records the
encoder of a minibatch and its decoder recurrence, all documents in
lockstep, on one tape, and each document's output head and loss on one
more, which is backpropagated and freed before the next document's is
built; it leaves its gradients on the document's rows of the recurrence
(``by_document``'s outputs). The batch tape is backpropagated last: head
tapes, then the recurrence, then the encoder.

Row-wise primitives (``matmul`` with several rows, ``softmax`` of a matrix,
``sum_rows``, ``pick_rows``, ``pointer_mix``, ``coverage_attention``,
``generation_gate``, ``lstm_cell``) give each row bitwise the value the
one-row or vector form gives it, and the segment primitives
(``segment_softmax``, ``segment_pool``, ``bilstm_scan``) give each segment
of rows the value it has alone, so stacking the rows of several decoder
steps, beam hypotheses or documents into one call never changes a forward
value.
``coverage_attention`` with ``spans`` is both: each row attends over its
own document's segment of the stacked encoder rows, on ragged (flat)
coverage. Each row's softmax sums exactly its own positions, never padded
(``np.sum`` blocks its pairwise sum by the row length, and a +0.0 pad turns
a -0.0 sum into +0.0); its context, a left fold, may run on past them over
-0.0 terms, which leave every sum as it is.

The encoder is two such nodes. ``bilstm_scan`` steps both directions of a
BiLSTM together over a batch of documents, longest first: their input
projections are gathered once into a time-major (T, 2, B, 4d) buffer, so
step t's documents are a leading slice, ``h @ W_h`` of both directions is
one fold (each direction's bitwise its own product), the cell arithmetic
runs once on (2, live, ·) arrays, and the states are scattered back to the
row layout once; backpropagation through time runs in the same time-major
layout. ``gcn_layer`` is one typed-edge graph convolution layer: per edge
class it multiplies only the class's distinct source rows, sums their
messages into zeros with ``np.add.at`` in edge order, skips a class with no
edges, adds the classes in order, then the bias, then the rectifier.

The compositions a fused primitive is checked against use some primitives that
nothing else needs (``sub``, ``sum_all``, ``slice_cols``, ``scatter_sum_vec``,
``relu``, ``scatter_rows_sum``, the per-direction ``lstm_scan`` and more);
those live with the tests, in ``tests/oracles.py``.

The forward matrix product is one left fold per output entry: its k
products summed in ascending order from product 0, bitwise the triple loop
of ``tests/oracles.py`` (up to the sign and payload of a NaN, which IEEE 754
leaves to the hardware). By output size, ``_matmul_data`` folds with
``np.add.accumulate`` (one entry), with chunked ``np.add.reduce`` (up to
2,560 entries) or with a Python loop over k (wider, such as the output
head's (rows x V) product).

Shape rules are strict: elementwise primitives accept exactly-matching shapes
or a scalar on one side, nothing else. ``gcn_layer``'s rectifier uses
subgradient 0 at 0; ``minimum``/``maximum`` give the tie subgradient to
their first argument.
"""

from __future__ import annotations

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
    "minimum",
    "maximum",
    "softmax",
    "segment_softmax",
    "segment_pool",
    "log",
    "sum_rows",
    "fold_sum",
    "concat",
    "reshape",
    "gather_rows",
    "split_rows",
    "gcn_layer",
    "add_rowvec",
    "pick_rows",
    "pointer_mix",
    "coverage_attention",
    "by_document",
    "generation_gate",
    "clip",
    "lstm_cell",
    "bilstm_scan",
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


# A product whose output (rows x cols) has 2 to 2,560 entries folds its k
# rank-1 terms a chunk at a time: it multiplies up to 32,768 terms (256 KB)
# into one C-ordered (k, rows, cols) buffer and sums the chunk with
# np.add.reduce along axis 0. NumPy sums pairwise only along the fast memory
# axis, which axis 0 of that buffer never is when it has two or more output
# entries, so each entry is the plain sum in k order. initial=-0.0, the IEEE
# additive identity, keeps a fold of -0.0 terms at -0.0 (reduce starts from
# +0.0 otherwise), and each chunk after the first starts from the running
# sum, added into its first term as the loop adds it. The buffer is written
# with out= because a broadcast product picks its own layout, which puts k
# innermost when cols is 1. A one-entry output has no other axis, so it
# folds by add.accumulate; larger outputs multiply each term inside a
# k-loop. Timed on a 2-vCPU Xeon guest (interleaved, best of 30), reduce
# against the k-loop, and against add.accumulate of all terms at once:
# (1 x 80) @ (80 x 128) 0.020 against 0.11 and 0.044 ms, (4 x 80) @
# (80 x 128) 0.085 against 0.16 and 0.28 ms, (72 x 32) @ (32 x 32) 0.11
# against 0.13 ms. Near the limit neither wins: (2 x 96) @ (96 x 1,280)
# 0.32 against 0.25 ms, (72 x 64) @ (64 x 64) 0.41 against 0.48 ms,
# (288 x 32) @ (32 x 32) 0.45 against 0.43 ms.
_REDUCE_MAX_OUT = 2560
_REDUCE_MAX_TERMS = 32_768
# Column-block width of a multi-row product's k-loop. Timed on a 2 MB-L2
# Xeon for (21 x 96) @ (96 x 20,000): 58-65 ms unblocked, 28-37 ms with
# 4,096-column blocks (a 21-row block and its temporary, 2 x 688 KB, stay
# in L2), 31-49 ms at 3,000-6,000, 43 ms at 8,192 (they no longer fit),
# and 75-120 ms at 512-2,500 (strided updates of short rows). One-row
# products stay unblocked: blocking them was slower.
_BLOCK_COLS = 4096
# Column-block width in which a flush adds its product into a gradient that
# already exists: at dec/out_W's 96 rows a block is 393 KB, where the whole
# product at V = 20,000 is 15 MB.
_FLUSH_COLS = 512


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
    entries = rows * cols
    if inner == 0 or entries == 0:
        return np.zeros((rows, cols))
    if entries == 1:
        return np.add.accumulate(av[0] * bv[:, 0])[-1:, None].copy()
    if entries <= _REDUCE_MAX_OUT:
        step = _REDUCE_MAX_TERMS // entries
        terms = np.empty((min(step, inner), rows, cols))
        out_data = None
        for lo in range(0, inner, step):
            chunk = terms[:min(step, inner - lo)]  # term lo + k is chunk[k]
            np.multiply(av.T[lo:lo + step, :, None], bv[lo:lo + step, None, :],
                        out=chunk)
            if out_data is not None:
                np.add(out_data, chunk[0], out=chunk[0])
            out_data = np.add.reduce(chunk, axis=0, initial=-0.0)
        return out_data
    block = _BLOCK_COLS if rows > 1 else cols
    out_data = np.empty((rows, cols))
    tmp = np.empty((rows, min(block, cols)))
    for lo in range(0, cols, block):
        out_block = out_data[:, lo:lo + block]
        b_block = bv[:, lo:lo + block]
        tmp_block = tmp[:, :out_block.shape[1]]
        np.multiply(av[:, 0, None], b_block[0], out=out_block)
        for k in range(1, inner):
            np.multiply(av[:, k, None], b_block[k], out=tmp_block)
            out_block += tmp_block
    return out_data


def _matmul_stack(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """``av[i] @ bv[i]`` for each i of a leading axis, each bitwise
    ``_matmul_data(av[i], bv[i])``: every branch of that is the left fold
    over k of each entry's products, which this forms for all of them at
    once, a chunk of (k, i, rows, cols) terms and one reduce at a time.
    Needs k >= 1 and two or more output entries in all."""
    stack, rows, inner = av.shape
    cols = bv.shape[2]
    step = max(1, _REDUCE_MAX_TERMS // (stack * rows * cols))
    terms = np.empty((min(step, inner), stack, rows, cols))
    a_k = av.transpose(2, 0, 1)[:, :, :, None]
    b_k = bv.transpose(1, 0, 2)[:, :, None, :]
    out_data = None
    for lo in range(0, inner, step):
        chunk = terms[:min(step, inner - lo)]  # term lo + k is chunk[k]
        np.multiply(a_k[lo:lo + step], b_k[lo:lo + step], out=chunk)
        if out_data is not None:
            np.add(out_data, chunk[0], out=chunk[0])
        out_data = np.add.reduce(chunk, axis=0, initial=-0.0)
    return out_data


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


def minimum(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "minimum")
    out = Tensor(np.minimum(a.data, b.data), a.requires_grad or b.requires_grad)
    take_a = a.data <= b.data  # ties go to the first argument

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(a.shape, g * take_a))
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, g * ~take_a))

    _record("minimum", out, backward)
    return out


def maximum(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "maximum")
    out = Tensor(np.maximum(a.data, b.data), a.requires_grad or b.requires_grad)
    take_a = a.data >= b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(a.shape, g * take_a))
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, g * ~take_a))

    _record("maximum", out, backward)
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


def log(x) -> Tensor:
    """Natural logarithm; the caller guarantees positive inputs."""
    x = _as_tensor(x)
    out = Tensor(np.log(x.data), x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g / x.data)

    _record("log", out, backward)
    return out


def sum_rows(x) -> Tensor:
    """Sum of each row of a matrix, bitwise ``x[r].sum()`` for row r; a
    vector is one row and sums to a scalar."""
    x = _as_tensor(x)
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"sum_rows expects a vector or matrix, got {x.shape}")
    out = Tensor(x.data.sum(axis=-1), x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate_copy(x, np.broadcast_to(np.expand_dims(g, -1), x.shape))

    _record("sum_rows", out, backward)
    return out


def fold_sum(x) -> Tensor:
    """Sum of a vector as a strict left fold, ``((x0 + x1) + x2) + ...``:
    the value of adding the entries one ``add`` at a time. ``np.sum`` sums
    pairwise instead, which differs in the last bits from eight entries on.
    """
    x = _as_tensor(x)
    if x.data.ndim != 1 or x.data.size == 0:
        raise ShapeError(f"fold_sum expects a nonempty vector, got shape {x.shape}")
    out = Tensor(np.add.accumulate(x.data)[-1], x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate_copy(x, np.broadcast_to(g, x.shape))

    _record("fold_sum", out, backward)
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


def split_rows(x, lengths: Sequence[int]) -> tuple[Tensor, ...]:
    """Consecutive blocks of the leading axis, ``lengths[k]`` rows in block
    k, as one node with one output per block. A single block is ``x``
    itself, and records nothing."""
    x = _as_tensor(x)
    bounds = _segments(lengths, len(x.data) if x.data.ndim else -1,
                       "split_rows")
    if len(bounds) == 1:
        return (x,)
    outs = tuple(Tensor(x.data[lo:hi], x.requires_grad) for lo, hi in bounds)

    def backward(*grads: np.ndarray | None) -> None:
        if x.grad is None:
            x.grad = np.zeros(x.shape)
        for (lo, hi), g in zip(bounds, grads):
            if g is not None:
                x.grad[lo:hi] += g

    _record("split_rows", outs, backward)
    return outs


def gcn_layer(h, edges, weights, bias) -> Tensor:
    """One typed-edge graph convolution over the rows of ``h``, one node:

        out[i] = relu( sum over classes c, over the edges k of class c with
                       dst_c[k] = i, of  h[src_c[k]] @ W_c   + bias )

    ``edges`` holds each class's ``(src, dst)`` index arrays and ``weights``
    its matrix, in the same order. A class multiplies only its distinct
    source rows; every row of a product is the fold of the one-row product,
    so which rows are multiplied together never changes a value. Each class
    sums its messages into zeros with ``np.add.at``, in edge order; a class
    with no edges is skipped; the classes are added in order, then the bias,
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
        summed = np.zeros((n, out_width))
        np.add.at(summed, dst, _matmul_data(h.data[sources], w.data)[inverse])
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
            np.add.at(dx, src, g[dst])
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


def pick_rows(x, columns) -> Tensor:
    """One element of each row of a matrix: ``out[r] = x[r, columns[r]]``."""
    x = _as_tensor(x)
    cols = np.asarray(columns, dtype=np.intp)
    if x.data.ndim != 2 or cols.shape != (x.shape[0],):
        raise ShapeError(
            f"pick_rows: matrix {x.shape} vs column indices {cols.shape}"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= x.shape[1]):
        raise IndexError(f"pick_rows: column out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, cols], x.requires_grad)

    def backward(g: np.ndarray) -> None:
        dx = np.zeros(x.shape)
        dx[rows, cols] = g
        _accumulate(x, dx)

    _record("pick_rows", out, backward)
    return out


def pointer_mix(vocab_dist, copy_attention, p_gen, ids, size: int) -> Tensor:
    """Pointer-generator mixture, one output row per input row:

        out[r] = p_gen[r] * gen[r] + (1 - p_gen[r]) * copy[r]

    ``gen[r]`` is ``vocab_dist[r]`` (R x V) padded with zeros to ``size``
    columns, ``copy[r][ids[i]]`` sums ``copy_attention[r, i]`` (R x n) over
    source positions i in ascending order, and ``p_gen`` is an (R, 1)
    column. Per row these are the IEEE operations of the composition
    ``concat``/``scatter_sum_vec``/``mul``/``sub``/``mul``/``add`` on
    vectors, so the values are bitwise equal to it.
    """
    vocab_dist, copy_attention, p_gen = (
        _as_tensor(t) for t in (vocab_dist, copy_attention, p_gen)
    )
    idx = np.asarray(ids, dtype=np.intp)
    gen = vocab_dist.data
    if (gen.ndim != 2 or p_gen.shape != (gen.shape[0], 1)
            or copy_attention.shape != (gen.shape[0], idx.size)
            or idx.shape != (idx.size,) or size < gen.shape[1]):
        raise ShapeError(
            f"pointer_mix: vocab_dist {gen.shape}, copy_attention "
            f"{copy_attention.shape}, p_gen {p_gen.shape}, ids {idx.shape}, "
            f"size {size}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise IndexError(f"pointer_mix: id out of range for size {size}")
    rows, vocab = gen.shape
    p = p_gen.data
    q = 1.0 - p
    copy = np.zeros((rows, size))
    np.add.at(copy, (np.arange(rows)[:, None], idx[None, :]),
              copy_attention.data)
    out_data = np.zeros((rows, size))
    np.multiply(gen, p, out=out_data[:, :vocab])
    copy *= q
    out_data += copy
    out = Tensor(out_data, vocab_dist.requires_grad
                 or copy_attention.requires_grad or p_gen.requires_grad)

    def backward(g: np.ndarray) -> None:
        g_gen = g[:, :vocab]
        g_copy = g[:, idx]  # d out / d copy_attention[r, i] reads column ids[i]
        if vocab_dist.requires_grad:
            _accumulate(vocab_dist, g_gen * p)
        if copy_attention.requires_grad:
            _accumulate(copy_attention, g_copy * q)
        if p_gen.requires_grad:
            dp = (np.einsum("ij,ij->i", g_gen, gen)
                  - np.einsum("ij,ij->i", g_copy, copy_attention.data))
            _accumulate(p_gen, dp[:, None])

    _record("pointer_mix", out, backward)
    return out


def coverage_attention(
    hidden, dec_W, enc_proj, b, coverage, cov_w, v, enc_states, spans=None
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Additive attention with a coverage feature for R decoder rows.

    ``hidden`` (R, d_dec) and ``coverage`` (R, n) hold one row per decoder
    state; ``dec_W`` (d_dec, a), ``enc_proj`` (n, a), ``b`` (a,), ``cov_w``
    (a,) or None (no coverage feature), the column ``v`` (a, 1) and
    ``enc_states`` (n, d) are shared. For row r and source position i:

        features = ((enc_proj[i] + hidden[r] @ dec_W) + b) + coverage[r, i] * cov_w
        scores[r, i] = tanh(features) @ v
        attention[r] = softmax(scores[r])
        context[r] = attention[r] @ enc_states
        next_coverage[r] = coverage[r] + attention[r]

    Returns (attention, context, next_coverage, scores). These are the IEEE
    operations, in order, of the composition from ``matmul``,
    ``add_rowvec``, ``outer``, ``add``, ``tanh``, ``softmax`` and
    ``reshape`` nodes on one row, so each row is bitwise that composition's
    value. The backward is analytic; with one row it sums every gradient
    term in the order the composition's nodes did, so a one-row step's
    gradients are bitwise the composition's too.

    ``spans`` gives each row a source of its own, for rows of several
    documents whose encoder rows are stacked in ``enc_proj`` and
    ``enc_states``: row r attends over their rows ``spans[r] = (start,
    stop)``, n_r of them. ``coverage``, and the attention, coverage and
    scores returned, are then flat, row r's n_r entries after row r - 1's.
    Every row is bitwise its value in the call with its document alone
    (``spans`` None): features and scores are elementwise or one fold per
    entry, each softmax sums the rows of one length together, each over
    exactly its own positions (``np.sum`` blocks its pairwise sum by the row
    length), and the contexts are one left fold, a shorter row's padded
    with -0.0 terms.
    """
    hidden, dec_W, enc_proj, b, coverage, v, enc_states = (
        _as_tensor(t)
        for t in (hidden, dec_W, enc_proj, b, coverage, v, enc_states)
    )
    cov_w = None if cov_w is None else _as_tensor(cov_w)
    rows = hidden.shape[0] if hidden.data.ndim == 2 else -1
    n, width = enc_proj.shape if enc_proj.data.ndim == 2 else (-1, -1)
    cov_shape = (rows, n)
    if spans is not None:
        bounds = np.asarray(spans, dtype=np.intp)
        cov_shape = None
        if rows > 0 and bounds.shape == (rows, 2):
            lengths = bounds[:, 1] - bounds[:, 0]
            if (lengths >= 1).all() and (bounds[:, 0] >= 0).all() and (
                    bounds[:, 1] <= n).all():
                cov_shape = (int(lengths.sum()),)
    if (rows < 0 or n < 1 or dec_W.shape != (hidden.shape[1], width)
            or b.shape != (width,) or coverage.shape != cov_shape
            or (cov_w is not None and cov_w.shape != (width,))
            or v.shape != (width, 1) or enc_states.data.ndim != 2
            or enc_states.shape[0] != n):
        raise ShapeError(
            f"coverage_attention: incompatible shapes hidden {hidden.shape}, "
            f"dec_W {dec_W.shape}, enc_proj {enc_proj.shape}, b {b.shape}, "
            f"coverage {coverage.shape}, cov_w "
            f"{None if cov_w is None else cov_w.shape}, v {v.shape}, "
            f"enc_states {enc_states.shape}"
            + ("" if spans is None else f", spans {list(spans)}")
        )
    inputs = (hidden, dec_W, enc_proj, b, coverage, v, enc_states)
    if cov_w is not None:
        inputs += (cov_w,)
    grad = any(t.requires_grad for t in inputs)
    if spans is not None:
        return _span_attention(hidden, dec_W, enc_proj, b, coverage, cov_w, v,
                               enc_states, bounds[:, 0], lengths, grad)
    features = enc_proj.data[None] + _matmul_data(hidden.data, dec_W.data)[:, None]
    features += b.data
    if cov_w is not None:
        features += coverage.data[:, :, None] * cov_w.data
    tanh_f = np.tanh(features, out=features).reshape(rows * n, width)
    scores = _matmul_data(tanh_f, v.data).reshape(rows, n)
    att = _softmax_data(scores)
    outs = (Tensor(att, grad), Tensor(_matmul_data(att, enc_states.data), grad),
            Tensor(coverage.data + att, grad), Tensor(scores, grad))

    def backward(g_att, g_ctx, g_cov, g_scores) -> None:
        # attention's gradient: its own, the context's, then the coverage's
        g_a = g_att
        if g_ctx is not None:
            term = g_ctx @ enc_states.data.T
            g_a = term if g_a is None else g_a + term
            if enc_states.requires_grad:
                terms = _pending_for(enc_states)
                terms.lhs.append(att)
                terms.grads.append(g_ctx)
        if g_cov is not None:
            if coverage.requires_grad:
                _accumulate_copy(coverage, g_cov)
            g_a = g_cov if g_a is None else g_cov + g_a
        if g_a is None:
            ds = g_scores
        else:
            # one row takes the vector dot of the one-row softmax
            inner = (np.dot(g_a[0], att[0]) if rows == 1
                     else np.einsum("ij,ij->i", g_a, att)[:, None])
            ds = att * (g_a - inner)
            if g_scores is not None:
                ds = ds + g_scores
        ds = ds.reshape(rows * n, 1)
        if v.requires_grad:
            terms = _pending_for(v)
            terms.lhs.append(tanh_f)
            terms.grads.append(ds)
        g_f = (ds @ v.data.T) * (1.0 - tanh_f * tanh_f)  # (R * n, a)
        if cov_w is not None:
            if coverage.requires_grad:
                _accumulate(coverage, (g_f @ cov_w.data).reshape(rows, n))
            if cov_w.requires_grad:
                _accumulate(cov_w, g_f.T @ coverage.data.reshape(rows * n))
        if b.requires_grad:
            _accumulate(b, g_f.sum(axis=0))
        g_f = g_f.reshape(rows, n, width)
        if enc_proj.requires_grad:
            _accumulate(enc_proj, g_f.sum(axis=0))
        if hidden.requires_grad or dec_W.requires_grad:
            g_dec = g_f.sum(axis=1)
            if hidden.requires_grad:
                _accumulate(hidden, g_dec @ dec_W.data.T)
            if dec_W.requires_grad:
                terms = _pending_for(dec_W)
                terms.lhs.append(hidden.data)
                terms.grads.append(g_dec)

    _record("coverage_attention", outs, backward)
    return outs


def _span_attention(hidden, dec_W, enc_proj, b, coverage, cov_w, v,
                    enc_states, starts, lengths, grad):
    """``coverage_attention`` of rows with sources of their own: row r over
    rows ``starts[r]`` to ``starts[r] + lengths[r]`` of ``enc_proj`` and
    ``enc_states``, on flat coverage."""
    rows, total = len(lengths), int(lengths.sum())
    offsets = np.zeros(rows + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    row_of = np.repeat(np.arange(rows), lengths)        # per flat entry
    pos = np.arange(total) + (starts - offsets[:-1])[row_of]  # its source row
    tanh_f = enc_proj.data[pos]                         # (total, a)
    tanh_f += _matmul_data(hidden.data, dec_W.data)[row_of]
    tanh_f += b.data
    if cov_w is not None:
        tanh_f += coverage.data[:, None] * cov_w.data
    np.tanh(tanh_f, out=tanh_f)
    scores = _matmul_data(tanh_f, v.data).reshape(total)
    # softmax: the max and the exponentials entry by entry, each row's sum
    # over a (rows of that length, length) block, as _softmax_data sums
    z = np.exp(scores - np.maximum.reduceat(scores, offsets[:-1])[row_of])
    sums = np.empty(rows)
    for n in sorted(set(lengths.tolist())):
        group = np.flatnonzero(lengths == n)
        sums[group] = z[offsets[group, None] + np.arange(n)].sum(axis=-1)
    att = z / sums[row_of]
    # context[r] is the left fold of att[r, i] * enc_states[pos] over i;
    # a row shorter than the longest folds in -0.0 terms, which add nothing
    grid = np.arange(lengths.max())
    inside = grid < lengths[:, None]                    # (rows, longest)
    weights = np.zeros(inside.shape)
    weights[inside] = att
    at = starts[:, None] + np.minimum(grid, lengths[:, None] - 1)
    terms = np.empty((len(grid), rows, enc_states.shape[1]))
    np.multiply(weights.T[:, :, None], enc_states.data[at.T], out=terms)
    terms[~inside.T] = -0.0
    context = _fold(terms)
    outs = (Tensor(att, grad), Tensor(context, grad),
            Tensor(coverage.data + att, grad), Tensor(scores, grad))

    def backward(g_att, g_ctx, g_cov, g_scores) -> None:
        g_a = g_att
        if g_ctx is not None:
            term = np.einsum("ij,ij->i", g_ctx[row_of], enc_states.data[pos])
            g_a = term if g_a is None else g_a + term
            if enc_states.requires_grad:
                spread = np.zeros((rows, enc_states.shape[0]))
                spread[row_of, pos] = att
                terms = _pending_for(enc_states)
                terms.lhs.append(spread)
                terms.grads.append(g_ctx)
        if g_cov is not None:
            if coverage.requires_grad:
                _accumulate_copy(coverage, g_cov)
            g_a = g_cov if g_a is None else g_cov + g_a
        if g_a is None:
            ds = g_scores
        else:
            inner = np.add.reduceat(g_a * att, offsets[:-1])
            ds = att * (g_a - inner[row_of])
            if g_scores is not None:
                ds = ds + g_scores
        ds = ds.reshape(total, 1)
        if v.requires_grad:
            terms = _pending_for(v)
            terms.lhs.append(tanh_f)
            terms.grads.append(ds)
        g_f = (ds @ v.data.T) * (1.0 - tanh_f * tanh_f)  # (total, a)
        if cov_w is not None:
            if coverage.requires_grad:
                _accumulate(coverage, g_f @ cov_w.data)
            if cov_w.requires_grad:
                _accumulate(cov_w, g_f.T @ coverage.data)
        if b.requires_grad:
            _accumulate(b, g_f.sum(axis=0))
        if enc_proj.requires_grad:
            if enc_proj.grad is None:
                enc_proj.grad = np.zeros(enc_proj.shape)
            np.add.at(enc_proj.grad, pos, g_f)
        if hidden.requires_grad or dec_W.requires_grad:
            g_dec = np.add.reduceat(g_f, offsets[:-1], axis=0)
            if hidden.requires_grad:
                _accumulate(hidden, g_dec @ dec_W.data.T)
            if dec_W.requires_grad:
                terms = _pending_for(dec_W)
                terms.lhs.append(hidden.data)
                terms.grads.append(g_dec)

    _record("coverage_attention", outs, backward)
    return outs


def _fold(terms: np.ndarray) -> np.ndarray:
    """The left fold over axis 0 of C-ordered ``terms``, term 0 first: the
    sum ``_matmul_data`` forms for each output entry."""
    if terms[0].size == 1:
        return np.add.accumulate(terms.reshape(len(terms)))[-1:].reshape(
            terms.shape[1:])
    return np.add.reduce(terms, axis=0, initial=-0.0)


def by_document(steps: Sequence[Sequence[Tensor]],
                lengths: Sequence[int]) -> list[tuple[Tensor, ...]]:
    """The outputs of a lockstep scan over documents, regrouped by document
    in one node.

    ``steps[t]`` holds the same quantities at every step t, for the first
    live_t documents (every document at step 0; live_t never grows): a
    matrix one row per document, a flat vector one segment per document,
    ``lengths[k]`` entries for document k (the layout of
    ``coverage_attention`` with ``spans``). Returns, for each document k,
    its blocks of every quantity stacked in step order, one (T_k, width)
    matrix per quantity, where T_k counts the steps that hold it. The
    backward hands each block's gradient back to its step."""
    bounds = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=bounds[1:])
    documents_of = {int(b): k for k, b in enumerate(bounds) if k}

    def live(t: Tensor) -> int:
        if t.data.ndim == 2:
            return t.shape[0]
        return documents_of.get(t.size, -1) if t.data.ndim == 1 else -1

    def layout(step: Sequence[Tensor]) -> list:
        # each quantity's width, or None for a flat vector
        return [t.shape[1] if t.data.ndim == 2 else None for t in step]

    quantities = len(steps[0]) if steps else 0
    widths = layout(steps[0]) if steps else []
    live_counts = []
    for step in steps:
        counts = {live(t) for t in step}
        if len(counts) != 1 or layout(step) != widths:
            break
        live_counts.append(counts.pop())
    if (not quantities or not len(lengths) or min(lengths) < 1
            or len(live_counts) != len(steps)
            or live_counts[0] != len(lengths)):
        raise ShapeError(f"by_document: steps do not hold the first documents "
                         f"of lengths {list(lengths)}")
    live_at = np.array(live_counts)
    if live_at.min() < 1 or (live_at[1:] > live_at[:-1]).any():
        raise ShapeError(f"by_document: documents per step "
                         f"{live_counts} must never grow")
    # every (step, document) block in document order, as positions among
    # the steps' stacked rows (matrices) or entries (flat vectors); one
    # document's blocks are in that order already
    steps_of = [int(np.count_nonzero(live_at > k)) for k in range(len(lengths))]
    row_index = entry_index = None
    if len(lengths) > 1:
        first_row = np.cumsum(live_at) - live_at
        first_entry = np.cumsum(bounds[live_at]) - bounds[live_at]
        row_index = np.concatenate([first_row[:t] + k
                                    for k, t in enumerate(steps_of)])
        entry_index = np.concatenate([
            (first_entry[:t, None] + bounds[k] + np.arange(lengths[k])).ravel()
            for k, t in enumerate(steps_of)])
    # per quantity: whether it is flat, its index and each document's shape
    plans = []
    for width in widths:
        if width is not None:
            plans.append((False, row_index, [(t, width) for t in steps_of]))
        else:
            plans.append((True, entry_index,
                          [(t, n) for t, n in zip(steps_of, lengths)]))
    grad = any(t.requires_grad for step in steps for t in step)
    outs = []
    for q, (_, index, shapes) in enumerate(plans):
        gathered = np.concatenate([step[q].data for step in steps])
        if index is not None:
            gathered = gathered[index]
        gathered, lo = gathered.reshape(-1), 0
        blocks = []
        for t, n in shapes:
            blocks.append(Tensor(gathered[lo:lo + t * n].reshape(t, n), grad))
            lo += t * n
        outs.append(blocks)
    outs = tuple(o[k] for k in range(len(lengths)) for o in outs)

    def backward(*grads: np.ndarray | None) -> None:
        for q, (flat, index, shapes) in enumerate(plans):
            parts = grads[q::quantities]
            if all(g is None for g in parts):
                continue
            # a matrix's blocks stack as rows, a flat vector's as entries
            g_rows = np.concatenate([
                np.zeros((t, n)) if g is None else g
                for g, (t, n) in zip(parts, shapes)], axis=None if flat else 0)
            stacked = g_rows
            if index is not None:
                stacked = np.empty_like(g_rows)
                stacked[index] = g_rows
            lo = 0
            for step in steps:
                t = step[q]
                if t.requires_grad:
                    _accumulate(t, stacked[lo:lo + len(t.data)].reshape(t.shape))
                lo += len(t.data)

    _record("by_document", outs, backward)
    return [outs[k * quantities:(k + 1) * quantities]
            for k in range(len(lengths))]


def generation_gate(context, hidden, x, ctx_w, state_w, x_w, b) -> Tensor:
    """The pointer-generator's p_gen for R rows, an (R, 1) column:

        sigmoid((context @ ctx_w + hidden @ state_w) + (x @ x_w + b))

    with ``context``, ``hidden`` and ``x`` (R, k) rows, their weight
    vectors (k,) and a scalar ``b``. These are the IEEE operations, in
    order, of the composition from column ``matmul``, ``add`` and
    ``sigmoid`` nodes, so the values are bitwise equal to it, and the
    analytic backward computes each gradient with the composition's
    expressions, one term per tensor, so the gradients are bitwise too.
    """
    rows = [_as_tensor(t) for t in (context, hidden, x)]
    weights = [_as_tensor(t) for t in (ctx_w, state_w, x_w)]
    b = _as_tensor(b)
    count = rows[0].shape[0] if rows[0].data.ndim == 2 else -1
    if b.shape != () or any(
            r.data.ndim != 2 or w.data.ndim != 1 or r.shape != (count, w.size)
            for r, w in zip(rows, weights)):
        raise ShapeError(
            "generation_gate: rows "
            f"{[r.shape for r in rows]}, weights {[w.shape for w in weights]},"
            f" b {b.shape}"
        )
    dots = [_matmul_data(r.data, w.data[:, None]) for r, w in zip(rows, weights)]
    y = _sigmoid_data((dots[0] + dots[1]) + (dots[2] + b.data))
    out = Tensor(y, any(t.requires_grad for t in (*rows, *weights, b)))

    def backward(g: np.ndarray) -> None:
        g_sum = g * y * (1.0 - y)
        for r, w in zip(rows, weights):
            if r.requires_grad:
                _accumulate(r, g_sum @ w.data[None, :])
            if w.requires_grad:
                _accumulate(w, (r.data.T @ g_sum).reshape(w.shape))
        if b.requires_grad:
            _accumulate(b, g_sum.sum())

    _record("generation_gate", out, backward)
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


def _cell_forward(xs, h_prev, c_prev, W_h, b):
    """One cell step of R rows on arrays: (h', c', gates, tanh(c'))."""
    return _cell_gates((xs + _matmul_data(h_prev, W_h)) + b[None, :], c_prev)


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


def _cell_backward(dh, dc, gates, tc, c_prev):
    """``dz`` and the input cell state's gradient of one cell step, from its
    outputs' gradients (``None`` for one that nothing reached), elementwise
    over any leading axes."""
    d = tc.shape[-1]
    i, f, g, o = (gates[..., k * d:(k + 1) * d] for k in range(4))
    if dh is not None:
        dc_h = dh * o * (1.0 - tc * tc)
        dc = dc_h if dc is None else dc + dc_h
    dz = np.empty_like(gates)
    dz[..., :d] = dc * g * i * (1.0 - i)
    dz[..., d:2 * d] = dc * c_prev * f * (1.0 - f)
    dz[..., 2 * d:3 * d] = dc * i * (1.0 - g * g)
    dz[..., 3 * d:] = 0.0 if dh is None else dh * tc * o * (1.0 - o)
    return dz, dc * f


def lstm_cell(x_proj, h, c, W_h, b) -> tuple[Tensor, Tensor]:
    """One LSTM step of R rows, from their input projections ``x_proj``
    (``x @ W_x``) and states ``h`` and ``c``; returns (h', c'). With gates
    laid out (input, forget, candidate, output), each ``d`` wide:

        z = (x_proj + h @ W_h) + b
        i, f, o = sigmoid(z) on their columns;  g = tanh(z) on its columns
        c' = f * c + i * g
        h' = o * tanh(c')

    These are the IEEE operations, in order, of the same cell composed from
    ``matmul``/``add``/``slice_cols``/``sigmoid``/``tanh``/``mul`` nodes, so
    every row is bitwise equal to it; the backward is analytic instead.
    """
    x_proj, h, c, W_h, b = (_as_tensor(t) for t in (x_proj, h, c, W_h, b))
    h_prev, c_prev = h.data, c.data
    d = h_prev.shape[1] if h_prev.ndim == 2 else -1
    if (c_prev.shape != h_prev.shape or x_proj.shape != (len(h_prev), 4 * d)
            or W_h.shape != (d, 4 * d) or b.shape != (4 * d,)):
        raise ShapeError(
            f"lstm_cell: incompatible shapes x_proj {x_proj.shape}, h {h.shape}, "
            f"c {c.shape}, W_h {W_h.shape}, b {b.shape}"
        )
    h_data, c_data, gates, tc = _cell_forward(x_proj.data, h_prev, c_prev,
                                              W_h.data, b.data)
    h_out = Tensor(h_data, any(t.requires_grad for t in (x_proj, h, c, W_h, b)))
    c_out = Tensor(c_data, h_out.requires_grad)

    def backward(dh: np.ndarray | None, dc: np.ndarray | None) -> None:
        dz, dc_prev = _cell_backward(dh, dc, gates, tc, c_prev)
        if x_proj.requires_grad:
            _accumulate(x_proj, dz)
        if h.requires_grad:
            _accumulate(h, dz @ W_h.data.T)
        if c.requires_grad:
            _accumulate(c, dc_prev)
        if W_h.requires_grad:
            _accumulate(W_h, h_prev.T @ dz)
        if b.requires_grad:
            _accumulate(b, dz.sum(axis=0))

    _record("lstm_cell", (h_out, c_out), backward)
    return h_out, c_out


def bilstm_scan(
    x_fw, x_bw, W_fw, b_fw, W_bw, b_bw, lengths: Sequence[int]
) -> tuple[Tensor, Tensor, Tensor]:
    """Both directions of a BiLSTM over documents of ``lengths`` rows each,
    longest first, stacked in ``x_fw`` and ``x_bw`` (each token's ``x @
    W_x`` of the forward and the backward direction): one node, whose
    backward runs backpropagation through time.

    From zero states, step t runs ``lstm_cell``'s arithmetic over the
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
    cache = []  # per step: gates, tanh(c')
    for k in range(steps):
        m = live[k]
        h, c, gates, tc = _cell_gates(
            (xs[k, :, :m] + _matmul_stack(hs[k, :, :m], W)) + b, cs[k, :, :m])
        hs[k + 1, :, :m], cs[k + 1, :, :m] = h, c
        cache.append((gates, tc))
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
        for k in range(steps - 1, -1, -1):
            m = live[k]
            dh = dh_next[:, :m] if ds is None else ds[k, :, :m] + dh_next[:, :m]
            gates, tc = cache[k]
            dz, dc_next[:, :m] = _cell_backward(dh, dc_next[:, :m], gates, tc,
                                                cs[k, :, :m])
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
