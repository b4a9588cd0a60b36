"""Autodiff primitives and graph helpers that only the tests use.

The primitives are the composition oracles of the fused-op tests: a fused
primitive (``lstm_cell``, ``coverage_attention``, ``pointer_mix``, ...) is
checked bitwise against the same IEEE operations composed from these
nodes, and each of them is grad-checked on its own. They record on the
active tape exactly like the primitives of ``synsum.autodiff``.
``edge_tuples`` lists a graph's edges as (src, dst, class, label) tuples
and ``graph_from_edges`` builds a graph from such tuples;
``graph_from_record`` reads back a record of ``graph.export_graph``, and
``union_edge_index_oracle`` is ``encoder.union_edge_index`` as one walk
over the edges.
``batched`` and ``Rows`` turn a per-row toy step function into the batched
step-function contract of ``decoder.greedy_decode`` and
``decoder.beam_search``.
``matmul_fold`` is the triple loop every forward matrix product must equal
byte for byte, and ``same_bits`` the byte comparison.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from synsum.autodiff import (
    ShapeError,
    Tensor,
    _accumulate,
    _accumulate_copy,
    _as_tensor,
    _binary_shapes,
    _record,
    _reduce_to,
)
from synsum.graph import DocumentGraph, EdgeClass


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "sub")
    out = Tensor(a.data - b.data, a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_copy(a, _reduce_to(a.shape, g))
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, -g))

    _record("sub", out, backward)
    return out


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.sum(), x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate_copy(x, np.broadcast_to(g, x.shape))

    _record("sum_all", out, backward)
    return out


def stack(parts: Sequence) -> Tensor:
    """Equal-shape tensors as the slices of a new leading axis."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("stack of zero tensors")
    if any(p.shape != parts[0].shape for p in parts):
        raise ShapeError(f"stack: shapes differ {[p.shape for p in parts]}")
    out = Tensor(np.stack([p.data for p in parts]),
                 any(p.requires_grad for p in parts))

    def backward(g: np.ndarray) -> None:
        for p, g_part in zip(parts, g):
            if p.requires_grad:
                _accumulate_copy(p, g_part)

    _record("stack", out, backward)
    return out


def transpose(x) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.shape}")
    out = Tensor(x.data.T, x.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate_copy(x, g.T)

    _record("transpose", out, backward)
    return out


def slice_cols(x, lo: int, hi: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2 or not (0 <= lo <= hi <= x.shape[1]):
        raise ShapeError(f"slice_cols [{lo}:{hi}] invalid for shape {x.shape}")
    out = Tensor(x.data[:, lo:hi], x.requires_grad)

    def backward(g: np.ndarray) -> None:
        full = np.zeros(x.shape)
        full[:, lo:hi] = g
        _accumulate(x, full)

    _record("slice_cols", out, backward)
    return out


def outer(u, v) -> Tensor:
    """Outer product of two vectors: out[i, j] = u[i] * v[j]."""
    u, v = _as_tensor(u), _as_tensor(v)
    if u.data.ndim != 1 or v.data.ndim != 1:
        raise ShapeError(f"outer expects vectors, got {u.shape} and {v.shape}")
    out = Tensor(np.outer(u.data, v.data), u.requires_grad or v.requires_grad)

    def backward(g: np.ndarray) -> None:
        if u.requires_grad:
            _accumulate(u, g @ v.data)
        if v.requires_grad:
            _accumulate(v, g.T @ u.data)

    _record("outer", out, backward)
    return out


def pick(x, index: int) -> Tensor:
    """Extract one element of a vector as a scalar tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 1:
        raise ShapeError(f"pick expects a vector, got shape {x.shape}")
    if not 0 <= index < x.shape[0]:
        raise IndexError(f"pick: index {index} out of range for length {x.shape[0]}")
    out = Tensor(x.data[index], x.requires_grad)

    def backward(g: np.ndarray) -> None:
        dx = np.zeros(x.shape)
        dx[index] = g
        _accumulate(x, dx)

    _record("pick", out, backward)
    return out


def scatter_sum_vec(values, indices, size: int) -> Tensor:
    """out[indices[k]] += values[k]; duplicate indices accumulate."""
    values = _as_tensor(values)
    idx = np.asarray(indices, dtype=np.intp)
    if values.data.ndim != 1 or idx.shape != values.shape:
        raise ShapeError(
            f"scatter_sum_vec: values {values.shape} vs indices {idx.shape}"
        )
    out_data = np.zeros(size)
    np.add.at(out_data, idx, values.data)
    out = Tensor(out_data, values.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate_copy(values, g[idx])

    _record("scatter_sum_vec", out, backward)
    return out


def edge_tuples(g: DocumentGraph) -> list[tuple]:
    """(src, dst, EdgeClass, label id or None) of each edge, in edge order."""
    return [
        (src, dst, EdgeClass(cls), None if label < 0 else label)
        for src, dst, cls, label in zip(
            g.src.tolist(), g.dst.tolist(), g.cls.tolist(), g.label.tolist()
        )
    ]


def graph_from_edges(n: int, edges: Sequence[tuple], roots: Sequence[int],
                     label_names: Sequence[str] = ()) -> DocumentGraph:
    """The graph whose ``edge_tuples`` are ``edges``."""
    src, dst, cls, label = np.array(
        [(src, dst, cls, -1 if label is None else label)
         for src, dst, cls, label in edges], dtype=np.intp,
    ).reshape(-1, 4).T
    return DocumentGraph(n=n, src=src, dst=dst, cls=cls, label=label,
                         roots=list(roots), label_names=list(label_names))


def graph_from_record(record: Mapping) -> DocumentGraph:
    return graph_from_edges(
        record["n"],
        [(src, dst, EdgeClass[cls], label)
         for src, dst, cls, label in record["edges"]],
        record["roots"],
        record.get("label_names", []),
    )


def union_edge_index_oracle(
    graphs: Sequence[DocumentGraph],
) -> dict[str, tuple[list[int], list[int]]]:
    """Per edge class, the sources and destinations of the union of
    ``graphs``, one edge at a time: each graph's nodes follow the previous
    graphs' nodes."""
    out: dict[str, tuple[list[int], list[int]]] = {
        cls.name.lower(): ([], []) for cls in EdgeClass
    }
    offset = 0
    for g in graphs:
        for src, dst, cls, _ in edge_tuples(g):
            sources, destinations = out[cls.name.lower()]
            sources.append(src + offset)
            destinations.append(dst + offset)
        offset += g.n
    return out


class Rows(tuple):
    """The per-row states of a toy step function as one batched state."""

    def take(self, rows: Sequence[int]) -> "Rows":
        return Rows(self[row] for row in rows)


def batched(step):
    """The batched step function over a per-row ``step(state, previous
    token) -> (log-probabilities, next state)``: one ``step`` call per row
    of a ``Rows`` state, stacked as (R, V) log-probabilities."""
    def step_fn(state: Rows, prevs: Sequence[int]):
        results = [step(row, prev)
                   for row, prev in zip(state, prevs, strict=True)]
        return (np.stack([np.asarray(lp, dtype=np.float64)
                          for lp, _ in results]),
                Rows(next_state for _, next_state in results))

    return step_fn


def same_bits(a, b) -> bool:
    """Same shape and the same bytes: ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def matmul_fold(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as a triple loop of Python floats: each entry is the left
    fold of its products in ascending k, starting from product 0. Starting
    from ``0.0`` instead would turn a fold of ``-0.0`` products into
    ``+0.0``. An empty inner axis gives zeros."""
    rows, inner = a.shape
    cols = b.shape[1]
    a_rows, b_cols = a.tolist(), b.T.tolist()
    out = np.zeros((rows, cols))
    for i in range(rows if inner else 0):
        for j in range(cols):
            terms = [x * y for x, y in zip(a_rows[i], b_cols[j])]
            acc = terms[0]
            for term in terms[1:]:
                acc = acc + term
            out[i, j] = acc
    return out
