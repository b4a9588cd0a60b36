"""Autodiff primitives and graph helpers that only the tests use.

The primitives are the composition oracles of the fused-op tests: a fused
primitive (``lstm_cell``, ``coverage_attention``, ``pointer_mix``, ...) is
checked bitwise against the same IEEE operations composed from these
nodes, and each of them is grad-checked on its own. They record on the
active tape exactly like the primitives of ``synsum.autodiff``.
``composed_bilstm`` is the oracle of ``ad.bilstm_scan``: one per-direction
``lstm_scan`` node each (the encoder's scan before both directions were
joined) and three ``concat``. ``composed_gcn_layer`` is the oracle of
``ad.gcn_layer``: per edge class a ``matmul`` over every row and a
``scatter_rows_sum``, joined by ``add``, then ``add_rowvec`` and ``relu``;
``composed_gcn_stack`` stacks it, and ``gcn_layer`` calls the fused node
with the class-keyed edges and weights of ``encoder.gcn_stack``.
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

from synsum import autodiff as ad
from synsum.autodiff import (
    ShapeError,
    Tensor,
    _accumulate,
    _accumulate_copy,
    _as_tensor,
    _binary_shapes,
    _cell_backward,
    _cell_forward,
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


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), x.requires_grad)
    mask = x.data > 0  # subgradient 0 at exactly 0

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    _record("relu", out, backward)
    return out


def scatter_rows_sum(x, src_idx, dst_idx, n_out: int) -> Tensor:
    """out[dst_idx[k]] += x[src_idx[k]] for every k; out has ``n_out`` rows."""
    x = _as_tensor(x)
    src = np.asarray(src_idx, dtype=np.intp)
    dst = np.asarray(dst_idx, dtype=np.intp)
    if src.shape != dst.shape:
        raise ShapeError(
            f"scatter_rows_sum: index lengths differ {src.shape} vs {dst.shape}"
        )
    out_data = np.zeros((n_out, x.shape[1]))
    np.add.at(out_data, dst, x.data[src])
    out = Tensor(out_data, x.requires_grad)

    def backward(g: np.ndarray) -> None:
        dx = np.zeros(x.shape)
        np.add.at(dx, src, g[dst])
        _accumulate(x, dx)

    _record("scatter_rows_sum", out, backward)
    return out


def lstm_scan(
    x_proj, W_h, b, lengths: Sequence[int], reverse: bool = False
) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM direction over documents of ``lengths`` rows each, longest
    first, stacked in ``x_proj`` (each token's ``x @ W_x``): one node, whose
    backward runs backpropagation through time. From zero states, step t
    runs ``lstm_cell``'s arithmetic over the documents still running, each
    on its row at position t (from the end for ``reverse``), so every value
    is the one of scanning the document alone. Returns the hidden state of
    every row of ``x_proj`` and each document's final hidden and cell
    states, (B, d) each."""
    x_proj, W_h, b = (_as_tensor(t) for t in (x_proj, W_h, b))
    lengths = tuple(lengths)
    d = W_h.shape[0] if W_h.data.ndim == 2 else -1
    if (W_h.shape != (d, 4 * d) or b.shape != (4 * d,) or not lengths
            or x_proj.shape != (sum(lengths), 4 * d) or min(lengths) < 1
            or any(m < k for m, k in zip(lengths, lengths[1:]))):
        raise ShapeError(
            f"lstm_scan: shapes x_proj {x_proj.shape}, W_h {W_h.shape}, b "
            f"{b.shape} and lengths {lengths} (longest first, summing to the "
            f"rows) do not fit")
    n = np.asarray(lengths)
    move = -1 if reverse else 1
    first = np.cumsum(n) - (1 if reverse else n)  # each document's step-0 row
    states, cells = np.empty((len(x_proj.data), d)), np.empty((len(x_proj.data), d))
    h = c = np.zeros((len(n), d))
    steps = []  # per step: its rows, the h and c it reads, gates, tanh(c')
    for t in range(lengths[0]):
        rows = first[:np.count_nonzero(n > t)] + move * t
        h, c = h[:len(rows)], c[:len(rows)]
        h_new, c_new, gates, tc = _cell_forward(x_proj.data[rows], h, c,
                                                W_h.data, b.data)
        steps.append((rows, h, c, gates, tc))
        states[rows], cells[rows], h, c = h_new, c_new, h_new, c_new
    last = first + move * (n - 1)
    grad = x_proj.requires_grad or W_h.requires_grad or b.requires_grad
    outs = (Tensor(states, grad), Tensor(states[last], grad),
            Tensor(cells[last], grad))

    def backward(d_states, dh_final, dc_final) -> None:
        # the recurrent gradients into each document's states; a document
        # that has ended keeps its final states' gradients for its last step
        dh_next, dc_next = (np.zeros((len(n), d)) if g is None else g.copy()
                            for g in (dh_final, dc_final))
        # every row is stepped once: its dz, and the h it read, go to one
        # row of dz_all and h_all, and the weights' gradients are one product
        dz_all = np.empty(x_proj.shape)
        h_all = np.empty(states.shape)
        for t in range(len(steps) - 1, -1, -1):
            rows, h_in, c_in, gates, tc = steps[t]
            live = len(rows)
            dh = (dh_next[:live] if d_states is None
                  else d_states[rows] + dh_next[:live])
            dz, dc_next[:live] = _cell_backward(dh, dc_next[:live], gates, tc,
                                                c_in)
            dz_all[rows] = dz
            h_all[rows] = h_in
            if t:
                dh_next[:live] = dz @ W_h.data.T
        if W_h.requires_grad:
            _accumulate(W_h, h_all.T @ dz_all)
        if b.requires_grad:
            _accumulate(b, dz_all.sum(axis=0))
        if x_proj.requires_grad:
            _accumulate(x_proj, dz_all)

    _record("lstm_scan", outs, backward)
    return outs


def composed_bilstm(x, params, lengths=None):
    """The oracle of ``encoder.bilstm`` over a ragged batch: one ``lstm_scan``
    node per direction, each on its own ``matmul`` input projection, and
    three ``concat`` nodes joining the directions' states and final states."""
    lengths = tuple(lengths or (x.shape[0],))
    states, hidden, cell = zip(*(
        lstm_scan(ad.matmul(x, w["W_x"]), w["W_h"], w["b"], lengths, reverse)
        for w, reverse in ((params.lstm_fw, False), (params.lstm_bw, True))))
    return ad.concat(states, axis=1), (ad.concat(hidden, axis=1),
                                       ad.concat(cell, axis=1))


GCN_CLASSES = ("fwd", "bwd", "self", "adj")


def composed_gcn_layer(h_in, edge_idx, layer_weights) -> Tensor:
    """The oracle of one ``ad.gcn_layer``: per edge class with edges, a
    ``matmul`` over every row and a ``scatter_rows_sum``, the classes joined
    by ``add``, then ``add_rowvec`` and ``relu`` (13 nodes with all four
    classes)."""
    n = h_in.shape[0]
    agg = None
    for key in GCN_CLASSES:
        src, dst = edge_idx[key]
        if len(src) == 0:
            continue
        messages = ad.matmul(h_in, layer_weights[key])
        summed = scatter_rows_sum(messages, src, dst, n)
        agg = summed if agg is None else ad.add(agg, summed)
    if agg is None:
        raise ShapeError("composed_gcn_layer: no edges")
    return relu(ad.add_rowvec(agg, layer_weights["bias"]))


def composed_gcn_stack(h0, edge_idx, params) -> Tensor:
    """The oracle of ``encoder.gcn_stack``, one ``composed_gcn_layer`` a
    layer."""
    h = h0
    for layer_weights in params.gcn:
        h = composed_gcn_layer(h, edge_idx, layer_weights)
    return h


def gcn_layer(h, edge_idx, layer_weights) -> Tensor:
    """``ad.gcn_layer`` over the class-keyed edges and weights that
    ``encoder.union_edge_index`` and ``ModelParams.gcn`` hold."""
    return ad.gcn_layer(h, [edge_idx[key] for key in GCN_CLASSES],
                        [layer_weights[key] for key in GCN_CLASSES],
                        layer_weights["bias"])


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
