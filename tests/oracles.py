"""Autodiff primitives and graph helpers that only the tests use.

The primitives are the composition oracles of the fused-op tests: a fused
primitive (``bilstm_scan``, ``gcn_layer``, ``decoder_scan``,
``pointer_head``) is checked bitwise against the same IEEE operations
composed from these nodes, and each of them is grad-checked on its own.
Some (``lstm_cell``, ``coverage_attention``, ``pointer_mix``, ...) were the
package's own fused primitives once, and are still checked against finer
compositions. They record on the active tape exactly like the primitives of
``synsum.autodiff``.
``composed_bilstm`` is the oracle of ``ad.bilstm_scan``: one per-direction
``lstm_scan`` node each (the encoder's scan before both directions were
joined) and three ``concat``. ``composed_gcn_layer`` is the oracle of
``ad.gcn_layer``: per edge class a ``matmul`` over every row and a
``scatter_rows_sum``, joined by ``add``, then ``add_rowvec`` and ``relu``;
``composed_gcn_stack`` stacks it, and ``gcn_layer`` calls the fused node
with the class-keyed edges and weights of ``encoder.gcn_stack``.
``composed_recurrence_step``, ``composed_teacher_force`` (five nodes a
step, ``split_rows`` where a document ends, one ``by_document``),
``composed_output_head``, ``loss_from_rows`` and the decode step, sequence
loss and batch gradients built from them are the oracles of
``ad.decoder_scan`` and ``ad.pointer_head``: the decoder as it was composed
before, one primitive a node.
``build_vocabulary_oracle``, ``vocabulary_load_oracle`` and
``generate_documents_oracle`` are the vocabulary count, the vocabulary
file's line-by-line parse and the generator's entity pool as they were
written before their fast paths.
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

import itertools
import random
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
    _cell_factors,
    _cell_gates,
    _fold,
    _matmul_data,
    _pending_for,
    _record,
    _reduce_to,
    _segments,
    _sigmoid_data,
    _softmax_data,
)
from synsum import synthetic as syn
from synsum.corpus import (
    RESERVED_TOKENS,
    UNK_ID,
    Document,
    Vocabulary,
    read_lines,
)
from synsum.decoder import (
    PROB_FLOOR,
    ForcedRows,
    StepState,
    _masked_copy_attention,
    encode_batch,
    initial_state,
    prepare_decoder,
)
from synsum.encoder import EncodedDocument
from synsum.graph import DocumentGraph, EdgeClass
from synsum.training import LossStats


def _cell_forward(xs, h_prev, c_prev, W_h, b):
    """One cell step of R rows on arrays: (h', c', gates, tanh(c'))."""
    return _cell_gates((xs + _matmul_data(h_prev, W_h)) + b[None, :], c_prev)


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
        dz, dc_prev = _cell_backward(dh, dc,
                                     _cell_factors(gates, tc, c_prev))
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

# ---------------------------------------------------------------------------
# the decoder as it was composed before ``ad.decoder_scan`` and
# ``ad.pointer_head``: five nodes a recurrence step, ``split_rows`` where a
# lockstep document ends and one ``by_document``; six nodes for the head and
# eleven more for the loss


def composed_recurrence_step(state, y_prev, ctx, params, mask=None,
                             spans=None):
    """One recurrence step of R rows from ``gather_rows``, ``concat``,
    ``matmul``, ``lstm_cell`` and ``coverage_attention``; row r attends over
    ``spans[r]`` when given. Returns (x, attention, copy attention, next
    state), as ``decoder.recurrence_step`` does."""
    config = params.config
    rows = state.hidden.shape[0]
    input_ids = [y if y < config.vocab_size else UNK_ID for y in y_prev]
    emb = ad.gather_rows(params.embedding, input_ids)
    x = ad.concat([emb, state.prev_context], axis=1)
    dec_cell = params.dec_cell
    hidden, cell = lstm_cell(ad.matmul(x, dec_cell["W_x"]), state.hidden,
                             state.cell, dec_cell["W_h"], dec_cell["b"])
    attn = params.attn
    attention, context, coverage, scores = coverage_attention(
        hidden, attn["dec_W"], ctx.enc_attn_proj, attn["b"], state.coverage,
        attn["cov_w"] if config.use_coverage else None, ctx.attn_v,
        ctx.enc_states, None if spans is None else spans[:rows])
    copy_attention = (attention if mask is None
                      else _masked_copy_attention(attention, scores, mask))
    return x, attention, copy_attention, StepState(hidden, cell, coverage,
                                                   context)


def composed_output_head(hidden, context, x, copy_attention, source_ext_ids,
                         n_oov, params):
    """The output head from ``concat``, ``matmul``, ``add_rowvec``,
    ``softmax``, ``generation_gate`` and ``pointer_mix``: (final, p_gen)."""
    out = params.out_proj
    vocab_logits = ad.add_rowvec(
        ad.matmul(ad.concat([hidden, context], axis=1), out["W"]), out["b"])
    vocab_dist = ad.softmax(vocab_logits)
    pg = params.pgen
    p_gen = generation_gate(context, hidden, x, pg["ctx_w"], pg["state_w"],
                            pg["x_w"], pg["b"])
    final = pointer_mix(vocab_dist, copy_attention, p_gen, source_ext_ids,
                        params.config.vocab_size + n_oov)
    return final, p_gen


def composed_decode_step(state, y_prev, ctx, params, mask=None):
    """``decoder.decode_step`` from the composed recurrence and head."""
    one = np.ndim(y_prev) == 0
    x, attention, copy_attention, new_state = composed_recurrence_step(
        state, [y_prev] if one else y_prev, ctx, params, mask)
    final, p_gen = composed_output_head(new_state.hidden,
                                        new_state.prev_context, x,
                                        copy_attention, ctx.source_ext_ids,
                                        ctx.n_oov, params)
    if one:
        return (ad.reshape(final, (final.shape[1],)),
                ad.reshape(attention, (ctx.n,)), ad.reshape(p_gen, ()),
                new_state)
    return final, attention, p_gen, new_state


def composed_teacher_force(examples, encoded, params):
    """``decoder.teacher_force`` from one ``composed_recurrence_step`` a
    target position, ``split_rows`` where documents end, and one
    ``by_document``."""
    batch, gated = encoded
    order = sorted(range(len(examples)),
                   key=lambda k: -len(examples[k].target_ids))
    inputs = [examples[k].target_ids[:-1] for k in order]
    stacked = np.argsort(batch.order)[order].tolist()
    lengths = [batch.lengths[k] for k in stacked]
    enc_states, finals = gated.gated, batch.final_states
    if stacked != list(range(len(stacked))):
        starts = np.cumsum((0,) + batch.lengths)
        enc_states = ad.gather_rows(enc_states, np.concatenate(
            [np.arange(starts[k], starts[k + 1]) for k in stacked]))
        finals = tuple(ad.gather_rows(t, stacked) for t in finals)
    spans = None
    if len(stacked) > 1:
        bounds = np.cumsum([0] + lengths).tolist()
        spans = list(zip(bounds, bounds[1:]))
    ctx = prepare_decoder(enc_states, None, params)
    state = initial_state(EncodedDocument(None, sum(lengths), finals), params,
                          spans)
    steps = []
    for t in range(len(inputs[0])):
        live = sum(len(ids) > t for ids in inputs)
        if live < len(state.hidden.data):
            # the ended documents are the last rows, and their coverage last
            kept = (live, live, sum(lengths[:live]), live)
            state = StepState(*(
                split_rows(tensor, (keep, len(tensor.data) - keep))[0]
                for tensor, keep in zip((state.hidden, state.cell,
                                         state.coverage, state.prev_context),
                                        kept)))
        coverage = state.coverage
        x, attention, _, state = composed_recurrence_step(
            state, [ids[t] for ids in inputs[:live]], ctx, params,
            spans=spans)
        steps.append((x, state.hidden, state.prev_context, attention,
                      coverage))
    rows = [None] * len(examples)
    for k, parts in zip(order, by_document(steps, lengths)):
        rows[k] = ForcedRows(*parts)
    return rows


def coverage_loss(attention, coverage) -> Tensor:
    """Sum of elementwise minima between a step's attention and the
    coverage accumulated before it; one sum per row."""
    return sum_rows(minimum(attention, coverage))


def loss_from_rows(final, gold_ids, attention, coverage, coverage_weight):
    """Token-averaged NLL plus weighted coverage penalty, one row per step,
    each sum folded in step order: the loss ``ad.pointer_head`` computes."""
    if not gold_ids:
        raise ValueError("empty decoding target")
    steps = len(gold_ids)
    p = maximum(pick_rows(final, gold_ids), PROB_FLOOR)
    nll_sum = fold_sum(ad.mul(log(p), -1.0))
    cov_sum = fold_sum(coverage_loss(attention, coverage))
    loss = ad.mul(ad.add(nll_sum, ad.mul(cov_sum, coverage_weight)),
                  1.0 / steps)
    stats = LossStats(nll=float(nll_sum.data) / steps,
                      coverage=coverage_weight * float(cov_sum.data) / steps,
                      steps=steps)
    return loss, stats


def composed_sequence_loss(example, params, coverage_weight, rows=None):
    """``training.sequence_loss`` from the composed head and loss, over the
    composed teacher forcing unless ``rows`` are given."""
    rows = rows or composed_teacher_force(
        [example], encode_batch([example], params), params)[0]
    final, _ = composed_output_head(rows.hidden, rows.context, rows.x,
                                    rows.attention, example.source_ext_ids,
                                    len(example.oov_tokens), params)
    return loss_from_rows(final, example.target_ext_ids[1:], rows.attention,
                          rows.coverage, coverage_weight)


def composed_batch_gradients(batch, params, coverage_weight):
    """``training.batch_gradients`` over the composed decoder: the batch tape
    holds the encoder and the composed teacher forcing, and each document's
    composed head and loss get a tape of their own."""
    with ad.Tape() as batch_tape:
        rows = composed_teacher_force(batch, encode_batch(batch, params),
                                      params)
    stats = []
    for example, forced in zip(batch, rows):
        with ad.Tape() as tape:
            loss, doc_stats = composed_sequence_loss(example, params,
                                                     coverage_weight, forced)
            tape.backward(ad.mul(loss, 1.0 / len(batch)))
        stats.append(doc_stats)
    batch_tape.backward()
    return stats


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
            dz, dc_next[:live] = _cell_backward(
                dh, dc_next[:live], _cell_factors(gates, tc, c_in))
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


# ---------------------------------------------------------------------------
# corpus and generator references


def build_vocabulary_oracle(docs, cap: int):
    """``corpus.build_vocabulary`` counting token by token, ranked by
    (-count, first appearance)."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for doc in docs:
        tokens = [t for sent in doc.sentences for t in sent.tokens]
        for tok in tokens + list(doc.reference):
            counts[tok] = counts.get(tok, 0) + 1
            first_seen.setdefault(tok, len(first_seen))
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    id_to_token = list(RESERVED_TOKENS) + ranked[:cap - len(RESERVED_TOKENS)]
    return Vocabulary(token_to_id={t: i for i, t in enumerate(id_to_token)},
                      id_to_token=id_to_token)


def vocabulary_load_oracle(path, data=None):
    """``corpus.Vocabulary.load`` through ``read_lines``, line by line."""
    id_to_token = list(RESERVED_TOKENS)
    for _, line in read_lines(path, data):
        id_to_token.append(line.rstrip("\n"))
    return Vocabulary(token_to_id={t: i for i, t in enumerate(id_to_token)},
                      id_to_token=id_to_token)


def generate_documents_oracle(seed: int, size: int, grammar=None):
    """``synthetic.generate_documents`` counting the entity-name pool at the
    first rejected draw, whatever the syllables."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    grammar = grammar or syn.GrammarConfig()
    rng = random.Random(seed)
    verbs = syn._Deck(grammar.verbs, rng)
    objects = syn._Deck(grammar.objects, rng)
    adjectives = syn._Deck(grammar.adjectives, rng)
    places = syn._Deck(grammar.places, rng)
    template = grammar.template_types()
    used_entities: set[str] = set()
    pool_size = None
    docs = []

    def fresh_entity() -> str:
        nonlocal pool_size
        while True:
            name = "".join(rng.choice(grammar.syllables) for _ in range(3))
            if name not in used_entities and name not in template:
                used_entities.add(name)
                return name
            if pool_size is None:
                pool_size = len({
                    "".join(parts)
                    for parts in itertools.product(grammar.syllables, repeat=3)
                } - template)
            if len(used_entities) >= pool_size:
                raise ValueError(
                    f"syllable pool {grammar.syllables} makes only "
                    f"{pool_size} entity names; all are used after "
                    f"{len(docs)} of {size} documents"
                )

    for index in range(size):
        entity = fresh_entity()
        verb = verbs.deal()
        obj = objects.deal()
        place = places.deal()
        sentences = [syn._fact(entity, verb, obj),
                     syn._echo(obj, adjectives.deal()), syn._place(place)]
        if index % grammar.distractor_every == 0:
            sentences.append(syn._distractor(fresh_entity(), verbs.deal()))
        rng.shuffle(sentences)
        reference = [entity, verb, obj]
        if grammar.copy_place:
            reference.append(place)
        docs.append(Document(sentences=sentences, reference=reference))
    return docs
