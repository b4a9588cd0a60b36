"""Semantic and structural document encoding.

The semantic path embeds token ids and runs a bidirectional LSTM. Each
direction projects all its input rows with one matmul, ``x @ W_x``, before
the scan (the input projection hoisted out of the recurrence, as in cuDNN's
LSTM), and the scan feeds row i of that projection to one fused
``lstm_cell`` per step. Each row of the sequential-k matmul is the same left
fold as a one-row product, so the hoisted forward is bitwise equal to
projecting inside the loop.

The structural path projects the semantic states onto the graph width and
applies a stack of typed-edge graph convolutions over the document graph.
One layer computes, for every node i,

    out_i = relu( sum over incoming edges (j -> i, class c) of  h_j @ W_c  + b )

with one weight matrix per edge class (forward/backward dependency,
self-loop, sentence adjacency) and a single shared bias per layer. The sum
is intentionally unnormalized by degree. The fused per-token state is the
rowwise concatenation of semantic and structural states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EncodedExample
from .graph import DocumentGraph, EdgeClass
from .model import ModelParams

__all__ = [
    "EncodedDocument",
    "embed",
    "lstm_scan",
    "bilstm",
    "edge_index_arrays",
    "gcn_layer",
    "gcn_stack",
    "encode",
]

_CLASS_KEY = {
    EdgeClass.FWD: "fwd",
    EdgeClass.BWD: "bwd",
    EdgeClass.SELF: "self",
    EdgeClass.ADJ: "adj",
}


@dataclass
class EncodedDocument:
    semantic: Tensor            # n x 2*d_h BiLSTM states
    structural: Tensor | None   # n x d_g final graph-convolution states
    fused: Tensor               # n x enc_dim concatenation (or semantic alone)
    n: int
    final_states: tuple[Tensor, Tensor, Tensor, Tensor]  # fw_h, fw_c, bw_h, bw_c


def embed(ids, params: ModelParams) -> Tensor:
    """Rows of the embedding matrix for a sequence of in-vocabulary ids."""
    return ad.gather_rows(params.embedding, list(ids))


def lstm_scan(
    x: Tensor, cell: dict, d_h: int, reverse: bool = False
) -> tuple[list[Tensor], Tensor, Tensor]:
    """Run one LSTM direction over the rows of ``x``.

    Gate layout in the fused projection is (input, forget, candidate,
    output). Initial states are zero. Returns per-position hidden rows in
    input order plus the final hidden and cell state of the scan.
    """
    n = x.shape[0]
    x_proj = ad.matmul(x, cell["W_x"])
    h = Tensor(np.zeros((1, d_h)))
    c = Tensor(np.zeros((1, d_h)))
    states: list[Tensor | None] = [None] * n
    order = range(n - 1, -1, -1) if reverse else range(n)
    for i in order:
        h, c = ad.lstm_cell(x_proj, h, c, cell["W_h"], cell["b"], row=i)
        states[i] = h
    return states, h, c  # type: ignore[return-value]


def bilstm(
    x: Tensor, params: ModelParams
) -> tuple[Tensor, tuple[Tensor, Tensor, Tensor, Tensor]]:
    d_h = params.config.d_h
    fw_states, fw_h, fw_c = lstm_scan(x, params.lstm_fw, d_h)
    bw_states, bw_h, bw_c = lstm_scan(x, params.lstm_bw, d_h, reverse=True)
    states = ad.concat(
        [ad.concat(fw_states, axis=0), ad.concat(bw_states, axis=0)], axis=1
    )
    return states, (fw_h, fw_c, bw_h, bw_c)


def edge_index_arrays(g: DocumentGraph) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per edge class, (source, destination) index arrays in edge order."""
    buckets: dict[str, tuple[list[int], list[int]]] = {
        key: ([], []) for key in _CLASS_KEY.values()
    }
    for e in g.edges:
        src, dst = buckets[_CLASS_KEY[e.cls]]
        src.append(e.src)
        dst.append(e.dst)
    return {
        key: (np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp))
        for key, (src, dst) in buckets.items()
    }


def gcn_layer(
    h_in: Tensor,
    edge_idx: dict[str, tuple[np.ndarray, np.ndarray]],
    layer_weights: dict[str, Tensor],
) -> Tensor:
    n = h_in.shape[0]
    agg: Tensor | None = None
    for key in ("fwd", "bwd", "self", "adj"):
        src, dst = edge_idx[key]
        if src.size == 0:
            continue
        messages = ad.matmul(h_in, layer_weights[key])
        summed = ad.scatter_rows_sum(messages, src, dst, n)
        agg = summed if agg is None else ad.add(agg, summed)
    assert agg is not None  # every node has a self-loop
    return ad.relu(ad.add_rowvec(agg, layer_weights["bias"]))


def gcn_stack(
    h0: Tensor,
    edge_idx: dict[str, tuple[np.ndarray, np.ndarray]],
    params: ModelParams,
) -> Tensor:
    h = h0
    for layer_weights in params.gcn:
        h = gcn_layer(h, edge_idx, layer_weights)
    return h


def encode(example: EncodedExample, params: ModelParams) -> EncodedDocument:
    """Full encoder: BiLSTM semantic states, graph convolutions, fusion."""
    config = params.config
    x = embed(example.source_ids, params)
    semantic, finals = bilstm(x, params)
    if config.ablate_gcn:
        return EncodedDocument(
            semantic=semantic,
            structural=None,
            fused=semantic,
            n=example.n,
            final_states=finals,
        )
    h0 = (
        semantic
        if params.gcn_input_proj is None
        else ad.matmul(semantic, params.gcn_input_proj)
    )
    structural = gcn_stack(h0, edge_index_arrays(example.graph), params)
    fused = ad.concat([semantic, structural], axis=1)
    return EncodedDocument(
        semantic=semantic,
        structural=structural,
        fused=fused,
        n=example.n,
        final_states=finals,
    )
