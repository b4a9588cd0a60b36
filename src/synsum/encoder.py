"""Semantic and structural document encoding, over a batch of documents.

The encoder runs once over all the documents of a batch, stacked as rows,
longest document first; one document is a batch of one. Every document's
rows come out bitwise equal to encoding it alone.

The semantic path embeds token ids and runs a bidirectional LSTM. Each
direction projects all its input rows with one matmul, ``x @ W_x``, before
the scan (the input projection hoisted out of the recurrence, as in cuDNN's
LSTM). Step t of the scan is one fused ``lstm_cell`` over the documents
still running: it reads each one's projection row at position t (from the
end, backwards) and carries the final state of every document that has
ended, so the scan's last state holds every document's final state. Each
row of the sequential-k matmul is the same left fold as a one-row product,
so a row's values do not depend on the rows stepped beside it. Each
document's final hidden (and cell) states of both directions are joined in
one row, which the decoder's initial state projects.

The structural path projects the semantic states onto the graph width and
applies a stack of typed-edge graph convolutions over the union of the
documents' graphs: each document's edges with its row offset added, a
block-diagonal graph, as PyTorch Geometric batches graphs (Fey & Lenssen
2019). A graph holds its edges as parallel ``src``, ``dst`` and ``cls``
arrays, so the union is one concatenation of each, and a mask per class
picks that class's edges in edge order. One layer computes, for every node i,

    out_i = relu( sum over incoming edges (j -> i, class c) of  h_j @ W_c  + b )

with one weight matrix per edge class (forward/backward dependency,
self-loop, sentence adjacency) and a single shared bias per layer. The sum
is intentionally unnormalized by degree. The fused per-token state is the
rowwise concatenation of semantic and structural states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EncodedExample
from .graph import DocumentGraph, EdgeClass
from .model import ModelParams

__all__ = [
    "EncodedDocument",
    "EncodedBatch",
    "embed",
    "lstm_scan",
    "bilstm",
    "union_edge_index",
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
    fused: Tensor               # n x enc_dim rows of the batch's, off the tape
    n: int
    final_states: tuple[Tensor, Tensor]  # (1, 2*d_h) hidden and cell


@dataclass
class EncodedBatch:
    """The encoder states of a batch of documents, stacked as rows, longest
    document first (ties in input order), whole: ``decoder.encode_documents``
    cuts them into documents."""

    fused: Tensor               # N x enc_dim concatenation (or semantic alone)
    lengths: tuple[int, ...]    # rows of each stacked document
    order: tuple[int, ...]      # order[k]: input position of stacked document k
    final_states: tuple[Tensor, Tensor]  # (B, 2*d_h) hidden and cell


def embed(ids, params: ModelParams) -> Tensor:
    """Rows of the embedding matrix for a sequence of in-vocabulary ids."""
    return ad.gather_rows(params.embedding, list(ids))


def lstm_scan(
    x: Tensor,
    cell: dict,
    d_h: int,
    reverse: bool = False,
    lengths: Sequence[int] | None = None,
) -> tuple[list[Tensor], Tensor, Tensor]:
    """Run one LSTM direction over the documents stacked in ``x``.

    ``lengths`` gives each document's rows, longest first (one document of
    all the rows by default). Gate layout in the fused projection is
    (input, forget, candidate, output). Initial states are zero. Returns the
    hidden state of every scan step, one row per document (a row past its
    document's end repeats its final state), listed in input order: step 0
    first, or for ``reverse`` the last step first, so that a one-document
    scan lists position i's state i-th. Then the final hidden and cell
    states, one row per document.
    """
    lengths = tuple(lengths or (x.shape[0],))
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"document lengths {lengths} are not longest first")
    # each document's row of x at step 0, and how its row moves each step
    first = [sum(lengths[:k]) + (lengths[k] - 1 if reverse else 0)
             for k in range(len(lengths))]
    move = -1 if reverse else 1
    x_proj = ad.matmul(x, cell["W_x"])
    h = Tensor(np.zeros((len(lengths), d_h)))
    c = Tensor(np.zeros((len(lengths), d_h)))
    states: list[Tensor] = []
    for t in range(lengths[0]):
        rows = [row + move * t for row, length in zip(first, lengths)
                if length > t]
        h, c = ad.lstm_cell(x_proj, h, c, cell["W_h"], cell["b"], row=rows)
        states.append(h)
    if reverse:
        states.reverse()
    return states, h, c


def _document_rows(
    steps: list[Tensor], lengths: tuple[int, ...], reverse: bool
) -> Tensor:
    """The states of ``lstm_scan`` as one row per token, documents stacked:
    one ``concat`` of the steps and, for several documents, one gather."""
    stacked = ad.concat(steps, axis=0)
    batch, last = len(lengths), lengths[0]
    if batch == 1:
        return stacked
    # step s of the listed steps holds document k's row s * batch + k; a
    # backward scan lists document k's position p at step p + last - length
    index = [
        (p + (last - length if reverse else 0)) * batch + k
        for k, length in enumerate(lengths) for p in range(length)
    ]
    return ad.gather_rows(stacked, index)


def bilstm(
    x: Tensor, params: ModelParams, lengths: Sequence[int] | None = None
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """BiLSTM states of the documents stacked in ``x`` (``lengths`` rows
    each, longest first) and each document's final hidden and cell states,
    one row each, the forward direction's columns first: (B, 2*d_h) each."""
    d_h = params.config.d_h
    lengths = tuple(lengths or (x.shape[0],))
    fw_steps, fw_h, fw_c = lstm_scan(x, params.lstm_fw, d_h, lengths=lengths)
    bw_steps, bw_h, bw_c = lstm_scan(x, params.lstm_bw, d_h, reverse=True,
                                     lengths=lengths)
    states = ad.concat([_document_rows(fw_steps, lengths, False),
                        _document_rows(bw_steps, lengths, True)], axis=1)
    return states, (ad.concat([fw_h, bw_h], axis=1),
                    ad.concat([fw_c, bw_c], axis=1))


def union_edge_index(
    graphs: Sequence[DocumentGraph],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per edge class, the (source, destination) index arrays of the
    block-diagonal union of ``graphs``: each graph's nodes follow the
    previous graphs' nodes, and its edges keep their order."""
    offsets = np.cumsum([0] + [g.n for g in graphs[:-1]])
    shift = np.repeat(offsets, [g.src.size for g in graphs])
    src = np.concatenate([g.src for g in graphs]) + shift
    dst = np.concatenate([g.dst for g in graphs]) + shift
    cls = np.concatenate([g.cls for g in graphs])
    return {key: (src[cls == c], dst[cls == c]) for c, key in _CLASS_KEY.items()}


def gcn_layer(
    h_in: Tensor,
    edge_idx: dict[str, tuple[np.ndarray, np.ndarray]],
    layer_weights: dict[str, Tensor],
) -> Tensor:
    n = h_in.shape[0]
    agg: Tensor | None = None
    for key in _CLASS_KEY.values():
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


def encode(examples: Sequence[EncodedExample], params: ModelParams) -> EncodedBatch:
    """Full encoder over a batch: BiLSTM semantic states, graph convolutions
    over the union graph, fusion."""
    if not examples:
        raise ValueError("cannot encode an empty batch")
    config = params.config
    order = tuple(sorted(range(len(examples)), key=lambda i: -examples[i].n))
    docs = [examples[i] for i in order]
    lengths = tuple(ex.n for ex in docs)
    x = embed([t for ex in docs for t in ex.source_ids], params)
    semantic, finals = bilstm(x, params, lengths)
    if config.ablate_gcn:
        return EncodedBatch(fused=semantic, lengths=lengths, order=order,
                            final_states=finals)
    h0 = (
        semantic
        if params.gcn_input_proj is None
        else ad.matmul(semantic, params.gcn_input_proj)
    )
    structural = gcn_stack(h0, union_edge_index([ex.graph for ex in docs]),
                           params)
    fused = ad.concat([semantic, structural], axis=1)
    return EncodedBatch(fused=fused, lengths=lengths, order=order,
                        final_states=finals)
