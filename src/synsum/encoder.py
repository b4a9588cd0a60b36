"""Semantic and structural document encoding, over a batch of documents.

The encoder runs once over all the documents of a batch, stacked as rows,
longest document first; one document is a batch of one. Every document's
rows come out bitwise equal to encoding it alone.

The semantic path embeds token ids and runs a bidirectional LSTM. Each
direction projects all its input rows with one matmul, ``x @ W_x`` (the
input projection hoisted out of the recurrence, as in cuDNN's LSTM), and
one ``ad.bilstm_scan`` node scans both directions together, time-major:
step t steps both directions of the documents still running, as one set of
(2, live, ·) arrays (grouping independent recurrences into larger per-step
operations, Appleyard, Kočiský & Blunsom 2016); a document that has ended
drops out, nothing is carried. Each row of the sequential-k matmul is the
same left fold as a one-row product, so a row's values do not depend on
the rows, or the direction, stepped beside it. Each document's final hidden
(and cell) states of both directions are joined in one row, which the
decoder's initial state projects.

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
is intentionally unnormalized by degree. Each layer is one ``ad.gcn_layer``
node, which multiplies only each class's distinct source rows (on the
synthetic corpora 62.5% of the rows of four full products) and sums in a
fixed order: each class into zeros in edge order, the classes forward,
backward, self, adjacency, then the bias. The fused per-token state is the
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
    "bilstm",
    "union_edge_index",
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
    document first (ties in input order), whole: training reads them so
    (``decoder.teacher_force``), and ``decoder.encode_documents`` cuts them
    into documents for decoding."""

    fused: Tensor               # N x enc_dim concatenation (or semantic alone)
    lengths: tuple[int, ...]    # rows of each stacked document
    order: tuple[int, ...]      # order[k]: input position of stacked document k
    final_states: tuple[Tensor, Tensor]  # (B, 2*d_h) hidden and cell


def embed(ids, params: ModelParams) -> Tensor:
    """Rows of the embedding matrix for a sequence of in-vocabulary ids."""
    return ad.gather_rows(params.embedding, list(ids))


def bilstm(
    x: Tensor, params: ModelParams, lengths: Sequence[int] | None = None
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """BiLSTM states of the documents stacked in ``x`` (``lengths`` rows
    each, longest first) and each document's final hidden and cell states,
    one row each, the forward direction's columns first: (B, 2*d_h) each."""
    fw, bw = params.lstm_fw, params.lstm_bw
    states, hidden, cell = ad.bilstm_scan(
        ad.matmul(x, fw["W_x"]), ad.matmul(x, bw["W_x"]), fw["W_h"], fw["b"],
        bw["W_h"], bw["b"], lengths or (x.shape[0],))
    return states, (hidden, cell)


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


def gcn_stack(
    h0: Tensor,
    edge_idx: dict[str, tuple[np.ndarray, np.ndarray]],
    params: ModelParams,
) -> Tensor:
    """The graph convolutions of ``params.gcn`` over ``h0``, one
    ``ad.gcn_layer`` node per layer."""
    keys = _CLASS_KEY.values()
    edges = [edge_idx[key] for key in keys]
    h = h0
    for layer_weights in params.gcn:
        h = ad.gcn_layer(h, edges, [layer_weights[key] for key in keys],
                         layer_weights["bias"])
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
