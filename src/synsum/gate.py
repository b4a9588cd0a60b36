"""Attention-pooled document vector and the selective information gate.

Token states are scored against a learned query through a tanh projection;
the softmax of those scores pools the states into a single document vector.
Each token is then filtered elementwise by a logistic gate computed from
the token state and the document vector, so only information judged salient
in the document's own context reaches the decoder. Scores and gate logits
are clamped to [-50, 50] before the exponential as an overflow guard.

The gate takes the token states of a batch of documents stacked as rows,
``lengths`` rows per document. The token-wise products run over all rows at
once; the pooling softmax, the pooled sum and the document-vector term are
taken per document, so every document's values are bitwise those of gating
it alone. Training reads the result whole, and decoding cuts it into
documents (``decoder.encode_documents``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ModelParams

__all__ = ["GatedDocument", "document_vector", "selective_gate", "apply_gate"]

_LOGIT_CLAMP = 50.0


@dataclass
class GatedDocument:
    attention: Tensor | None    # (n,) pooling weights, summing to 1 per document
    gate: Tensor | None         # (n, d) elementwise gate values in (0, 1)
    gated: Tensor               # (n, d) filtered states for the decoder


def _lengths(h: Tensor, lengths: Sequence[int] | None) -> tuple[int, ...]:
    return tuple(lengths or (h.shape[0],))


def document_vector(
    h: Tensor, params: ModelParams, lengths: Sequence[int] | None = None
) -> tuple[Tensor, Tensor]:
    """Pool each document's token states into one vector; returns (vectors,
    one row per document, and weights). One document by default."""
    gate = params.gate
    n, d = h.shape
    u = ad.tanh(ad.add_rowvec(ad.matmul(h, gate["score_W"]), gate["score_b"]))
    scores = ad.reshape(
        ad.matmul(u, ad.reshape(gate["query"], (d, 1))), (n,)
    )
    lengths = _lengths(h, lengths)
    weights = ad.segment_softmax(
        ad.clip(scores, -_LOGIT_CLAMP, _LOGIT_CLAMP), lengths)
    return ad.segment_pool(weights, h, lengths), weights


def selective_gate(
    h: Tensor, doc_vec: Tensor, params: ModelParams,
    lengths: Sequence[int] | None = None,
) -> tuple[Tensor, Tensor]:
    """Elementwise logistic filter of token states, each document's rows
    against its row of ``doc_vec``; returns (gate, gated)."""
    gate = params.gate
    lengths = _lengths(h, lengths)
    doc_term = ad.gather_rows(ad.matmul(doc_vec, gate["doc_W"]),
                              np.repeat(np.arange(len(lengths)), lengths))
    logits = ad.add_rowvec(
        ad.add(ad.matmul(h, gate["token_W"]), doc_term), gate["b"]
    )
    g = ad.sigmoid(ad.clip(logits, -_LOGIT_CLAMP, _LOGIT_CLAMP))
    return g, ad.mul(h, g)


def apply_gate(
    h: Tensor, params: ModelParams, lengths: Sequence[int] | None = None
) -> GatedDocument:
    """The gate over documents of ``lengths`` rows stacked in ``h`` (one
    document by default). Ablated, every encoded token reaches the decoder
    unfiltered: ``gated`` is ``h`` itself."""
    if params.config.ablate_gate or params.config.ablate_gcn:
        return GatedDocument(attention=None, gate=None, gated=h)
    doc_vec, attention = document_vector(h, params, lengths)
    g, gated = selective_gate(h, doc_vec, params, lengths)
    return GatedDocument(attention=attention, gate=g, gated=gated)
