"""Attention decoder with copying, coverage and beam search.

Each step embeds the previous token (OOV ids fall back to UNK), feeds the
embedding concatenated with the previous context vector into a single LSTM
cell, scores every encoder position with additive attention carrying a
coverage feature, and mixes a generation distribution over the fixed
vocabulary with a copy distribution over source positions:

    final(w) = p_gen * P_vocab(w) + (1 - p_gen) * sum of attention on
               source positions holding w

over the extended vocabulary (fixed vocabulary plus this document's
temporary OOV ids). Coverage is the running sum of past attention
distributions; attending where coverage is already high is penalized by the
coverage loss, the sum of ``minimum(attention, coverage before the step)``.

A decoder state (``StepState``) holds R rows: one per live hypothesis in
beam search, one for a document decoded greedily, one per document of a
minibatch under teacher forcing. A step has two halves, each over all R
rows at once and each one tape node. The recurrence (``recurrence_step``,
one ``ad.decoder_scan`` step: embedding, LSTM cell, coverage attention with
its context and the coverage update) carries the state from step to step.
The output head (``output_head``, one ``ad.pointer_head``: the vocabulary
projection of ``[hidden; context]``, its softmax, p_gen and the copy
mixture) takes any number of one document's rows, and nothing in the
recurrence reads it. ``decode_step`` runs both halves.

Teacher forcing (``teacher_force``) runs the whole recurrence of a
minibatch as one ``ad.decoder_scan`` node, in lockstep: the documents,
longest target first, are the rows of one state over the batch's encoder
states, read whole (``encode_batch``) and gathered into that order when it
is not the encoder's; each row attends over its own document's, and a
document whose target has ended drops out of the state. The node hands each
document its rows in step order, and each document's head and loss then run
as one ``ad.pointer_head`` over the rows of all its T steps, so its
vocabulary projection is one (T x k) by (k x V) product and its loss sums
fold in step order. One document alone is a batch of one. Every row is
bitwise the value of that row's step run alone, and every value and
gradient bitwise the per-step composition's in ``tests/oracles.py``.

At inference a content-selector mask can restrict the copy distribution to
source tokens scoring at least a threshold, row by row; the attention used
for the context vector and coverage stays unmasked, and an empty selection
(or, under damping, a row whose damped attention sums to 0) falls back to
the unmasked distribution rather than failing.

Beam search ranks finished hypotheses by log-probability divided by the
length penalty ((5 + len) / 6) ** alpha, where len counts emitted tokens
including STOP. Score ties are broken toward the lexicographically smaller
token sequence. Hypotheses still alive at the step limit are forced to emit
STOP, scored like any other token. Each search step makes one step-function
call whose rows are the live hypotheses, gathered from the previous call's
rows with the state's ``take`` (``StepState.take``). It scores every (live
hypothesis, token) pair in one numpy array and builds hypotheses only for
the short list that can reach the beam: the ``beam + len(live)`` best
scores plus every candidate tied with the last of them, so the tie rule
above still decides on exact scores.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EncodedExample, START_ID, STOP_ID, UNK_ID
from .encoder import EncodedBatch, EncodedDocument, encode
from .gate import GatedDocument, apply_gate
from .model import ModelParams

__all__ = [
    "StepState",
    "DecodeContext",
    "ContentMask",
    "ContentSelector",
    "Hypothesis",
    "encode_batch",
    "encode_documents",
    "encode_document",
    "prepare_decoder",
    "initial_state",
    "recurrence_step",
    "output_head",
    "decode_step",
    "ForcedRows",
    "teacher_force",
    "make_step_fn",
    "greedy_decode",
    "beam_search",
    "length_penalty",
    "train_content_selector",
]

logger = logging.getLogger(__name__)

# every probability is floored here before its log, in search and in the loss
PROB_FLOOR = 1e-12


@dataclass
class StepState:
    """Decoder state of R rows: one per live hypothesis in beam search, one
    for a document decoded or teacher-forced alone."""

    hidden: Tensor              # (R, d_dec)
    cell: Tensor                # (R, d_dec)
    coverage: Tensor            # (R, n) running sum of past attention
    prev_context: Tensor        # (R, d) context rows fed to the next input

    def take(self, rows: Sequence[int]) -> "StepState":
        """The state of ``rows``, in that order; a row may repeat."""
        if list(rows) == list(range(self.hidden.shape[0])):
            return self
        return StepState(*(ad.gather_rows(t, rows) for t in (
            self.hidden, self.cell, self.coverage, self.prev_context)))


@dataclass
class DecodeContext:
    """What every decode step of one document, or of a lockstep batch of
    documents, reads."""

    enc_states: Tensor          # (n, d) gated encoder states
    enc_attn_proj: Tensor       # (n, d_attn) precomputed attention projection
    source_ext_ids: np.ndarray | None  # (n,) extended ids of the source
    n_oov: int                  # tokens, and the document's OOV count; a
                                # batch's heads take them per document
    attn_v: Tensor              # (d_attn, 1) attention scoring vector

    @property
    def n(self) -> int:
        return self.enc_states.shape[0]


@dataclass
class ForcedRows:
    """One document's rows of the teacher-forced recurrence, one per step:
    what its output head and loss read."""

    x: Tensor                   # (T, d_emb + d) LSTM inputs
    hidden: Tensor              # (T, d_dec)
    context: Tensor             # (T, d)
    attention: Tensor           # (T, n)
    coverage: Tensor            # (T, n) coverage before each step


@dataclass
class ContentMask:
    """Per-source-token selection probabilities and a threshold.

    ``damp`` switches from hard mask-and-renormalize to multiplicative
    damping: copy attention is reweighted by the selection probabilities
    instead of being cut off at the threshold.
    """

    q: np.ndarray
    threshold: float
    damp: bool = False

    def selected(self) -> np.ndarray:
        return self.q >= self.threshold


@dataclass
class Hypothesis:
    tokens: list[int]           # emitted extended-vocabulary ids
    log_prob: float
    state: object               # whatever the step function threads through
    finished: bool = False

    def score(self, alpha: float) -> float:
        return self.log_prob / length_penalty(len(self.tokens), alpha)


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


def prepare_decoder(
    enc_states: Tensor,
    example: EncodedExample | None,
    params: ModelParams,
) -> DecodeContext:
    """The decode context of one example, or (``example`` None) of a
    lockstep batch whose documents' states are stacked in ``enc_states``;
    the attention projection is one product over the stacked rows either
    way."""
    return DecodeContext(
        enc_states=enc_states,
        enc_attn_proj=ad.matmul(enc_states, params.attn["enc_W"]),
        source_ext_ids=(None if example is None else
                        np.asarray(example.source_ext_ids, dtype=np.intp)),
        n_oov=0 if example is None else len(example.oov_tokens),
        attn_v=ad.reshape(params.attn["v"], (params.config.d_attn, 1)),
    )


def encode_batch(
    examples: Sequence[EncodedExample], params: ModelParams
) -> tuple[EncodedBatch, GatedDocument]:
    """Encoder and gate of a batch, whole: one forward over the documents'
    rows, stacked longest first (``encoder.encode``)."""
    batch = encode(examples, params)
    return batch, apply_gate(batch.fused, params, batch.lengths)


def encode_documents(
    examples: Sequence[EncodedExample], params: ModelParams
) -> list[tuple[EncodedDocument, GatedDocument]]:
    """Encoder and gate of every document of a batch, in input order: one
    forward over the documents' stacked rows (``encode_batch``), then the
    one cut into documents, for decoding. A document's rows view the
    batch's arrays, off the tape; a batch of one is its document, whose
    tensors stay on the tape."""
    batch, gated = encode_batch(examples, params)
    if len(examples) == 1:
        return [(EncodedDocument(batch.fused, batch.lengths[0],
                                 batch.final_states), gated)]
    bounds = np.cumsum((0,) + batch.lengths)
    pairs: list = [None] * len(examples)
    for k, i in enumerate(batch.order):
        rows = slice(bounds[k], bounds[k + 1])
        fused, attention, gate, doc_gated = (
            None if t is None else Tensor(t.data[rows])
            for t in (batch.fused, gated.attention, gated.gate, gated.gated))
        finals = tuple(Tensor(t.data[k:k + 1]) for t in batch.final_states)
        pairs[i] = (EncodedDocument(fused, batch.lengths[k], finals),
                    GatedDocument(attention, gate, doc_gated))
    return pairs


def encode_document(
    example: EncodedExample,
    params: ModelParams,
    encoded: tuple[EncodedDocument, GatedDocument] | None = None,
) -> tuple[EncodedDocument, GatedDocument, DecodeContext]:
    """Encoder, gate and decode-context of one document.

    ``encoded`` is the example's part of ``encode_documents`` over its
    batch; without it the example is encoded here, as a batch of one."""
    enc, gated = encoded or encode_documents([example], params)[0]
    return enc, gated, prepare_decoder(gated.gated, example, params)


def initial_state(
    enc: EncodedDocument,
    params: ModelParams,
    spans: list[tuple[int, int]] | None = None,
) -> StepState:
    """Project final encoder states, both directions joined in one row each
    (``encoder.bilstm``), into the decoder: one state row per row of
    ``enc.final_states``, with zero coverage over ``enc.n`` positions. That
    is one document's row, or with ``spans`` the rows of a lockstep batch
    (``enc`` then holds its documents' stacked final states and rows), whose
    coverage is flat, row r's ``spans[r]`` positions after row r - 1's."""
    hidden, cell = enc.final_states
    init = params.dec_init
    return StepState(
        hidden=ad.add_rowvec(ad.matmul(hidden, init["h_W"]), init["h_b"]),
        cell=ad.add_rowvec(ad.matmul(cell, init["c_W"]), init["c_b"]),
        coverage=Tensor(np.zeros((1, enc.n) if spans is None else enc.n)),
        prev_context=Tensor(np.zeros((hidden.shape[0],
                                      params.config.enc_dim))),
    )


def _scan(
    state: StepState,
    steps: Sequence[Sequence[int]],
    ctx: DecodeContext,
    params: ModelParams,
    spans: list[tuple[int, int]] | None = None,
):
    """``ad.decoder_scan`` of the model from ``state``: step t reads the
    embedding ids ``steps[t]``."""
    dec_cell, attn = params.dec_cell, params.attn
    return ad.decoder_scan(
        params.embedding, steps, state.hidden, state.cell, state.prev_context,
        state.coverage, dec_cell["W_x"], dec_cell["W_h"], dec_cell["b"],
        attn["dec_W"], ctx.enc_attn_proj, attn["b"],
        attn["cov_w"] if params.config.use_coverage else None, ctx.attn_v,
        ctx.enc_states, spans)


def recurrence_step(
    state: StepState,
    y_prev: Sequence[int],
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
) -> tuple[Tensor, Tensor, Tensor, StepState]:
    """The recurrent half of one decoder step for all R rows of ``state``:
    embedding (an OOV id reads UNK's row), LSTM cell, and coverage attention
    with its context, as one ``ad.decoder_scan`` step.

    ``y_prev`` holds each row's previous token. Returns (LSTM input rows
    ``[embedding; previous context]``, attention rows (R, n), copy-attention
    rows (R, n), next state). The copy rows are the attention rows unless
    ``mask`` changes them.
    """
    rows = state.hidden.shape[0]
    if len(y_prev) != rows:
        raise ValueError(f"{len(y_prev)} previous tokens for {rows} state rows")
    vocab_size = params.config.vocab_size
    ((x, hidden, context, attention, _),), (cell, coverage, scores) = _scan(
        state, [[y if y < vocab_size else UNK_ID for y in y_prev]], ctx,
        params)
    copy_attention = (attention if mask is None
                      else _masked_copy_attention(attention, scores, mask))
    return x, attention, copy_attention, StepState(hidden, cell, coverage,
                                                   context)


def _masked_copy_attention(
    attention: Tensor, scores: Tensor, mask: ContentMask
) -> Tensor:
    """Copy attention under a content mask, row by row.

    The hard mask renormalizes each row's scores over the shared selection;
    damping reweights each row by the selection probabilities (inference
    only). Context, coverage and the returned attention stay unmasked. A row
    whose damped total is 0, or every row of an empty selection, falls back
    to the unmasked attention.
    """
    if mask.damp:
        damped = attention.data * mask.q
        total = damped.sum(axis=1, keepdims=True)
        kept = total > 0
        if not kept.all():
            logger.warning("content mask damped all attention away on %d of "
                           "%d rows; falling back to unmasked attention there",
                           int((~kept).sum()), len(kept))
        return Tensor(np.divide(damped, total, out=attention.data.copy(),
                                where=kept))
    selected = mask.selected()
    if not selected.any():
        logger.warning(
            "content mask selected no tokens (threshold %.3f); "
            "falling back to unmasked attention",
            mask.threshold,
        )
    elif not selected.all():
        return ad.softmax(scores, mask=selected)
    return attention


def output_head(
    hidden: Tensor,
    context: Tensor,
    x: Tensor,
    copy_attention: Tensor,
    source_ext_ids: Sequence[int],
    n_oov: int,
    params: ModelParams,
    gold: Sequence[int] | None = None,
    coverage: Tensor | None = None,
    coverage_weight: float = 0.0,
):
    """The output half of the decoder over R steps' rows of one document
    at once, one ``ad.pointer_head`` node.

    ``hidden`` (R, d_dec), ``context`` (R, d), ``x`` (R, d_emb + d) and
    ``copy_attention`` (R, n) hold one row per step; the document's n
    source tokens have the extended ids ``source_ext_ids``. Returns the
    final distributions over the extended vocabulary (R, vocab_size +
    n_oov) and p_gen (R, 1). Every row is bitwise what the head gives that
    step alone. Given the ``gold`` extended id of each row and the
    ``coverage`` before each step, returns the teacher-forced loss of the
    rows and its two sums instead (``ad.pointer_head``), each probability
    floored at ``PROB_FLOOR`` before its log.
    """
    out, pg = params.out_proj, params.pgen
    return ad.pointer_head(
        hidden, context, x, copy_attention, out["W"], out["b"], pg["ctx_w"],
        pg["state_w"], pg["x_w"], pg["b"], source_ext_ids,
        params.config.vocab_size + n_oov, gold, coverage, coverage_weight,
        PROB_FLOOR)


def decode_step(
    state: StepState,
    y_prev: int | Sequence[int],
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
) -> tuple[Tensor, Tensor, Tensor, StepState]:
    """One decoder step: the recurrence, then the output head over its rows.

    With a sequence of R previous tokens for an R-row state, returns (final
    distributions over vocab_size + n_oov (R, ·), attention over source
    positions (R, n), p_gen (R, 1), next state). With one ``int`` token for
    a one-row state the first three are a vector, a vector and a scalar.
    """
    one = np.ndim(y_prev) == 0
    x, attention, copy_attention, new_state = recurrence_step(
        state, [y_prev] if one else y_prev, ctx, params, mask
    )
    final, p_gen = output_head(new_state.hidden, new_state.prev_context, x,
                               copy_attention, ctx.source_ext_ids, ctx.n_oov,
                               params)
    if one:
        return (ad.reshape(final, (final.shape[1],)),
                ad.reshape(attention, (ctx.n,)), ad.reshape(p_gen, ()),
                new_state)
    return final, attention, p_gen, new_state


def teacher_force(
    examples: Sequence[EncodedExample],
    encoded: tuple[EncodedBatch, GatedDocument],
    params: ModelParams,
) -> list[ForcedRows]:
    """The teacher-forced decoder recurrence of every example, in lockstep,
    as one ``ad.decoder_scan`` node.

    ``encoded`` is the examples' ``encode_batch``. The examples become the
    rows of one state, longest target first (ties in input order), over
    their gated and final states, which are gathered into that order when
    it is not the encoder's; each row attends over its own document's
    states (spans; one example needs none). Step t runs the rows of the
    examples whose target is still longer than t, fed their gold tokens,
    and an example whose target has ended drops out of the state. Every
    row is bitwise its example's recurrence alone, and the gradients are
    summed over the rows in that order. Each example's rows come back, in
    input order, as the rows its output head and loss read.
    """
    batch, gated = encoded
    order = sorted(range(len(examples)),
                   key=lambda k: -len(examples[k].target_ids))
    # in-vocabulary ids feed the embedding
    inputs = [examples[k].target_ids[:-1] for k in order]
    if not inputs or not inputs[-1]:
        raise ValueError("example has an empty target")
    # each state row's document among the encoder's stacked ones
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
    steps = [[ids[t] for ids in inputs if len(ids) > t]
             for t in range(len(inputs[0]))]
    sequences, _ = _scan(state, steps, ctx, params, spans)
    rows: list = [None] * len(examples)
    for k, parts in zip(order, sequences):
        rows[k] = ForcedRows(*parts)
    return rows


# ---------------------------------------------------------------------------
# search


StepFn = Callable[[object, Sequence[int]], tuple[np.ndarray, object]]
"""(R-row state, R previous tokens) -> ((R, ·) log-probabilities over the
extended vocabulary, next state); a state's ``take(rows)`` is the state of
``rows``, in that order. Search routines only ever see this interface. The
model's step (``make_step_fn``) also takes one ``int`` token for a one-row
``StepState`` and then returns a log-probability vector."""


def make_step_fn(
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
) -> StepFn:
    def step(state: StepState, y_prev: int | Sequence[int]):
        final, _, _, new_state = decode_step(state, y_prev, ctx, params, mask=mask)
        return np.log(np.maximum(final.data, PROB_FLOOR)), new_state

    return step


def greedy_decode(
    step_fn: StepFn,
    init_state,
    max_len: int,
    stop_id: int = STOP_ID,
    start_id: int = START_ID,
) -> Hypothesis:
    """Stepwise argmax under the same length convention as beam search:
    ``max_len`` bounds emitted tokens including STOP, which is forced (and
    scored) at the final step. ``init_state`` has one row."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tokens: list[int] = []
    log_prob = 0.0
    state = init_state
    prev = start_id
    for step in range(max_len):
        (log_probs,), state = step_fn(state, [prev])
        token = stop_id if step == max_len - 1 else int(np.argmax(log_probs))
        tokens.append(token)
        log_prob += float(log_probs[token])
        if token == stop_id:
            break
        prev = token
    return Hypothesis(tokens, log_prob, state, finished=True)


def beam_search(
    step_fn: StepFn,
    init_state,
    beam: int,
    max_len: int,
    alpha: float = 0.0,
    stop_id: int = STOP_ID,
    start_id: int = START_ID,
    return_pool: bool = False,
) -> Hypothesis | tuple[Hypothesis, list[Hypothesis]]:
    """Beam expansion over the extended vocabulary.

    ``max_len`` caps emitted tokens including STOP; any hypothesis alive at
    the last step is forced to emit STOP with its model score. Candidates
    are scanned in raw cumulative log-probability order (all live
    hypotheses share a length), ties broken toward the lexicographically
    smaller token sequence: STOP-terminated ones retire to the finished
    pool, others refill the beam, and the scan cuts off once the beam is
    full, so a STOP ranked below the cutoff is pruned exactly like any
    other candidate. With beam=1 this reduces to greedy decoding. Finished
    hypotheses compete by length-penalized score.

    ``init_state`` has one row. Each search step gathers the live
    hypotheses' rows (``take``) and makes one ``step_fn(batch, previous
    tokens)`` call, and a hypothesis holds ``(that call's next state, its
    row)``.

    Each live hypothesis has one STOP candidate, so the scan never reads
    past its ``beam + len(live)``-th candidate. Cumulative scores are kept
    as one numpy array over every (live hypothesis, token) pair, and only
    the candidates scoring at least the ``beam + len(live)``-th best score,
    every tie at that cutoff included, become ``Hypothesis`` objects and
    are sorted. The result equals a full sort of all candidates.

    The search stops early once no live hypothesis can beat the best
    finished one (Huang, Zhao & Ma 2017): when the best finished score is
    strictly greater than the best live log-probability divided by the
    length penalty of every length a live hypothesis can still finish at.
    Extending a hypothesis never raises its log-probability while every
    row is at most 0, and "strictly" keeps the tie rule, so the best
    hypothesis is the one the search to ``max_len`` returns, and the
    finished pool is a prefix of that search's pool. The stop is guarded:
    it is taken only while every row returned so far has a maximum of at
    most 0, so a step function that has shown a log-probability above 0
    (a pointer mixture that rounds above 1) is searched to the end. An
    ``alpha`` whose length penalty overflows or rounds to 0 at some length
    up to ``max_len``, or is so small that a hypothesis of ``max_len``
    tokens at the probability floor would score ``-inf`` (ties that only
    the token order breaks), is a ``ValueError``.
    """
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    try:
        penalties = [length_penalty(n, alpha) for n in range(1, max_len + 1)]
    except OverflowError:
        penalties = [0.0]
    if 0.0 in penalties or not math.isfinite(
            max_len * math.log(PROB_FLOOR) / min(penalties)):
        raise ValueError(f"length penalty alpha {alpha} is out of range: "
                         f"overflows, or makes a score infinite, by length "
                         f"{max_len}")
    batch = init_state
    live = [Hypothesis([], 0.0, (batch, 0))]
    finished: list[Hypothesis] = []
    nonpositive = True
    for step in range(max_len):
        prevs = [hyp.tokens[-1] if hyp.tokens else start_id for hyp in live]
        log_probs, batch = step_fn(batch.take([hyp.state[1] for hyp in live]),
                                   prevs)
        states = [(batch, row) for row in range(len(live))]
        nonpositive = nonpositive and bool(log_probs.max() <= 0.0)
        if step == max_len - 1:
            candidates = [
                Hypothesis(hyp.tokens + [stop_id],
                           hyp.log_prob + float(row[stop_id]),
                           state, finished=True)
                for hyp, row, state in zip(live, log_probs, states)
            ]
        else:
            candidates = _top_candidates(live, log_probs, states,
                                         beam + len(live), stop_id)
        candidates.sort(key=lambda h: (-h.log_prob, tuple(h.tokens)))
        next_live: list[Hypothesis] = []
        for cand in candidates:
            if cand.finished:
                finished.append(cand)
            else:
                next_live.append(cand)
            if len(next_live) == beam:
                break
        live = next_live
        if not live:
            break
        if nonpositive and finished:
            # live[0] leads the beam; lengths step + 2 to max_len remain
            reachable = max(live[0].log_prob / penalty
                            for penalty in penalties[step + 1:])
            if max(h.score(alpha) for h in finished) > reachable:
                break
    best = min(finished, key=lambda h: (-h.score(alpha), tuple(h.tokens)))
    if return_pool:
        return best, finished
    return best


def _top_candidates(
    live: list[Hypothesis],
    log_probs: np.ndarray,
    states: list,
    k: int,
    stop_id: int,
) -> list[Hypothesis]:
    """Every one-token extension scoring at least the k-th best score.

    ``log_probs`` holds one row per live hypothesis. Scores form one (live x
    extended vocabulary) array of ``hyp.log_prob + log_probs``, the same
    float64 addition as adding each token's log-probability on its own.
    Keeping every tie at the cutoff makes the result a prefix of the fully
    sorted candidates.
    """
    totals = np.array([hyp.log_prob for hyp in live])
    scores = (totals[:, None] + log_probs).ravel()
    if scores.size > k:
        cutoff = np.partition(scores, scores.size - k)[scores.size - k]
        picked = np.flatnonzero(scores >= cutoff)
    else:
        picked = np.arange(scores.size)
    rows, tokens = np.divmod(picked, log_probs.shape[1])
    candidates = []
    for index, row, token in zip(picked.tolist(), rows.tolist(),
                                 tokens.tolist()):
        candidates.append(Hypothesis(live[row].tokens + [token],
                                     float(scores[index]), states[row],
                                     finished=token == stop_id))
    return candidates


# ---------------------------------------------------------------------------
# content selector (bottom-up attention)


@dataclass
class ContentSelector:
    """Per-token logistic classifier over encoder states.

    Inputs are standardized with the training-set feature means and
    deviations; encoder states are small at initialization, so the
    classifier would otherwise barely move off its starting point.
    """

    w: np.ndarray
    b: float
    mean: np.ndarray
    std: np.ndarray

    def predict(self, enc_states: np.ndarray,
                threshold: float = 0.1) -> ContentMask:
        logits = ((enc_states - self.mean) / self.std) @ self.w + self.b
        q = 1.0 / (1.0 + np.exp(-np.clip(logits, -50.0, 50.0)))
        return ContentMask(q=q, threshold=threshold)


def train_content_selector(
    enc_states: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    epochs: int = 300,
    lr: float = 0.5,
    seed: int = 0,
) -> ContentSelector:
    """Fit the selector with plain gradient descent on logistic loss.

    ``enc_states`` holds one (n_i, d) matrix per document; ``targets`` the
    matching binary rows marking tokens that appear in the reference.
    """
    X = np.concatenate([np.asarray(s, dtype=np.float64) for s in enc_states])
    y = np.concatenate([np.asarray(t, dtype=np.float64) for t in targets])
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} states vs {y.shape[0]} targets")
    mean = X.mean(axis=0)
    std = X.std(axis=0) + 1e-8
    X = (X - mean) / std
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.01, 0.01, X.shape[1])
    b = 0.0
    m = X.shape[0]
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-np.clip(X @ w + b, -50.0, 50.0)))
        err = p - y
        w -= lr * (X.T @ err) / m
        b -= lr * float(err.sum()) / m
    return ContentSelector(w=w, b=b, mean=mean, std=std)
