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
distributions; attending where coverage is already high is penalized by
``coverage_loss``.

A decoder state (``StepState``) holds R rows: one per live hypothesis in
beam search, one for a document decoded greedily or teacher-forced. A step
has two halves, each over all R rows at once. The recurrence
(``recurrence_step``: embedding, LSTM cell, and ``ad.coverage_attention``,
one tape node for the attention, its context and the coverage update)
carries the state from step to step, five tape nodes a step. The output
head (``output_head``: the vocabulary projection of ``[hidden; context]``,
its softmax, p_gen, the copy scatter and the mixture) takes any number of
rows, and nothing in the recurrence reads it. ``decode_step`` runs both
halves; under teacher forcing (``teacher_force``) the recurrence steps one
row and the head runs once over the rows of all T steps, so the vocabulary
projection is one (T x k) by (k x V) product. Every row is bitwise the
value of that row's step run alone.

At inference a content-selector mask can restrict the copy distribution to
source tokens scoring at least a threshold, row by row; the attention used
for the context vector and coverage stays unmasked, and an empty selection
(or, under damping, a row whose damped attention sums to 0) falls back to
the unmasked distribution rather than failing.

Beam search ranks finished hypotheses by log-probability divided by the
length penalty ((5 + len) / 6) ** alpha, where len counts emitted tokens
including STOP. Score ties are broken toward the lexicographically smaller
token sequence. Hypotheses still alive at the step limit are forced to emit
STOP, scored like any other token. With the model's state, each search step
runs one decoder call whose rows are the live hypotheses, gathered from the
previous call's rows with ``StepState.take``. Each step scores every (live
hypothesis, token) pair in one numpy array and builds hypotheses only for
the short list that can reach the beam: the ``beam + len(live)`` best
scores plus every candidate tied with the last of them, so the tie rule
above still decides on exact scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EncodedExample, START_ID, STOP_ID, UNK_ID
from .encoder import EncodedDocument, encode
from .gate import GatedDocument, apply_gate
from .model import ModelParams

__all__ = [
    "StepState",
    "DecodeContext",
    "ContentMask",
    "ContentSelector",
    "Hypothesis",
    "encode_documents",
    "encode_document",
    "prepare_decoder",
    "initial_state",
    "recurrence_step",
    "output_head",
    "decode_step",
    "teacher_force",
    "coverage_loss",
    "make_step_fn",
    "greedy_decode",
    "beam_search",
    "length_penalty",
    "train_content_selector",
]

logger = logging.getLogger(__name__)


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
    """Per-document quantities shared by every decode step."""

    enc_states: Tensor          # (n, d) gated encoder states
    enc_attn_proj: Tensor       # (n, d_attn) precomputed attention projection
    source_ext_ids: np.ndarray  # (n,) extended ids of the source tokens
    n_oov: int
    attn_v: Tensor              # (d_attn, 1) attention scoring vector

    @property
    def n(self) -> int:
        return self.enc_states.shape[0]


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
    enc_states: Tensor, example: EncodedExample, params: ModelParams
) -> DecodeContext:
    return DecodeContext(
        enc_states=enc_states,
        enc_attn_proj=ad.matmul(enc_states, params.attn["enc_W"]),
        source_ext_ids=np.asarray(example.source_ext_ids, dtype=np.intp),
        n_oov=len(example.oov_tokens),
        attn_v=ad.reshape(params.attn["v"], (params.config.d_attn, 1)),
    )


def encode_documents(
    examples: Sequence[EncodedExample], params: ModelParams
) -> list[tuple[EncodedDocument, GatedDocument]]:
    """Encoder and gate of every document of a batch, in input order: one
    forward over the documents' stacked rows, split into documents."""
    batch = encode(examples, params)
    gated = apply_gate(batch.fused, params, batch.lengths)
    pairs: list = [None] * len(examples)
    for k, parts in enumerate(zip(batch.documents(),
                                  gated.split(batch.lengths))):
        pairs[batch.order[k]] = parts
    return pairs


def encode_document(
    example: EncodedExample, params: ModelParams
) -> tuple[EncodedDocument, GatedDocument, DecodeContext]:
    """Encoder, gate and decode-context of one document (a batch of one)."""
    [(enc, gated)] = encode_documents([example], params)
    return enc, gated, prepare_decoder(gated.gated, example, params)


def initial_state(enc: EncodedDocument, params: ModelParams) -> StepState:
    """Project the final forward/backward encoder states into the decoder.

    With ``zero_init_decoder`` the projection is skipped and the decoder
    starts from zero states (ablation path)."""
    config = params.config
    if config.zero_init_decoder:
        h0 = Tensor(np.zeros((1, config.d_dec)))
        c0 = Tensor(np.zeros((1, config.d_dec)))
    else:
        fw_h, fw_c, bw_h, bw_c = enc.final_states
        init = params.dec_init
        h0 = ad.add_rowvec(
            ad.matmul(ad.concat([fw_h, bw_h], axis=1), init["h_W"]), init["h_b"]
        )
        c0 = ad.add_rowvec(
            ad.matmul(ad.concat([fw_c, bw_c], axis=1), init["c_W"]), init["c_b"]
        )
    return StepState(
        hidden=h0,
        cell=c0,
        coverage=Tensor(np.zeros((1, enc.n))),
        prev_context=Tensor(np.zeros((1, config.enc_dim))),
    )


def recurrence_step(
    state: StepState,
    y_prev: Sequence[int],
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
) -> tuple[Tensor, Tensor, Tensor, StepState]:
    """The recurrent half of one decoder step for all R rows of ``state``:
    embedding, LSTM cell, and coverage attention with its context.

    ``y_prev`` holds each row's previous token. Returns (LSTM input rows
    ``[embedding; previous context]``, attention rows (R, n), copy-attention
    rows (R, n), next state). The copy rows are the attention rows unless
    ``mask`` changes them.
    """
    config = params.config
    rows = state.hidden.shape[0]
    if len(y_prev) != rows:
        raise ValueError(f"{len(y_prev)} previous tokens for {rows} state rows")

    input_ids = [y if y < config.vocab_size else UNK_ID for y in y_prev]
    emb = ad.gather_rows(params.embedding, input_ids)
    x = ad.concat([emb, state.prev_context], axis=1)
    dec_cell = params.dec_cell
    hidden, cell = ad.lstm_cell(ad.matmul(x, dec_cell["W_x"]), state.hidden,
                                state.cell, dec_cell["W_h"], dec_cell["b"])
    attn = params.attn
    attention, context, coverage, scores = ad.coverage_attention(
        hidden, attn["dec_W"], ctx.enc_attn_proj, attn["b"], state.coverage,
        attn["cov_w"] if config.use_coverage else None, ctx.attn_v,
        ctx.enc_states,
    )
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
    ctx: DecodeContext,
    params: ModelParams,
) -> tuple[Tensor, Tensor]:
    """The output half of the decoder over R steps' rows at once.

    ``hidden`` (R, d_dec), ``context`` (R, d), ``x`` (R, d_emb + d) and
    ``copy_attention`` (R, n) hold one row per step. Returns the final
    distributions over the extended vocabulary (R, vocab_size + n_oov) and
    p_gen (R, 1). Every row is bitwise what the head gives that step alone.
    """
    out = params.out_proj
    vocab_logits = ad.add_rowvec(
        ad.matmul(ad.concat([hidden, context], axis=1), out["W"]), out["b"]
    )
    vocab_dist = ad.softmax(vocab_logits)
    pg = params.pgen
    p_gen = ad.generation_gate(context, hidden, x, pg["ctx_w"], pg["state_w"],
                               pg["x_w"], pg["b"])
    final = ad.pointer_mix(vocab_dist, copy_attention, p_gen,
                           ctx.source_ext_ids,
                           params.config.vocab_size + ctx.n_oov)
    return final, p_gen


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
                               copy_attention, ctx, params)
    if one:
        return (ad.reshape(final, (final.shape[1],)),
                ad.reshape(attention, (ctx.n,)), ad.reshape(p_gen, ()),
                new_state)
    return final, attention, p_gen, new_state


def teacher_force(
    state: StepState,
    inputs: Sequence[int],
    ctx: DecodeContext,
    params: ModelParams,
) -> tuple[Tensor, Tensor, Tensor]:
    """Decode ``inputs`` under teacher forcing from a one-row state, the
    output head run once.

    Nothing in the recurrence reads the head, so the steps' rows are
    stacked and the head projects, normalizes and mixes all of them in one
    call. Returns, one row per step: the final distributions (T, vocab_size
    + n_oov), the attention (T, n) and the coverage before each step (T, n).
    """
    hiddens, contexts, xs, attention_rows, coverages = [], [], [], [], []
    for y_prev in inputs:
        coverages.append(state.coverage)
        x, attention_row, _, state = recurrence_step(state, [y_prev], ctx,
                                                     params)
        hiddens.append(state.hidden)
        contexts.append(state.prev_context)
        xs.append(x)
        attention_rows.append(attention_row)
    attention = ad.concat(attention_rows, axis=0)
    final, _ = output_head(ad.concat(hiddens, axis=0),
                           ad.concat(contexts, axis=0), ad.concat(xs, axis=0),
                           attention, ctx, params)
    return final, attention, ad.concat(coverages, axis=0)


def coverage_loss(attention: Tensor, coverage: Tensor) -> Tensor:
    """Sum of elementwise minima between a step's attention and the
    coverage accumulated BEFORE it; zero on the first step. Given one row
    per step, one sum per step."""
    return ad.sum_rows(ad.minimum(attention, coverage))


# ---------------------------------------------------------------------------
# search


StepFn = Callable[[object, int], tuple[np.ndarray, object]]
"""(state, previous token) -> (log-probabilities over the extended
vocabulary, next state). Search routines only ever see this interface, so
toy models plug in directly. The model's step (``make_step_fn``) also takes
an R-row ``StepState`` with a sequence of R previous tokens and returns
(R, ·) log-probabilities."""


def make_step_fn(
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
    prob_floor: float = 1e-12,
) -> StepFn:
    def step(state: StepState, y_prev: int | Sequence[int]):
        final, _, _, new_state = decode_step(state, y_prev, ctx, params, mask=mask)
        return np.log(np.maximum(final.data, prob_floor)), new_state

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
    scored) at the final step."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tokens: list[int] = []
    log_prob = 0.0
    state = init_state
    prev = start_id
    for step in range(max_len):
        log_probs, state = step_fn(state, prev)
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

    An ``init_state`` that is a ``StepState`` is stepped as a batch: each
    search step gathers the live hypotheses' rows (``StepState.take``) and
    makes one ``step_fn(batch, previous tokens)`` call, and a hypothesis
    holds ``(that call's next state, its row)``. Any other state is stepped
    once per live hypothesis, ``step_fn(state, previous token)``.

    Each live hypothesis has one STOP candidate, so the scan never reads
    past its ``beam + len(live)``-th candidate. Cumulative scores are kept
    as one numpy array over every (live hypothesis, token) pair, and only
    the candidates scoring at least the ``beam + len(live)``-th best score,
    every tie at that cutoff included, become ``Hypothesis`` objects and
    are sorted. The result equals a full sort of all candidates.
    """
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    batched = isinstance(init_state, StepState)
    live = [Hypothesis([], 0.0, (init_state, 0) if batched else init_state)]
    finished: list[Hypothesis] = []
    for step in range(max_len):
        prevs = [hyp.tokens[-1] if hyp.tokens else start_id for hyp in live]
        if batched:
            batch = live[0].state[0].take([hyp.state[1] for hyp in live])
            log_probs, batch = step_fn(batch, prevs)
            states = [(batch, row) for row in range(len(live))]
        else:
            results = [step_fn(hyp.state, prev)
                       for hyp, prev in zip(live, prevs)]
            log_probs = np.stack([np.asarray(lp, dtype=np.float64)
                                  for lp, _ in results])
            states = [state for _, state in results]
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
