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

A step has two halves. The recurrence (``recurrence_step``: embedding,
LSTM cell, coverage attention, context) carries the state from step to
step. The output head (``output_head``: the vocabulary projection of
``[hidden; context]``, its softmax, p_gen, the copy scatter and the
mixture) takes one row per step, any number of rows at once, and nothing in
the recurrence reads it. ``decode_step`` runs the head over its one row;
under teacher forcing (``teacher_force``) the head runs once over the rows
of all T steps, so the vocabulary projection is one (T x k) by (k x V)
product. Each row is bitwise the value of that step run alone.

At inference a content-selector mask can restrict the copy distribution to
source tokens scoring at least a threshold; the attention used for the
context vector and coverage stays unmasked, and an empty selection falls
back to the unmasked distribution rather than failing.

Beam search ranks finished hypotheses by log-probability divided by the
length penalty ((5 + len) / 6) ** alpha, where len counts emitted tokens
including STOP. Score ties are broken toward the lexicographically smaller
token sequence. Hypotheses still alive at the step limit are forced to emit
STOP, scored like any other token. Each step scores every (live hypothesis,
token) pair in one numpy array and builds hypotheses only for the short
list that can reach the beam: the ``beam + len(live)`` best scores plus
every candidate tied with the last of them, so the tie rule above still
decides on exact scores.
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
    hidden: Tensor              # (1, d_dec)
    cell: Tensor                # (1, d_dec)
    coverage: Tensor            # (n,) running sum of past attention
    prev_context: Tensor        # (1, d) context row fed to the next input
    prev_token: int = START_ID


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


def encode_document(
    example: EncodedExample, params: ModelParams
) -> tuple[EncodedDocument, GatedDocument, DecodeContext]:
    """Encoder, gate and decode-context in one call; the shared forward."""
    enc = encode(example, params)
    gated = apply_gate(enc.fused, params)
    ctx = prepare_decoder(gated.gated, example, params)
    return enc, gated, ctx


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
        coverage=Tensor(np.zeros(enc.n)),
        prev_context=Tensor(np.zeros((1, config.enc_dim))),
        prev_token=START_ID,
    )


def recurrence_step(
    state: StepState,
    y_prev: int,
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
) -> tuple[Tensor, Tensor, Tensor, StepState]:
    """The recurrent half of one decoder step: embedding, LSTM cell,
    coverage attention and context.

    Returns (LSTM input row ``[embedding; previous context]``, attention
    over source positions, copy-attention row (1, n), next state). The
    copy row is the attention row unless ``mask`` changes it.
    """
    config = params.config
    n = ctx.n

    input_id = y_prev if y_prev < config.vocab_size else UNK_ID
    emb = ad.gather_rows(params.embedding, [input_id])
    x = ad.concat([emb, state.prev_context], axis=1)
    dec_cell = params.dec_cell
    hidden, cell = ad.lstm_cell(ad.matmul(x, dec_cell["W_x"]), state.hidden,
                                state.cell, dec_cell["W_h"], dec_cell["b"])

    attn = params.attn
    dec_proj = ad.reshape(ad.matmul(hidden, attn["dec_W"]), (config.d_attn,))
    features = ad.add_rowvec(
        ad.add_rowvec(ctx.enc_attn_proj, dec_proj), attn["b"]
    )
    if config.use_coverage:
        features = ad.add(features, ad.outer(state.coverage, attn["cov_w"]))
    scores = ad.reshape(ad.matmul(ad.tanh(features), ctx.attn_v), (n,))
    attention = ad.softmax(scores)

    # masked copy attention renormalizes the same scores over the selection;
    # context, coverage and the returned attention stay unmasked
    copy_attention = attention
    if mask is not None:
        if mask.damp:
            # inference-only reweighting by selection probability
            damped = attention.data * mask.q
            total = damped.sum()
            if total > 0:
                copy_attention = Tensor(damped / total)
            else:
                logger.warning(
                    "content mask damped all attention away; "
                    "falling back to unmasked attention"
                )
        else:
            selected = mask.selected()
            if not selected.any():
                logger.warning(
                    "content mask selected no tokens (threshold %.3f); "
                    "falling back to unmasked attention",
                    mask.threshold,
                )
            elif not selected.all():
                copy_attention = ad.softmax(scores, mask=selected)

    attention_row = ad.reshape(attention, (1, n))
    copy_row = (attention_row if copy_attention is attention
                else ad.reshape(copy_attention, (1, n)))

    new_state = StepState(
        hidden=hidden,
        cell=cell,
        coverage=ad.add(state.coverage, attention),
        prev_context=ad.matmul(attention_row, ctx.enc_states),
        prev_token=y_prev,
    )
    return x, attention, copy_row, new_state


def output_head(
    hidden: Tensor,
    context: Tensor,
    x: Tensor,
    copy_attention: Tensor,
    ctx: DecodeContext,
    params: ModelParams,
    force_p_gen: float | None = None,
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
    if force_p_gen is None:
        pg = params.pgen
        p_gen = ad.sigmoid(ad.add(
            ad.add(_column_dot(context, pg["ctx_w"]),
                   _column_dot(hidden, pg["state_w"])),
            ad.add(_column_dot(x, pg["x_w"]), pg["b"]),
        ))
    else:
        p_gen = Tensor(np.full((hidden.shape[0], 1), float(force_p_gen)))
    final = ad.pointer_mix(vocab_dist, copy_attention, p_gen,
                           ctx.source_ext_ids,
                           params.config.vocab_size + ctx.n_oov)
    return final, p_gen


def _column_dot(rows: Tensor, w: Tensor) -> Tensor:
    """(R, k) rows times a (k,) weight vector as an (R, 1) column."""
    return ad.matmul(rows, ad.reshape(w, (w.shape[0], 1)))


def decode_step(
    state: StepState,
    y_prev: int,
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
    force_p_gen: float | None = None,
) -> tuple[Tensor, Tensor, Tensor, StepState]:
    """One decoder step: the recurrence, then the output head over its row.

    Returns (final distribution over vocab_size + n_oov, attention over
    source positions, p_gen scalar, next state). ``force_p_gen`` pins the
    generation/copy mixture weight, for endpoint tests.
    """
    x, attention, copy_row, new_state = recurrence_step(
        state, y_prev, ctx, params, mask
    )
    final, p_gen = output_head(new_state.hidden, new_state.prev_context, x,
                               copy_row, ctx, params, force_p_gen)
    return (ad.reshape(final, (final.shape[1],)), attention,
            ad.reshape(p_gen, ()), new_state)


def teacher_force(
    state: StepState,
    inputs: Sequence[int],
    ctx: DecodeContext,
    params: ModelParams,
) -> tuple[Tensor, Tensor, Tensor]:
    """Decode ``inputs`` under teacher forcing, the output head run once.

    Nothing in the recurrence reads the head, so the steps' rows are
    stacked and the head projects, normalizes and mixes all of them in one
    call. Returns, one row per step: the final distributions (T, vocab_size
    + n_oov), the attention (T, n) and the coverage before each step (T, n).
    """
    hiddens, contexts, xs, attention_rows, coverages = [], [], [], [], []
    for y_prev in inputs:
        coverages.append(state.coverage)
        # without a mask the copy row is the attention row
        x, _, attention_row, state = recurrence_step(state, y_prev, ctx, params)
        hiddens.append(state.hidden)
        contexts.append(state.prev_context)
        xs.append(x)
        attention_rows.append(attention_row)
    attention = ad.concat(attention_rows, axis=0)
    final, _ = output_head(ad.concat(hiddens, axis=0),
                           ad.concat(contexts, axis=0), ad.concat(xs, axis=0),
                           attention, ctx, params)
    return final, attention, ad.stack(coverages)


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
toy models plug in directly."""


def make_step_fn(
    ctx: DecodeContext,
    params: ModelParams,
    mask: ContentMask | None = None,
    prob_floor: float = 1e-12,
) -> StepFn:
    def step(state: StepState, y_prev: int):
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
    live = [Hypothesis([], 0.0, init_state)]
    finished: list[Hypothesis] = []
    for step in range(max_len):
        expanded = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else start_id
            log_probs, state = step_fn(hyp.state, prev)
            expanded.append((hyp, np.asarray(log_probs, dtype=np.float64),
                             state))
        if step == max_len - 1:
            candidates = [
                Hypothesis(hyp.tokens + [stop_id],
                           hyp.log_prob + float(log_probs[stop_id]),
                           state, finished=True)
                for hyp, log_probs, state in expanded
            ]
        else:
            candidates = _top_candidates(expanded, beam + len(live), stop_id)
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
    expanded: list[tuple[Hypothesis, np.ndarray, object]],
    k: int,
    stop_id: int,
) -> list[Hypothesis]:
    """Every one-token extension scoring at least the k-th best score.

    Scores form one (live x extended vocabulary) array of
    ``hyp.log_prob + log_probs``, the same float64 addition as adding each
    token's log-probability on its own. Keeping every tie at the cutoff
    makes the result a prefix of the fully sorted candidates.
    """
    scores = np.stack(
        [hyp.log_prob + log_probs for hyp, log_probs, _ in expanded]
    ).ravel()
    if scores.size > k:
        cutoff = np.partition(scores, scores.size - k)[scores.size - k]
        picked = np.flatnonzero(scores >= cutoff)
    else:
        picked = np.arange(scores.size)
    rows, tokens = np.divmod(picked, expanded[0][1].size)
    candidates = []
    for index, row, token in zip(picked.tolist(), rows.tolist(),
                                 tokens.tolist()):
        hyp, _, state = expanded[row]
        candidates.append(Hypothesis(hyp.tokens + [token],
                                     float(scores[index]), state,
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
