"""Training loop, Adagrad, and the binary checkpoint format.

The per-example loss is the token-averaged negative log-likelihood of the
gold summary under teacher forcing plus a weighted coverage penalty:

    (1/T) * sum over steps of [ -log(final(gold)) + weight * coverage_loss ]

with the predicted probability floored at 1e-12 before the log. Batch
gradients average the per-example gradients. A minibatch encodes all its
documents in one forward over their stacked rows, on one tape, and
decodes each on a tape of its own, which is backpropagated and freed
before the next document is decoded (``batch_gradients``); the encoder
tape's backward pass runs last, from the gradients the decoder tapes left
on its outputs. Every document's loss is bitwise its loss alone.

Adagrad follows the accumulator form: acc += g^2, theta -= lr * g /
sqrt(acc), with every accumulator initialized to a positive constant so no
epsilon is needed. Gradients are clipped by global norm before the step.

Checkpoints are a binary file: an 8-byte magic, a format version, a JSON
header (model config + digest, step counter, vocabulary hash, record
names), then one record per tensor (path, shape, little-endian float64
payload) in the header's order, and nothing after. Reloading reproduces
bitwise-identical forward passes. A checkpoint is written to a temporary
file beside its target and renamed over it, so an interrupted save leaves
the previous file as it was.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .corpus import EncodedExample
# decode_step and encode_document are bound here only because
# perfbench/tracing.py wraps training.decode_step and training.encode_document
from .decoder import (
    coverage_loss,
    decode_step,
    encode_document,
    encode_documents,
    initial_state,
    prepare_decoder,
    teacher_force,
)
from .encoder import EncodedDocument
from .fileio import atomic_write
from .gate import GatedDocument
from .model import ModelConfig, ModelParams

__all__ = [
    "TrainConfig",
    "LossStats",
    "EpochStats",
    "TrainResult",
    "NonFiniteGradientError",
    "NonFiniteLossError",
    "sequence_loss",
    "batch_gradients",
    "loss_from_rows",
    "adagrad_step",
    "clip_gradients",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "params_from_checkpoint",
    "Checkpoint",
    "CheckpointError",
]

PROB_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"SYNSUMCK"
CHECKPOINT_VERSION = 1
_ACC_PREFIX = "adagrad_acc/"   # record-path prefix of Adagrad accumulators
_EXTRA_PREFIX = "extra/"       # and of extra arrays
# every header key load_checkpoint reads, with its JSON type
_HEADER_KEYS = {
    "config": dict, "config_digest": str, "step": int, "vocab_hash": str,
    "params": list, "accumulators": list, "extras": list,
}


@dataclass
class TrainConfig:
    learning_rate: float = 0.15
    init_accumulator: float = 0.1
    coverage_weight: float = 1.0
    batch_size: int = 4
    epochs: int = 50
    seed: int = 0
    clip_norm: float = 2.0

    def __post_init__(self):
        for name in ("learning_rate", "init_accumulator", "coverage_weight",
                     "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.coverage_weight < 0:
            raise ValueError("coverage_weight must be nonnegative")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)!r}")


@dataclass
class LossStats:
    nll: float
    coverage: float
    steps: int

    @property
    def total(self) -> float:
        return self.nll + self.coverage


def loss_from_rows(
    final: Tensor,
    gold_ids: Sequence[int],
    attention: Tensor,
    coverage: Tensor,
    coverage_weight: float,
) -> tuple[Tensor, LossStats]:
    """Token-averaged NLL plus weighted coverage penalty, one row per step.

    ``final`` holds each step's distribution over the extended vocabulary,
    ``attention`` and ``coverage`` each step's attention and the coverage
    before it. The per-step terms are summed in step order, one addition at
    a time, as a step-by-step loss would sum them.
    """
    if not gold_ids:
        raise ValueError("empty decoding target")
    steps = len(gold_ids)
    p = ad.maximum(ad.pick_rows(final, gold_ids), PROB_FLOOR)
    nll_sum = ad.fold_sum(ad.mul(ad.log(p), -1.0))
    cov_sum = ad.fold_sum(coverage_loss(attention, coverage))
    loss = ad.mul(
        ad.add(nll_sum, ad.mul(cov_sum, coverage_weight)), 1.0 / steps
    )
    stats = LossStats(
        nll=float(nll_sum.data) / steps,
        coverage=coverage_weight * float(cov_sum.data) / steps,
        steps=steps,
    )
    return loss, stats


def sequence_loss(
    example: EncodedExample,
    params: ModelParams,
    coverage_weight: float,
    encoded: tuple[EncodedDocument, GatedDocument] | None = None,
) -> tuple[Tensor, LossStats]:
    """Teacher-forced loss of one example under the current parameters.

    ``encoded`` is the example's part of ``encode_documents`` over its batch;
    without it the example is encoded here, on the same tape."""
    if len(example.target_ids) < 2:
        raise ValueError("example has an empty target")
    enc, gated = encoded or encode_documents([example], params)[0]
    ctx = prepare_decoder(gated.gated, example, params)
    final, attention, coverage = teacher_force(
        initial_state(enc, params),
        example.target_ids[:-1],   # in-vocabulary ids feed the embedding
        ctx, params,
    )
    golds = example.target_ext_ids[1:]    # extended ids are what we must emit
    return loss_from_rows(final, golds, attention, coverage, coverage_weight)


class NonFiniteLossError(ArithmeticError):
    """A document's loss was NaN or infinite."""

    def __init__(self, position: int):
        super().__init__(f"non-finite loss on batch document {position}")
        self.position = position


def batch_gradients(
    batch: Sequence[EncodedExample],
    params: ModelParams,
    coverage_weight: float,
) -> list[LossStats]:
    """Add the gradient of the batch's mean loss into the parameters' grads.

    The encoder and gate run once over every document of the batch, on one
    tape. Then each document, in order, gets its own tape for the decoder
    and the loss, which is backpropagated and freed before the next one
    starts; it leaves its gradients on its part of the encoder's outputs.
    Only then does the encoder tape run its backward pass from those. Each
    document's loss is bitwise that of ``sequence_loss`` alone.

    Raises ``NonFiniteLossError`` at the first document whose loss is not
    finite; the grads are then partial.
    """
    def document_backward(position: int) -> LossStats:
        # the tape is freed on return, before the next document's forward
        with Tape() as tape:
            loss, stats = sequence_loss(batch[position], params,
                                        coverage_weight, encoded[position])
            if not np.isfinite(loss.data):
                raise NonFiniteLossError(position)
            tape.backward(ad.mul(loss, 1.0 / len(batch)))
        return stats

    with Tape() as encoder_tape:
        encoded = encode_documents(batch, params)
    stats = [document_backward(position) for position in range(len(batch))]
    encoder_tape.backward()
    return stats


# ---------------------------------------------------------------------------
# optimization


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or infinity; the step was aborted."""


def clip_gradients(
    grads: Mapping[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if max_norm <= 0 or norm <= max_norm:
        return dict(grads), norm
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}, norm


def adagrad_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: dict[str, np.ndarray],
    lr: float,
    init_acc: float,
) -> None:
    """acc += g^2; theta -= lr * g / sqrt(acc). Accumulators start at
    ``init_acc``, created on first touch. Aborts on non-finite gradients."""
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(
                f"non-finite gradient for parameter {name!r}"
            )
        if g.shape != tensor.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {tensor.shape} "
                f"for {name!r}"
            )
        acc = state.get(name)
        if acc is None:
            acc = np.full(tensor.shape, init_acc)
            state[name] = acc
        acc += g * g
        tensor.data -= lr * g / np.sqrt(acc)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    step: int
    nll: float
    coverage: float
    total: float
    grad_norm: float    # mean global gradient norm of the batches, pre-clip
    clip_rate: float    # share of the batches whose gradients were clipped

    def log_line(self) -> str:
        return (
            f"epoch {self.epoch} step {self.step} nll {self.nll:.6f} "
            f"coverage {self.coverage:.6f} total {self.total:.6f}"
        )


@dataclass
class TrainResult:
    params: ModelParams
    accumulators: dict[str, np.ndarray]
    history: list[EpochStats]
    halted: bool = False
    halt_reason: str | None = None

    @property
    def final_loss(self) -> float:
        return self.history[-1].total if self.history else float("nan")


def train(
    examples: Sequence[EncodedExample],
    model_config: ModelConfig,
    train_config: TrainConfig,
    on_epoch: Callable[[EpochStats], None] | None = None,
    stop_below: float | None = None,
) -> TrainResult:
    """Deterministic training given the seed (init and shuffling included).

    A non-finite loss or gradient halts training and restores the parameter
    snapshot from the last completed epoch. ``stop_below`` ends training
    early once the epoch-mean total loss falls under the threshold.
    """
    if not examples:
        raise ValueError("cannot train on an empty corpus")
    params = ModelParams(model_config, seed=train_config.seed)
    # disabling coverage removes the attention feature and the penalty both
    coverage_weight = (
        train_config.coverage_weight if model_config.use_coverage else 0.0
    )
    named = params.named_tensors()
    accumulators: dict[str, np.ndarray] = {}
    shuffle_rng = random.Random(train_config.seed)
    order = list(range(len(examples)))
    history: list[EpochStats] = []
    step = 0
    snapshot = {name: t.data.copy() for name, t in named.items()}
    acc_snapshot: dict[str, np.ndarray] = {}

    def halt(reason: str) -> TrainResult:
        for name, t in named.items():
            t.data[...] = snapshot[name]
        accumulators.clear()
        accumulators.update(acc_snapshot)
        return TrainResult(params, accumulators, history, halted=True,
                           halt_reason=reason)

    for epoch in range(train_config.epochs):
        shuffle_rng.shuffle(order)
        epoch_nll = epoch_cov = epoch_norm = 0.0
        clipped = batches = 0
        for lo in range(0, len(order), train_config.batch_size):
            batch = order[lo:lo + train_config.batch_size]
            params.zero_grads()
            try:
                batch_stats = batch_gradients([examples[i] for i in batch],
                                              params, coverage_weight)
            except NonFiniteLossError as exc:
                return halt(f"non-finite loss on example {batch[exc.position]}")
            for stats in batch_stats:
                epoch_nll += stats.nll
                epoch_cov += stats.coverage
            grads = {
                name: t.grad for name, t in named.items() if t.grad is not None
            }
            grads, norm = clip_gradients(grads, train_config.clip_norm)
            epoch_norm += norm
            clipped += 0 < train_config.clip_norm < norm
            batches += 1
            try:
                adagrad_step(named, grads, accumulators,
                             train_config.learning_rate,
                             train_config.init_accumulator)
            except NonFiniteGradientError as exc:
                return halt(str(exc))
            step += 1
        n = len(examples)
        entry = EpochStats(
            epoch=epoch,
            step=step,
            nll=epoch_nll / n,
            coverage=epoch_cov / n,
            total=(epoch_nll + epoch_cov) / n,
            grad_norm=epoch_norm / batches,
            clip_rate=clipped / batches,
        )
        history.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
        snapshot = {name: t.data.copy() for name, t in named.items()}
        acc_snapshot = {name: a.copy() for name, a in accumulators.items()}
        if stop_below is not None and entry.total < stop_below:
            break
    return TrainResult(params, accumulators, history)


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(ValueError):
    """Checkpoint file is malformed or incompatible."""


@dataclass
class Checkpoint:
    config: ModelConfig
    arrays: dict[str, np.ndarray]          # trainable parameters by path
    accumulators: dict[str, np.ndarray]    # optimizer state by parameter path
    extras: dict[str, np.ndarray]          # e.g. content-selector weights
    step: int
    vocab_hash: str


def config_digest(config: ModelConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_record(fh, path: str, array: np.ndarray) -> None:
    encoded = path.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    arr = np.asarray(array, dtype="<f8")
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(arr.tobytes(order="C"))


class _Reader:
    """Cursor over a checkpoint's bytes; every short read is an error."""

    def __init__(self, blob: bytes):
        self._view = memoryview(blob)
        self._pos = 0

    def take(self, size: int, what: str) -> memoryview:
        end = self._pos + size
        if end > len(self._view):
            raise CheckpointError(f"truncated checkpoint: {what}")
        chunk = self._view[self._pos:end]
        self._pos = end
        return chunk

    def unpack(self, fmt: str, what: str) -> int:
        (value,) = struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
        return value

    @property
    def remaining(self) -> int:
        return len(self._view) - self._pos


def _read_record(reader: _Reader) -> tuple[str, np.ndarray]:
    path_len = reader.unpack("<I", "missing record header")
    path = str(reader.take(path_len, "record path"), "utf-8")
    ndim = reader.unpack("<I", f"record header of tensor {path!r}")
    shape = tuple(reader.unpack("<Q", f"shape of tensor {path!r}")
                  for _ in range(ndim))
    payload = reader.take(math.prod(shape) * 8,
                          f"payload of tensor {path!r}")
    array = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return path, array.reshape(shape)


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    step: int,
    vocab_hash: str,
    accumulators: Mapping[str, np.ndarray] | None = None,
    extras: Mapping[str, np.ndarray] | None = None,
) -> Path:
    path = Path(path)
    named = params.named_tensors()
    accumulators = dict(accumulators or {})
    extras = dict(extras or {})
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "config_digest": config_digest(params.config),
        "step": step,
        "vocab_hash": vocab_hash,
        "params": list(named),
        "accumulators": list(accumulators),
        "extras": list(extras),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, tensor in named.items():
            _write_record(fh, name, tensor.data)
        for name, acc in accumulators.items():
            _write_record(fh, f"{_ACC_PREFIX}{name}", acc)
        for name, arr in extras.items():
            _write_record(fh, f"{_EXTRA_PREFIX}{name}", arr)
    return path


def load_checkpoint(source: str | Path | bytes) -> Checkpoint:
    """Parse a checkpoint from a path, or from the file's bytes already read
    (so a caller can hash exactly the bytes that were parsed)."""
    blob = source if isinstance(source, bytes) else Path(source).read_bytes()
    reader = _Reader(blob)
    magic = bytes(reader.take(len(CHECKPOINT_MAGIC), "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}: not a checkpoint file")
    version = reader.unpack("<I", "format version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header_len = reader.unpack("<Q", "header length")
    header = _parse_header(bytes(reader.take(header_len, "header")))
    try:
        config = ModelConfig.from_dict(header["config"])
    except ValueError as exc:
        raise CheckpointError(f"bad config in checkpoint header: {exc}") from None
    if config_digest(config) != header["config_digest"]:
        raise CheckpointError("config digest mismatch in checkpoint header")
    sections: dict[str, dict[str, np.ndarray]] = {
        "params": {}, "accumulators": {}, "extras": {},
    }
    for key, prefix in (("params", ""), ("accumulators", _ACC_PREFIX),
                        ("extras", _EXTRA_PREFIX)):
        for name in header[key]:
            path, array = _read_record(reader)
            if path != prefix + name:
                raise CheckpointError(
                    f"checkpoint record {path!r} where the header lists "
                    f"{prefix + name!r}"
                )
            sections[key][name] = array
    if reader.remaining:
        raise CheckpointError(
            f"{reader.remaining} trailing bytes after the last checkpoint record"
        )
    return Checkpoint(
        config=config,
        arrays=sections["params"],
        accumulators=sections["accumulators"],
        extras=sections["extras"],
        step=header["step"],
        vocab_hash=header["vocab_hash"],
    )


def _parse_header(blob: bytes) -> dict:
    try:
        header = json.loads(blob)
    except ValueError as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    for key, kind in _HEADER_KEYS.items():
        if key not in header:
            raise CheckpointError(f"checkpoint header lacks {key!r}")
        value = header[key]
        if type(value) is not kind or (
            kind is list and not all(type(name) is str for name in value)
        ):
            raise CheckpointError(f"checkpoint header {key!r} is malformed")
    return header


def params_from_checkpoint(ckpt: Checkpoint) -> ModelParams:
    """The checkpoint's parameters; the tensors share ``ckpt.arrays``'
    memory rather than copying it."""
    return ModelParams(ckpt.config, arrays=ckpt.arrays)
