"""Training loop, Adagrad, and the binary checkpoint format.

The per-example loss is the token-averaged negative log-likelihood of the
gold summary under teacher forcing plus a weighted coverage penalty:

    (1/T) * sum over steps of [ -log(final(gold))
                                + weight * sum(minimum(attention, coverage)) ]

with the predicted probability floored at 1e-12 before the log. Batch
gradients average the per-example gradients. A minibatch encodes all its
documents in one forward over their stacked rows and runs their
teacher-forced decoder recurrence in lockstep (``decoder.teacher_force``),
both on one tape, the recurrence as one ``ad.decoder_scan`` node. Each
document's output head and loss then get a tape of their own, one
``ad.pointer_head`` node and the batch mean's scaling, which is
backpropagated and freed before the next document's head is built
(``batch_gradients``): at a realistic vocabulary the head is most of the
memory. The batch tape's backward pass runs last, from the gradients the
head tapes left on the documents' rows of the recurrence, and carries them
through the recurrence into the encoder. Every document's loss is bitwise
its loss alone, and each sum of the loss folds in step order: the NLL
terms, then the coverage terms, each document's row sums of
``minimum(attention, coverage)`` summed pairwise within the row.

Adagrad follows the accumulator form: acc += g^2, theta -= lr * g /
sqrt(acc), with every accumulator initialized to a positive constant so no
epsilon is needed. Gradients are clipped by global norm before the step.

Checkpoints are a binary file: an 8-byte magic, a format version, a JSON
header (model config + digest, step counter, vocabulary hash, record
names), then one record per tensor (path, shape, zero bytes up to the next
8-byte file offset, little-endian float64 payload) in the header's order,
and nothing after. Loading maps the file copy-on-write and views each
payload in place, aligned, without copying it; the arrays are writable,
and a write to one never reaches the file. Reloading reproduces
bitwise-identical forward passes. A checkpoint is written to a temporary
file beside its target and renamed over it, so an interrupted save leaves
the previous file as it was, and a mapping of it stays valid.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
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
    ForcedRows,
    decode_step,
    encode_batch,
    encode_document,
    output_head,
    teacher_force,
)
from .fileio import atomic_write
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
    "adagrad_step",
    "clip_gradients",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "map_checkpoint",
    "params_from_checkpoint",
    "Checkpoint",
    "CheckpointError",
]

CHECKPOINT_MAGIC = b"SYNSUMCK"
CHECKPOINT_VERSION = 3
_ACC_PREFIX = "adagrad_acc/"   # record-path prefix of Adagrad accumulators
_EXTRA_PREFIX = "extra/"       # and of extra arrays
# every header key load_checkpoint reads, with its JSON type
_HEADER_KEYS = {
    "config": dict, "config_digest": str, "step": int, "vocab_hash": str,
    "params": list, "accumulators": list, "extras": list,
}


# values per block of an Adagrad update: two scratch arrays of 512 KB, where
# scratch the size of the largest parameter (dec/out_W, 15 MB at V = 20,000)
# raised the peak resident memory of a training step
_ADAGRAD_BLOCK = 65_536


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
        for name in ("learning_rate", "init_accumulator"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)!r}")
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


def sequence_loss(
    example: EncodedExample,
    params: ModelParams,
    coverage_weight: float,
    encoded: ForcedRows | None = None,
) -> tuple[Tensor, LossStats]:
    """Teacher-forced loss of one example under the current parameters: its
    output head over the rows of its recurrence, then the loss.

    ``encoded`` is the example's rows of ``teacher_force`` over its batch;
    without it the example is encoded and its recurrence run here, as a
    batch of one, on the same tape."""
    if len(example.target_ids) < 2:
        raise ValueError("example has an empty target")
    rows = encoded or teacher_force(
        [example], encode_batch([example], params), params)[0]
    golds = example.target_ext_ids[1:]    # extended ids are what we must emit
    loss, nll_sum, cov_sum = output_head(
        rows.hidden, rows.context, rows.x, rows.attention,
        example.source_ext_ids, len(example.oov_tokens), params, golds,
        rows.coverage, coverage_weight)
    steps = len(golds)
    return loss, LossStats(nll=nll_sum / steps,
                           coverage=coverage_weight * cov_sum / steps,
                           steps=steps)


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

    The encoder, the gate and the teacher-forced decoder recurrence run once
    over every document of the batch, on one tape (the recurrence in
    lockstep, ``decoder.teacher_force``). Then each document, in order, gets
    its own tape for its output head and loss, which is backpropagated and
    freed before the next one starts; it leaves its gradients on its rows
    of the recurrence. Only then does the batch tape run its backward pass
    from those. Each document's loss is bitwise that of ``sequence_loss``
    alone.

    Raises ``NonFiniteLossError`` at the first document whose loss is not
    finite; the grads are then partial.
    """
    def document_backward(position: int) -> LossStats:
        # the tape is freed on return, before the next document's head
        with Tape() as tape:
            loss, stats = sequence_loss(batch[position], params,
                                        coverage_weight, rows[position])
            if not np.isfinite(loss.data):
                raise NonFiniteLossError(position)
            tape.backward(ad.mul(loss, 1.0 / len(batch)))
        return stats

    with Tape() as batch_tape:
        rows = teacher_force(batch, encode_batch(batch, params), params)
    stats = [document_backward(position) for position in range(len(batch))]
    batch_tape.backward()
    return stats


# ---------------------------------------------------------------------------
# optimization


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or infinity; the step was aborted."""


def clip_gradients(
    grads: Mapping[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients in place so their global L2 norm is at most
    ``max_norm``; returns them and the norm before clipping.

    Each gradient is squared into one scratch array the size of the largest,
    so the norm is bitwise ``sum((g * g).sum())`` and the scaled arrays
    bitwise ``g * scale``."""
    square = np.empty(max((g.size for g in grads.values()), default=0))
    total = 0.0
    for g in grads.values():
        total += float(np.multiply(g, g, out=square[:g.size].reshape(g.shape))
                       .sum())
    norm = total ** 0.5
    if max_norm > 0 and not norm <= max_norm:  # a NaN norm clips, too
        scale = max_norm / norm
        for g in grads.values():
            np.multiply(g, scale, out=g)
    return dict(grads), norm


def adagrad_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: dict[str, np.ndarray],
    lr: float,
    init_acc: float,
) -> None:
    """acc += g^2; theta -= lr * g / sqrt(acc). Accumulators start at
    ``init_acc``, created on first touch. Aborts on non-finite gradients.

    Updates in place, ``_ADAGRAD_BLOCK`` values at a time (or the largest
    parameter's, if fewer) through two scratch arrays of that size, in the
    expression's operation order, so parameters and accumulators get
    bitwise the expression's values."""
    block = min(_ADAGRAD_BLOCK,
                max((t.size for t in params.values()), default=0))
    scratch = (np.empty(block), np.empty(block))
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
        g, acc, theta = (a.reshape(-1) for a in (g, acc, tensor.data))
        for lo in range(0, g.size, block):
            hi = lo + block
            g_block, acc_block = g[lo:hi], acc[lo:hi]
            square, step = (s[:len(g_block)] for s in scratch)
            acc_block += np.multiply(g_block, g_block, out=square)
            np.multiply(lr, g_block, out=step)
            theta[lo:hi] -= np.divide(step, np.sqrt(acc_block, out=square),
                                      out=step)


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
    fh.write(bytes(-fh.tell() % 8))  # the payload starts 8-byte aligned
    fh.write(arr.tobytes(order="C"))


class _Reader:
    """Cursor over a checkpoint's bytes; every short read is an error."""

    def __init__(self, buffer):
        self._view = memoryview(buffer)
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
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._view) - self._pos


def _read_record(reader: _Reader, path: str) -> np.ndarray:
    """The array of the next record, which the header lists as ``path``."""
    path_len = reader.unpack("<I", "missing record header")
    raw = bytes(reader.take(path_len, "record path"))
    if raw != path.encode("utf-8"):
        raise CheckpointError(
            f"checkpoint record {str(raw, 'utf-8', 'replace')!r} where the "
            f"header lists {path!r}"
        )
    ndim = reader.unpack("<I", f"record header of tensor {path!r}")
    shape = tuple(reader.unpack("<Q", f"shape of tensor {path!r}")
                  for _ in range(ndim))
    padding = reader.take(-reader.position % 8, f"padding of tensor {path!r}")
    if any(padding):
        raise CheckpointError(f"non-zero padding before tensor {path!r}")
    payload = reader.take(math.prod(shape) * 8,
                          f"payload of tensor {path!r}")
    try:
        # a view of the buffer, not a copy
        return np.frombuffer(payload, dtype="<f8").reshape(shape)
    except ValueError as exc:  # numpy refuses the shape itself
        raise CheckpointError(
            f"impossible shape of tensor {path!r}: {exc}") from None


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


def map_checkpoint(path: str | Path) -> mmap.mmap:
    """A private, copy-on-write mapping of the checkpoint file at ``path``:
    writable, and no write to it reaches the file."""
    with open(path, "rb") as fh:
        if not os.fstat(fh.fileno()).st_size:
            raise CheckpointError("truncated checkpoint: empty file")
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)


def load_checkpoint(source: str | Path | bytes | mmap.mmap) -> Checkpoint:
    """Parse a checkpoint from a path (mapped with ``map_checkpoint``), from
    a mapping already made (so a caller can hash exactly the bytes that were
    parsed), or from the file's bytes, which are copied once so that the
    arrays are writable. The arrays view the mapping or that copy."""
    if isinstance(source, (str, Path)):
        source = map_checkpoint(source)
    elif isinstance(source, bytes):
        source = bytearray(source)
    reader = _Reader(source)
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
            sections[key][name] = _read_record(reader, prefix + name)
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
