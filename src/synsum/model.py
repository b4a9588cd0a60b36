"""Model configuration and the trainable-parameter container.

Every trainable tensor is addressable by a stable path (``named_tensors``),
which is what the optimizer, the checkpoint format and gradient checking
key on. Decoder input embeddings are shared with the encoder embedding
matrix.

Ablations: ``ablate_gate`` bypasses the selective gate (its parameters stay
allocated and simply receive zero gradient); ``ablate_gcn`` removes the
graph convolutions AND the gate, so the encoder output is exactly the
BiLSTM state and the model degrades to a plain attention/coverage
summarizer.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import Mapping

import numpy as np

from .autodiff import Tensor

__all__ = ["ModelConfig", "ModelParams"]


@dataclass
class ModelConfig:
    vocab_size: int
    d_emb: int = 25
    d_h: int = 32           # per-direction LSTM width; semantic states are 2*d_h
    d_g: int = 64           # graph-convolution width
    gcn_layers: int = 2
    d_dec: int = 64         # decoder LSTM width
    d_attn: int = 64        # additive-attention width
    ablate_gate: bool = False
    ablate_gcn: bool = False
    use_coverage: bool = True
    tie_fwd_bwd: bool = False  # share one weight matrix across both dependency directions

    def __post_init__(self):
        for name in ("d_emb", "d_h", "d_g", "d_dec", "d_attn"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)!r}")
        if self.gcn_layers < 0:
            raise ValueError(f"gcn_layers must be nonnegative, got "
                             f"{self.gcn_layers!r}")

    @property
    def enc_dim(self) -> int:
        """Width of the fused per-token state handed to gate and decoder."""
        if self.ablate_gcn:
            return 2 * self.d_h
        return 2 * self.d_h + self.d_g

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Rebuild a config from ``to_dict`` output; a missing required key,
        an unknown key or a value of the wrong type raises ValueError."""
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown model config keys {unknown}")
        for name, f in known.items():
            if name not in data:
                if f.default is MISSING:
                    raise ValueError(f"model config lacks {name!r}")
            elif type(data[name]).__name__ != f.type:
                raise ValueError(
                    f"model config {name!r} must be {f.type}, got {data[name]!r}"
                )
        return cls(**data)


class ModelParams:
    """All trainable weights, initialized uniform(-0.1, 0.1), biases zero.

    Construction order is fixed so a given seed always yields the same
    values; ``named_tensors`` iterates in that order. With ``tie_fwd_bwd``
    the two dependency directions share one tensor object, listed once.

    Given ``arrays`` (path-keyed values, as a checkpoint holds them) the
    tensors take those values instead and nothing is drawn; a float64
    C-contiguous array is used as is, without a copy. The paths must match
    the config's exactly, shapes included, or ValueError is raised.
    """

    INIT_SCALE = 0.1

    def __init__(self, config: ModelConfig, seed: int = 0,
                 arrays: Mapping[str, np.ndarray] | None = None):
        self.config = config
        self._named: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed) if arrays is None else None

        def tensor(name: str, shape: tuple[int, ...], drawn: bool) -> Tensor:
            if arrays is None:
                value = (rng.uniform(-self.INIT_SCALE, self.INIT_SCALE, shape)
                         if drawn else np.zeros(shape))
            elif name not in arrays:
                value = np.zeros(shape)  # reported with the other paths below
            else:
                value = np.asarray(arrays[name], dtype=np.float64)
                if value.shape != shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {shape}"
                    )
            t = Tensor(value, requires_grad=True)
            self._named[name] = t
            return t

        def weight(name: str, *shape: int) -> Tensor:
            return tensor(name, shape, drawn=True)

        def bias(name: str, *shape: int) -> Tensor:
            return tensor(name, shape, drawn=False)

        c = config
        d = c.enc_dim
        self.embedding = weight("embedding", c.vocab_size, c.d_emb)

        self.lstm_fw = {
            "W_x": weight("lstm_fw/W_x", c.d_emb, 4 * c.d_h),
            "W_h": weight("lstm_fw/W_h", c.d_h, 4 * c.d_h),
            "b": bias("lstm_fw/b", 4 * c.d_h),
        }
        self.lstm_bw = {
            "W_x": weight("lstm_bw/W_x", c.d_emb, 4 * c.d_h),
            "W_h": weight("lstm_bw/W_h", c.d_h, 4 * c.d_h),
            "b": bias("lstm_bw/b", 4 * c.d_h),
        }

        # projection from semantic width onto the graph-convolution width;
        # identity (absent) when the widths already agree
        self.gcn_input_proj = (
            weight("gcn_input_proj", 2 * c.d_h, c.d_g)
            if 2 * c.d_h != c.d_g
            else None
        )

        self.gcn: list[dict] = []
        for layer in range(c.gcn_layers):
            if c.tie_fwd_bwd:
                dep = weight(f"gcn/{layer}/dep", c.d_g, c.d_g)
                layer_weights = {"fwd": dep, "bwd": dep}
            else:
                layer_weights = {
                    "fwd": weight(f"gcn/{layer}/fwd", c.d_g, c.d_g),
                    "bwd": weight(f"gcn/{layer}/bwd", c.d_g, c.d_g),
                }
            layer_weights["self"] = weight(f"gcn/{layer}/self", c.d_g, c.d_g)
            layer_weights["adj"] = weight(f"gcn/{layer}/adj", c.d_g, c.d_g)
            layer_weights["bias"] = bias(f"gcn/{layer}/bias", c.d_g)
            self.gcn.append(layer_weights)

        self.gate = {
            "score_W": weight("gate/score_W", d, d),   # token projection for scoring
            "score_b": bias("gate/score_b", d),
            "query": weight("gate/query", d),           # learned scoring query vector
            "token_W": weight("gate/token_W", d, d),
            "doc_W": weight("gate/doc_W", d, d),
            "b": bias("gate/b", d),
        }

        self.dec_init = {
            "h_W": weight("dec/init_h_W", 2 * c.d_h, c.d_dec),
            "h_b": bias("dec/init_h_b", c.d_dec),
            "c_W": weight("dec/init_c_W", 2 * c.d_h, c.d_dec),
            "c_b": bias("dec/init_c_b", c.d_dec),
        }
        self.dec_cell = {
            "W_x": weight("dec/cell/W_x", c.d_emb + d, 4 * c.d_dec),
            "W_h": weight("dec/cell/W_h", c.d_dec, 4 * c.d_dec),
            "b": bias("dec/cell/b", 4 * c.d_dec),
        }
        self.attn = {
            "enc_W": weight("dec/attn/enc_W", d, c.d_attn),
            "dec_W": weight("dec/attn/dec_W", c.d_dec, c.d_attn),
            "cov_w": weight("dec/attn/cov_w", c.d_attn),
            "b": bias("dec/attn/b", c.d_attn),
            "v": weight("dec/attn/v", c.d_attn),
        }
        self.out_proj = {
            "W": weight("dec/out_W", c.d_dec + d, c.vocab_size),
            "b": bias("dec/out_b", c.vocab_size),
        }
        self.pgen = {
            "ctx_w": weight("dec/pgen/ctx_w", d),
            "state_w": weight("dec/pgen/state_w", c.d_dec),
            "x_w": weight("dec/pgen/x_w", c.d_emb + d),
            "b": bias("dec/pgen/b"),
        }

        if arrays is not None:
            missing = set(self._named) - set(arrays)
            extra = set(arrays) - set(self._named)
            if missing or extra:
                raise ValueError(
                    f"parameter paths do not match: missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)}"
                )

    def named_tensors(self) -> dict[str, Tensor]:
        return dict(self._named)

    def zero_grads(self) -> None:
        for t in self._named.values():
            t.zero_grad()
