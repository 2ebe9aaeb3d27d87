"""Transformer encoder: embeddings, banded-attention blocks, MLM head.

Blocks are post-layer-norm residual (x = LN(x + sublayer(x))). Position
embeddings are learned absolute vectors; position-type embeddings carry the
question/choice distinction (0/1). The MLM output projection is untied.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .attention import AttentionParams, AttentionPattern, sparse_attention_forward, dense_attention_oracle
from .checkpoint import load_arrays, save_arrays
from .vocab import CLS_ID, MASK_ID, N_SPECIAL, PAD_ID, SEP_ID, UNK_ID  # noqa: F401  (re-exported)


@dataclass
class EncoderConfig:
    n_layers: int = 2
    n_heads: int = 2
    hidden_dim: int = 64
    ffn_dim: int = 128
    vocab_size: int = 128
    max_positions: int = 512          # paper-scale runs use 4096
    n_position_types: int = 2
    window: int = 4
    dilation: tuple[int, ...] | None = None
    dropout: float = 0.0

    def __post_init__(self):
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError("hidden_dim must be divisible by n_heads")

    def default_pattern(self, global_positions=()) -> AttentionPattern:
        return AttentionPattern(window=self.window,
                                dilation_per_head=self.dilation,
                                global_positions=tuple(global_positions))

    def save(self, path) -> None:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif v is None:
                v = ""
            lines.append(f"{f.name}={v}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EncoderConfig":
        kwargs = {}
        casts = {f.name: f.type for f in fields(cls)}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in casts:
                raise KeyError(f"unknown config key {key!r}")
            if key == "dilation":
                kwargs[key] = tuple(int(x) for x in raw.split(",")) if raw else None
            elif key == "dropout":
                kwargs[key] = float(raw)
            else:
                kwargs[key] = int(raw)
        return cls(**kwargs)


class Encoder:
    """Parameter container + forward passes for the encoder stack."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator,
                 dtype=np.float32, init_scale: float = 0.02):
        self.config = config
        self.dtype = dtype
        H, F, V = config.hidden_dim, config.ffn_dim, config.vocab_size
        self.tok_emb = T.randn((V, H), rng, init_scale, requires_grad=True, dtype=dtype)
        self.pos_emb = T.randn((config.max_positions, H), rng, init_scale, requires_grad=True, dtype=dtype)
        self.type_emb = T.randn((config.n_position_types, H), rng, init_scale, requires_grad=True, dtype=dtype)
        self.emb_ln_g = Tensor(np.ones(H, dtype=dtype), requires_grad=True, dtype=dtype)
        self.emb_ln_b = T.zeros((H,), requires_grad=True, dtype=dtype)
        self.layers = []
        for _ in range(config.n_layers):
            layer = {
                "attn": AttentionParams(H, rng, dtype=dtype, init_scale=init_scale),
                "ln1_g": Tensor(np.ones(H, dtype=dtype), requires_grad=True, dtype=dtype),
                "ln1_b": T.zeros((H,), requires_grad=True, dtype=dtype),
                "w1": T.randn((H, F), rng, init_scale, requires_grad=True, dtype=dtype),
                "b1": T.zeros((F,), requires_grad=True, dtype=dtype),
                "w2": T.randn((F, H), rng, init_scale, requires_grad=True, dtype=dtype),
                "b2": T.zeros((H,), requires_grad=True, dtype=dtype),
                "ln2_g": Tensor(np.ones(H, dtype=dtype), requires_grad=True, dtype=dtype),
                "ln2_b": T.zeros((H,), requires_grad=True, dtype=dtype),
            }
            self.layers.append(layer)
        self.mlm_w = T.randn((H, V), rng, init_scale, requires_grad=True, dtype=dtype)
        self.mlm_b = T.zeros((V,), requires_grad=True, dtype=dtype)

    # -- parameter plumbing -------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        out = {
            "embed.tok": self.tok_emb, "embed.pos": self.pos_emb, "embed.type": self.type_emb,
            "embed.ln_g": self.emb_ln_g, "embed.ln_b": self.emb_ln_b,
            "mlm.w": self.mlm_w, "mlm.b": self.mlm_b,
        }
        for li, layer in enumerate(self.layers):
            out.update(layer["attn"].named(f"layer{li}.attn"))
            for key in ("ln1_g", "ln1_b", "w1", "b1", "w2", "b2", "ln2_g", "ln2_b"):
                out[f"layer{li}.{key}"] = layer[key]
        return out

    def save(self, path) -> None:
        save_arrays(path, {k: v.data for k, v in self.named_params().items()})

    def load(self, path) -> None:
        arrays = load_arrays(path)
        for name, p in self.named_params().items():
            p.data = arrays[name].reshape(p.shape).astype(self.dtype)

    # -- forward passes -----------------------------------------------

    def encode(self, token_ids: np.ndarray, position_type_ids=None,
               pattern: AttentionPattern | None = None, lengths=None,
               train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """Contextual representations [B, L, H]. Deterministic when train=False."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        B, L = token_ids.shape
        cfg = self.config
        if token_ids.min() < 0 or token_ids.max() >= cfg.vocab_size:
            raise IndexError("token id outside vocabulary")
        if L > cfg.max_positions:
            raise ValueError(f"sequence length {L} exceeds max_positions {cfg.max_positions}")
        if pattern is None:
            pattern = self.config.default_pattern()
        if position_type_ids is None:
            position_type_ids = np.zeros_like(token_ids)
        else:
            position_type_ids = np.asarray(position_type_ids)
            if position_type_ids.ndim == 1:
                position_type_ids = position_type_ids[None, :]
            if position_type_ids.min() < 0 or position_type_ids.max() >= cfg.n_position_types:
                raise IndexError("position-type id out of range")
        drop = cfg.dropout if train else 0.0
        if drop > 0 and rng is None:
            raise ValueError("training-mode dropout needs an rng")

        x = T.embedding(self.tok_emb, token_ids)
        x = x + T.embedding(self.pos_emb, np.broadcast_to(np.arange(L), (B, L)))
        x = x + T.embedding(self.type_emb, position_type_ids)
        x = T.layer_norm(x, self.emb_ln_g, self.emb_ln_b)
        x = T.dropout(x, drop, rng) if drop > 0 else x
        for layer in self.layers:
            a = sparse_attention_forward(x, layer["attn"], pattern, cfg.n_heads, lengths=lengths)
            a = T.dropout(a, drop, rng) if drop > 0 else a
            x = T.layer_norm(x + a, layer["ln1_g"], layer["ln1_b"])
            f = T.matmul(T.gelu(T.matmul(x, layer["w1"]) + layer["b1"]), layer["w2"]) + layer["b2"]
            f = T.dropout(f, drop, rng) if drop > 0 else f
            x = T.layer_norm(x + f, layer["ln2_g"], layer["ln2_b"])
        return x

    def encode_dense_reference(self, token_ids, position_type_ids=None,
                               pattern=None, lengths=None) -> Tensor:
        """encode() with the quadratic oracle in place of the banded kernel."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        B, L = token_ids.shape
        cfg = self.config
        if pattern is None:
            pattern = self.config.default_pattern()
        if position_type_ids is None:
            position_type_ids = np.zeros_like(token_ids)
        else:
            position_type_ids = np.asarray(position_type_ids)
            if position_type_ids.ndim == 1:
                position_type_ids = position_type_ids[None, :]
        x = T.embedding(self.tok_emb, token_ids)
        x = x + T.embedding(self.pos_emb, np.broadcast_to(np.arange(L), (B, L)))
        x = x + T.embedding(self.type_emb, position_type_ids)
        x = T.layer_norm(x, self.emb_ln_g, self.emb_ln_b)
        for layer in self.layers:
            a = dense_attention_oracle(x, layer["attn"], pattern, cfg.n_heads, lengths=lengths)
            x = T.layer_norm(x + a, layer["ln1_g"], layer["ln1_b"])
            f = T.matmul(T.gelu(T.matmul(x, layer["w1"]) + layer["b1"]), layer["w2"]) + layer["b2"]
            x = T.layer_norm(x + f, layer["ln2_g"], layer["ln2_b"])
        return x

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        """Per-position vocabulary logits [B, L, V] (untied projection)."""
        return T.matmul(hidden, self.mlm_w) + self.mlm_b
