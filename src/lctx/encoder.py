"""Transformer encoder: embeddings, banded-attention blocks, MLM head.

Blocks are post-layer-norm residual (x = LN(x + sublayer(x)), the add done
inside the layer norm: T.layer_norm's `residual`). Position embeddings are
learned absolute vectors; position-type embeddings carry the question/choice
distinction (0/1). The MLM output projection is untied.
A caller that reads only some rows asks encode() for them: the CLS heads
row 0, MLM pretraining its masked positions. The last block then computes
its attention at those rows (rows_attention, alone where the pattern allows
it) and runs its residual, layer norms and FFN on those rows only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .attention import (
    AttentionParams,
    AttentionPattern,
    dense_attention_oracle,
    rows_attention,
    sparse_attention_forward,
)
from .checkpoint import check_json_object, read_json


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

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "hidden_dim", "ffn_dim", "vocab_size",
                     "max_positions", "n_position_types"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError("hidden_dim must be divisible by n_heads")
        if self.dilation is not None:
            # a JSON config gives a list; equality expects a tuple
            self.dilation = tuple(self.dilation)
            if len(self.dilation) != self.n_heads:
                raise ValueError(f"dilation has {len(self.dilation)} entries for "
                                 f"{self.n_heads} heads")
        AttentionPattern(window=self.window, dilation_per_head=self.dilation)  # its own checks


def model_marker(meta: dict, config: EncoderConfig) -> str:
    """A model directory's marker: `meta` plus `config` as --config takes it."""
    return json.dumps({**meta, "encoder": asdict(config)}, ensure_ascii=False)


# what a model directory's marker holds beside its encoder section, by
# marker: a pretraining checkpoint's step, a fine-tuned model's task name and
# head shapes
MARKER_KINDS = {"state.json": {"step": int},
                "meta.json": {"task": str, "head_shapes": dict[str, list[int]]}}


def read_model_marker(directory, marker: str, required=()) -> tuple[dict, EncoderConfig]:
    """(meta, encoder config) from one read of a model directory's marker.
    Its keys are typed by MARKER_KINDS and must include `required`; its
    encoder section must hold every EncoderConfig field, typed as --config
    types them, then checked by EncoderConfig."""
    path = Path(directory) / marker
    if not path.is_file():
        raise ValueError(f"{directory}: not a complete checkpoint (no {marker}; its write "
                         "was cut short, or this is not a checkpoint directory)")
    meta = read_json(path)
    if not isinstance(meta, dict) or "encoder" not in meta:
        raise ValueError(f"{path}: no encoder section (a model directory of the old "
                         "layout, with its config in model.cfg, is no longer read)")
    check_json_object(meta, {**MARKER_KINDS[marker], "encoder": dict}, str(path),
                      required=required)
    section = meta.pop("encoder")
    kinds = get_type_hints(EncoderConfig)
    check_json_object(section, kinds, str(path), "encoder", required=kinds)
    try:
        return meta, EncoderConfig(**section)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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

    # -- forward passes -----------------------------------------------

    def encode(self, token_ids: np.ndarray, position_type_ids=None,
               pattern: AttentionPattern | None = None, lengths=None, rows=None) -> Tensor:
        """Contextual representations [B, L, H]. With `rows`, those rows'
        only: positions shared by every sequence give [B, R, H], a boolean
        [B, L] mask gives its True rows in order, [N, H]. The pattern
        defaults to the config's window and dilation with no global
        positions.

        With `rows`, every layer but the last runs as without. The last
        layer's attention is rows_attention's, which checks the rows and
        computes them alone where the pattern allows it. The residual, both
        layer norms and the FFN then run on those rows only, a lone
        position carried twice through the FFN's products (see
        T.matmul_rows), so a position's row has the bytes of
        encode()[:, rows] wherever BLAS keeps a row's bytes at any row
        count. A mask's rows are one [N, H] product, whose bytes may differ
        from the full call's in the last bits.
        """
        # the kernel is looked up at call time, so a module-level replacement
        # of sparse_attention_forward takes effect here
        return self._forward(sparse_attention_forward, token_ids, position_type_ids,
                             pattern, lengths, rows)

    def encode_dense_reference(self, token_ids, position_type_ids=None,
                               pattern=None, lengths=None) -> Tensor:
        """encode() with the quadratic oracle in place of the banded kernel."""
        return self._forward(dense_attention_oracle, token_ids, position_type_ids,
                             pattern, lengths)

    def _forward(self, attention, token_ids, position_type_ids, pattern, lengths,
                 rows=None) -> Tensor:
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
            pattern = AttentionPattern(window=cfg.window, dilation_per_head=cfg.dilation)
        if position_type_ids is None:
            position_type_ids = np.zeros_like(token_ids)
        else:
            position_type_ids = np.asarray(position_type_ids)
            if position_type_ids.ndim == 1:
                position_type_ids = position_type_ids[None, :]
            if position_type_ids.min() < 0 or position_type_ids.max() >= cfg.n_position_types:
                raise IndexError("position-type id out of range")

        x = T.embedding(self.tok_emb, token_ids)
        x = x + T.embedding_prefix(self.pos_emb, B, L)
        x = T.layer_norm(x, self.emb_ln_g, self.emb_ln_b,
                         residual=T.embedding(self.type_emb, position_type_ids))
        for layer in self.layers if rows is None else self.layers[:-1]:
            a = attention(x, layer["attn"], pattern, cfg.n_heads, lengths=lengths)
            x = self._block_rest(x, a, layer)
        if rows is None:
            return x
        return self._last_layer_rows(x, self.layers[-1], pattern, lengths, rows)

    def _last_layer_rows(self, x, layer, pattern, lengths, rows) -> Tensor:
        """The last layer at the rows `rows` only (see encode)."""
        a = rows_attention(x, layer["attn"], pattern, self.config.n_heads, rows, lengths)
        rows = np.asarray(rows)
        if rows.dtype == bool:
            # a mask's rows are one [N, H] product, whose bytes are not the
            # full call's anyway: no lone-row rule
            return self._block_rest(T.index_select(x, rows), a, layer)
        rows = rows.reshape(-1).tolist()
        if len(rows) != 1 or x.shape[1] == 1:
            return self._block_rest(T.index_select(x, (slice(None), rows)), a, layer)
        a = T.index_select(a, (slice(None), [0, 0]))
        x = self._block_rest(T.index_select(x, (slice(None), rows * 2)), a, layer)
        return T.index_select(x, (slice(None), slice(0, 1)))

    @staticmethod
    def _block_rest(x: Tensor, a: Tensor, layer: dict) -> Tensor:
        """A block after its attention a: the residual and first layer norm,
        then the FFN, its residual and the second layer norm. Each residual
        add is the layer norm's own (T.layer_norm's `residual`)."""
        x = T.layer_norm(x, layer["ln1_g"], layer["ln1_b"], residual=a)
        f = T.matmul(T.gelu(T.matmul(x, layer["w1"], layer["b1"])), layer["w2"], layer["b2"])
        return T.layer_norm(x, layer["ln2_g"], layer["ln2_b"], residual=f)

    def mlm_logits(self, hidden: Tensor) -> Tensor:
        """Vocabulary logits [..., V] of hidden states [..., H] (untied
        projection)."""
        return T.matmul(hidden, self.mlm_w, self.mlm_b)
