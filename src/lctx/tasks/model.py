"""Encoder + task-head parameter container and the shared fine-tuning loop."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .. import tensor as T
from ..checkpoint import load_params, save_params
from ..encoder import Encoder, EncoderConfig
from ..optim import AdamState, adam_step, zero_grads
from ..tensor import Tensor


class HeadedModel:
    """An encoder with named linear heads, checkpointable as one unit."""

    def __init__(self, enc_config: EncoderConfig, head_shapes: dict[str, tuple],
                 seed: int = 0, init_scale: float = 0.02):
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(enc_config, rng, init_scale=init_scale)
        self.head_shapes = dict(head_shapes)
        self.heads: dict[str, Tensor] = {}
        for name, shape in self.head_shapes.items():
            if name.endswith("_b"):
                self.heads[name] = T.zeros(shape, requires_grad=True)
            else:
                self.heads[name] = T.randn(shape, rng, init_scale, requires_grad=True)

    def encode(self, enc_in, pattern=None) -> Tensor:
        """Hidden states [1, L, H] of one assembled input. The pattern defaults
        to the encoder's window and dilation with the input's global positions."""
        if pattern is None:
            cfg = self.encoder.config
            pattern = enc_in.pattern(cfg.window, cfg.dilation)
        return self.encoder.encode(enc_in.ids[None], enc_in.type_ids[None], pattern)

    def params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        out.update({f"head.{k}": v for k, v in self.heads.items()})
        return out

    def save(self, out_dir, meta: dict) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_params(out_dir / "model.ckpt", self.params())
        self.encoder.config.save(out_dir / "model.cfg")
        meta = dict(meta)
        meta["head_shapes"] = {k: list(v) for k, v in self.head_shapes.items()}
        (out_dir / "meta.json").write_text(json.dumps(meta, ensure_ascii=False),
                                           encoding="utf-8")

    @classmethod
    def restore(cls, out_dir) -> tuple["HeadedModel", dict]:
        out_dir = Path(out_dir)
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        config = EncoderConfig.load(out_dir / "model.cfg")
        head_shapes = {k: tuple(v) for k, v in meta["head_shapes"].items()}
        model = cls(config, head_shapes, seed=0)
        load_params(out_dir / "model.ckpt", model.params())
        return model, meta


def fit_adam(model: HeadedModel, items, example_loss, steps: int, lr: float) -> list[float]:
    """Fixed-rate Adam over `steps` full-batch updates. Each step builds one
    graph per item, example_loss(item) scaled by 1/len(items), and runs its
    backward; the step's logged loss is the mean over the items."""
    params = model.params()
    state = AdamState(params, learning_rate=lr)
    n = len(items)
    history = []
    for step in range(steps):
        zero_grads(params)
        total = 0.0
        for item in items:
            loss = T.mul(example_loss(item), 1.0 / n)
            loss.backward()
            total += loss.item() * n
        mean = total / n
        if not np.isfinite(mean):
            raise FloatingPointError(f"non-finite fine-tuning loss at step {step}")
        adam_step(params, state)
        history.append(mean)
    return history


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = T.add_const(pred, -np.asarray(target, dtype=pred.data.dtype))
    return T.reduce_mean(T.mul(diff, diff))
