"""Encoder + task-head parameter container, the batching rule the heads
share, and the shared fine-tuning loop."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .. import tensor as T
from ..checkpoint import committing, load_params, read_marker, save_params
from ..encoder import Encoder, EncoderConfig
from ..optim import AdamState, adam_step, zero_grads
from ..tensor import Tensor
from ..vocab import PAD_ID

# padded tokens per batch (rows x longest row); a longer row runs alone
BATCH_TOKENS = 512


class HeadedModel:
    """An encoder with named linear heads, checkpointable as one unit."""

    def __init__(self, enc_config: EncoderConfig, head_shapes: dict[str, tuple],
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(enc_config, rng)
        self.head_shapes = dict(head_shapes)
        self.heads: dict[str, Tensor] = {}
        for name, shape in self.head_shapes.items():
            if name.endswith("_b"):
                self.heads[name] = T.zeros(shape, requires_grad=True)
            else:
                self.heads[name] = T.randn(shape, rng, 0.02, requires_grad=True)

    def encode(self, batch, pattern=None) -> Tensor:
        """Hidden states [B, L_max, H] of assembled inputs that share their
        global positions. Shorter rows are right-padded with PAD_ID and type
        id 0, and their lengths go to the encoder, which masks padding keys;
        row b is valid on its first len(batch[b]) positions. The pattern
        defaults to the encoder's window and dilation with the rows' global
        positions."""
        if len({enc_in.global_positions for enc_in in batch}) != 1:
            raise ValueError("a batch must share its global positions")
        if pattern is None:
            cfg = self.encoder.config
            pattern = batch[0].pattern(cfg.window, cfg.dilation)
        lengths = [len(enc_in) for enc_in in batch]
        ids = np.full((len(batch), max(lengths)), PAD_ID, dtype=np.int64)
        type_ids = np.zeros_like(ids)
        for b, enc_in in enumerate(batch):
            ids[b, :len(enc_in)] = enc_in.ids
            type_ids[b, :len(enc_in)] = enc_in.type_ids
        ragged = min(lengths) != max(lengths)
        return self.encoder.encode(ids, type_ids, pattern,
                                   lengths=lengths if ragged else None)

    def params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        out.update({f"head.{k}": v for k, v in self.heads.items()})
        return out

    def save(self, out_dir, meta: dict, vocab=None) -> None:
        """model.ckpt, model.cfg, vocab.txt when a vocabulary is given, and
        meta.json (`meta` plus the head shapes) as the commit marker, in
        out_dir."""
        meta = dict(meta)
        meta["head_shapes"] = {k: list(v) for k, v in self.head_shapes.items()}
        with committing(out_dir, "meta.json", json.dumps(meta, ensure_ascii=False)) as out_dir:
            save_params(out_dir / "model.ckpt", self.params())
            self.encoder.config.save(out_dir / "model.cfg")
            if vocab is not None:
                vocab.save(out_dir / "vocab.txt")

    @classmethod
    def restore(cls, out_dir) -> tuple["HeadedModel", dict]:
        """The model and meta that save() wrote; ValueError without meta.json."""
        meta = json.loads(read_marker(out_dir, "meta.json"))
        out_dir = Path(out_dir)
        config = EncoderConfig.load(out_dir / "model.cfg")
        head_shapes = {k: tuple(v) for k, v in meta["head_shapes"].items()}
        model = cls(config, head_shapes, seed=0)
        load_params(out_dir / "model.ckpt", model.params())
        return model, meta


def group_batches(items, enc_of) -> list[list[int]]:
    """Indices of `items` in padded batches. Items whose inputs enc_of(item)
    share global positions form a bucket (buckets in order of first
    appearance); each bucket is sorted by input length and cut so that rows x
    longest row <= BATCH_TOKENS."""
    buckets: dict[tuple, list[int]] = {}
    for i, item in enumerate(items):
        buckets.setdefault(tuple(enc_of(item).global_positions), []).append(i)
    batches = []
    for bucket in buckets.values():
        bucket.sort(key=lambda i: len(enc_of(items[i])))
        batch: list[int] = []
        for i in bucket:
            if batch and (len(batch) + 1) * len(enc_of(items[i])) > BATCH_TOKENS:
                batches.append(batch)
                batch = []
            batch.append(i)
        batches.append(batch)
    return batches


def predict_batches(items, enc_of, predict_batch) -> list:
    """predict_batch(batch) -> one result per row, run without a graph over
    the group_batches of `items`; the results come back in input order."""
    out = [None] * len(items)
    with T.no_grad():
        for idx in group_batches(items, enc_of):
            for i, result in zip(idx, predict_batch([items[i] for i in idx])):
                out[i] = result
    return out


def fit_adam(model: HeadedModel, items, enc_of, batch_loss, steps: int,
             lr: float) -> list[float]:
    """Fixed-rate Adam over `steps` full-batch updates. The items are grouped
    once by group_batches (enc_of(item) is an item's assembled input). Each
    step builds one graph per batch, batch_loss(batch) (the mean over its
    rows) scaled by len(batch)/len(items), and runs its backward, which
    releases that graph; the step's logged loss is the mean over the items."""
    params = model.params()
    state = AdamState(params, learning_rate=lr)
    n = len(items)
    batches = [[items[i] for i in idx] for idx in group_batches(items, enc_of)]
    history = []
    for step in range(steps):
        zero_grads(params)
        total = 0.0
        for batch in batches:
            loss = T.mul(batch_loss(batch), len(batch) / n)
            loss.backward()
            total += loss.item() * n
        mean = total / n
        if not np.isfinite(mean):
            raise FloatingPointError(f"non-finite fine-tuning loss at step {step}")
        adam_step(params, state)
        history.append(mean)
    return history


def check_rows(examples, keys: tuple[str, ...], task: str) -> None:
    """Refuse training rows that fit cannot use: no rows at all, a row that
    is not an object, or a row without one of `keys`. Each head's fit and
    `lctx finetune` call it before any work is done."""
    if not examples:
        raise ValueError("no training examples")
    for i, ex in enumerate(examples):
        if not isinstance(ex, dict):
            raise ValueError(f"{task} row {i} is not a JSON object")
        for key in keys:
            if key not in ex:
                raise ValueError(f"{task} row {i} has no {key!r}")


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = T.add_const(pred, -np.asarray(target, dtype=pred.data.dtype))
    return T.reduce_mean(T.mul(diff, diff))
