"""What the task heads share: the encoder + head parameter container, the
batching rule, the fine-tuning loop, and TaskHead, the base class that
holds their row check, fit scaffolding and evaluate."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import tensor as T
from ..checkpoint import check_fields, committing, load_params, save_params
from ..encoder import Encoder, EncoderConfig, model_marker, read_model_marker
from ..optim import AdamState, adam_step, zero_grads
from ..tensor import Tensor
from ..vocab import PAD_ID, CharVocab

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

    def encode(self, batch, pattern=None, rows=None) -> Tensor:
        """Hidden states [B, L_max, H] of assembled inputs that share their
        global positions, or with `rows` those positions' only, [B, R, H]
        (see Encoder.encode). Shorter rows are right-padded with PAD_ID and
        type id 0, and every row's length goes to the encoder, which masks
        padding keys; row b is valid on its first len(batch[b]) positions. The
        pattern defaults to the encoder's window and dilation with the rows'
        global positions."""
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
        return self.encoder.encode(ids, type_ids, pattern, lengths=lengths, rows=rows)

    def params(self) -> dict[str, Tensor]:
        out = self.encoder.named_params()
        out.update({f"head.{k}": v for k, v in self.heads.items()})
        return out

    def save(self, out_dir, meta: dict, vocab=None) -> None:
        """model.ckpt, vocab.txt when a vocabulary is given, and meta.json
        (`meta`, {"task": name}, plus the head shapes and the encoder
        config) as the commit marker, in out_dir."""
        meta = {**meta, "head_shapes": {k: list(v) for k, v in self.head_shapes.items()}}
        with committing(out_dir, "meta.json", model_marker(meta, self.encoder.config)) as out_dir:
            save_params(out_dir / "model.ckpt", self.params())
            if vocab is not None:
                vocab.save(out_dir / "vocab.txt")

    @classmethod
    def restore(cls, out_dir) -> tuple["HeadedModel", dict]:
        """The model and meta that save() wrote; ValueError without meta.json."""
        meta, config = read_model_marker(out_dir, "meta.json", required=("task", "head_shapes"))
        head_shapes = {k: tuple(v) for k, v in meta["head_shapes"].items()}
        model = cls(config, head_shapes, seed=0)
        load_params(Path(out_dir) / "model.ckpt", model.params())
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


def is_flag(value) -> bool:
    return type(value) is int and value in (0, 1)  # a bool is not a flag


class TaskHead:
    """Base of the task heads: the shared settings, row check, vocabulary
    fit, default encoder, HeadedModel build and fit_adam call, and evaluate.
    A head declares `task` (its name in messages), `n_layers` and
    `max_positions` (its default encoder's), `row_fields` (name: kind, what
    fit reads), `label_fields` (what score_rows reads in gold rows, and any
    field their kinds look at) and, where they differ from the gold label
    fields, `pred_fields` (what score_rows reads in prediction rows); it
    implements `_texts`, `_head_shapes`, `_items`, `_batch_loss`, `predict`
    and `score_rows(preds, golds)`, its one scoring path (lctx evaluate
    scores prediction files with it), and binds `fit, evaluate =
    TaskHead.fit, TaskHead.evaluate` as its own attributes, so that tracing
    can wrap one head's alone."""

    n_layers = 1
    max_positions = 160

    def __init__(self, *, vocab: CharVocab | None = None, encoder: EncoderConfig | None = None,
                 steps: int = 200, lr: float = 2e-3, seed: int = 0):
        self.vocab = vocab
        self.encoder = encoder
        self.steps = steps
        self.lr = lr
        self.seed = seed

    gold_fields = property(lambda self: {k: self.row_fields[k] for k in self.label_fields})
    pred_fields = gold_fields

    def check_rows(self, rows, gold: bool = False) -> None:
        """Refuse rows that cannot be used: no rows, or a row that fails
        check_fields over row_fields (or with `gold`, over gold_fields)."""
        if not rows:
            raise ValueError("no gold rows" if gold else "no training examples")
        check_fields(rows, self.gold_fields if gold else self.row_fields, self.task)

    def _check_fits(self, where: str, length: int) -> None:
        """Refuse, naming `where`, an assembled input of `length` tokens that
        the encoder's max_positions cannot hold."""
        limit = (self.encoder or self).max_positions
        if length > limit:
            raise ValueError(f"{self.task} {where}: its assembled input is {length} tokens, "
                             f"more than the encoder's max_positions {limit}")

    def fit(self, examples):
        """Train on the rows; an item's first element is its assembled input."""
        self.check_rows(examples)
        self.vocab_ = self.vocab or CharVocab().fit(self._texts(examples))
        enc_cfg = self.encoder or EncoderConfig(
            n_layers=self.n_layers, n_heads=2, hidden_dim=64, ffn_dim=128,
            vocab_size=len(self.vocab_), max_positions=self.max_positions, window=8)
        self.model_ = HeadedModel(enc_cfg, self._head_shapes(examples, enc_cfg.hidden_dim),
                                  seed=self.seed)
        self.history_ = fit_adam(self.model_, self._items(examples), lambda item: item[0],
                                 self._batch_loss, self.steps, self.lr)
        return self

    def evaluate(self, examples) -> dict:
        """score_rows of the head's predictions for `examples` against them."""
        return self.score_rows(self.predict(examples), examples)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = T.add_const(pred, -np.asarray(target, dtype=pred.data.dtype))
    return T.reduce_mean(T.mul(diff, diff))
