"""Masked-language-model pretraining: masking, warmup schedule, Adam loop,
checkpointing with bit-identical resume."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .base import ParamMixin, check_fitted, check_random_state
from .checkpoint import load_arrays, save_arrays
from .encoder import Encoder, EncoderConfig
from .optim import AdamState, adam_step, zero_grads
from .tensor import IGNORE_INDEX
from .vocab import MASK_ID, N_SPECIAL


@dataclass
class PretrainConfig:
    """Paper-scale values are the documented defaults (lr 5e-5, 200k steps,
    3k warmup, batch 32); desk runs override. seq_len defaults to the desk
    scale, the paper-scale value being 4096."""

    seq_len: int = 128
    batch_size: int = 32
    peak_lr: float = 5e-5
    total_steps: int = 200_000
    warmup_steps: int = 3_000
    mask_rate: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError("mask_rate must be in (0, 1)")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")


def lr_at(step: int, config: PretrainConfig) -> float:
    """Linear 0 -> peak over warmup_steps, then linear decay to 0 at
    total_steps."""
    if step < 0:
        raise ValueError("negative step")
    if step < config.warmup_steps:
        return config.peak_lr * step / max(1, config.warmup_steps)
    if step >= config.total_steps:
        return 0.0
    span = max(1, config.total_steps - config.warmup_steps)
    return config.peak_lr * (config.total_steps - step) / span


def mask_tokens(seq: np.ndarray, rate: float, rng, vocab_size: int):
    """MLM corruption of one sequence.

    Selects round(rate * eligible) non-special positions (at least one); of
    the selected, 80% become MASK, 10% a random ordinary token, 10% stay
    unchanged. Labels hold the original token at selected positions and
    IGNORE_INDEX elsewhere.
    """
    rng = check_random_state(rng)
    seq = np.asarray(seq)
    eligible = np.flatnonzero(seq >= N_SPECIAL)
    if eligible.size == 0:
        raise ValueError("sequence has no maskable positions")
    n_sel = max(1, int(round(rate * eligible.size)))
    chosen = rng.choice(eligible, size=n_sel, replace=False)
    labels = np.full_like(seq, IGNORE_INDEX)
    labels[chosen] = seq[chosen]
    out = seq.copy()
    u = rng.random(n_sel)
    mask_slots = chosen[u < 0.8]
    rand_slots = chosen[(u >= 0.8) & (u < 0.9)]
    out[mask_slots] = MASK_ID
    if rand_slots.size:
        out[rand_slots] = rng.integers(N_SPECIAL, vocab_size, size=rand_slots.size)
    return out, labels


def _mask_batch(batch: np.ndarray, rate: float, rng, vocab_size: int):
    inputs = batch.copy()
    labels = np.full_like(batch, IGNORE_INDEX)
    skipped = 0
    for i in range(batch.shape[0]):
        if np.count_nonzero(batch[i] >= N_SPECIAL) == 0:
            skipped += 1
            continue
        inputs[i], labels[i] = mask_tokens(batch[i], rate, rng, vocab_size)
    return inputs, labels, skipped


@dataclass
class StepLog:
    step: int
    lr: float
    loss: float
    masked_acc: float


def write_loss_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss", "masked_acc"])
        for row in history:
            writer.writerow([row.step, f"{row.lr:.10g}", f"{row.loss:.8f}", f"{row.masked_acc:.6f}"])


def save_checkpoint(out_dir, encoder: Encoder, state: AdamState, step: int) -> Path:
    ckpt = Path(out_dir) / f"step{step:06d}"
    ckpt.mkdir(parents=True, exist_ok=True)
    encoder.save(ckpt / "model.ckpt")
    save_arrays(ckpt / "optim.ckpt", state.state_arrays())
    encoder.config.save(ckpt / "model.cfg")
    (ckpt / "state.json").write_text(json.dumps({"step": step}), encoding="utf-8")
    return ckpt


def load_checkpoint(ckpt_dir, dtype=np.float32):
    ckpt_dir = Path(ckpt_dir)
    config = EncoderConfig.load(ckpt_dir / "model.cfg")
    encoder = Encoder(config, np.random.default_rng(0), dtype=dtype)
    encoder.load(ckpt_dir / "model.ckpt")
    step = json.loads((ckpt_dir / "state.json").read_text())["step"]
    return encoder, step


def pretrain(blocks: np.ndarray, config: PretrainConfig, enc_config: EncoderConfig,
             steps: int, out_dir=None, checkpoint_interval: int | None = None,
             resume_from=None, encoder: Encoder | None = None):
    """Run `steps` MLM updates over packed token blocks.

    Batches cycle through the blocks in corpus order; masking randomness is a
    pure function of (seed, step), so resuming from a checkpoint reproduces
    the uninterrupted run bit for bit. Returns (encoder, history).
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.shape[0] == 0:
        raise ValueError("blocks must be a non-empty [n, seq_len] array")
    if blocks.shape[1] > enc_config.max_positions:
        raise ValueError("block length exceeds encoder max_positions")
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    start_step = 0
    if resume_from is not None:
        encoder, start_step = load_checkpoint(resume_from)
        state = AdamState(encoder.named_params())
        state.load_arrays(load_arrays(Path(resume_from) / "optim.ckpt"))
    else:
        if encoder is None:
            encoder = Encoder(enc_config, np.random.default_rng(config.seed))
        state = AdamState(encoder.named_params())

    params = encoder.named_params()
    n_blocks = blocks.shape[0]
    bsz = min(config.batch_size, n_blocks)
    history: list[StepLog] = []
    skipped_sequences = 0

    for step in range(start_step, start_step + steps):
        rng = np.random.default_rng((config.seed, step))
        rows = (np.arange(bsz) + step * bsz) % n_blocks
        batch = blocks[rows]
        inputs, labels, skipped = _mask_batch(batch, config.mask_rate, rng,
                                              enc_config.vocab_size)
        skipped_sequences += skipped
        zero_grads(params)
        # packing pads only block tails, so non-PAD counts are valid lengths
        lengths = (batch != 0).sum(axis=1)
        try:
            hidden = encoder.encode(inputs, lengths=lengths)
            logits = encoder.mlm_logits(hidden)
            loss = T.cross_entropy(logits, labels)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise FloatingPointError("non-finite loss")
        except FloatingPointError as exc:
            if out_dir is not None:
                save_arrays(out_dir / "diagnostic_dump.ckpt",
                            {k: p.data for k, p in params.items()})
            raise FloatingPointError(f"aborted at step {step}: {exc}") from exc
        loss.backward()
        state.learning_rate = lr_at(step + 1, config)
        adam_step(params, state)

        masked = labels != IGNORE_INDEX
        pred = logits.data.argmax(axis=-1)
        acc = float((pred[masked] == labels[masked]).mean()) if masked.any() else 0.0
        history.append(StepLog(step=step, lr=state.learning_rate,
                               loss=loss_val, masked_acc=acc))

        done = step + 1
        if out_dir is not None and checkpoint_interval and done % checkpoint_interval == 0:
            save_checkpoint(out_dir, encoder, state, done)

    if out_dir is not None:
        save_checkpoint(out_dir, encoder, state, start_step + steps)
        write_loss_csv(out_dir / "loss.csv", history)
        (out_dir / "pretrain.json").write_text(
            json.dumps({**asdict(config), "steps": steps,
                        "skipped_sequences": skipped_sequences}),
            encoding="utf-8")
    return encoder, history


def masked_recovery_accuracy(encoder: Encoder, blocks: np.ndarray,
                             config: PretrainConfig, n_rounds: int = 4) -> float:
    """Fraction of masked tokens recovered by argmax over fresh maskings."""
    hits = total = 0
    for r in range(n_rounds):
        rng = np.random.default_rng((config.seed, 1_000_003, r))
        inputs, labels, _ = _mask_batch(blocks, config.mask_rate, rng,
                                        encoder.config.vocab_size)
        with T.no_grad():
            logits = encoder.mlm_logits(
                encoder.encode(inputs, lengths=(blocks != 0).sum(axis=1)))
        masked = labels != IGNORE_INDEX
        pred = logits.data.argmax(axis=-1)
        hits += int((pred[masked] == labels[masked]).sum())
        total += int(masked.sum())
    return hits / max(1, total)


class MlmPretrainer(ParamMixin):
    """Estimator facade over the pretraining loop: fit(blocks) trains an
    encoder and exposes it as .encoder_ with the per-step log in .history_."""

    def __init__(self, config: PretrainConfig | None = None,
                 model: EncoderConfig | None = None, steps: int = 100,
                 out_dir=None, checkpoint_interval: int | None = None):
        self.config = config
        self.model = model
        self.steps = steps
        self.out_dir = out_dir
        self.checkpoint_interval = checkpoint_interval

    def fit(self, blocks) -> "MlmPretrainer":
        config = self.config or PretrainConfig()
        model = self.model or EncoderConfig()
        self.encoder_, self.history_ = pretrain(
            blocks, config, model, steps=self.steps, out_dir=self.out_dir,
            checkpoint_interval=self.checkpoint_interval)
        return self

    def predict(self, blocks) -> np.ndarray:
        """Argmax token ids for each position of the given blocks."""
        check_fitted(self, "encoder_")
        with T.no_grad():
            logits = self.encoder_.mlm_logits(self.encoder_.encode(np.asarray(blocks)))
        return logits.data.argmax(axis=-1)
