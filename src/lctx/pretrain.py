"""Masked-language-model pretraining: masking, warmup schedule, Adam loop,
checkpointing with bit-identical resume.

The loss reads the masked positions only, so pretraining asks the encoder
for those rows (a boolean [B, L] mask): the last layer's banded attention
(rows_attention), residual, layer norms and FFN, the MLM head and the
loss run on the [N, H] masked rows alone, as BERT gathers them before its
output head (Devlin et al. 2019). masked_recovery_accuracy asks for the
same rows."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import (committing, load_matching_arrays, load_params, save_arrays,
                         save_params, write_csv, write_text)
from .encoder import Encoder, EncoderConfig, model_marker, read_model_marker
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
        for name, least in (("seq_len", 1), ("batch_size", 1), ("peak_lr", 0),
                            ("total_steps", 0), ("warmup_steps", 0), ("seed", 0)):
            if not getattr(self, name) >= least:  # a NaN fails too
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
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


def mask_tokens(seq: np.ndarray, rate: float, rng: np.random.Generator, vocab_size: int):
    """MLM corruption of one sequence.

    Selects round(rate * eligible) non-special positions (at least one); of
    the selected, 80% become MASK, 10% a random ordinary token, 10% stay
    unchanged. Labels hold the original token at selected positions and
    IGNORE_INDEX elsewhere.
    """
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


def save_checkpoint(out_dir, encoder: Encoder, state: AdamState, step: int) -> Path:
    """Write step `step` to out_dir/stepNNNNNN. state.json, the step and the
    encoder config, is the commit marker: it is removed first and written
    last, so a directory holding it holds a complete checkpoint."""
    with committing(Path(out_dir) / f"step{step:06d}", "state.json",
                    model_marker({"step": step}, encoder.config)) as ckpt:
        save_params(ckpt / "model.ckpt", encoder.named_params())
        save_arrays(ckpt / "optim.ckpt", state.state_arrays())
    return ckpt


def read_state(ckpt_dir) -> tuple[int, EncoderConfig]:
    """(step, encoder config) of a checkpoint directory's state.json, whose
    step is an integer >= 0."""
    meta, config = read_model_marker(ckpt_dir, "state.json", required=("step",))
    if meta["step"] < 0:
        raise ValueError(f"{Path(ckpt_dir) / 'state.json'} step must be at least 0, "
                         f"got {meta['step']}")
    return meta["step"], config


def check_blocks(blocks, enc_config: EncoderConfig) -> np.ndarray:
    """`blocks` as an array; a ValueError unless it is a non-empty [n,
    seq_len] array of token ids that an encoder of enc_config takes."""
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.size == 0:
        raise ValueError("blocks must be a non-empty [n, seq_len] array")
    if not np.issubdtype(blocks.dtype, np.integer):
        raise ValueError(f"blocks must hold integer token ids, not {blocks.dtype}")
    if blocks.shape[1] > enc_config.max_positions:
        raise ValueError(f"block length {blocks.shape[1]} exceeds the encoder's "
                         f"max_positions {enc_config.max_positions}")
    if blocks.min() < 0 or blocks.max() >= enc_config.vocab_size:
        raise ValueError(f"block token ids span [{blocks.min()}, {blocks.max()}], outside the "
                         f"encoder's vocab_size {enc_config.vocab_size}")
    return blocks


def _batch_rows(step: int, batch_size: int, n_blocks: int) -> np.ndarray:
    """The blocks of step `step`'s batch: batches cycle through the blocks
    in corpus order."""
    bsz = min(batch_size, n_blocks)
    return (np.arange(bsz) + step * bsz) % n_blocks


def check_batches(blocks: np.ndarray, batch_size: int, start_step: int, steps: int) -> None:
    """A ValueError naming the first of the steps start_step.. whose batch
    holds no maskable token, so that its MLM loss would have no target."""
    maskable = (blocks >= N_SPECIAL).any(axis=1)
    n = len(blocks)
    # the batches repeat after n / gcd(batch, n) steps
    for step in range(start_step, start_step + min(steps, n // math.gcd(batch_size, n))):
        rows = _batch_rows(step, batch_size, n)
        if not maskable[rows].any():
            raise ValueError(f"pretraining step {step}: its batch, block(s) {rows.tolist()}, "
                             "holds no maskable (non-special) token, so its MLM loss would "
                             "have no target")


def load_checkpoint(ckpt_dir):
    """(encoder, step) of a committed checkpoint directory."""
    step, config = read_state(ckpt_dir)
    encoder = Encoder(config, np.random.default_rng(0))
    load_params(Path(ckpt_dir) / "model.ckpt", encoder.named_params())
    return encoder, step


def load_resume(ckpt_dir, enc_config: EncoderConfig) -> tuple[Encoder, AdamState, int]:
    """(encoder, Adam state, step) of checkpoint ckpt_dir, to resume a run
    of enc_config. Refuse, with a ValueError naming the directory or file, a
    checkpoint without state.json, one whose encoder config differs from
    enc_config (each differing field is named with both values), and one
    whose model.ckpt or optim.ckpt does not hold exactly the encoder's
    parameters or their Adam state (each offending array is named)."""
    _, saved = read_state(ckpt_dir)
    differ = [f"{f.name} {getattr(enc_config, f.name)!r} (checkpoint: "
              f"{getattr(saved, f.name)!r})" for f in fields(EncoderConfig)
              if getattr(enc_config, f.name) != getattr(saved, f.name)]
    if differ:
        raise ValueError(f"{ckpt_dir}: the encoder config differs from the "
                         f"checkpoint's: " + "; ".join(differ))
    encoder, step = load_checkpoint(ckpt_dir)
    state = AdamState(encoder.named_params())
    shapes = {name: a.shape for name, a in state.state_arrays().items()}
    state.load_arrays(load_matching_arrays(Path(ckpt_dir) / "optim.ckpt", shapes,
                                           "optimizer state"))
    return encoder, state, step


def pretrain(blocks: np.ndarray, config: PretrainConfig, enc_config: EncoderConfig,
             steps: int, out_dir=None, checkpoint_interval: int | None = None,
             resume_from=None):
    """Run `steps` MLM updates over packed token blocks.

    Batches cycle through the blocks in corpus order; masking randomness is a
    pure function of (seed, step), so resuming from a checkpoint reproduces
    the uninterrupted run bit for bit. Returns (encoder, history).
    """
    blocks = check_blocks(blocks, enc_config)
    if resume_from is not None:
        encoder, state, start_step = load_resume(resume_from, enc_config)
    else:
        encoder = Encoder(enc_config, np.random.default_rng(config.seed))
        state, start_step = AdamState(encoder.named_params()), 0
    check_batches(blocks, config.batch_size, start_step, steps)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    params = encoder.named_params()
    history: list[StepLog] = []
    skipped_sequences = 0

    for step in range(start_step, start_step + steps):
        rng = np.random.default_rng((config.seed, step))
        batch = blocks[_batch_rows(step, config.batch_size, len(blocks))]
        inputs, labels, skipped = _mask_batch(batch, config.mask_rate, rng,
                                              enc_config.vocab_size)
        skipped_sequences += skipped
        zero_grads(params)
        # packing pads only block tails, so non-PAD counts are valid lengths
        lengths = (batch != 0).sum(axis=1)
        masked = labels != IGNORE_INDEX
        try:
            # the last layer, the MLM head and the loss see the masked rows only
            hidden = encoder.encode(inputs, lengths=lengths, rows=masked)
            logits = encoder.mlm_logits(hidden)
            loss = T.cross_entropy(logits, labels[masked])
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise FloatingPointError("non-finite loss")
        except FloatingPointError as exc:
            if out_dir is not None:
                save_params(out_dir / "diagnostic_dump.ckpt", params)
            raise FloatingPointError(f"aborted at step {step}: {exc}") from exc
        loss.backward()
        state.learning_rate = lr_at(step + 1, config)
        adam_step(params, state)

        pred = logits.data.argmax(axis=-1)
        acc = float((pred == labels[masked]).mean()) if masked.any() else 0.0
        history.append(StepLog(step=step, lr=state.learning_rate,
                               loss=loss_val, masked_acc=acc))

        done = step + 1
        if out_dir is not None and (done == start_step + steps or
                                    checkpoint_interval and done % checkpoint_interval == 0):
            save_checkpoint(out_dir, encoder, state, done)

    if out_dir is not None:
        write_csv(out_dir / "loss.csv", ["step", "lr", "loss", "masked_acc"],
                  ([row.step, f"{row.lr:.10g}", f"{row.loss:.8f}", f"{row.masked_acc:.6f}"]
                   for row in history))
        write_text(out_dir / "pretrain.json",
                   json.dumps({**asdict(config), "steps": steps,
                               "skipped_sequences": skipped_sequences}))
    return encoder, history


def masked_recovery_accuracy(encoder: Encoder, blocks: np.ndarray,
                             config: PretrainConfig) -> float:
    """Fraction of masked tokens recovered by argmax over four fresh maskings."""
    hits = total = 0
    for r in range(4):
        rng = np.random.default_rng((config.seed, 1_000_003, r))
        inputs, labels, _ = _mask_batch(blocks, config.mask_rate, rng,
                                        encoder.config.vocab_size)
        masked = labels != IGNORE_INDEX
        with T.no_grad():
            logits = encoder.mlm_logits(
                encoder.encode(inputs, lengths=(blocks != 0).sum(axis=1), rows=masked))
        hits += int((logits.data.argmax(axis=-1) == labels[masked]).sum())
        total += int(masked.sum())
    return hits / max(1, total)

