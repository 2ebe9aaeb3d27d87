"""Masking, schedule, training loop, resume equivalence."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from lctx import tensor as T
from lctx.checkpoint import load_arrays, save_arrays
from lctx.corpus import pack_documents
from lctx.encoder import Encoder, EncoderConfig
from lctx.fixtures import mlm_sentences
from lctx import pretrain as pretrain_module
from lctx.optim import AdamState, adam_step, zero_grads
from lctx.pretrain import (
    PretrainConfig,
    check_batches,
    load_checkpoint,
    lr_at,
    mask_tokens,
    masked_recovery_accuracy,
    pretrain,
    save_checkpoint,
)
from lctx.tensor import IGNORE_INDEX
from lctx.vocab import build_vocab


def fixture_blocks():
    sents = mlm_sentences()
    vocab = build_vocab(sents)
    return pack_documents([vocab.transform(s) for s in sents], 32), vocab


def desk_configs(vocab, **over):
    cfg = dict(seq_len=32, batch_size=8, peak_lr=5e-3, total_steps=300,
               warmup_steps=20, mask_rate=0.15, seed=0)
    cfg.update(over)
    pre = PretrainConfig(**cfg)
    enc = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=64, ffn_dim=128,
                        vocab_size=len(vocab), max_positions=64, window=4)
    return pre, enc


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_endpoints():
    cfg = PretrainConfig(peak_lr=5e-5, total_steps=200_000, warmup_steps=3_000)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(3_000, cfg) == pytest.approx(5e-5)
    assert lr_at(200_000, cfg) == 0.0
    assert lr_at(250_000, cfg) == 0.0


def test_lr_schedule_linear_segments():
    cfg = PretrainConfig(peak_lr=1.0, total_steps=100, warmup_steps=10)
    assert lr_at(5, cfg) == pytest.approx(0.5)
    assert lr_at(55, cfg) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        lr_at(-1, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        PretrainConfig(mask_rate=0.0)
    with pytest.raises(ValueError):
        PretrainConfig(warmup_steps=10, total_steps=5)


@pytest.mark.parametrize("over", [{"seq_len": 0}, {"batch_size": 0}, {"peak_lr": -1.0},
                                  {"peak_lr": float("nan")}, {"warmup_steps": -1},
                                  {"seed": -1}],
                         ids=["seq-len", "batch-size", "peak-lr", "peak-lr-nan", "warmup",
                              "seed"])
def test_config_ranges_checked_on_construction(over):
    with pytest.raises(ValueError, match=next(iter(over))):
        PretrainConfig(**over)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_mask_rate_within_one_percent():
    rng = np.random.default_rng(0)
    seq = rng.integers(5, 80, size=10_000)
    out, labels = mask_tokens(seq, 0.15, np.random.default_rng(1), vocab_size=80)
    frac = (labels != IGNORE_INDEX).mean()
    assert abs(frac - 0.15) <= 0.01


def test_specials_never_selected():
    rng = np.random.default_rng(2)
    for trial in range(50):
        seq = rng.integers(0, 30, size=64)
        if not (seq >= 5).any():
            continue
        out, labels = mask_tokens(seq, 0.3, np.random.default_rng(trial), vocab_size=30)
        selected = labels != IGNORE_INDEX
        assert (seq[selected] >= 5).all()
        # unselected positions pass through unchanged
        np.testing.assert_array_equal(out[~selected], seq[~selected])


def test_masking_deterministic_per_seed():
    seq = np.arange(5, 70)
    a = mask_tokens(seq, 0.2, np.random.default_rng(7), 80)
    b = mask_tokens(seq, 0.2, np.random.default_rng(7), 80)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_mask_split_proportions():
    seq = np.full(20_000, 10)
    out, labels = mask_tokens(seq, 0.5, np.random.default_rng(3), vocab_size=50)
    sel = labels != IGNORE_INDEX
    n = sel.sum()
    frac_mask = (out[sel] == 4).mean()
    frac_same = (out[sel] == 10).mean()
    assert abs(frac_mask - 0.8) < 0.02
    # "unchanged" ~10% plus the random draws that happen to hit token 10
    assert 0.06 < frac_same < 0.16


def test_zero_eligible_positions_raises():
    with pytest.raises(ValueError):
        mask_tokens(np.zeros(8, dtype=int), 0.15, np.random.default_rng(0), 30)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_short_run_decreases_loss(tmp_path):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab, total_steps=80)
    encoder, history = pretrain(blocks, pre, enc_cfg, steps=80, out_dir=tmp_path)
    assert history[0].step == 0 and history[-1].step == 79
    assert np.mean([h.loss for h in history[-10:]]) < np.mean([h.loss for h in history[:10]])
    assert (tmp_path / "loss.csv").exists()
    header = (tmp_path / "loss.csv").read_text().splitlines()[0]
    assert header == "step,lr,loss,masked_acc"


def _full_row_history(blocks, config, enc_config, steps):
    """(loss, masked accuracy) per step of pretrain()'s loop with the MLM
    head and the loss over every row, [B, L, V]."""
    encoder = Encoder(enc_config, np.random.default_rng(config.seed))
    params = encoder.named_params()
    state = AdamState(params)
    bsz = min(config.batch_size, len(blocks))
    history = []
    for step in range(steps):
        rng = np.random.default_rng((config.seed, step))
        batch = blocks[(np.arange(bsz) + step * bsz) % len(blocks)]
        inputs, labels, _ = pretrain_module._mask_batch(batch, config.mask_rate, rng,
                                                        enc_config.vocab_size)
        zero_grads(params)
        logits = encoder.mlm_logits(encoder.encode(inputs, lengths=(batch != 0).sum(axis=1)))
        loss = T.cross_entropy(logits, labels)
        loss.backward()
        state.learning_rate = lr_at(step + 1, config)
        adam_step(params, state)
        masked = labels != IGNORE_INDEX
        history.append((loss.item(),
                        float((logits.data.argmax(axis=-1)[masked] == labels[masked]).mean())))
    return history


def test_history_matches_a_full_row_reference():
    """Pretraining on the masked rows alone follows the run that computes
    the last layer, the MLM head and the loss over every row: the weight
    gradients sum over fewer rows, so the losses agree to float32 rounding
    and the accuracies exactly."""
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab, total_steps=40)
    _, history = pretrain(blocks, pre, enc_cfg, steps=40)
    want = _full_row_history(blocks, pre, enc_cfg, 40)
    np.testing.assert_allclose([h.loss for h in history], [w[0] for w in want], rtol=1e-5)
    assert [h.masked_acc for h in history] == [w[1] for w in want]


def test_resume_is_bit_identical(tmp_path):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)

    full_dir = tmp_path / "full"
    enc_full, _ = pretrain(blocks, pre, enc_cfg, steps=40, out_dir=full_dir)

    part_dir = tmp_path / "part"
    pretrain(blocks, pre, enc_cfg, steps=20, out_dir=part_dir)
    enc_resumed, _ = pretrain(blocks, pre, enc_cfg, steps=20,
                              out_dir=tmp_path / "resumed",
                              resume_from=part_dir / "step000020")

    a = enc_full.named_params()
    b = enc_resumed.named_params()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name


def test_resume_refuses_a_different_encoder_config(tmp_path):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path / "part")
    other = EncoderConfig(**{**vars(enc_cfg), "n_heads": 4, "window": 16})
    with pytest.raises(ValueError) as err:
        pretrain(blocks, pre, other, steps=2, out_dir=tmp_path / "resumed",
                 resume_from=tmp_path / "part" / "step000002")
    assert "n_heads 4 (checkpoint: 2)" in str(err.value)
    assert "window 16 (checkpoint: 4)" in str(err.value)
    assert "hidden_dim" not in str(err.value)
    assert not (tmp_path / "resumed" / "step000004").exists()


def test_checkpoint_without_state_json_is_refused(tmp_path):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path / "part")
    ckpt = tmp_path / "part" / "step000002"
    (ckpt / "state.json").unlink()
    with pytest.raises(ValueError, match="step000002: not a complete checkpoint"):
        load_checkpoint(ckpt)
    with pytest.raises(ValueError, match="step000002: not a complete checkpoint"):
        pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path / "resumed",
                 resume_from=ckpt)


def test_checkpoint_of_the_old_layout_is_refused(tmp_path):
    # before the encoder config moved into state.json, it was model.cfg's
    # key=value lines; such a directory is refused, not read
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path / "part")
    ckpt = tmp_path / "part" / "step000002"
    assert sorted(p.name for p in ckpt.iterdir()) == ["model.ckpt", "optim.ckpt", "state.json"]
    state = json.loads((ckpt / "state.json").read_text(encoding="utf-8"))
    assert state == {"step": 2, "encoder": asdict(enc_cfg)}
    (ckpt / "state.json").write_text('{"step": 2}', encoding="utf-8")
    (ckpt / "model.cfg").write_text("".join(f"{k}={'' if v is None else v}\n"
                                            for k, v in state["encoder"].items()))
    for load in (load_checkpoint, lambda ckpt: pretrain(blocks, pre, enc_cfg, steps=2,
                                                        resume_from=ckpt)):
        with pytest.raises(ValueError, match="state.json: no encoder section"):
            load(ckpt)


@pytest.mark.parametrize("step, named", [
    (-1, "state.json step must be at least 0, got -1"),
    ("2", 'state.json step must be an integer, got "2"'),
    (None, "no 'step' in the top level of "),
], ids=["negative", "string", "missing"])
def test_checkpoint_step_is_checked(tmp_path, step, named):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path / "part")
    ckpt = tmp_path / "part" / "step000002"
    state = json.loads((ckpt / "state.json").read_text(encoding="utf-8"))
    if step is None:
        del state["step"]
    else:
        state["step"] = step
    (ckpt / "state.json").write_text(json.dumps(state), encoding="utf-8")
    for load in (load_checkpoint, lambda ckpt: pretrain(blocks, pre, enc_cfg, steps=2,
                                                        resume_from=ckpt)):
        with pytest.raises(ValueError) as info:
            load(ckpt)
        assert str(ckpt / "state.json") in str(info.value) and named in str(info.value)


def test_checkpoint_rewrite_cut_short_is_uncommitted(tmp_path, monkeypatch):
    # a rewrite of an existing checkpoint that dies before state.json leaves
    # no state.json behind, so the mix of old and new files is never loaded
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    encoder, _ = pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path)
    state = AdamState(encoder.named_params())

    def dies(path, arrays):
        raise OSError("disk full")

    monkeypatch.setattr(pretrain_module, "save_arrays", dies)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path, encoder, state, 2)
    with pytest.raises(ValueError, match="not a complete checkpoint"):
        load_checkpoint(tmp_path / "step000002")


@pytest.mark.parametrize("steps, interval, resume_at, saved", [
    pytest.param(2, 1, None, [1, 2], id="end-on-interval"),
    pytest.param(3, 2, None, [2, 3], id="end-off-interval"),
    pytest.param(2, 2, 2, [4], id="resumed-end-on-interval"),
    pytest.param(3, 2, 2, [4, 5], id="resumed-end-off-interval"),
])
def test_each_checkpoint_is_written_once(tmp_path, monkeypatch, steps, interval,
                                         resume_at, saved):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    resume_from = None
    if resume_at is not None:
        pretrain(blocks, pre, enc_cfg, steps=resume_at, out_dir=tmp_path / "part")
        resume_from = tmp_path / "part" / f"step{resume_at:06d}"
    calls = []

    def counted(out_dir, encoder, state, step):
        calls.append(step)
        return save_checkpoint(out_dir, encoder, state, step)

    monkeypatch.setattr(pretrain_module, "save_checkpoint", counted)
    pretrain(blocks, pre, enc_cfg, steps=steps, out_dir=tmp_path / "run",
             checkpoint_interval=interval, resume_from=resume_from)
    assert calls == saved
    assert sorted(p.name for p in (tmp_path / "run").glob("step*")) == [
        f"step{s:06d}" for s in saved]


def test_checkpoint_roundtrip_forward_identical(tmp_path):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    encoder, _ = pretrain(blocks, pre, enc_cfg, steps=10, out_dir=tmp_path)
    from lctx import tensor as T
    with T.no_grad():
        before = encoder.mlm_logits(encoder.encode(blocks)).data.copy()
    loaded, step = load_checkpoint(tmp_path / "step000010")
    assert step == 10
    with T.no_grad():
        after = loaded.mlm_logits(loaded.encode(blocks)).data
    assert np.array_equal(before, after)


def test_nonfinite_loss_aborts_with_dump(tmp_path):
    blocks, vocab = fixture_blocks()
    pre, enc_cfg = desk_configs(vocab)
    pretrain(blocks, pre, enc_cfg, steps=1, out_dir=tmp_path / "part")
    model = tmp_path / "part" / "step000001" / "model.ckpt"
    arrays = load_arrays(model)
    arrays["mlm.w"][0, 0] = np.nan
    save_arrays(model, arrays)
    with pytest.raises(FloatingPointError, match="aborted at step 1"):
        pretrain(blocks, pre, enc_cfg, steps=2, out_dir=tmp_path / "run",
                 resume_from=tmp_path / "part" / "step000001")
    assert (tmp_path / "run" / "diagnostic_dump.ckpt").exists()


def test_empty_blocks_rejected():
    pre, enc_cfg = desk_configs(build_vocab(["abc"]))
    with pytest.raises(ValueError):
        pretrain(np.zeros((0, 32), dtype=int), pre, enc_cfg, steps=1)


@pytest.mark.parametrize("empty, batch_size, start, steps, named", [
    ((2, 3), 2, 0, 1, None),
    ((2, 3), 2, 0, 1000, "step 1: its batch, block(s) [2, 3],"),
    ((2, 3), 2, 7, 1, "step 7: its batch, block(s) [2, 3],"),
    ((1, 2), 2, 0, 1000, None),
    ((0, 1, 2, 3), 8, 5, 1, "step 5: its batch, block(s) [0, 1, 2, 3],"),
    ((1, 2, 3), 3, 0, 1000, "step 3: its batch, block(s) [1, 2, 3],"),
], ids=["not-reached", "second-batch", "resumed", "each-batch-has-one", "every-block",
        "batches-wrap-around"])
def test_a_batch_without_a_maskable_token_is_refused_before_training(
        tmp_path, empty, batch_size, start, steps, named):
    """Batches cycle through the blocks; the first step whose batch holds no
    maskable token is named, and pretrain() writes nothing."""
    blocks, vocab = fixture_blocks()
    blocks = np.concatenate([blocks, blocks[:1]])            # 4 blocks
    blocks[list(empty)] = 0
    if named is None:
        check_batches(blocks, batch_size, start, steps)
        return
    with pytest.raises(ValueError, match="^pretraining " + re.escape(named)):
        check_batches(blocks, batch_size, start, steps)
    if start == 0:
        pre, enc_cfg = desk_configs(vocab, batch_size=batch_size)
        with pytest.raises(ValueError, match="^pretraining " + re.escape(named)):
            pretrain(blocks, pre, enc_cfg, steps=steps, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()
