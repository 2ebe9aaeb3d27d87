"""Batched fine-tuning and prediction: the grouping rule, padded encodes
against rows encoded alone, batched against per-item gradients, and
prediction order."""

import numpy as np
import pytest

from lctx import attention
from lctx import tensor as T
from lctx.encoder import Encoder, EncoderConfig
from lctx.fixtures import mcq_examples, rc_examples, retrieval_examples
from lctx.tasks import (
    EncodedInput,
    HeadedModel,
    JudgmentModel,
    MultipleChoiceModel,
    ReadingComprehensionModel,
    RetrievalRanker,
    pair_input,
)
from lctx.tasks import model as model_mod
from lctx.vocab import N_SPECIAL

ORACLE_TOLERANCE = 1e-5
# batched vs per-item: float32 rounding of a reordered sum, relative to the
# step's largest gradient (the loss relative to itself)
STEP_TOLERANCE = 1e-5

_NAMES = "甲乙丙丁戊己"


def _criminal_rows():
    return [{"fact": f"被告人{_NAMES[i]}某盗窃财物" * (2 + i % 3), "charges": [i % 3],
             "laws": [i % 2, 2], "penalty_months": 3 * i} for i in range(6)]


def _civil_rows():
    return [{"fact": f"原告{_NAMES[i]}某请求返还借款" * (2 + i % 3), "cause": i % 3,
             "laws": [i % 2]} for i in range(6)]


# head name: (estimator factory taking the step count, its training rows)
HEADS = {
    "judgment-criminal": (lambda steps: JudgmentModel(mode="criminal", steps=steps, seed=1),
                          _criminal_rows()),
    "judgment-civil": (lambda steps: JudgmentModel(mode="civil", steps=steps, seed=1),
                       _civil_rows()),
    "retrieval-long": (lambda steps: RetrievalRanker(steps=steps, seed=1),
                       retrieval_examples(2, 3, seed=1)),
    "retrieval-dense": (lambda steps: RetrievalRanker(model_type="dense", steps=steps, seed=1),
                        retrieval_examples(2, 3, seed=1)),
    "rc": (lambda steps: ReadingComprehensionModel(steps=steps, seed=1), rc_examples(8, seed=0)),
    "mcq": (lambda steps: MultipleChoiceModel(steps=steps, seed=1), mcq_examples(3, seed=0)),
}


def _enc(n, globals_=(0,)):
    return EncodedInput(ids=np.zeros(n, dtype=np.int64), type_ids=np.zeros(n, dtype=np.int64),
                        global_positions=globals_)


def test_group_batches_buckets_sorts_and_cuts(monkeypatch):
    monkeypatch.setattr(model_mod, "BATCH_TOKENS", 256)
    items = [_enc(100), _enc(30), _enc(50), _enc(60, (0, 1, 2)), _enc(40, (0, 1, 2)),
             _enc(200), _enc(300)]
    # (0,) bucket by length: 30, 50 | 100 (3 x 100 > 256) | 200 | 300 (over budget alone)
    assert model_mod.group_batches(items, lambda e: e) == [[1, 2], [0], [5], [6], [4, 3]]


def test_headed_model_encode_rejects_mixed_global_spans():
    cfg = EncoderConfig(n_layers=1, n_heads=2, hidden_dim=16, ffn_dim=32, vocab_size=20,
                        max_positions=32, window=4)
    with pytest.raises(ValueError, match="global"):
        HeadedModel(cfg, {}).encode([_enc(10), _enc(10, (0, 1))])


@pytest.mark.parametrize("window", [4, 128], ids=["banded", "dense-dispatch"])
def test_padded_encode_matches_rows_alone(window, monkeypatch):
    cfg = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=32, ffn_dim=64, vocab_size=40,
                        max_positions=64, window=window)
    model = HeadedModel(cfg, {}, seed=3)
    rng = np.random.default_rng(0)
    question = rng.integers(N_SPECIAL, 40, 5)
    batch = [pair_input(question, rng.integers(N_SPECIAL, 40, n), 8, 64)
             for n in (20, 7, 31)]
    dense_calls = []
    dense = attention.dense_attention_oracle
    monkeypatch.setattr(attention, "dense_attention_oracle",
                        lambda *a, **k: dense_calls.append(1) or dense(*a, **k))
    with T.no_grad():
        padded = model.encode(batch).data
        alone = [model.encode([row]).data[0] for row in batch]
    assert padded.shape[:2] == (3, 39)
    for b, row in enumerate(alone):
        np.testing.assert_allclose(padded[b, :len(row)], row, rtol=0, atol=ORACLE_TOLERANCE)
    assert bool(dense_calls) == (window == 128)


def _first_step(make, rows):
    """(logged loss, parameter gradients) of one fine-tuning step."""
    est = make(1).fit(rows)
    grads = {name: p.grad.copy() for name, p in est.model_.params().items()
             if p.grad is not None}
    return est.history_[0], grads


@pytest.mark.parametrize("head", HEADS)
def test_batched_step_matches_per_item(head, monkeypatch):
    make, rows = HEADS[head]
    batch_sizes = []
    encode = Encoder.encode
    monkeypatch.setattr(Encoder, "encode", lambda self, token_ids, *a, **k: (
        batch_sizes.append(len(token_ids)) or encode(self, token_ids, *a, **k)))
    loss_b, grads_b = _first_step(make, rows)
    assert max(batch_sizes) > 1  # some rows did share a padded batch
    monkeypatch.setattr(model_mod, "BATCH_TOKENS", 0)  # every row alone
    batch_sizes.clear()
    loss_i, grads_i = _first_step(make, rows)
    assert max(batch_sizes) == 1
    assert abs(loss_b - loss_i) <= STEP_TOLERANCE * abs(loss_i)
    assert set(grads_b) == set(grads_i)
    scale = max(float(np.abs(g).max()) for g in grads_i.values())
    for name, g in grads_i.items():
        assert np.abs(grads_b[name] - g).max() <= STEP_TOLERANCE * scale, name


def _assert_rows_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key, value in w.items():
            if isinstance(value, float):
                assert g[key] == pytest.approx(value, rel=1e-6, abs=1e-9), key
            else:
                assert g[key] == value, key


@pytest.mark.parametrize("head", HEADS)
def test_predict_follows_input_order(head):
    make, rows = HEADS[head]
    est = make(2).fit(rows)
    perm = np.random.default_rng(0).permutation(len(rows))
    want = est.predict(rows)
    _assert_rows_match(est.predict([rows[i] for i in perm]), [want[i] for i in perm])
