"""Task heads: input layout, truncation, global attention, decode rules."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from lctx.attention import build_band_mask
from lctx.encoder import Encoder, EncoderConfig
from lctx.corpus import Ruleset, process_corpus
from lctx.fixtures import mcq_examples, rc_examples, retrieval_examples, synthetic_cases
from lctx.tasks import model as model_module
from lctx.tasks.reading import MAX_SPAN, best_span
from lctx.tasks import (
    DENSE_CAND_LIMIT,
    DENSE_QUERY_LIMIT,
    LONG_CAND_LIMIT,
    LONG_QUERY_LIMIT,
    HeadedModel,
    JudgmentModel,
    MultipleChoiceModel,
    ReadingComprehensionModel,
    RetrievalRanker,
    decode_label_set,
    pair_input,
    retrieval_input,
    single_text_input,
    split_sentences,
)
from lctx.vocab import CLS_ID, SEP_ID, build_vocab
from oracles import ref_best_span


def small_encoder(vocab, **over):
    base = dict(n_layers=1, n_heads=2, hidden_dim=32, ffn_dim=64,
                vocab_size=len(vocab), max_positions=160, window=4)
    base.update(over)
    return EncoderConfig(**base)


# ---------------------------------------------------------------------------
# input assembly + truncation (bit-exact limits)
# ---------------------------------------------------------------------------


def test_long_model_truncation_exact():
    enc = retrieval_input(list(range(5, 5 + 600)), list(range(5, 5 + 5000)), "long")
    assert len(enc.sections["first"]) == LONG_QUERY_LIMIT
    assert len(enc.sections["second"]) == LONG_CAND_LIMIT
    assert len(enc) == 1 + 509 + 1 + 3072 + 1
    assert enc.ids[0] == CLS_ID
    assert enc.ids[LONG_QUERY_LIMIT + 1] == SEP_ID
    assert enc.ids[-1] == SEP_ID


def test_dense_baseline_truncation_exact():
    enc = retrieval_input(list(range(5, 5 + 600)), list(range(5, 5 + 5000)), "dense")
    assert len(enc.sections["first"]) == DENSE_QUERY_LIMIT
    assert len(enc.sections["second"]) == DENSE_CAND_LIMIT
    assert len(enc) == 512
    assert enc.global_positions == ()  # plain full self-attention baseline


def test_truncation_preserves_cls_and_sep():
    enc = pair_input(list(range(5, 50)), list(range(50, 500)), 10, 20)
    assert enc.ids[0] == CLS_ID
    assert (enc.ids == SEP_ID).sum() == 2
    assert enc.ids[11] == SEP_ID and enc.ids[-1] == SEP_ID


def test_position_type_ids_split_at_second_segment():
    enc = pair_input([5, 6], [7, 8, 9], 10, 10)
    np.testing.assert_array_equal(enc.type_ids, [0, 0, 0, 0, 1, 1, 1, 1])


def test_empty_candidate_rejected():
    with pytest.raises(ValueError):
        retrieval_input([5, 6], [], "long")


# ---------------------------------------------------------------------------
# global-attention layout conformance by mask introspection
# ---------------------------------------------------------------------------


def _assert_rows_full(pattern, length, positions):
    mask = build_band_mask(length, pattern, head=0, n_heads=1)
    for g in positions:
        assert mask[g].all(), f"row {g} not fully global"
        assert mask[:, g].all(), f"column {g} not fully global"


def test_cls_policy_mask_judgment():
    enc = single_text_input(list(range(5, 40)), max_positions=64)
    assert enc.global_positions == (0,)
    _assert_rows_full(enc.pattern(window=4), len(enc), (0,))


def test_whole_question_policy_mask():
    enc = pair_input(list(range(5, 12)), list(range(12, 30)), 64, 64)
    assert enc.global_positions == tuple(range(0, 8))  # CLS + 7 question tokens
    _assert_rows_full(enc.pattern(window=4), len(enc), enc.global_positions)
    # non-designated rows are NOT fully global
    mask = build_band_mask(len(enc), enc.pattern(window=4), 0, 1)
    assert not mask[10].all()


def test_whole_query_policy_mask_retrieval():
    enc = retrieval_input(list(range(5, 15)), list(range(15, 45)), "long")
    assert enc.global_positions == tuple(range(0, 11))
    _assert_rows_full(enc.pattern(window=4), len(enc), enc.global_positions)


# ---------------------------------------------------------------------------
# decode rules
# ---------------------------------------------------------------------------


def test_multilabel_decode_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.standard_normal(6)
        got = decode_label_set(logits)
        probs = 1 / (1 + np.exp(-logits))
        want = {i for i in range(6) if probs[i] >= 0.5}
        if not want:
            want = {int(np.argmax(probs))}
        assert got == want


def test_penalty_log_transform_zero_months():
    assert np.log1p(0) == 0.0  # zero months -> zero regression target


def test_judgment_mode_annotation_mismatch():
    civil_rows = [{"fact": "事" * 60, "cause": 0, "laws": [0]}]
    with pytest.raises(ValueError):
        JudgmentModel(mode="criminal", steps=1).fit(civil_rows)
    with pytest.raises(ValueError):
        JudgmentModel(mode="nonsense")


def test_judgment_civil_shapes():
    rows = [{"fact": "事实甲" * 20, "cause": 0, "laws": [0, 1]},
            {"fact": "事实乙" * 20, "cause": 1, "laws": [1]}]
    model = JudgmentModel(mode="civil", steps=2, lr=1e-3).fit(rows)
    preds = model.predict(rows)
    assert set(preds[0]) == {"cause", "laws"}
    metrics = model.evaluate(rows)
    assert {"Mic@c", "Mac@c", "Mic@l", "Mac@l"} <= set(metrics)
    assert "Dis@t" not in metrics


def test_judgment_criminal_prediction_finite_and_clipped():
    rows = [{"fact": "事实丙" * 20, "charges": [0], "laws": [0], "penalty_months": 6},
            {"fact": "事实丁" * 20, "charges": [1], "laws": [1], "penalty_months": 0}]
    model = JudgmentModel(mode="criminal", steps=2, lr=1e-3).fit(rows)
    for p in model.predict(rows):
        assert np.isfinite(p["penalty_months"])
        assert 0.0 <= p["penalty_months"] <= 180.0


def test_headed_model_restore_gives_identical_scores(tmp_path):
    rows = [{"fact": "事实丙" * 20, "charges": [0], "laws": [0], "penalty_months": 6},
            {"fact": "事实丁" * 20, "charges": [1], "laws": [1], "penalty_months": 0}]
    model = JudgmentModel(mode="criminal", steps=2, lr=1e-3, seed=5).fit(rows)
    before = model.decision_scores(rows)
    model.model_.save(tmp_path / "m", {"task": "judgment-criminal"})
    model.model_, meta = HeadedModel.restore(tmp_path / "m")
    assert meta["task"] == "judgment-criminal"
    for a, b in zip(before, model.decision_scores(rows)):
        assert a.keys() == b.keys()
        assert all(np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a)


def test_headed_model_without_meta_json_is_refused(tmp_path, monkeypatch):
    # meta.json is written last, so a save cut short leaves none behind
    model = HeadedModel(EncoderConfig(n_layers=1, hidden_dim=16, ffn_dim=32), {"w": (16, 1)})
    model.save(tmp_path / "m", {"task": "rc"})
    saved = {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()}

    def dies(path, params):
        raise OSError("disk full")

    monkeypatch.setattr(model_module, "save_params", dies)
    with pytest.raises(OSError):
        model.save(tmp_path / "m", {"task": "rc"})
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["model.ckpt"]
    with pytest.raises(ValueError, match="m: not a complete checkpoint .*meta.json"):
        HeadedModel.restore(tmp_path / "m")
    model.save(tmp_path / "m", {"task": "rc"})
    assert {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()} == saved


def test_headed_model_of_the_old_layout_is_refused(tmp_path):
    # before the encoder config moved into meta.json, it was model.cfg's lines
    model = HeadedModel(EncoderConfig(n_layers=1, hidden_dim=16, ffn_dim=32), {"w": (16, 1)})
    model.save(tmp_path, {"task": "rc"})
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    assert meta == {"task": "rc", "head_shapes": {"w": [16, 1]},
                    "encoder": asdict(model.encoder.config)}
    del meta["encoder"]
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    (tmp_path / "model.cfg").write_text("n_layers=1\nhidden_dim=16\nffn_dim=32\n")
    with pytest.raises(ValueError, match="meta.json: no encoder section"):
        HeadedModel.restore(tmp_path)


@pytest.mark.parametrize("edit, named", [
    (lambda meta: meta.pop("head_shapes"), "no 'head_shapes' in the top level of "),
    (lambda meta: meta.update(task=["rc"]), 'task must be a string, got ["rc"]'),
    (lambda meta: meta["head_shapes"].update(w=16),
     "head_shapes must be an object of shapes (lists of integers >= 0), got "),
], ids=["no-head-shapes", "task-list", "shape-number"])
def test_headed_model_meta_is_typed(tmp_path, edit, named):
    model = HeadedModel(EncoderConfig(n_layers=1, hidden_dim=16, ffn_dim=32), {"w": (16, 1)})
    model.save(tmp_path, {"task": "rc"})
    meta = json.loads((tmp_path / "meta.json").read_text(encoding="utf-8"))
    edit(meta)
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        HeadedModel.restore(tmp_path)
    assert str(tmp_path / "meta.json") in str(info.value) and named in str(info.value)


def test_retrieval_tie_break_by_candidate_id():
    rows = retrieval_examples(1, 4, seed=0)
    ranker = RetrievalRanker(steps=1, lr=0.0).fit(rows)
    # force identical scores: zero head weights
    ranker.model_.heads["w"].data[:] = 0
    ranker.model_.heads["b"].data[:] = 0
    ranking = ranker.rank(rows)[0]
    assert ranking.ranking == sorted(r["candidate_id"] for r in rows)


def test_retrieval_predict_rows_and_single_encode(monkeypatch):
    # evaluate() scores the rows predict() returns: each row encoded once,
    # counted by the batch axis of the encoder calls
    rows = retrieval_examples(2, 3, seed=1)
    ranker = RetrievalRanker(steps=0).fit(rows)
    preds = ranker.predict(rows)
    assert [(p["query_id"], p["candidate_id"]) for p in preds] == \
        [(r["query_id"], r["candidate_id"]) for r in rows]
    assert [p["score"] for p in preds] == ranker.predict_proba(rows).tolist()
    batch_sizes = []
    encode = Encoder.encode
    monkeypatch.setattr(Encoder, "encode", lambda self, token_ids, *a, **k: (
        batch_sizes.append(len(token_ids)) or encode(self, token_ids, *a, **k)))
    metrics = ranker.evaluate(rows, ks=(1, 2))
    assert sum(batch_sizes) == len(rows)
    assert len(batch_sizes) < len(rows)  # a query's candidates share its span
    assert metrics["accuracy"] == np.mean([int(p["score"] >= 0.5) == r["relevant"]
                                           for p, r in zip(preds, rows)])


def test_retrieval_rank_deterministic():
    rows = retrieval_examples(2, 3, seed=1)
    ranker = RetrievalRanker(steps=2, lr=1e-3).fit(rows)
    a = [r.ranking for r in ranker.rank(rows)]
    b = [r.ranking for r in ranker.rank(rows)]
    assert a == b


def test_rc_split_sentences():
    assert split_sentences("甲。乙？丙！") == ["甲。", "乙？", "丙！"]
    assert split_sentences(["a", "b"]) == ["a", "b"]


def test_rc_zero_sentences_rejected():
    rows = [{"question": "问", "context": [], "answer": "", "answer_type": "unanswerable",
             "support": []}]
    with pytest.raises(ValueError):
        ReadingComprehensionModel(steps=1).fit(rows)


def test_rc_decode_constraints_and_type_override():
    rows = rc_examples(4, seed=0)
    model = ReadingComprehensionModel(steps=2, lr=1e-3).fit(rows)
    enc_in, starts = model._assemble(rows[0])
    L = len(enc_in)
    rng = np.random.default_rng(3)
    # adversarial logits: best end sits before best start
    s_log = rng.standard_normal(L)
    e_log = rng.standard_normal(L)
    second = enc_in.sections["second"]
    s_log[second.stop - 1] = 10.0
    e_log[second.start] = 10.0
    text = model._decode_span(enc_in, s_log, e_log)
    assert isinstance(text, str)  # a legal i <= j pair was still produced
    # decode never returns a span longer than MAX_SPAN
    assert len(text) <= MAX_SPAN

    preds = model.predict(rows)
    for p in preds:
        assert p["answer_type"] in ("span", "yes", "no", "unanswerable")
        if p["answer_type"] == "yes":
            assert p["answer"] == "YES"
        if p["answer_type"] == "no":
            assert p["answer"] == "NO"
        if p["answer_type"] == "unanswerable":
            assert p["answer"] == ""


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3, MAX_SPAN - 1, MAX_SPAN, MAX_SPAN + 1, 93, 150])
def test_best_span_matches_the_loop_on_ties(n, dtype):
    rng = np.random.default_rng(n)
    cases = [(np.zeros(n), np.zeros(n)),            # every legal pair ties
             (np.arange(n)[::-1], np.arange(n))]    # the best pair is too long
    # integer logits: most rows hold several tied best pairs
    cases += [(rng.integers(-2, 3, n), rng.integers(-2, 3, n)) for _ in range(30)]
    cases += [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(10)]
    for s, e in cases:
        s, e = s.astype(dtype), e.astype(dtype)
        assert best_span(s, e) == ref_best_span(s, e, MAX_SPAN)


def test_mcq_identical_choices_identical_scores():
    rows = [{"question": "问题甲乙", "choices": ["一样", "一样", "一样", "一样"],
             "answer_set": ["A"]}]
    model = MultipleChoiceModel(steps=1, lr=1e-4).fit(rows)
    scores = model.scores(rows)[0]
    assert np.ptp(scores) == 0.0


def test_mcq_swapping_choices_permutes_scores():
    rows = mcq_examples(2, seed=0)
    model = MultipleChoiceModel(steps=1, lr=1e-4).fit(rows)
    base = model.scores([rows[0]])[0]
    swapped = dict(rows[0])
    swapped["choices"] = [rows[0]["choices"][i] for i in (1, 0, 2, 3)]
    perm = model.scores([swapped])[0]
    np.testing.assert_allclose(perm, base[[1, 0, 2, 3]], atol=1e-6)


def test_mcq_single_left_out_without_single_answer_questions():
    # `single` covers single-answer questions only; with none it is left out,
    # which the metrics CSV renders as a blank cell
    rows = [{"question": "问题一", "choices": ["甲", "乙", "丙", "丁"], "answer_set": ["A", "B"]},
            {"question": "问题二", "choices": ["戊", "己", "庚", "辛"],
             "answer_set": ["B", "C", "D"]}]
    metrics = MultipleChoiceModel(steps=1).fit(rows).evaluate(rows)
    assert set(metrics) == {"all"} and 0.0 <= metrics["all"] <= 1.0


def test_mcq_too_few_choices():
    rows = [{"question": "问", "choices": ["只有一个"], "answer_set": ["A"]}]
    with pytest.raises(ValueError):
        MultipleChoiceModel(steps=1).fit(rows)


def test_retrieval_short_overfit():
    rows = retrieval_examples(4, 4, seed=0)
    ranker = RetrievalRanker(steps=60, lr=2e-3, seed=0).fit(rows)
    metrics = ranker.evaluate(rows, ks=(1, 2))
    assert metrics["accuracy"] >= 0.95
    assert metrics["MAP"] >= 0.95


# ---------------------------------------------------------------------------
# the CLS heads compute only row 0 in the last layer
# ---------------------------------------------------------------------------


def _smoke_heads():
    """(name, head factory, rows) of the CLS heads on the smoke fixtures, at
    the smoke command's widths."""
    result = process_corpus(synthetic_cases(seed=0), Ruleset())
    rows = {"retrieval": retrieval_examples(seed=0), "mcq": mcq_examples(seed=0)}
    texts = [doc.full_text() for doc in result.documents]
    texts += [r["query"] for r in rows["retrieval"]] + [r["candidate"] for r in rows["retrieval"]]
    texts += [r["question"] for r in rows["mcq"]] + [c for r in rows["mcq"] for c in r["choices"]]
    vocab = build_vocab(texts)

    def head(cls, **kw):
        def make():
            model = cls(vocab=vocab, steps=4, lr=3e-3, seed=0, **kw)
            model.encoder = small_encoder(vocab, n_layers=model.n_layers,
                                          max_positions=model.max_positions)
            return model
        return make

    return [
        ("judgment-criminal", head(JudgmentModel, mode="criminal"), result.criminal_examples),
        ("judgment-civil", head(JudgmentModel, mode="civil"), result.civil_examples),
        ("retrieval-long", head(RetrievalRanker), rows["retrieval"]),
        ("retrieval-dense", head(RetrievalRanker, model_type="dense"), rows["retrieval"]),
        ("mcq", head(MultipleChoiceModel), rows["mcq"]),
    ]


def _assert_rows_match(got, want):
    """Prediction rows: floats at the oracle bound, everything else equal."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], float):
                np.testing.assert_allclose(a[key], b[key], rtol=1e-5, atol=1e-7)
            else:
                assert a[key] == b[key], key


@pytest.mark.parametrize("name", ["judgment-criminal", "judgment-civil", "retrieval-long",
                                  "retrieval-dense", "mcq"])
def test_cls_heads_match_the_full_row_path(name, monkeypatch):
    """Fitting and predicting with row 0 alone in the last layer gives the
    history and predictions of computing every row and keeping row 0. The
    backward's one- and two-row products may take other BLAS kernels than
    the full path's, so the floats are compared at the oracle bound."""
    make, rows = next((make, rows) for head, make, rows in _smoke_heads() if head == name)
    alone = make().fit(rows)
    real = HeadedModel.encode

    def every_row(self, batch, pattern=None, rows=None):
        out = real(self, batch, pattern)
        return out if rows is None else out[:, list(rows)]

    monkeypatch.setattr(HeadedModel, "encode", every_row)
    full = make().fit(rows)
    np.testing.assert_allclose(alone.history_, full.history_, rtol=1e-5)
    _assert_rows_match(alone.predict(rows), full.predict(rows))
