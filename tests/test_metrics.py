"""Metric implementations vs brute-force oracles and hand-computed values."""

import math

import numpy as np
import pytest

from oracles import (
    bf_average_precision,
    bf_em_f1,
    bf_micro_macro,
    bf_ndcg_at_k,
    bf_precision_at_k,
)
from lctx.metrics import (
    FoldPlan,
    RankedList,
    average_precision,
    em_f1,
    log_distance,
    mcq_accuracy,
    mean_average_precision,
    micro_macro_f1,
    ndcg_at_k,
    precision_at_k,
    run_cross_validation,
    select_best_checkpoint,
)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# hand-computed values
# ---------------------------------------------------------------------------


def test_micro_macro_hand():
    micro, macro = micro_macro_f1([{0}, {0}], [{0}, {1}], n_labels=2)
    assert abs(micro - 0.5) < 1e-12
    assert abs(macro - (2 / 3 + 0) / 2) < 1e-12
    assert abs(macro - 0.3333) < 5e-5


def test_micro_macro_perfect_and_empty():
    assert micro_macro_f1([{0}, {1}], [{0}, {1}], 2) == (1.0, 1.0)
    micro, _ = micro_macro_f1([set(), set()], [{0}, {1}], 2)
    assert micro == 0.0


def test_micro_macro_label_out_of_range():
    with pytest.raises(IndexError):
        micro_macro_f1([{5}], [{0}], n_labels=2)


def test_log_distance_values():
    assert log_distance([6, 12], [6, 12]) == 0.0
    assert abs(log_distance([0], [180]) - abs(math.log(1) - math.log(181))) < 1e-12
    assert abs(log_distance([0], [180]) - 5.1985) < 5e-5
    assert log_distance([3, 40], [9, 2]) == log_distance([9, 2], [3, 40])
    with pytest.raises(ValueError):
        log_distance([-1], [0])


def test_precision_at_k_values():
    r = RankedList("q", ["a", "b", "c"], {"a": 1, "c": 1})
    assert precision_at_k(r, 3) == pytest.approx(2 / 3)
    r2 = RankedList("q", ["a", "b"], {"a": 1})
    assert precision_at_k(r2, 5) == pytest.approx(0.2)
    full = RankedList("q", ["a", "b"], {"a": 1, "b": 1})
    assert precision_at_k(full, 2) == 1.0


def test_ndcg_hand():
    r = RankedList("q", ["a", "b", "c"], {"a": 1, "b": 0, "c": 1})
    # DCG = 1 + 1/log2(4) = 1.5, IDCG = 1 + 1/log2(3) = 1.6309
    exact = 1.5 / (1.0 + 1.0 / math.log2(3))
    assert abs(ndcg_at_k(r, 3) - exact) < 1e-12
    # the quoted 4-decimal figure (0.9198) divides by the rounded IDCG;
    # the exact value is 0.91972, inside a 1e-4 window of it
    assert abs(ndcg_at_k(r, 3) - 0.9198) < 1e-4
    ideal = RankedList("q", ["a", "c", "b"], {"a": 1, "b": 0, "c": 1})
    assert ndcg_at_k(ideal, 3) == pytest.approx(1.0)
    empty = RankedList("q", ["a", "b"], {"a": 0, "b": 0})
    assert ndcg_at_k(empty, 2) == 0.0


def test_average_precision_hand():
    r = RankedList("q", ["a", "b", "c"], {"a": 1, "c": 1})
    assert abs(average_precision(r) - (1 + 2 / 3) / 2) < 1e-12
    assert abs(average_precision(r) - 0.8333) < 5e-5
    assert mean_average_precision([RankedList("q", ["a"], {"a": 1})]) == 1.0


def test_em_f1_hand():
    assert em_f1(list("abc"), list("abc")) == (1, 1.0)
    em, f1 = em_f1(["a", "b"], ["b", "c"])
    assert em == 0 and abs(f1 - 0.5) < 1e-12
    assert em_f1([], ["x"]) == (0, 0.0)
    assert em_f1([], []) == (1, 1.0)


def test_mcq_accuracy_hand():
    single, all_acc = mcq_accuracy([{"A"}, {"B"}], [{"A"}, {"B", "C"}])
    assert single == 1.0 and all_acc == 0.5
    assert mcq_accuracy([{"A"}], [{"A"}]) == (1.0, 1.0)
    single, all_acc = mcq_accuracy([{"A", "B"}], [{"A", "B"}])
    assert single is None and all_acc == 1.0
    with pytest.raises(ValueError):
        mcq_accuracy([{"A"}], [set()])


def test_mcq_accuracy_argmax_mode():
    single, _ = mcq_accuracy([{"A", "B"}], [{"A"}], argmax_preds=["A"])
    assert single == 1.0


# ---------------------------------------------------------------------------
# randomized oracle equivalence
# ---------------------------------------------------------------------------


def test_ranking_metrics_match_oracles_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        cands = [f"c{i}" for i in range(n)]
        graded = bool(rng.integers(0, 2))
        judgments = {c: int(rng.integers(0, 4 if graded else 2)) for c in cands
                     if rng.random() < 0.8}
        order = list(rng.permutation(cands))
        k = int(rng.integers(1, 12))
        r = RankedList("q", order, judgments)
        assert abs(precision_at_k(r, k) - bf_precision_at_k(order, judgments, k)) <= 1e-12
        assert abs(ndcg_at_k(r, k) - bf_ndcg_at_k(order, judgments, k)) <= 1e-12
        ap, bf_ap = average_precision(r), bf_average_precision(order, judgments)
        if bf_ap is None:
            assert ap is None
        else:
            assert abs(ap - bf_ap) <= 1e-12


def test_f1_matches_oracle_on_random_instances():
    rng = np.random.default_rng(43)
    for trial in range(1000):
        n_labels = int(rng.integers(1, 7))
        n_examples = int(rng.integers(1, 9))
        preds = [set(int(l) for l in rng.choice(n_labels, size=rng.integers(0, n_labels + 1),
                                                replace=False)) for _ in range(n_examples)]
        golds = [set(int(l) for l in rng.choice(n_labels, size=rng.integers(0, n_labels + 1),
                                                replace=False)) for _ in range(n_examples)]
        got = micro_macro_f1(preds, golds, n_labels)
        want = bf_micro_macro(preds, golds, n_labels)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12


def test_em_f1_matches_oracle_on_random_instances():
    rng = np.random.default_rng(44)
    alphabet = list("abcde")
    for trial in range(1000):
        pred = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 6))]
        gold = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(0, 6))]
        got = em_f1(pred, gold)
        want = bf_em_f1(pred, gold)
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12


def test_ranking_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(45)
    for trial in range(50):
        n = int(rng.integers(2, 8))
        cands = [f"c{i}" for i in range(n)]
        judgments = {c: int(rng.integers(0, 2)) for c in cands}
        order = list(rng.permutation(cands))
        relabel = {c: f"x{i}" for i, c in enumerate(cands)}
        r1 = RankedList("q", order, judgments)
        r2 = RankedList("q", [relabel[c] for c in order],
                        {relabel[c]: g for c, g in judgments.items()})
        for k in (1, 3, 5):
            assert precision_at_k(r1, k) == precision_at_k(r2, k)
            assert ndcg_at_k(r1, k) == ndcg_at_k(r2, k)
        assert average_precision(r1) == average_precision(r2)


def test_metric_ranges():
    rng = np.random.default_rng(46)
    for trial in range(200):
        n = int(rng.integers(1, 8))
        cands = [f"c{i}" for i in range(n)]
        judgments = {c: int(rng.integers(0, 3)) for c in cands}
        r = RankedList("q", list(rng.permutation(cands)), judgments)
        k = int(rng.integers(1, 10))
        assert 0.0 <= precision_at_k(r, k) <= 1.0
        assert 0.0 <= ndcg_at_k(r, k) <= 1.0
        ap = average_precision(r)
        assert ap is None or 0.0 <= ap <= 1.0


def test_micro_f1_equals_accuracy_for_single_label():
    rng = np.random.default_rng(47)
    n_labels = 5
    golds = [{int(g)} for g in rng.integers(0, n_labels, 40)]
    preds = [{int(p)} for p in rng.integers(0, n_labels, 40)]
    micro, _ = micro_macro_f1(preds, golds, n_labels)
    acc = np.mean([p == g for p, g in zip(preds, golds)])
    assert abs(micro - acc) <= 1e-12


def test_ranked_list_validation():
    with pytest.raises(ValueError):
        RankedList("q", ["a", "a"], {"a": 1})
    with pytest.raises(ValueError):
        RankedList("q", ["a"], {"a": -1})


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def test_fold_plan_deterministic_and_covering():
    ids = [f"q{i}" for i in range(37)]
    plan_a = FoldPlan.from_query_ids(ids)
    plan_b = FoldPlan.from_query_ids(list(reversed(ids)))
    assert plan_a.partitions == plan_b.partitions
    union = set().union(*plan_a.partitions)
    assert union == set(ids)
    assert sum(len(p) for p in plan_a.partitions) == len(ids)
    for qid in ids:
        assert qid in plan_a.partitions[plan_a.fold_of(qid)]


def test_run_cross_validation_means():
    ids = [f"q{i}" for i in range(25)]
    plan = FoldPlan.from_query_ids(ids)
    examples = [{"query_id": qid, "value": i} for i, qid in enumerate(ids)]

    def train_fn(train):
        return len(train)

    def eval_fn(model, test):
        return {"n_train": float(model), "n_test": float(len(test))}

    result = run_cross_validation(examples, plan, train_fn, eval_fn)
    assert len(result["folds"]) == 5
    assert result["mean"]["n_test"] == pytest.approx(
        np.mean([m["n_test"] for m in result["folds"]]))
    assert sum(m["n_test"] for m in result["folds"]) == len(ids)


def test_run_cross_validation_empty_fold_rejected():
    plan = FoldPlan.from_query_ids(["q0"])  # 4 folds necessarily empty
    with pytest.raises(ValueError):
        run_cross_validation([{"query_id": "q0"}], plan,
                             lambda tr: None, lambda m, te: {})


def test_select_best_checkpoint_rule():
    scores = [
        {"P@10": 0.5, "NDCG@10": 0.6, "MAP": 0.4},   # mean 0.5
        {"P@10": 0.9, "NDCG@10": 0.2, "MAP": 0.55},  # mean 0.55
        {"P@10": 0.52, "NDCG@10": 0.51, "MAP": 0.50},  # mean 0.51
    ]
    assert select_best_checkpoint(scores) == 1
