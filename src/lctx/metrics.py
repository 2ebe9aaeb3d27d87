"""Evaluation metrics: micro/macro F1, penalty log distance, P@k, NDCG@k,
MAP, EM/token-F1, choice-set accuracy, and 5-fold cross-validation plumbing.

Conventions pinned here (the source tasks name these metrics without
formulas): the log distance is mean |ln(1+pred) - ln(1+gold)| over cases;
NDCG gain is the raw relevance grade with the ideal ranking taken over the
judged set; P@k keeps k in the denominator even for short lists; macro-F1
counts never-seen labels as F1 = 0.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def micro_macro_f1(preds, golds, n_labels: int) -> tuple[float, float]:
    """Label-set F1: micro from global TP/FP/FN, macro as the unweighted mean
    of per-label F1 (labels with no gold and no predicted occurrences score 0).
    """
    if len(preds) != len(golds):
        raise ValueError("preds and golds must align")
    tp = np.zeros(n_labels)
    fp = np.zeros(n_labels)
    fn = np.zeros(n_labels)
    for p_set, g_set in zip(preds, golds):
        p_set, g_set = set(p_set), set(g_set)
        for lab in p_set | g_set:
            if lab < 0 or lab >= n_labels:
                raise IndexError(f"label id {lab} outside [0, {n_labels})")
        for lab in p_set & g_set:
            tp[lab] += 1
        for lab in p_set - g_set:
            fp[lab] += 1
        for lab in g_set - p_set:
            fn[lab] += 1
    micro_den = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2 * tp.sum() / micro_den) if micro_den else 0.0
    per_label_den = 2 * tp + fp + fn
    per_label = np.divide(2 * tp, per_label_den, out=np.zeros(n_labels),
                          where=per_label_den > 0)
    return micro, float(per_label.mean()) if n_labels else 0.0


def log_distance(pred_months, gold_months) -> float:
    """Mean |ln(1+pred) - ln(1+gold)|; lower is better."""
    pred = np.asarray(pred_months, dtype=np.float64)
    gold = np.asarray(gold_months, dtype=np.float64)
    if pred.shape != gold.shape:
        raise ValueError("pred/gold length mismatch")
    if (pred < 0).any() or (gold < 0).any():
        raise ValueError("penalty months must be non-negative")
    return float(np.abs(np.log1p(pred) - np.log1p(gold)).mean())


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


@dataclass
class RankedList:
    """One query's ordered candidates plus its relevance judgments."""

    query_id: str
    ranking: list  # candidate ids, best first
    judgments: dict  # candidate id -> grade (>= 0; binary 0/1 by default)

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError("duplicate candidates in ranking")
        if any(g < 0 for g in self.judgments.values()):
            raise ValueError("relevance grades must be non-negative")

    def grade(self, cand) -> float:
        return float(self.judgments.get(cand, 0))


def precision_at_k(ranked: RankedList, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for cand in ranked.ranking[:k] if ranked.grade(cand) > 0)
    return hits / k


def ndcg_at_k(ranked: RankedList, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = sum(ranked.grade(cand) / np.log2(rank + 2)
              for rank, cand in enumerate(ranked.ranking[:k]))
    ideal = sorted(ranked.judgments.values(), reverse=True)[:k]
    idcg = sum(g / np.log2(rank + 2) for rank, g in enumerate(ideal))
    return float(dcg / idcg) if idcg > 0 else 0.0


def average_precision(ranked: RankedList) -> float | None:
    """AP over the judged relevant set; None when the query has no relevant
    candidate (callers exclude and count those)."""
    n_rel = sum(1 for g in ranked.judgments.values() if g > 0)
    if n_rel == 0:
        return None
    hits = 0
    total = 0.0
    for rank, cand in enumerate(ranked.ranking, start=1):
        if ranked.grade(cand) > 0:
            hits += 1
            total += hits / rank
    return total / n_rel


def mean_average_precision(lists) -> float:
    aps = [average_precision(r) for r in lists]
    kept = [a for a in aps if a is not None]
    if not kept:
        raise ValueError("no query has a relevant candidate")
    return float(np.mean(kept))


# ---------------------------------------------------------------------------
# reading comprehension
# ---------------------------------------------------------------------------


def em_f1(pred_tokens, gold_tokens) -> tuple[int, float]:
    """Exact match plus token-multiset F1; two empty answers count as a hit."""
    pred = list(pred_tokens)
    gold = list(gold_tokens)
    em = int(pred == gold)
    if not pred and not gold:
        return 1, 1.0
    if not pred or not gold:
        return em, 0.0
    common = sum((Counter(pred) & Counter(gold)).values())
    if common == 0:
        return em, 0.0
    precision = common / len(pred)
    recall = common / len(gold)
    return em, 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# multiple choice
# ---------------------------------------------------------------------------


def mcq_accuracy(preds, golds, argmax_preds=None) -> tuple[float | None, float]:
    """(single, all) accuracy over choice sets.

    `all` requires exact set equality on every question. `single` covers only
    questions with one gold choice: argmax correctness when argmax_preds is
    given, exact singleton match otherwise; None when no such question exists.
    """
    if len(preds) != len(golds):
        raise ValueError("preds and golds must align")
    single_hits, single_total, all_hits = 0, 0, 0
    for i, (pred, gold) in enumerate(zip(preds, golds)):
        pred, gold = set(pred), set(gold)
        if not gold:
            raise ValueError("empty gold choice set")
        all_hits += int(pred == gold)
        if len(gold) == 1:
            single_total += 1
            if argmax_preds is not None:
                single_hits += int(argmax_preds[i] in gold)
            else:
                single_hits += int(pred == gold)
    single = single_hits / single_total if single_total else None
    return single, all_hits / len(golds)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def _stable_hash(value: str) -> int:
    return int.from_bytes(hashlib.sha256(str(value).encode("utf-8")).digest()[:8], "little")


@dataclass
class FoldPlan:
    """Disjoint query-id partitions derived from a stable hash of the id, so
    the same ids always land in the same folds."""

    n_folds: int = 5
    partitions: list = field(default_factory=list)

    @classmethod
    def from_query_ids(cls, query_ids, n_folds: int = 5) -> "FoldPlan":
        partitions = [set() for _ in range(n_folds)]
        for qid in query_ids:
            partitions[_stable_hash(qid) % n_folds].add(qid)
        return cls(n_folds=n_folds, partitions=partitions)

    def check_nonempty(self) -> None:
        """A ValueError naming the first fold that holds no query."""
        for fold, part in enumerate(self.partitions):
            if not part:
                raise ValueError(f"fold {fold} holds no queries")

    def fold_of(self, query_id) -> int:
        return _stable_hash(query_id) % self.n_folds


def run_cross_validation(examples, plan: FoldPlan, train_fn, eval_fn) -> dict:
    """Rotate over folds of the examples' query_id: train on the other folds,
    evaluate the held-out one.

    train_fn(train_examples) -> model; eval_fn(model, test_examples) -> dict
    of metric name -> value. Returns {"folds": [...], "mean": {...}}.
    """
    by_fold: dict[int, list] = {f: [] for f in range(plan.n_folds)}
    for ex in examples:
        by_fold[plan.fold_of(ex["query_id"])].append(ex)
    fold_metrics = []
    for fold in range(plan.n_folds):
        test = by_fold[fold]
        if not test:
            raise ValueError(f"fold {fold} holds no queries")
        train = [ex for f, rows in by_fold.items() if f != fold for ex in rows]
        model = train_fn(train)
        fold_metrics.append(eval_fn(model, test))
    keys = fold_metrics[0].keys()
    mean = {k: float(np.mean([m[k] for m in fold_metrics])) for k in keys}
    return {"folds": fold_metrics, "mean": mean}


def select_best_checkpoint(checkpoint_scores) -> int:
    """Index of the checkpoint with the highest mean of P@10, NDCG@10 and MAP
    (ties go to the earliest checkpoint)."""
    best_idx, best = 0, -np.inf
    for i, scores in enumerate(checkpoint_scores):
        avg = (scores["P@10"] + scores["NDCG@10"] + scores["MAP"]) / 3.0
        if avg > best:
            best_idx, best = i, avg
    return best_idx
