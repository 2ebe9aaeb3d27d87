"""Similar-case retrieval as binary relevance classification.

Input is [CLS] query [SEP] candidate [SEP], truncated to 509/3072 for the
long model and 100/409 for the 512-token dense baseline. The long model puts
global attention on CLS plus every query token; the dense baseline runs full
self-attention. Candidate pools rank by score, ties broken by candidate id.
The default encoder has 1 layer over 256 positions (512 for the dense one).
"""

from __future__ import annotations

import math

import numpy as np

from .. import tensor as T
from ..attention import AttentionPattern
from ..base import check_fitted
from ..checkpoint import TEXT
from ..metrics import RankedList, mean_average_precision, ndcg_at_k, precision_at_k
from .inputs import (
    DENSE_CAND_LIMIT,
    DENSE_QUERY_LIMIT,
    LONG_CAND_LIMIT,
    LONG_QUERY_LIMIT,
    EncodedInput,
    pair_input,
    pair_length,
)
from .model import TaskHead, is_flag, predict_batches


# the (query, candidate) truncation limits of each model type
LIMITS = {"long": (LONG_QUERY_LIMIT, LONG_CAND_LIMIT),
          "dense": (DENSE_QUERY_LIMIT, DENSE_CAND_LIMIT)}


def retrieval_input(query_ids, cand_ids, model_type: str = "long") -> EncodedInput:
    """Assemble the pair input under the model type's truncation limits."""
    if len(cand_ids) == 0:
        raise ValueError("empty candidate")
    if model_type not in LIMITS:
        raise ValueError(f"unknown model_type {model_type!r}")
    enc = pair_input(query_ids, cand_ids, *LIMITS[model_type])
    if model_type == "dense":
        # the truncating baseline is ordinary full self-attention
        enc.global_positions = ()
    return enc


class RetrievalRanker(TaskHead):
    """fit/predict_proba/predict/rank over {query_id, candidate_id, query,
    candidate, relevant} rows."""

    task = "retrieval"
    row_fields = {"query_id": TEXT, "candidate_id": TEXT, "query": TEXT,
                  "candidate": ("a non-empty string", lambda v, row: type(v) is str and v != ""),
                  "relevant": ("0 or 1", lambda v, row: is_flag(v))}
    label_fields = ("query_id", "candidate_id", "relevant")
    pred_fields = {"query_id": TEXT, "candidate_id": TEXT,
                   "score": ("a finite number",
                             lambda v, row: type(v) in (int, float) and math.isfinite(v))}
    max_positions = property(lambda self: 512 if self.model_type == "dense" else 256)
    fit = TaskHead.fit

    def __init__(self, model_type: str = "long", **settings):
        if model_type not in LIMITS:
            raise ValueError(f"unknown model_type {model_type!r}")
        super().__init__(**settings)
        self.model_type = model_type

    def check_rows(self, rows, gold: bool = False) -> None:
        """TaskHead's row check; for training, each row's assembled input
        must fit the encoder."""
        super().check_rows(rows, gold)
        if not gold:
            for i, row in enumerate(rows):
                self._check_fits(f"row {i}", pair_length(row["query"], row["candidate"],
                                                         *LIMITS[self.model_type]))

    def _prepare(self, examples) -> list[EncodedInput]:
        check_fitted(self, "model_")
        return [retrieval_input(self.vocab_.transform(ex["query"]),
                                self.vocab_.transform(ex["candidate"]),
                                self.model_type)
                for ex in examples]

    def _score(self, inputs: list[EncodedInput]) -> T.Tensor:
        """Relevance logits [B, 1] of one batch of pair inputs."""
        # the dense baseline is ordinary full self-attention over the batch
        pattern = (AttentionPattern(window=2 * (max(map(len, inputs)) - 1))
                   if self.model_type == "dense" else None)
        cls = self.model_.encode(inputs, pattern, rows=(0,))[:, 0, :]
        return T.matmul(cls, self.model_.heads["w"], self.model_.heads["b"])

    def _texts(self, examples):
        return [ex["query"] for ex in examples] + [ex["candidate"] for ex in examples]

    def _head_shapes(self, examples, H) -> dict:
        return {"w": (H, 1), "b": (1,)}

    def _items(self, examples):
        return list(zip(self._prepare(examples), examples))

    def _batch_loss(self, batch):
        return T.cross_entropy(self._score([enc_in for enc_in, _ in batch]),
                               np.asarray([[float(ex["relevant"])] for _, ex in batch]))

    def predict_proba(self, examples) -> np.ndarray:
        """Relevance probability in [0, 1] per example row."""
        logits = predict_batches(self._prepare(examples), lambda enc_in: enc_in,
                                 lambda batch: [float(x) for x in self._score(batch).data[:, 0]])
        return np.asarray([1.0 / (1.0 + np.exp(-logit)) for logit in logits])

    def predict(self, examples) -> list[dict]:
        """{query_id, candidate_id, score} per example row, the score being
        the relevance probability."""
        return [{"query_id": ex["query_id"], "candidate_id": ex["candidate_id"],
                 "score": float(p)}
                for ex, p in zip(examples, self.predict_proba(examples))]

    def rank(self, examples) -> list[RankedList]:
        """Per-query rankings: score descending, candidate id ascending on ties."""
        return rank_rows(examples, self.predict_proba(examples))

    def evaluate(self, examples, ks=(5, 10, 20, 30)) -> dict:
        return self.score_rows(self.predict(examples), examples, ks)

    def score_rows(self, preds, golds, ks=(5, 10, 20, 30)) -> dict:
        """Ranking metrics (see ranking_scores) and relevance `accuracy` at
        the 0.5 threshold of {query_id, candidate_id, score} prediction rows,
        aligned to the gold rows by (query_id, candidate_id)."""
        by_key = {(p["query_id"], p["candidate_id"]): p["score"] for p in preds}
        scores = []
        for g in golds:
            key = (g["query_id"], g["candidate_id"])
            if key not in by_key:
                raise ValueError(f"missing prediction for {key}")
            scores.append(by_key[key])
        out = ranking_scores(rank_rows(golds, scores), ks)
        out["accuracy"] = float(np.mean([int(s >= 0.5) == g["relevant"]
                                         for s, g in zip(scores, golds)]))
        return out


def rank_rows(rows, scores) -> list[RankedList]:
    """Per-query rankings of {query_id, candidate_id, relevant} rows by their
    aligned scores: score descending, candidate id ascending on ties."""
    by_query: dict[str, list] = {}
    for row, score in zip(rows, scores):
        by_query.setdefault(row["query_id"], []).append(
            (row["candidate_id"], score, row["relevant"]))
    ranked = []
    for qid in sorted(by_query):
        ordered = sorted(by_query[qid], key=lambda r: (-r[1], r[0]))
        ranked.append(RankedList(
            query_id=qid,
            ranking=[cid for cid, _, _ in ordered],
            judgments={cid: rel for cid, _, rel in ordered}))
    return ranked


def ranking_scores(ranked: list[RankedList], ks=(5, 10, 20, 30)) -> dict:
    """Mean P@k and NDCG@k over the queries for each k, and MAP."""
    out = {}
    for k in ks:
        out[f"P@{k}"] = float(np.mean([precision_at_k(r, k) for r in ranked]))
        out[f"NDCG@{k}"] = float(np.mean([ndcg_at_k(r, k) for r in ranked]))
    out["MAP"] = mean_average_precision(ranked)
    return out
