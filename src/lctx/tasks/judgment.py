"""Judgment prediction: multi-label charges/laws plus penalty regression for
criminal cases; single-label cause plus multi-label laws for civil cases.
Criminal and civil models are trained separately; CLS carries global
attention; the multi-task loss is the unweighted sum of the head losses.
The default encoder has 1 layer over 160 positions; fit and score_rows count
labels by one rule, label_count, unless the counts are given."""

from __future__ import annotations

import math

import numpy as np

from .. import tensor as T
from ..base import check_fitted
from ..checkpoint import TEXT
from ..corpus import PENALTY_CAP_MONTHS
from ..metrics import log_distance, micro_macro_f1
from .inputs import single_text_input
from .model import TaskHead, mse, predict_batches


def _is_id(value) -> bool:
    return type(value) is int and value >= 0  # a bool is not an id


LABEL = ("a label id (an integer >= 0)", lambda v, row: _is_id(v))
LABELS = ("a list of label ids (integers >= 0)",
          lambda v, row: type(v) is list and all(map(_is_id, v)))
MONTHS = ("a finite number >= 0",
          lambda v, row: type(v) in (int, float) and math.isfinite(v) and v >= 0)

# the label-a field of each mode, whose ids the a_w head scores
LABEL_A = {"criminal": "charges", "civil": "cause"}
# row fields per mode: the fact, then the labels that score_rows reads
_FIELDS = {
    "criminal": {"fact": TEXT, "charges": LABELS, "laws": LABELS, "penalty_months": MONTHS},
    "civil": {"fact": TEXT, "cause": LABEL, "laws": LABELS},
}


def decode_label_set(logits: np.ndarray) -> set[int]:
    """Sigmoid >= 0.5 per label; an empty set falls back to the top-1."""
    probs = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
    chosen = set(np.flatnonzero(probs >= 0.5).tolist())
    if not chosen:
        chosen = {int(probs.argmax())}
    return chosen


def label_count(rows, key: str) -> int:
    """One more than the largest label id under `key` (an id or a list of
    ids, which may be empty) in `rows`; 1 when they hold none."""
    return 1 + max([max(r[key], default=0) if isinstance(r[key], list) else r[key]
                    for r in rows], default=0)


def _multi_hot(label_sets, n_labels: int) -> np.ndarray:
    """[B, n_labels] float64 targets, 1.0 at each row's label ids."""
    out = np.zeros((len(label_sets), n_labels), dtype=np.float64)
    for b, labels in enumerate(label_sets):
        out[b, sorted(labels)] = 1.0
    return out


class JudgmentModel(TaskHead):
    """fit(examples)/predict(examples) over the judgment JSONL rows
    ({fact, charges, laws, penalty_months} criminal; {fact, cause, laws}
    civil, label fields holding ids)."""

    task = property(lambda self: f"judgment-{self.mode}")
    row_fields = property(lambda self: _FIELDS[self.mode])
    label_fields = property(lambda self: tuple(_FIELDS[self.mode])[1:])
    fit, evaluate = TaskHead.fit, TaskHead.evaluate

    def __init__(self, mode: str = "criminal", n_label_a: int | None = None,
                 n_laws: int | None = None, **settings):
        if mode not in ("criminal", "civil"):
            raise ValueError("mode must be criminal or civil")
        super().__init__(**settings)
        self.mode = mode
        self.n_label_a = n_label_a  # charges (criminal) or causes (civil)
        self.n_laws = n_laws

    def _prepare(self, examples):
        check_fitted(self, "model_")
        enc_cfg = self.model_.encoder.config
        return [single_text_input(self.vocab_.transform(ex["fact"]), enc_cfg.max_positions)
                for ex in examples]

    def _texts(self, examples):
        return [ex["fact"] for ex in examples]

    def _head_shapes(self, examples, H) -> dict:
        """The heads' shapes; fixes the label counts n_label_a_ and n_laws_."""
        self.n_label_a_ = n_a = self.n_label_a or label_count(examples, LABEL_A[self.mode])
        self.n_laws_ = n_laws = self.n_laws or label_count(examples, "laws")
        heads = {"a_w": (H, n_a), "a_b": (n_a,), "law_w": (H, n_laws), "law_b": (n_laws,)}
        if self.mode == "criminal":
            heads.update({"pen_w": (H, 1), "pen_b": (1,)})
        return heads

    def _items(self, examples):
        return list(zip(self._prepare(examples), examples))

    def _batch_loss(self, batch):
        examples = [ex for _, ex in batch]
        out = self._forward([enc_in for enc_in, _ in batch])
        loss = T.cross_entropy(out["law_logits"],
                               _multi_hot([ex["laws"] for ex in examples], self.n_laws_))
        if self.mode == "criminal":
            loss = loss + T.cross_entropy(
                out["a_logits"], _multi_hot([ex["charges"] for ex in examples], self.n_label_a_))
            loss = loss + mse(out["penalty_log"],
                              [[np.log1p(ex["penalty_months"])] for ex in examples])
        else:
            loss = loss + T.cross_entropy(out["a_logits"],
                                          np.asarray([ex["cause"] for ex in examples]))
        return loss

    def _forward(self, inputs) -> dict:
        """Head outputs of one batch of inputs: label-a and law logits [B, n],
        and in criminal mode the log-space penalty [B, 1]."""
        cls = self.model_.encode(inputs, rows=(0,))[:, 0, :]
        h = self.model_.heads
        out = {"a_logits": T.matmul(cls, h["a_w"], h["a_b"]),
               "law_logits": T.matmul(cls, h["law_w"], h["law_b"])}
        if self.mode == "criminal":
            out["penalty_log"] = T.matmul(cls, h["pen_w"], h["pen_b"])
        return out

    def decision_scores(self, examples) -> list[dict]:
        """Raw head outputs per example (logits and penalty in log space)."""
        def scores(batch):
            out = {k: v.data for k, v in self._forward(batch).items()}
            rows = [{"a_logits": out["a_logits"][b], "law_logits": out["law_logits"][b]}
                    for b in range(len(batch))]
            if self.mode == "criminal":
                for row, pen in zip(rows, out["penalty_log"][:, 0]):
                    row["penalty_log"] = float(pen)
            return rows

        return predict_batches(self._prepare(examples), lambda enc_in: enc_in, scores)

    def predict(self, examples) -> list[dict]:
        """The prediction rows `lctx finetune` stores: label sets as sorted
        id lists, the penalty in months."""
        rows = []
        for scores in self.decision_scores(examples):
            laws = sorted(decode_label_set(scores["law_logits"]))
            if self.mode == "criminal":
                months = float(np.clip(np.expm1(scores["penalty_log"]), 0.0, PENALTY_CAP_MONTHS))
                rows.append({"charges": sorted(decode_label_set(scores["a_logits"])),
                             "laws": laws, "penalty_months": months})
            else:
                rows.append({"cause": int(scores["a_logits"].argmax()), "laws": laws})
        return rows

    def score_rows(self, preds, golds) -> dict:
        """Mic@c/Mac@c over charges (criminal) or the cause (civil),
        Mic@l/Mac@l over laws, and Dis@t for criminal mode, of predicted rows
        against gold rows. Label fields hold ids, as sets or lists. The label
        counts are the fitted head's, else the constructor's, else the
        label_count of the predicted and gold rows together."""
        key = LABEL_A[self.mode]
        n_label_a = getattr(self, "n_label_a_", self.n_label_a) or label_count(preds + golds, key)
        n_laws = getattr(self, "n_laws_", self.n_laws) or label_count(preds + golds, "laws")

        def label_a(row) -> set:
            return set(row[key]) if self.mode == "criminal" else {row[key]}

        mic_c, mac_c = micro_macro_f1([label_a(p) for p in preds],
                                      [label_a(g) for g in golds], n_label_a)
        mic_l, mac_l = micro_macro_f1([set(p["laws"]) for p in preds],
                                      [set(g["laws"]) for g in golds], n_laws)
        out = {"Mic@c": mic_c, "Mac@c": mac_c, "Mic@l": mic_l, "Mac@l": mac_l}
        if self.mode == "criminal":
            out["Dis@t"] = log_distance([p["penalty_months"] for p in preds],
                                        [g["penalty_months"] for g in golds])
        return out
