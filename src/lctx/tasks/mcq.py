"""Bar-exam multiple choice: each (question, choice) pair is scored by a
linear layer on CLS; the question span carries global attention and
position-type id 0, the choice span id 1. Multi-answer decoding uses the
sign of the raw score; single-answer evaluation uses the argmax choice.
The default encoder has 2 layers over 160 positions."""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..base import check_fitted
from ..checkpoint import TEXT
from ..metrics import mcq_accuracy
from .inputs import CHOICE_LIMIT, QUESTION_LIMIT, EncodedInput, pair_input, pair_length
from .model import TaskHead, predict_batches

LETTERS = tuple("ABCD")


class MultipleChoiceModel(TaskHead):
    """fit/predict over {question, choices, answer_set} rows."""

    task = "mcq"
    # question-choice matching needs an interaction step, hence 2 layers
    n_layers = 2
    row_fields = {
        "question": TEXT,
        "choices": (f"a list of 2 to {len(LETTERS)} strings",
                    lambda v, row: type(v) is list and 2 <= len(v) <= len(LETTERS)
                    and all(type(c) is str for c in v)),
        "answer_set": ("a non-empty list of the letters of its choices",
                       lambda v, row: type(v) is list and len(v) > 0
                       and all(x in LETTERS[:len(row["choices"])] for x in v)),
    }
    label_fields = ("choices", "answer_set")  # the letters name choices
    pred_fields = {"answer_set": (f"a possibly empty list of the letters {', '.join(LETTERS)}",
                                  lambda v, row: type(v) is list and all(x in LETTERS for x in v))}
    fit, evaluate = TaskHead.fit, TaskHead.evaluate

    def check_rows(self, rows, gold: bool = False) -> None:
        """TaskHead's row check; for training, each question-choice input
        must fit the encoder."""
        super().check_rows(rows, gold)
        if not gold:
            for i, row in enumerate(rows):
                for letter, choice in zip(LETTERS, row["choices"]):
                    self._check_fits(f"row {i} choice {letter}", pair_length(
                        row["question"], choice, QUESTION_LIMIT, CHOICE_LIMIT))

    def _assemble(self, ex) -> list[EncodedInput]:
        q_ids = self.vocab_.transform(ex["question"])
        return [pair_input(q_ids, self.vocab_.transform(choice), QUESTION_LIMIT, CHOICE_LIMIT)
                for choice in ex["choices"]]

    def _score(self, inputs: list[EncodedInput]) -> T.Tensor:
        """Raw scores [B, 1] of one batch of question-choice inputs."""
        cls = self.model_.encode(inputs, rows=(0,))[:, 0, :]
        return T.matmul(cls, self.model_.heads["w"], self.model_.heads["b"])

    def _texts(self, examples):
        texts = [ex["question"] for ex in examples]
        for ex in examples:
            texts.extend(ex["choices"])
        return texts

    def _head_shapes(self, examples, H) -> dict:
        return {"w": (H, 1), "b": (1,)}

    def _items(self, examples):
        return [(enc_in, LETTERS[i] in ex["answer_set"])
                for ex in examples for i, enc_in in enumerate(self._assemble(ex))]

    def _batch_loss(self, batch):
        return T.cross_entropy(self._score([enc_in for enc_in, _ in batch]),
                               np.asarray([[float(label)] for _, label in batch]))

    def scores(self, examples) -> list[np.ndarray]:
        """Raw score per choice, one array per question."""
        check_fitted(self, "model_")
        per_question = [self._assemble(ex) for ex in examples]
        flat = predict_batches([enc_in for inputs in per_question for enc_in in inputs],
                               lambda enc_in: enc_in,
                               lambda batch: [float(x) for x in self._score(batch).data[:, 0]])
        return np.split(np.asarray(flat), np.cumsum([len(inputs) for inputs in per_question])[:-1])

    def predict(self, examples) -> list[dict]:
        """{"answer_set": letters with positive score, "argmax": best letter}."""
        rows = []
        for score in self.scores(examples):
            chosen = {LETTERS[i] for i in np.flatnonzero(score > 0)}
            rows.append({"answer_set": sorted(chosen),
                         "argmax": LETTERS[int(score.argmax())]})
        return rows

    def score_rows(self, preds, golds) -> dict:
        """`single` and `all` accuracy of predicted answer sets against gold.
        `single` uses the argmax letters when every prediction carries one,
        and is left out when no gold question has a single answer."""
        argmax = ([p["argmax"] for p in preds]
                  if all("argmax" in p for p in preds) else None)
        single, all_acc = mcq_accuracy([set(p["answer_set"]) for p in preds],
                                       [set(g["answer_set"]) for g in golds],
                                       argmax_preds=argmax)
        out = {} if single is None else {"single": single}
        out["all"] = all_acc
        return out
