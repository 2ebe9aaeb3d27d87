"""Bar-exam multiple choice: each (question, choice) pair is scored by a
linear layer on CLS; the question span carries global attention and
position-type id 0, the choice span id 1. Multi-answer decoding uses the
sign of the raw score; single-answer evaluation uses the argmax choice."""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..base import ParamMixin, check_fitted
from ..encoder import EncoderConfig
from ..metrics import mcq_accuracy
from ..vocab import CharVocab
from .inputs import EncodedInput, pair_input
from .model import HeadedModel, check_rows, fit_adam, predict_batches

LETTERS = "ABCD"


class MultipleChoiceModel(ParamMixin):
    """fit/predict over {question, choices, answer_set} rows."""

    def __init__(self, vocab: CharVocab | None = None,
                 encoder: EncoderConfig | None = None, steps: int = 200,
                 lr: float = 2e-3, seed: int = 0, question_limit: int = 64,
                 choice_limit: int = 64):
        self.vocab = vocab
        self.encoder = encoder
        self.steps = steps
        self.lr = lr
        self.seed = seed
        self.question_limit = question_limit
        self.choice_limit = choice_limit

    def _assemble(self, ex) -> list[EncodedInput]:
        if len(ex["choices"]) < 2:
            raise ValueError("question needs at least 2 choices")
        if "answer_set" in ex and not ex["answer_set"]:
            raise ValueError("empty answer_set")
        q_ids = self.vocab_.transform(ex["question"])
        return [pair_input(q_ids, self.vocab_.transform(choice),
                           self.question_limit, self.choice_limit)
                for choice in ex["choices"]]

    def _score(self, inputs: list[EncodedInput]) -> T.Tensor:
        """Raw scores [B, 1] of one batch of question-choice inputs."""
        cls = self.model_.encode(inputs)[:, 0, :]
        return T.matmul(cls, self.model_.heads["w"], self.model_.heads["b"])

    def check_rows(self, examples) -> None:
        check_rows(examples, ("question", "choices", "answer_set"), "mcq")

    def fit(self, examples) -> "MultipleChoiceModel":
        self.check_rows(examples)
        texts = [ex["question"] for ex in examples]
        for ex in examples:
            texts.extend(ex["choices"])
        self.vocab_ = self.vocab or CharVocab().fit(texts)
        # question-choice matching needs an interaction step, hence 2 layers
        enc_cfg = self.encoder or EncoderConfig(
            n_layers=2, n_heads=2, hidden_dim=64, ffn_dim=128,
            vocab_size=len(self.vocab_), max_positions=160, window=8)
        H = enc_cfg.hidden_dim
        self.model_ = HeadedModel(enc_cfg, {"w": (H, 1), "b": (1,)}, seed=self.seed)

        pairs = [(enc_in, LETTERS[i] in ex["answer_set"])
                 for ex in examples for i, enc_in in enumerate(self._assemble(ex))]

        def batch_loss(batch):
            return T.cross_entropy(self._score([enc_in for enc_in, _ in batch]),
                                   np.asarray([[float(label)] for _, label in batch]))

        self.history_ = fit_adam(self.model_, pairs, lambda pair: pair[0], batch_loss,
                                 self.steps, self.lr)
        return self

    def scores(self, examples) -> list[np.ndarray]:
        """Raw score per choice, one array per question."""
        check_fitted(self, "model_")
        per_question = [self._assemble(ex) for ex in examples]
        flat = predict_batches([enc_in for inputs in per_question for enc_in in inputs],
                               lambda enc_in: enc_in,
                               lambda batch: [float(x) for x in self._score(batch).data[:, 0]])
        out, lo = [], 0
        for inputs in per_question:
            out.append(np.asarray(flat[lo:lo + len(inputs)]))
            lo += len(inputs)
        return out

    def predict(self, examples) -> list[dict]:
        """{"answer_set": letters with positive score, "argmax": best letter}."""
        rows = []
        for score in self.scores(examples):
            chosen = {LETTERS[i] for i in np.flatnonzero(score > 0)}
            rows.append({"answer_set": sorted(chosen),
                         "argmax": LETTERS[int(score.argmax())]})
        return rows

    def evaluate(self, examples) -> dict:
        return score_rows(self.predict(examples), examples)


def score_rows(preds, golds) -> dict:
    """`single` and `all` accuracy of predicted answer sets against gold.
    `single` uses the argmax letters when every prediction carries one, and
    is left out when no gold question has a single answer."""
    argmax = ([p["argmax"] for p in preds]
              if all("argmax" in p for p in preds) else None)
    single, all_acc = mcq_accuracy([set(p["answer_set"]) for p in preds],
                                   [set(g["answer_set"]) for g in golds],
                                   argmax_preds=argmax)
    out = {} if single is None else {"single": single}
    out["all"] = all_acc
    return out
