"""Judicial reading comprehension: span extraction with yes/no/unanswerable
answer types and supporting-sentence prediction.

Input is [CLS] question [SEP] sentence_1 ... sentence_S [SEP] with global
attention on the whole question. Span start/end heads score every position;
a 4-way answer-type head reads CLS; the support head reads each sentence's
first token. Non-span answers train the span heads onto the CLS position.
The default encoder has 2 layers over 160 positions.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .. import tensor as T
from ..base import check_fitted
from ..checkpoint import TEXT
from ..metrics import em_f1
from ..vocab import char_tokens, n_tokens
from .inputs import QUESTION_LIMIT, EncodedInput, pair_input
from .model import TaskHead, is_flag, predict_batches

ANSWER_TYPES = ("span", "yes", "no", "unanswerable")
MAX_SPAN = 64  # longest decoded answer span, in tokens
_TYPE_TEXT = {"yes": "YES", "no": "NO", "unanswerable": ""}


def split_sentences(context) -> list[str]:
    """Contexts arrive as sentence lists; plain strings split after 。？！"""
    if isinstance(context, str):
        return [s for s in re.split("(?<=[。？！])", context) if s.strip()]
    return list(context)


def best_span(start_logits: np.ndarray, end_logits: np.ndarray) -> tuple[int, int]:
    """The (i, j) with i <= j < i + MAX_SPAN that maximises start_logits[i] +
    end_logits[j]; the first in (i, j) order among ties."""
    n = len(start_logits)
    i, j = np.ogrid[:n, :n]
    pair = np.where((i <= j) & (j < i + MAX_SPAN), start_logits[:, None] + end_logits, -np.inf)
    return divmod(int(pair.argmax()), n)


class ReadingComprehensionModel(TaskHead):
    """fit/predict over {question, context, answer, answer_type, support} rows."""

    task = "rc"
    n_layers = 2
    row_fields = {
        "question": TEXT,
        # a sentence of whitespace alone holds no token, so it does not count
        "context": ("a string or a list of strings, with at least one sentence",
                    lambda v, row: (type(v) is str or type(v) is list
                                    and all(type(s) is str for s in v))
                    and n_tokens("".join(v)) > 0),
        "answer": TEXT,
        "answer_type": (f"one of {', '.join(ANSWER_TYPES)}",
                        lambda v, row: type(v) is str and v in ANSWER_TYPES),
        "support": ("a list of 0/1 flags, one per context sentence",
                    lambda v, row: type(v) is list and all(map(is_flag, v))
                    and len(v) == len(split_sentences(row["context"]))),
    }
    label_fields = ("answer",)
    fit, evaluate = TaskHead.fit, TaskHead.evaluate

    def _context_limit(self) -> int:
        """Context tokens that assembly keeps: the encoder's positions less
        the question's and CLS, SEP, SEP."""
        return (self.encoder or self).max_positions - QUESTION_LIMIT - 3

    def check_rows(self, rows, gold: bool = False) -> None:
        """TaskHead's row check; for training, the encoder must keep at least
        one context token, and a row's span answer must lie in the context
        that assembly keeps."""
        super().check_rows(rows, gold)
        if gold:
            return
        limit = self._context_limit()
        if limit < 1:
            raise ValueError(f"an {self.task} encoder needs max_positions of at least "
                             f"{QUESTION_LIMIT + 4}, got {limit + QUESTION_LIMIT + 3}")
        for i, row in enumerate(rows):
            context = "".join("".join(row["context"]).split())[:limit]
            answer = "".join(row["answer"].split())
            if row["answer_type"] == "span" and not (answer and answer in context):
                raise ValueError(f"{self.task} row {i}: a span 'answer' must be in the first "
                                 f"{limit} tokens of its context, got "
                                 f"{json.dumps(row['answer'], ensure_ascii=False)}")

    def _assemble(self, ex) -> tuple[EncodedInput, list[int]]:
        sent_ids = [self.vocab_.transform(s) for s in split_sentences(ex["context"])]
        enc_in = pair_input(self.vocab_.transform(ex["question"]), np.concatenate(sent_ids),
                            QUESTION_LIMIT, self._context_limit())
        # the first position of each sentence that truncation keeps
        second = enc_in.sections["second"]
        offsets = np.cumsum([0] + [len(ids) for ids in sent_ids[:-1]]).tolist()
        return enc_in, [second.start + pos for pos in offsets if pos < len(second)]

    def _span_target(self, ex, enc_in: EncodedInput) -> tuple[int, int]:
        if ex["answer_type"] != "span":
            return 0, 0  # CLS position, the non-span convention
        second = enc_in.sections["second"]
        context_ids = enc_in.ids[second.start:second.stop]
        answer_ids = self.vocab_.transform(ex["answer"])
        # the first hit; the row check has made sure that there is one
        windows = np.lib.stride_tricks.sliding_window_view(context_ids, len(answer_ids))
        hit = int(np.flatnonzero((windows == answer_ids).all(axis=1))[0])
        return second.start + hit, second.start + hit + len(answer_ids) - 1

    def _forward(self, batch) -> list[tuple]:
        """Per-row (start [1, L], end [1, L], type [1, 4], support [1, S])
        logits of a batch of (input, sentence starts) pairs: one encode, the
        heads over every position, then each row's slice on its own length."""
        hidden = self.model_.encode([enc_in for enc_in, _ in batch])
        h = self.model_.heads
        B, L, _ = hidden.shape

        def per_position(name):
            return T.reshape(T.matmul(hidden, h[f"{name}_w"], h[f"{name}_b"]), B, L)

        start, end, support = per_position("start"), per_position("end"), per_position("sup")
        types = T.matmul(hidden[:, 0, :], h["type_w"], h["type_b"])
        return [(start[b:b + 1, :len(enc_in)], end[b:b + 1, :len(enc_in)], types[b:b + 1],
                 support[b:b + 1, np.asarray(starts)])
                for b, (enc_in, starts) in enumerate(batch)]

    def _texts(self, examples):
        texts = []
        for ex in examples:
            texts.append(ex["question"])
            texts.extend(split_sentences(ex["context"]))
            texts.append(ex["answer"])
        return texts

    def _head_shapes(self, examples, H) -> dict:
        return {"start_w": (H, 1), "start_b": (1,), "end_w": (H, 1), "end_b": (1,),
                "type_w": (H, 4), "type_b": (4,), "sup_w": (H, 1), "sup_b": (1,)}

    def _items(self, examples):
        prepared = []
        for ex in examples:
            enc_in, starts = self._assemble(ex)
            s_t, e_t = self._span_target(ex, enc_in)
            prepared.append((enc_in, starts, s_t, e_t,
                             ANSWER_TYPES.index(ex["answer_type"]),
                             np.asarray(ex["support"], dtype=np.float64)[None, :len(starts)]))
        return prepared

    def _batch_loss(self, batch):
        logits = self._forward([(enc_in, starts) for enc_in, starts, *_ in batch])
        losses = [T.cross_entropy(s_log, np.asarray([s_t]))
                  + T.cross_entropy(e_log, np.asarray([e_t]))
                  + T.cross_entropy(t_log, np.asarray([type_t]))
                  + T.cross_entropy(sup_log, support_t)
                  for (s_log, e_log, t_log, sup_log), (_, _, s_t, e_t, type_t, support_t)
                  in zip(logits, batch)]
        return T.mul(sum(losses[1:], losses[0]), 1.0 / len(batch))

    def _decode_span(self, enc_in, start_logits, end_logits) -> str:
        second = enc_in.sections["second"]
        lo, hi = best_span(start_logits[second.start:second.stop],
                           end_logits[second.start:second.stop])
        ids = enc_in.ids[second.start + lo: second.start + hi + 1]
        return self.vocab_.decode(ids)

    def predict(self, examples) -> list[dict]:
        """{"answer", "answer_type", "support"} per example; non-span types
        emit YES/NO/empty regardless of the span heads."""
        check_fitted(self, "model_")

        def decode(batch):
            rows = []
            for (enc_in, _), (s_log, e_log, t_log, sup_log) in zip(batch, self._forward(batch)):
                kind = ANSWER_TYPES[int(t_log.data[0].argmax())]
                if kind == "span":
                    answer = self._decode_span(enc_in, s_log.data[0], e_log.data[0])
                else:
                    answer = _TYPE_TEXT[kind]
                support = (1.0 / (1.0 + np.exp(-sup_log.data[0])) >= 0.5).astype(int)
                rows.append({"answer": answer, "answer_type": kind,
                             "support": support.tolist()})
            return rows

        return predict_batches([self._assemble(ex) for ex in examples],
                               lambda pair: pair[0], decode)

    def score_rows(self, preds, golds) -> dict:
        """Mean EM and token F1 of predicted answers against gold answers."""
        pairs = [em_f1(char_tokens(p["answer"]), char_tokens(g["answer"]))
                 for p, g in zip(preds, golds)]
        return {"EM": float(np.mean([em for em, _ in pairs])),
                "F1": float(np.mean([f1 for _, f1 in pairs]))}
