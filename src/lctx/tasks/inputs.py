"""Input assembly for the downstream tasks: CLS/SEP layout, per-task
truncation limits, position-type ids, and global attention, which follows the
layout (Longformer, Beltagy et al. 2020, arXiv 2004.05150, section 3)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..attention import AttentionPattern
from ..vocab import CLS_ID, SEP_ID, n_tokens

# query/candidate truncation limits (long model vs 512-token dense baseline)
LONG_QUERY_LIMIT, LONG_CAND_LIMIT = 509, 3072
DENSE_QUERY_LIMIT, DENSE_CAND_LIMIT = 100, 409
# question limit of reading comprehension and multiple choice, choice limit
QUESTION_LIMIT, CHOICE_LIMIT = 64, 64

_CLS = np.array([CLS_ID], dtype=np.int64)
_SEP = np.array([SEP_ID], dtype=np.int64)


@dataclass
class EncodedInput:
    """One assembled model input plus the bookkeeping tests introspect."""

    ids: np.ndarray
    type_ids: np.ndarray
    global_positions: tuple[int, ...]
    sections: dict[str, range] = field(default_factory=dict)

    def __len__(self):
        return len(self.ids)

    def pattern(self, window: int, dilation=None) -> AttentionPattern:
        return AttentionPattern(window=window, dilation_per_head=dilation,
                                global_positions=self.global_positions)


def single_text_input(token_ids, max_positions: int) -> EncodedInput:
    """[CLS] text — judgment prediction layout, global attention on CLS.
    Truncation keeps the CLS."""
    body = np.asarray(token_ids, dtype=np.int64)[: max_positions - 1]
    ids = np.concatenate((_CLS, body))
    text_span = range(1, 1 + len(body))
    return EncodedInput(
        ids=ids,
        type_ids=np.zeros(len(ids), dtype=np.int64),
        global_positions=(0,),
        sections={"text": text_span},
    )


def pair_input(first_ids, second_ids, first_limit: int,
               second_limit: int) -> EncodedInput:
    """[CLS] first [SEP] second [SEP] — retrieval, RC and MCQ layout, global
    attention on CLS and the whole (truncated) first segment.

    The two segments are truncated to their limits bit-exactly; CLS and the
    SEP structure always survive. Position-type ids are 0 over CLS+first+SEP
    and 1 over second+SEP.
    """
    first = np.asarray(first_ids, dtype=np.int64)[:first_limit]
    second = np.asarray(second_ids, dtype=np.int64)[:second_limit]
    ids = np.concatenate((_CLS, first, _SEP, second, _SEP))
    n_first = len(first)
    type_ids = np.zeros(len(ids), dtype=np.int64)
    type_ids[n_first + 2:] = 1
    first_span = range(1, 1 + n_first)
    second_span = range(n_first + 2, n_first + 2 + len(second))
    return EncodedInput(
        ids=ids,
        type_ids=type_ids,
        global_positions=(0, *first_span),
        sections={"first": first_span, "second": second_span},
    )


def pair_length(first: str, second: str, first_limit: int, second_limit: int) -> int:
    """The length of pair_input's input of two texts' tokens under these
    limits, counted without a vocabulary (n_tokens)."""
    return 3 + min(n_tokens(first), first_limit) + min(n_tokens(second), second_limit)
