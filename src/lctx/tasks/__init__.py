from .inputs import (
    DENSE_CAND_LIMIT,
    DENSE_QUERY_LIMIT,
    LONG_CAND_LIMIT,
    LONG_QUERY_LIMIT,
    EncodedInput,
    pair_input,
    single_text_input,
)
from .judgment import JudgmentModel, decode_label_set
from .mcq import MultipleChoiceModel
from .model import HeadedModel, fit_adam
from .reading import ReadingComprehensionModel, split_sentences
from .retrieval import RetrievalRanker, retrieval_input

__all__ = [
    "DENSE_CAND_LIMIT",
    "DENSE_QUERY_LIMIT",
    "LONG_CAND_LIMIT",
    "LONG_QUERY_LIMIT",
    "EncodedInput",
    "HeadedModel",
    "JudgmentModel",
    "MultipleChoiceModel",
    "ReadingComprehensionModel",
    "RetrievalRanker",
    "decode_label_set",
    "fit_adam",
    "pair_input",
    "retrieval_input",
    "single_text_input",
    "split_sentences",
]
