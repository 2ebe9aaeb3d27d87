"""Character-level vocabulary. Chinese legal text tokenizes naturally per
character; whitespace is dropped. Ids 0..4 are reserved for the special
tokens PAD, UNK, CLS, SEP, MASK; the *_ID constants and N_SPECIAL below are
their one definition."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from .base import ParamMixin, check_fitted

SPECIAL_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
N_SPECIAL = len(SPECIAL_TOKENS)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(N_SPECIAL)


def char_tokens(text: str) -> list[str]:
    """Every non-whitespace character is one token."""
    return [ch for ch in text if not ch.isspace()]


class CharVocab(ParamMixin):
    """Frequency-ranked character vocabulary (ties broken by codepoint).

    fit(texts) builds the table; transform(text) maps to ids with UNK=1 for
    out-of-vocabulary characters.
    """

    def __init__(self, max_size: int | None = None):
        self.max_size = max_size

    def fit(self, texts) -> "CharVocab":
        counts = Counter()
        for text in texts:
            counts.update(char_tokens(text))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if self.max_size is not None:
            ranked = ranked[: max(0, self.max_size - len(SPECIAL_TOKENS))]
        self.tokens_ = SPECIAL_TOKENS + [tok for tok, _ in ranked]
        self.index_ = {tok: i for i, tok in enumerate(self.tokens_)}
        return self

    def __len__(self) -> int:
        check_fitted(self, "tokens_")
        return len(self.tokens_)

    def transform(self, text: str) -> list[int]:
        check_fitted(self, "index_")
        return [self.index_.get(ch, UNK_ID) for ch in char_tokens(text)]

    def decode(self, ids) -> str:
        check_fitted(self, "tokens_")
        return "".join(self.tokens_[i] for i in ids)

    def save(self, path) -> None:
        check_fitted(self, "tokens_")
        Path(path).write_text("\n".join(self.tokens_) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "CharVocab":
        vocab = cls()
        vocab.tokens_ = Path(path).read_text(encoding="utf-8").splitlines()
        vocab.index_ = {tok: i for i, tok in enumerate(vocab.tokens_)}
        return vocab


def build_vocab(corpus, max_size: int | None = None) -> CharVocab:
    """Vocabulary over an iterable of texts; deterministic for a fixed corpus."""
    return CharVocab(max_size=max_size).fit(corpus)
