"""Character-level vocabulary. Chinese legal text tokenizes naturally per
character: every character for which str.isspace() is false is one token,
whitespace is dropped. Ids 0..4 are reserved for the special tokens PAD, UNK,
CLS, SEP, MASK; the *_ID constants and N_SPECIAL below are their one
definition.

Texts are handled as numpy arrays of codepoints. transform() returns an int64
id array; out-of-vocabulary characters and the surrogate codepoints
U+D800-U+DFFF (which cannot be written as UTF-8) map to UNK and never become
vocabulary tokens.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .base import check_fitted
from .checkpoint import write_text

SPECIAL_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
N_SPECIAL = len(SPECIAL_TOKENS)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(N_SPECIAL)

_SURROGATES = slice(0xD800, 0xE000)


def codepoints(text: str) -> np.ndarray:
    """The uint32 codepoints of text's tokens. str.split() drops exactly the
    characters for which str.isspace() is true; surrogatepass keeps lone
    surrogates as their own codepoints."""
    return np.frombuffer("".join(text.split()).encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)


def char_tokens(text: str) -> list[str]:
    """Every non-whitespace character is one token."""
    return list("".join(text.split()))


def n_tokens(text: str) -> int:
    """len(char_tokens(text)), without building the list."""
    return sum(map(len, text.split()))


class CharVocab:
    """Frequency-ranked character vocabulary (ties broken by codepoint).

    fit(texts) builds the table; transform(text) maps to an int64 id array
    with UNK=1 for out-of-vocabulary characters.
    """

    def fit(self, texts) -> "CharVocab":
        counts = np.bincount(codepoints("".join(texts)))
        counts[_SURROGATES] = 0
        cps = np.flatnonzero(counts)
        ranked = cps[np.lexsort((cps, -counts[cps]))]
        self.tokens_ = SPECIAL_TOKENS + [chr(cp) for cp in ranked.tolist()]
        self._build_table(ranked, np.arange(N_SPECIAL, len(self.tokens_)))
        return self

    def _build_table(self, cps: np.ndarray, ids: np.ndarray) -> None:
        """table_[cp] is the id of the one-character token cp, else UNK. The
        last entry is UNK too, so codepoints past the table clip onto it."""
        self.table_ = np.full(int(cps.max(initial=-1)) + 2, UNK_ID, dtype=np.int32)
        self.table_[cps] = ids

    def __len__(self) -> int:
        check_fitted(self, "tokens_")
        return len(self.tokens_)

    def transform(self, text: str) -> np.ndarray:
        """The int64 ids of text's tokens, UNK where a character is not in
        the vocabulary."""
        check_fitted(self, "table_")
        return self.table_.take(codepoints(text), mode="clip").astype(np.int64)

    def decode(self, ids) -> str:
        check_fitted(self, "tokens_")
        return "".join(self.tokens_[i] for i in ids)

    def save(self, path) -> None:
        check_fitted(self, "tokens_")
        write_text(path, "\n".join(self.tokens_) + "\n")

    @classmethod
    def load(cls, path) -> "CharVocab":
        """Read a file written by save(): the special tokens first, in order,
        then one token per line, none twice. Else a ValueError naming it."""
        vocab = cls()
        vocab.tokens_ = Path(path).read_text(encoding="utf-8").splitlines()
        if vocab.tokens_[:N_SPECIAL] != SPECIAL_TOKENS:
            raise ValueError(f"{path}: a vocabulary file starts with the special tokens "
                             f"{SPECIAL_TOKENS}, one per line")
        index = {tok: i for i, tok in enumerate(vocab.tokens_)}
        if len(index) != len(vocab.tokens_):
            repeated = next(tok for i, tok in enumerate(vocab.tokens_) if index[tok] != i)
            raise ValueError(f"{path}: token {repeated!r} appears more than once")
        chars = [(ord(tok), i) for tok, i in index.items() if len(tok) == 1]
        vocab._build_table(*np.array(chars, dtype=np.int64).reshape(-1, 2).T)
        return vocab


def build_vocab(corpus) -> CharVocab:
    """Vocabulary over an iterable of texts; deterministic for a fixed corpus."""
    return CharVocab().fit(corpus)
