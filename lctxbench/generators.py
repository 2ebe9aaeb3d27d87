"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same inputs, and the program under test only ever sees what these return.
"""

from __future__ import annotations

import re

import numpy as np

from lctx import fixtures

# pretrain: enough raw cases that preprocessing takes over a second per round
PRETRAIN_CASES = 8000

# retrieval-long: one pool per query length, each pool holding one candidate
# per candidate length. The first query and first candidate exceed the long
# model's 509/3072 truncation, so the pools reach the paper's L = 3584 with
# G = 510 globals; the rest spread L and G across the range. The mix is not
# taken from the paper's dataset statistics: it is unverified and chosen only
# to span the range.
QUERY_CHARS = (560, 380, 200, 90)
CANDIDATE_CHARS = (3300, 1700, 700, 200)
LENGTH_JITTER = 0.03

_CHARGE = re.compile(r"犯(\S+?罪)一案")


def pretrain_cases(seed: int) -> list[dict]:
    """Raw {id, kind, text} case rows for the corpus pipeline."""
    return fixtures.synthetic_cases(PRETRAIN_CASES // 2, PRETRAIN_CASES // 2, seed=seed)


def finetune_fixtures(seed: int) -> dict[str, list[dict]]:
    """The smoke-scale labelled sets for the four task heads."""
    return {
        "raw_cases": fixtures.synthetic_cases(8, 8, seed=seed),
        "retrieval": fixtures.retrieval_examples(seed=seed),
        "rc": fixtures.rc_examples(seed=seed),
        "mcq": fixtures.mcq_examples(seed=seed),
    }


def _case_bank(seed: int) -> dict[str, list[str]]:
    """Criminal case texts grouped by charge."""
    bank: dict[str, list[str]] = {}
    for row in fixtures.synthetic_cases(64, 0, seed=seed):
        bank.setdefault(_CHARGE.search(row["text"]).group(1), []).append(row["text"])
    return bank


def _text(rng: np.random.Generator, texts: list[str], n_chars: int) -> str:
    """Case texts drawn in seeded order, concatenated and cut to n_chars."""
    parts, total = [], 0
    while total < n_chars:
        part = texts[int(rng.integers(len(texts)))]
        parts.append(part)
        total += len(part)
    return "".join(parts)[:n_chars]


def _jittered(rng: np.random.Generator, n: int) -> int:
    return int(round(n * (1.0 - LENGTH_JITTER * rng.random())))


def retrieval_pools(seed: int) -> list[list[dict]]:
    """len(QUERY_CHARS) candidate pools of len(CANDIDATE_CHARS) {query_id,
    candidate_id, query, candidate, relevant} rows. Even candidate slots
    narrate the query's charge (relevant), odd ones another charge; slot order
    within a pool is shuffled."""
    rng = np.random.default_rng(seed)
    bank = _case_bank(seed)
    charges = sorted(bank)
    pools = []
    for p, q_chars in enumerate(QUERY_CHARS):
        charge = charges[int(rng.integers(len(charges)))]
        others = [text for c in charges if c != charge for text in bank[c]]
        qid = f"q{p}"
        query = _text(rng, bank[charge], _jittered(rng, q_chars))
        rows = []
        for slot in rng.permutation(len(CANDIDATE_CHARS)):
            relevant = int(slot % 2 == 0)
            source = bank[charge] if relevant else others
            rows.append({"query_id": qid, "candidate_id": f"{qid}c{slot}",
                         "query": query,
                         "candidate": _text(rng, source, _jittered(rng, CANDIDATE_CHARS[slot])),
                         "relevant": relevant})
        pools.append(rows)
    return pools


def retrieval_vocab_texts(seed: int) -> list[str]:
    """Every text the retrieval pools draw from, for the character vocabulary."""
    return [text for texts in _case_bank(seed).values() for text in texts]

