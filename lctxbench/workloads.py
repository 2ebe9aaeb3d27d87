"""The three benchmark workloads.

Each is a closed loop with one client in one process. A workload sets itself
up from the seed, then runs identical rounds of work until the time budget is
spent; every round returns its timings and outputs, and the output checks run
once measuring is over. The program is driven only through its public API.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Functions are called through their modules, never imported by name, so
# that a traced run, which patches module attributes, sees every call.
from lctx import corpus, pretrain
from lctx import metrics as ranking
from lctx import tensor as T
from lctx.attention import AttentionPattern
from lctx.corpus import Ruleset
from lctx.encoder import EncoderConfig
from lctx.pretrain import PretrainConfig
from lctx.tasks import (
    JudgmentModel,
    MultipleChoiceModel,
    ReadingComprehensionModel,
    RetrievalRanker,
    retrieval_input,
)
from lctx.vocab import SEP_ID, build_vocab  # build_vocab runs the patched CharVocab.fit

import generators

ORACLE_TOLERANCE = 1e-5   # the repository's attention-oracle tolerance


@dataclass
class Check:
    name: str
    ok: bool
    ops: int        # operations the check covers; all of them fail when it fails
    detail: str = ""


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _finite_in(values, lo=0.0, hi=1.0) -> bool:
    return all(math.isfinite(v) and lo <= v <= hi for v in values)


class Workload:
    """Defaults shared by the workloads."""

    min_rounds = 1

    def probe(self, clock) -> int:
        """Extra measurement after the timed loop, outside every throughput
        figure; returns the number of operations it ran."""
        return 0

    def cleanup(self):
        pass


class Pretrain(Workload):
    """Corpus pipeline into 4096-token blocks, then batched MLM pretraining."""

    name = "pretrain"
    min_rounds = 2          # round two must reproduce round one's loss history
    SEQ_LEN = 4096
    BATCH = 2
    STEPS = 2               # short rounds, so a run holds enough of them for a median
    CHECKPOINT_INTERVAL = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.raw = generators.pretrain_cases(self.seed)
        # warm-up: every code path of a round at a small shape
        blocks, _, vocab_size = self._preprocess(self.raw[:32], 256)
        pretrain.pretrain(blocks, self._config(1), self._encoder_config(vocab_size, 256),
                          steps=1)
        return digest(self.raw)

    def _config(self, steps):
        return PretrainConfig(seq_len=self.SEQ_LEN, batch_size=self.BATCH, peak_lr=1e-3,
                              total_steps=steps, warmup_steps=steps // 2, seed=self.seed)

    def _encoder_config(self, vocab_size, max_positions=SEQ_LEN):
        return EncoderConfig(n_layers=2, n_heads=2, hidden_dim=64, ffn_dim=128,
                             vocab_size=vocab_size, max_positions=max_positions, window=8)

    @staticmethod
    def _preprocess(raw, seq_len):
        result = corpus.process_corpus(raw, Ruleset())
        texts = [doc.full_text() for doc in result.documents]
        vocab = build_vocab(texts)
        streams = [vocab.transform(text) for text in texts]
        return corpus.pack_documents(streams, seq_len), streams, len(vocab)

    def examples_per_round(self) -> int:
        return self.STEPS * self.BATCH

    def ops_per_round(self) -> int:
        return self.STEPS

    def round(self, i: int, clock) -> dict:
        t0 = clock()
        blocks, streams, vocab_size = self._preprocess(self.raw, self.SEQ_LEN)
        t1 = clock()
        out_dir = self.workdir / f"round{i}"
        encoder, history = pretrain.pretrain(blocks, self._config(self.STEPS),
                                             self._encoder_config(vocab_size),
                                             steps=self.STEPS, out_dir=out_dir,
                                             checkpoint_interval=self.CHECKPOINT_INTERVAL)
        t2 = clock()
        shutil.rmtree(self.workdir / f"round{i - 1}", ignore_errors=True)
        # only the latest round's artefacts are kept for the checks, so the
        # process footprint does not grow with the number of rounds
        self.latest = {"out_dir": out_dir, "encoder": encoder, "blocks": blocks,
                       "streams": streams}
        return {"ops": self.STEPS, "preprocess_s": t1 - t0, "pretrain_s": t2 - t1,
                "docs": len(self.raw), "tokens": self.STEPS * self.BATCH * self.SEQ_LEN,
                "losses": [row.loss for row in history]}

    def metrics(self, rounds: list[dict]) -> dict:
        return {
            "preprocess_docs_per_s": (median_rate(rounds, "docs", "preprocess_s"), "docs/s"),
            "pretrain_tokens_per_s": (median_rate(rounds, "tokens", "pretrain_s"), "tokens/s"),
            "pretrain_loss": (rounds[0]["losses"][-1], "nats"),
        }

    def checks(self, rounds: list[dict]) -> list[Check]:
        out = []
        first = digest(rounds[0]["losses"])
        for i, r in enumerate(rounds):
            finite = all(math.isfinite(x) for x in r["losses"])
            out.append(Check(f"round{i}.losses_finite", finite, r["ops"]))
            out.append(Check(f"round{i}.loss_digest_repeats", digest(r["losses"]) == first,
                             r["ops"], digest(r["losses"])[:16]))
        losses = rounds[-1]["losses"]
        out.append(Check("loss_decreases", losses[-1] < losses[0],
                         self.STEPS, f"{losses[0]:.6f} -> {losses[-1]:.6f}"))
        last = self.latest
        loaded, step = pretrain.load_checkpoint(last["out_dir"] / f"step{self.STEPS:06d}")
        live = last["encoder"].named_params()
        same = step == self.STEPS and all(
            np.array_equal(p.data, live[name].data) for name, p in loaded.named_params().items())
        out.append(Check("checkpoint_roundtrip", same, self.STEPS))
        stream = np.concatenate([np.append(np.asarray(s, dtype=np.int64), SEP_ID)
                                 for s in last["streams"]])
        flat = last["blocks"].ravel()
        conserved = (np.count_nonzero(flat) == stream.size
                     and np.array_equal(flat[:stream.size], stream))
        out.append(Check("packing_conserves_tokens", conserved, self.STEPS,
                         f"{stream.size} tokens in {flat.size} slots"))
        return out

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class Finetune(Workload):
    """The four task heads at the smoke fixture scale: fit, then evaluate."""

    name = "finetune"
    STEPS = 8               # the retrieval head needs 7 steps to dip below its first loss
    LR = 3e-3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        fx = generators.finetune_fixtures(self.seed)
        result = corpus.process_corpus(fx["raw_cases"], Ruleset())
        texts = [doc.full_text() for doc in result.documents]
        for name in ("retrieval", "rc", "mcq"):
            for row in fx[name]:
                texts.extend(v for v in row.values() if isinstance(v, str))
                texts.extend(row.get("context", ()))
                texts.extend(row.get("choices", ()))
        vocab = build_vocab(texts)
        self.heads = self._heads(vocab, result, fx)
        # warm-up: one step of every head on two examples
        for _, make, rows in self.heads:
            make(1).fit(rows[:2])
        return digest((fx, [r for _, _, r in self.heads]))

    def _heads(self, vocab, result, fx):
        # the smoke command's head configurations
        small = dict(n_layers=1, n_heads=2, hidden_dim=32, ffn_dim=64, window=4,
                     vocab_size=len(vocab))
        deep = {**small, "n_layers": 2}
        common = dict(vocab=vocab, lr=self.LR, seed=self.seed)

        def judgment(mode, n_a):
            return lambda steps: JudgmentModel(
                mode=mode, encoder=EncoderConfig(max_positions=160, **small), steps=steps,
                n_label_a=n_a, n_laws=len(result.law_table), **common)

        return [
            ("judgment_criminal", judgment("criminal", len(result.charge_table)),
             result.criminal_examples),
            ("judgment_civil", judgment("civil", len(result.cause_table)),
             result.civil_examples),
            ("retrieval", lambda steps: RetrievalRanker(
                encoder=EncoderConfig(max_positions=256, **small), steps=steps, **common),
             fx["retrieval"]),
            ("rc", lambda steps: ReadingComprehensionModel(
                encoder=EncoderConfig(max_positions=160, **deep), steps=steps, **common),
             fx["rc"]),
            ("mcq", lambda steps: MultipleChoiceModel(
                encoder=EncoderConfig(max_positions=160, **deep), steps=steps, **common),
             fx["mcq"]),
        ]

    def examples_per_round(self) -> int:
        return sum(len(rows) * (self.STEPS + 1) for _, _, rows in self.heads)

    def ops_per_round(self) -> int:
        return sum(self.STEPS + len(rows) for _, _, rows in self.heads)

    def round(self, i: int, clock) -> dict:
        heads = {}
        for head, make, rows in self.heads:
            model = make(self.STEPS)
            t0 = clock()
            model.fit(rows)
            t1 = clock()
            scores = model.evaluate(rows)
            t2 = clock()
            heads[head] = {"fit_s": t1 - t0, "predict_s": t2 - t1, "examples": len(rows),
                           "history": list(model.history_), "scores": scores}
        return {"ops": self.ops_per_round(), "heads": heads}

    def metrics(self, rounds: list[dict]) -> dict:
        # each head's median time over the rounds, summed over the heads
        heads = rounds[0]["heads"]

        def median_s(head, key):
            return statistics.median(r["heads"][head][key] for r in rounds)

        examples = sum(h["examples"] for h in heads.values())
        return {
            "finetune_examples_per_s": (examples * self.STEPS
                                        / sum(median_s(h, "fit_s") for h in heads), "examples/s"),
            "predict_examples_per_s": (examples / sum(median_s(h, "predict_s") for h in heads),
                                       "examples/s"),
        }

    def checks(self, rounds: list[dict]) -> list[Check]:
        out = []
        first = {head: digest(h["history"]) for head, h in rounds[0]["heads"].items()}
        for i, r in enumerate(rounds):
            for head, h in r["heads"].items():
                hist = h["history"]
                out.append(Check(f"round{i}.{head}.loss_decreases",
                                 all(map(math.isfinite, hist)) and hist[-1] < hist[0],
                                 self.STEPS, f"{hist[0]:.6f} -> {hist[-1]:.6f}"))
                out.append(Check(f"round{i}.{head}.history_repeats",
                                 digest(hist) == first[head], self.STEPS))
                # Dis@t is a log distance in months, not a share
                shares = [v for k, v in h["scores"].items() if k != "Dis@t"]
                dis = [h["scores"]["Dis@t"]] if "Dis@t" in h["scores"] else []
                out.append(Check(f"round{i}.{head}.metrics_in_range",
                                 _finite_in(shares) and _finite_in(dis, 0.0, math.inf),
                                 h["examples"], repr(h["scores"])))
        return out


class RetrievalLong(Workload):
    """Inference-only ranking of seeded candidate pools at the paper's
    truncations: the long model (509/3072, whole-query globals) and the
    512-token dense baseline (100/409, full window)."""

    name = "retrieval-long"
    ORACLE_MAX_LEN = 1536    # the quadratic oracle's memory grows with L^2
    RANK_ORDER_TOLERANCE = 1e-5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self):
        vocab = build_vocab(generators.retrieval_vocab_texts(self.seed))
        self.pools = generators.retrieval_pools(self.seed)
        train = self.pools[-1][:2]
        width = dict(n_layers=1, n_heads=2, hidden_dim=32, ffn_dim=64, window=8,
                     vocab_size=len(vocab))
        self.models = {
            kind: RetrievalRanker(model_type=kind, vocab=vocab, steps=0, seed=self.seed,
                                  encoder=EncoderConfig(max_positions=limit, **width)).fit(train)
            for kind, limit in (("long", 3584), ("dense", 512))}
        # warm-up: the same mid-size pair (700-char candidate) through each model
        warm = next(row for row in self.pools[0] if row["candidate_id"].endswith("c2"))
        for model in self.models.values():
            model.rank([warm])
        return digest(self.pools)

    def examples_per_round(self) -> int:
        return 2 * sum(len(pool) for pool in self.pools)

    ops_per_round = examples_per_round

    def round(self, i: int, clock) -> dict:
        out = {kind: {"pool_s": [], "rankings": [], "rank_scores": []} for kind in self.models}
        for pool in self.pools:
            for kind, acc in out.items():
                t0 = clock()
                [ranked] = self.models[kind].rank(pool)
                acc["rank_scores"] += [ranking.precision_at_k(ranked, 5),
                                       ranking.ndcg_at_k(ranked, 10),
                                       ranking.mean_average_precision([ranked])]
                acc["pool_s"].append(clock() - t0)
                acc["rankings"].append(ranked.ranking)
        return {"ops": self.examples_per_round(), **out}

    def probe(self, clock) -> int:
        """Every pair scored on its own, once per model: per-pair latency and
        the scores the checks read."""
        self.scores = {kind: {} for kind in self.models}
        self.latencies = {kind: [] for kind in self.models}
        for pool in self.pools:
            for row in pool:
                for kind, model in self.models.items():
                    t0 = clock()
                    p = float(model.predict_proba([row])[0])
                    self.latencies[kind].append(clock() - t0)
                    self.scores[kind][row["candidate_id"]] = p
        return self.examples_per_round()

    def metrics(self, rounds: list[dict]) -> dict:
        lat = sorted(x * 1e3 for x in self.latencies["long"])
        pct, tail = tail_percentile(lat)
        # each pool's median time over the rounds, summed over the pools
        pairs = sum(len(pool) for pool in self.pools)
        rates = {kind: pairs / sum(statistics.median(p) for p in
                                   zip(*(r[kind]["pool_s"] for r in rounds)))
                 for kind in self.models}
        return {
            "long_score_pairs_per_s": (rates["long"], "pairs/s"),
            "long_score_ms.p50": (percentile(lat, 50), "ms"),
            "long_score_ms.tail": (tail, f"ms (p{pct:g} of {len(lat)})"),
            "dense_score_pairs_per_s": (rates["dense"], "pairs/s"),
        }

    def _shape(self, row, kind):
        vocab = self.models[kind].vocab_
        enc = retrieval_input(vocab.transform(row["query"]), vocab.transform(row["candidate"]), kind)
        return enc, len(enc), len(enc.global_positions)

    def _oracle_check(self, kind: str, row) -> Check:
        enc, L, _ = self._shape(row, kind)
        encoder = self.models[kind].model_.encoder
        if kind == "dense":
            pattern = AttentionPattern(window=2 * (L - 1))  # the baseline's full window
        else:
            pattern = enc.pattern(encoder.config.window, encoder.config.dilation)
        with T.no_grad():
            fast = encoder.encode(enc.ids[None], enc.type_ids[None], pattern).data
            ref = encoder.encode_dense_reference(enc.ids[None], enc.type_ids[None], pattern).data
        diff = float(np.abs(fast - ref).max())
        return Check(f"{kind}.oracle_match", diff <= ORACLE_TOLERANCE, 1,
                     f"L={L} max abs diff {diff:.2e}")

    def _rank_order_check(self, kind: str, rankings: list[list[str]], i: int) -> Check:
        """Each ranking holds its pool's candidates once, in descending score
        order up to the tolerance."""
        scores, bad = self.scores[kind], 0
        for pool, order in zip(self.pools, rankings):
            ok = sorted(order) == sorted(row["candidate_id"] for row in pool) and all(
                scores[a] >= scores[b] - self.RANK_ORDER_TOLERANCE
                for a, b in zip(order, order[1:]))
            bad += 0 if ok else len(pool)
        return Check(f"round{i}.{kind}.rank_order_matches_scores", bad == 0, bad)

    def checks(self, rounds: list[dict]) -> list[Check]:
        out = []
        pairs = sum(len(pool) for pool in self.pools)
        for kind in self.models:
            bad = sum(not _finite_in([p]) for p in self.scores[kind].values())
            out.append(Check(f"{kind}.scores_in_unit_interval", bad == 0, bad))
        for i, r in enumerate(rounds):
            for kind in self.models:
                out.append(self._rank_order_check(kind, r[kind]["rankings"], i))
                out.append(Check(f"round{i}.{kind}.rank_metrics_in_range",
                                 _finite_in(r[kind]["rank_scores"]), pairs))
        rows = [row for pool in self.pools for row in pool]
        shapes = [self._shape(row, "long")[1:] for row in rows]
        out.append(Check("reaches_paper_shape", max(shapes) == (3584, 510), len(shapes),
                         f"max (L, G) {max(shapes)}"))
        rng = np.random.default_rng(self.seed)
        small = [row for row, (L, G) in zip(rows, shapes) if L <= self.ORACLE_MAX_LEN and G > 1]
        out.append(self._oracle_check("long", small[int(rng.integers(len(small)))]))
        out.append(self._oracle_check("dense", rows[int(rng.integers(len(rows)))]))
        return out


def median_rate(rounds: list[dict], work: str, seconds: str) -> float:
    """Median over rounds of one round's work per second."""
    return statistics.median(r[work] / r[seconds] for r in rounds)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """(p, value) for the highest ladder percentile with at least TAIL_BEYOND
    samples above it; the maximum (p100) when there are too few samples."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= TAIL_BEYOND:
            return p, percentile(sorted_values, p)
    return 100.0, sorted_values[-1]


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, RetrievalLong)}
