"""Acceptance suite: one test per exit criterion, each at its stated
tolerance and runtime budget, printing one pass line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from oracles import bf_average_precision, bf_em_f1, bf_micro_macro, bf_ndcg_at_k, bf_precision_at_k

from lctx import tensor as T
from lctx.attention import (
    AttentionParams,
    AttentionPattern,
    attention_flop_count,
    build_band_mask,
    dense_attention_flop_count,
    dense_attention_oracle,
    sparse_attention_forward,
)
from lctx.cli import main as cli_main
from lctx.corpus import Ruleset, pack_documents, process_corpus, segment_case
from lctx.encoder import Encoder, EncoderConfig
from lctx.fixtures import (
    mcq_examples,
    mlm_sentences,
    rc_examples,
    retrieval_examples,
    synthetic_cases,
)
from lctx.metrics import (
    RankedList,
    average_precision,
    em_f1,
    log_distance,
    mcq_accuracy,
    micro_macro_f1,
    ndcg_at_k,
    precision_at_k,
)
from lctx.pretrain import PretrainConfig, load_checkpoint, masked_recovery_accuracy, pretrain
from lctx.tasks import (
    DENSE_CAND_LIMIT,
    DENSE_QUERY_LIMIT,
    LONG_CAND_LIMIT,
    LONG_QUERY_LIMIT,
    JudgmentModel,
    MultipleChoiceModel,
    ReadingComprehensionModel,
    RetrievalRanker,
    retrieval_input,
)
from lctx.vocab import PAD_ID, build_vocab


def report(n, detail):
    print(f"\ncriterion {n}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. sparse/dense equivalence over >= 200 random configurations
# ---------------------------------------------------------------------------


def test_criterion_1_sparse_dense_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_configs = 200
    for trial in range(n_configs):
        heads = int(rng.choice([1, 2, 4]))
        dh = int(rng.choice([4, 8]))
        H = heads * dh
        L = int(rng.integers(1, 65))
        w = int(rng.choice([0, 2, 4, 8]))
        dil = tuple(int(d) for d in rng.choice([0, 1, 2], size=heads))
        n_glob = int(rng.integers(0, min(3, L) + 1))
        gpos = tuple(int(g) for g in rng.choice(L, size=n_glob, replace=False))
        pattern = AttentionPattern(window=w, dilation_per_head=dil, global_positions=gpos)
        params = AttentionParams(H, rng)
        hidden = T.Tensor(rng.standard_normal((1, L, H)))
        with T.no_grad():
            sparse = sparse_attention_forward(hidden, params, pattern, heads)
            dense = dense_attention_oracle(hidden, params, pattern, heads)
        worst = max(worst, float(np.abs(sparse.data - dense.data).max()))
        assert worst <= 1e-5, f"config {trial}: diff {worst}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(1, f"{n_configs} configs, max abs diff {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. analytic gradients through a 2-layer encoder vs finite differences
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    start = time.time()
    cfg = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=8, ffn_dim=16,
                        vocab_size=20, max_positions=16, window=4)
    rng = np.random.default_rng(7)
    enc = Encoder(cfg, rng, dtype=np.float64, init_scale=0.1)
    L = 16
    ids = rng.integers(5, 20, (1, L))
    pattern = AttentionPattern(window=4, global_positions=(0,))
    weights = rng.standard_normal((1, L, cfg.hidden_dim))

    def loss_value():
        with T.no_grad():
            out = enc.encode(ids, pattern=pattern)
        return float((out.data * weights).sum())

    out = enc.encode(ids, pattern=pattern)
    T.reduce_sum(T.mul_const(out, weights)).backward()

    h = 1e-3
    fds = {}
    checked = 0
    for name, p in enc.named_params().items():
        if p.grad is None:
            continue  # the MLM head is not in this loss
        fd = np.zeros_like(p.data)
        flat, fdflat = p.data.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_value()
            flat[i] = orig - h
            lo = loss_value()
            flat[i] = orig
            fdflat[i] = (hi - lo) / (2 * h)
        fds[name] = fd
        checked += flat.size
    # relative error of the gradient as one vector: per-tensor denominators
    # floored by the global gradient scale, so parameters the loss provably
    # does not depend on (e.g. key biases, by softmax shift invariance) are
    # compared at absolute noise level rather than 0/0
    params = enc.named_params()
    scale = max(np.abs(params[n].grad).max() for n in fds)
    worst = 0.0
    for name, fd in fds.items():
        g = params[name].grad
        denom = max(np.abs(g).max(), np.abs(fd).max(), scale)
        rel = float(np.abs(g - fd).max() / denom)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"{name}: rel err {rel}"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(2, f"{checked} parameters, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. linear complexity: affine flop counts + wall-time scaling
# ---------------------------------------------------------------------------


def test_criterion_3_linear_complexity():
    for w, d, g in [(4, 0, 1), (8, 1, 0), (2, 2, 3)]:
        f = {L: attention_flop_count(L, w, g, n_heads=2, dim=64, dilation=d)
             for L in (256, 512, 768, 1024)}
        # exactly affine: equal slopes on the doubling grid (zero divided
        # second difference) and zero plain second difference when equispaced
        assert (f[512] - f[256]) * (1024 - 512) == (f[1024] - f[512]) * (512 - 256)
        assert f[768] - 2 * f[512] + f[256] == 0

    from lctx.cli import _openblas, attention_cases, blas_thread_limit, interleaved_median_ms

    rng = np.random.default_rng(0)
    params = AttentionParams(64, rng)
    pattern = AttentionPattern(window=4, global_positions=(0,))
    cases = attention_cases((512, 1024), params, pattern, heads=2, rng=rng)
    # all cases timed the way benchmark-attention times them: warmed, then in
    # interleaved rounds, so no case pays the process's warm-up or another
    # case's page faults; one BLAS thread, so no size is sped up by thread
    # dispatch the other misses
    with blas_thread_limit(1) as blas_threads:
        times = interleaved_median_ms(cases)
    assert blas_threads == 1 or _openblas() is None, blas_threads
    sparse_ratio = times[("sparse", 1024)] / times[("sparse", 512)]
    dense_ratio = times[("dense", 1024)] / times[("dense", 512)]
    assert sparse_ratio <= 2.5
    assert dense_ratio >= 3.5
    report(3, f"sparse ratio {sparse_ratio:.2f} <= 2.5, dense ratio {dense_ratio:.2f} >= 3.5, "
              f"blas threads {blas_threads}")


# ---------------------------------------------------------------------------
# 4. MLM sanity on the 8-sentence fixture corpus
# ---------------------------------------------------------------------------


def test_criterion_4_mlm_sanity():
    start = time.time()
    sents = mlm_sentences()
    assert len(sents) == 8
    vocab = build_vocab(sents)
    blocks = pack_documents([vocab.transform(s) for s in sents], 32)
    cfg = PretrainConfig(seq_len=32, batch_size=8, peak_lr=5e-3, total_steps=300,
                         warmup_steps=20, mask_rate=0.15, seed=0)
    enc_cfg = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=64, ffn_dim=128,
                            vocab_size=len(vocab), max_positions=64, window=4)
    encoder, history = pretrain(blocks, cfg, enc_cfg, steps=300)
    losses = [h.loss for h in history]
    final = losses[-1]
    windows = [float(np.mean(losses[i:i + 50])) for i in range(0, 300, 50)]
    recovery = masked_recovery_accuracy(encoder, blocks, cfg)
    elapsed = time.time() - start
    assert final < 0.1, f"final loss {final}"
    assert recovery >= 0.95, f"recovery {recovery}"
    assert all(b <= a + 1e-6 for a, b in zip(windows, windows[1:])), windows
    assert elapsed < 120.0
    report(4, f"loss {final:.4f} < 0.1, recovery {recovery:.3f} >= 0.95, "
              f"windows monotone, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. metric oracles: 1000 random instances to 1e-12 + hand values
# ---------------------------------------------------------------------------


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        cands = [f"c{i}" for i in range(n)]
        judgments = {c: int(rng.integers(0, 3)) for c in cands if rng.random() < 0.85}
        order = list(rng.permutation(cands))
        k = int(rng.integers(1, 12))
        r = RankedList("q", order, judgments)
        assert abs(precision_at_k(r, k) - bf_precision_at_k(order, judgments, k)) <= 1e-12
        assert abs(ndcg_at_k(r, k) - bf_ndcg_at_k(order, judgments, k)) <= 1e-12
        ap, bf_ap = average_precision(r), bf_average_precision(order, judgments)
        assert (ap is None and bf_ap is None) or abs(ap - bf_ap) <= 1e-12

        n_labels = int(rng.integers(1, 6))
        preds = [set(int(x) for x in rng.choice(n_labels, size=rng.integers(0, n_labels + 1),
                                                replace=False)) for _ in range(4)]
        golds = [set(int(x) for x in rng.choice(n_labels, size=rng.integers(0, n_labels + 1),
                                                replace=False)) for _ in range(4)]
        got, want = micro_macro_f1(preds, golds, n_labels), bf_micro_macro(preds, golds, n_labels)
        assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12

        pred_t = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 6))]
        gold_t = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 6))]
        ge, gf = em_f1(pred_t, gold_t)
        we, wf = bf_em_f1(pred_t, gold_t)
        assert ge == we and abs(gf - wf) <= 1e-12

        p_m = rng.integers(0, 181, size=4)
        g_m = rng.integers(0, 181, size=4)
        manual = float(np.mean([abs(np.log1p(a) - np.log1p(b)) for a, b in zip(p_m, g_m)]))
        assert abs(log_distance(p_m, g_m) - manual) <= 1e-12

        sets = [set("ABCD"[i] for i in rng.choice(4, size=rng.integers(1, 4), replace=False))
                for _ in range(3)]
        psets = [set("ABCD"[i] for i in rng.choice(4, size=rng.integers(1, 4), replace=False))
                 for _ in range(3)]
        single, all_acc = mcq_accuracy(psets, sets)
        singles = [int(p == g) for p, g in zip(psets, sets) if len(g) == 1]
        assert all_acc == np.mean([int(p == g) for p, g in zip(psets, sets)])
        if singles:
            assert single == np.mean(singles)

    # hand values quoted in 4 decimals
    np.testing.assert_allclose(
        ndcg_at_k(RankedList("q", ["a", "b", "c"], {"a": 1, "b": 0, "c": 1}), 3),
        1.5 / (1 + 1 / np.log2(3)), atol=1e-12)
    assert abs(ndcg_at_k(RankedList("q", ["a", "b", "c"], {"a": 1, "b": 0, "c": 1}), 3)
               - 0.9198) < 1e-4
    assert abs(average_precision(RankedList("q", ["a", "b", "c"], {"a": 1, "c": 1}))
               - 0.8333) < 5e-5
    assert abs(micro_macro_f1([{0}, {0}], [{0}, {1}], 2)[1] - 0.3333) < 5e-5
    assert abs(log_distance([0], [180]) - 5.1985) < 5e-5
    report(5, "1000 random instances within 1e-12 of brute force; hand values reproduced")


# ---------------------------------------------------------------------------
# 6. task-head overfit
# ---------------------------------------------------------------------------


def test_criterion_6_judgment_overfit():
    start = time.time()
    result = process_corpus(synthetic_cases(16, 0, seed=0), Ruleset())
    model = JudgmentModel(mode="criminal", steps=200, lr=2e-3, seed=0)
    model.fit(result.criminal_examples)
    metrics = model.evaluate(result.criminal_examples)
    elapsed = time.time() - start
    assert metrics["Mic@c"] >= 0.95, metrics
    assert elapsed < 180.0
    report(6, f"judgment charges micro-F1 {metrics['Mic@c']:.3f} >= 0.95, {elapsed:.0f}s")


def test_criterion_6_retrieval_overfit():
    start = time.time()
    rows = retrieval_examples(4, 4, seed=0)
    assert len(rows) == 16
    ranker = RetrievalRanker(steps=100, lr=2e-3, seed=0).fit(rows)
    acc = ranker.evaluate(rows, ks=(1,))["accuracy"]
    elapsed = time.time() - start
    assert acc >= 0.95, acc
    assert elapsed < 180.0
    report(6, f"retrieval training accuracy {acc:.3f} >= 0.95, {elapsed:.0f}s")


def test_criterion_6_rc_overfit():
    start = time.time()
    rows = rc_examples(16, seed=0)
    model = ReadingComprehensionModel(steps=200, lr=2e-3, seed=0).fit(rows)
    em = model.evaluate(rows)["EM"]
    elapsed = time.time() - start
    assert em >= 0.90, em
    assert elapsed < 180.0
    report(6, f"rc training EM {em:.3f} >= 0.90, {elapsed:.0f}s")


def test_criterion_6_mcq_overfit():
    start = time.time()
    rows = mcq_examples(16, seed=0)
    model = MultipleChoiceModel(steps=200, lr=3e-3, seed=0).fit(rows)
    single = model.evaluate(rows)["single"]
    elapsed = time.time() - start
    assert single >= 0.95, single
    assert elapsed < 180.0
    report(6, f"mcq single accuracy {single:.3f} >= 0.95, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. policy conformance + truncation limits
# ---------------------------------------------------------------------------


def _rows_and_columns_full(enc_in, window=4):
    mask = build_band_mask(len(enc_in), enc_in.pattern(window), 0, 1)
    for g in enc_in.global_positions:
        assert mask[g].all() and mask[:, g].all()


def test_criterion_7_policy_conformance():
    # judgment: CLS only
    jm = JudgmentModel(mode="criminal", steps=1, lr=1e-3, seed=0)
    rows = [{"fact": "事实" * 40, "charges": [0], "laws": [0], "penalty_months": 6}]
    jm.fit(rows)
    enc_in = jm._prepare(rows)[0]
    assert enc_in.global_positions == (0,)
    _rows_and_columns_full(enc_in)

    # rc / mcq: whole question (CLS + question tokens)
    rc = ReadingComprehensionModel(steps=1, lr=1e-3, seed=0).fit(rc_examples(2, seed=0))
    enc_in, _ = rc._assemble(rc_examples(2, seed=0)[0])
    q_len = len(enc_in.sections["first"])
    assert enc_in.global_positions == tuple(range(q_len + 1))
    _rows_and_columns_full(enc_in)

    mq = MultipleChoiceModel(steps=1, lr=1e-3, seed=0).fit(mcq_examples(2, seed=0))
    enc_in = mq._assemble(mcq_examples(2, seed=0)[0])[0]
    q_len = len(enc_in.sections["first"])
    assert enc_in.global_positions == tuple(range(q_len + 1))
    _rows_and_columns_full(enc_in)

    # retrieval: whole query, and bit-exact truncation limits
    long_in = retrieval_input(list(range(5, 5 + 600)), list(range(5, 5 + 5000)), "long")
    assert len(long_in.sections["first"]) == LONG_QUERY_LIMIT == 509
    assert len(long_in.sections["second"]) == LONG_CAND_LIMIT == 3072
    assert long_in.global_positions == tuple(range(0, 510))
    _rows_and_columns_full(long_in)

    dense_in = retrieval_input(list(range(5, 5 + 600)), list(range(5, 5 + 5000)), "dense")
    assert len(dense_in.sections["first"]) == DENSE_QUERY_LIMIT == 100
    assert len(dense_in.sections["second"]) == DENSE_CAND_LIMIT == 409
    assert len(dense_in) == 512

    # truncation never removes CLS or the SEP structure
    for enc_in in (long_in, dense_in):
        assert enc_in.ids[0] == 2 and enc_in.ids[-1] == 3
        assert (enc_in.ids == 3).sum() == 2
    report(7, "global masks full for designated tokens; 509/3072 and 100/409 exact")


# ---------------------------------------------------------------------------
# 8. pipeline determinism: smoke x2, checkpoint round-trip, resume
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path):
    code = cli_main(["smoke", "--out", str(tmp_path / "a"), "--seed", "5", "--steps", "100"])
    assert code == 0
    code = cli_main(["smoke", "--out", str(tmp_path / "b"), "--seed", "5", "--steps", "100"])
    assert code == 0
    csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert csv_a == csv_b

    # checkpoint save -> load -> forward is bit-identical
    sents = mlm_sentences()
    vocab = build_vocab(sents)
    blocks = pack_documents([vocab.transform(s) for s in sents], 32)
    cfg = PretrainConfig(seq_len=32, batch_size=8, peak_lr=5e-3, total_steps=40,
                         warmup_steps=5, mask_rate=0.15, seed=0)
    enc_cfg = EncoderConfig(n_layers=1, n_heads=2, hidden_dim=32, ffn_dim=64,
                            vocab_size=len(vocab), max_positions=64, window=4)
    enc, _ = pretrain(blocks, cfg, enc_cfg, steps=20, out_dir=tmp_path / "ckpt")
    with T.no_grad():
        before = enc.mlm_logits(enc.encode(blocks)).data.copy()
    loaded, _ = load_checkpoint(tmp_path / "ckpt" / "step000020")
    with T.no_grad():
        after = loaded.mlm_logits(loaded.encode(blocks)).data
    assert np.array_equal(before, after)

    # resume at step k equals the uninterrupted run bit for bit
    full, _ = pretrain(blocks, cfg, enc_cfg, steps=40, out_dir=tmp_path / "full")
    resumed, _ = pretrain(blocks, cfg, enc_cfg, steps=20, out_dir=tmp_path / "resumed",
                          resume_from=tmp_path / "ckpt" / "step000020")
    for name, p in full.named_params().items():
        assert np.array_equal(p.data, resumed.named_params()[name].data), name
    report(8, "smoke CSVs byte-identical; checkpoint and resume bit-identical")


# ---------------------------------------------------------------------------
# 9. corpus pipeline: filter boundary, packing conservation, stats schema
# ---------------------------------------------------------------------------


def test_criterion_9_corpus_pipeline(tmp_path):
    from lctx.corpus import corpus_stats, fact_long_enough, judgment_stats
    from lctx.vocab import char_tokens

    rules = Ruleset()

    def doc_with_fact_tokens(n):
        # "：" + body + "。" wrap the fact; compensate for those two tokens
        body = "事" * (n - 2)
        text = (f"指控张某。经审理查明：{body}。本院认为构成盗窃罪，"
                f"依照《中华人民共和国刑法》第二百六十四条。判决如下：犯盗窃罪，判处有期徒刑六个月。")
        return segment_case(text, rules, "criminal", f"len{n}")

    d50, d51 = doc_with_fact_tokens(50), doc_with_fact_tokens(51)
    assert len(char_tokens(d50.fact)) == 50
    assert len(char_tokens(d51.fact)) == 51
    kept = [d for d in (d50, d51) if fact_long_enough(d, min_tokens=50)]
    assert kept == [d51], "50 dropped, 51 kept"

    rng = np.random.default_rng(1)
    streams = [list(rng.integers(5, 60, size=rng.integers(1, 70))) for _ in range(11)]
    blocks = pack_documents(streams, 24)
    assert int((blocks != PAD_ID).sum()) == sum(len(s) for s in streams) + len(streams)

    result = process_corpus(synthetic_cases(6, 6, seed=0), rules)
    pre_rows = corpus_stats(result.documents)
    assert list(pre_rows[0].keys()) == ["kind", "docs", "avg_len", "size_bytes"]
    judg_rows = judgment_stats(result.criminal_examples, result.civil_examples,
                               result.charge_table, result.law_table, result.cause_table)
    assert list(judg_rows[0].keys()) == ["kind", "cases", "avg_len",
                                         "n_labels", "n_laws", "prison"]
    report(9, "strict 50-token boundary, token conservation, stats schemas")
