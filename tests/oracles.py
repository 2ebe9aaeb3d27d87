"""Brute-force metric oracles, written straight from the definitions (plain
loops, no shared code with the implementations). Used by the metric tests and
the acceptance suite. Also the reference formulas of the numeric kernels,
which the kernel byte-identity tests compare against, the per-character
corpus pipeline that the numpy one must reproduce exactly, and the span
decoding loop of reading comprehension."""

import itertools
import math
from collections import Counter

import numpy as np


def bf_micro_macro(preds, golds, n_labels):
    tp = fp = fn = 0
    per_label = []
    for lab in range(n_labels):
        ltp = lfp = lfn = 0
        for p, g in zip(preds, golds):
            if lab in p and lab in g:
                ltp += 1
            if lab in p and lab not in g:
                lfp += 1
            if lab not in p and lab in g:
                lfn += 1
        prec = ltp / (ltp + lfp) if ltp + lfp else 0.0
        rec = ltp / (ltp + lfn) if ltp + lfn else 0.0
        per_label.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        tp, fp, fn = tp + ltp, fp + lfp, fn + lfn
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    micro = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return micro, sum(per_label) / n_labels


def bf_precision_at_k(ranking, judgments, k):
    hits = 0
    for cand in ranking[:k]:
        if judgments.get(cand, 0) > 0:
            hits += 1
    return hits / k


def bf_dcg(order, judgments, k):
    total = 0.0
    for rank, cand in enumerate(order[:k], start=1):
        total += judgments.get(cand, 0) / math.log2(rank + 1)
    return total


def bf_ndcg_at_k(ranking, judgments, k):
    # ideal DCG by exhaustive search over permutations of the judged set
    cands = list(judgments)
    best = 0.0
    for perm in itertools.permutations(cands):
        best = max(best, bf_dcg(list(perm), judgments, k))
    if best == 0.0:
        return 0.0
    return bf_dcg(ranking, judgments, k) / best


def bf_average_precision(ranking, judgments):
    n_rel = sum(1 for g in judgments.values() if g > 0)
    if n_rel == 0:
        return None
    total = 0.0
    for rank, cand in enumerate(ranking, start=1):
        if judgments.get(cand, 0) > 0:
            hits_so_far = sum(1 for c in ranking[:rank] if judgments.get(c, 0) > 0)
            total += hits_so_far / rank
    return total / n_rel


def bf_em_f1(pred, gold):
    em = 1 if list(pred) == list(gold) else 0
    if not pred and not gold:
        return 1, 1.0
    common = 0
    gold_pool = list(gold)
    for tok in pred:
        if tok in gold_pool:
            gold_pool.remove(tok)
            common += 1
    if not pred or not gold or common == 0:
        return em, 0.0
    p = common / len(pred)
    r = common / len(gold)
    return em, 2 * p * r / (p + r)


# ---------------------------------------------------------------------------
# Reference kernels: the lctx.tensor kernels as plain expressions on raw
# arrays, one fresh array per step. Products and elementwise work run in the
# input's dtype; reductions sum in float64 (sum/mean with dtype=np.float64)
# and are cast to that dtype before elementwise use. With float64 inputs
# these are the float64-internal formulas. Each returns the forward output
# and the input gradients for an upstream gradient g of the input's dtype,
# each gradient cast and added into zeros. The kernels must match these
# byte for byte, in float32 and in float64 mode.
# ---------------------------------------------------------------------------

_GELU_C = 0.7978845608028654


def ref_first_grad(g, like):
    """A node's first gradient: zeros of like's dtype plus the cast g."""
    out = np.zeros_like(like)
    out += g.astype(like.dtype, copy=False)
    return out


def ref_unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64).astype(g.dtype)
    return g.reshape(shape)


def ref_matmul(a, b, g):
    """Products in the operands' dtype, one plain np.matmul each; a 2-D
    operand's gradient sums the per-batch products in float64."""
    out = np.matmul(a, b)
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    return (out, ref_first_grad(ref_unbroadcast(ga, a.shape), a),
            ref_first_grad(ref_unbroadcast(gb, b.shape), b))


def ref_gelu(x, g):
    """The cube is x*x*x: np.power(x, 3) can differ from it in the last bit."""
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
    return out, ref_first_grad(g * da, x)


def ref_softmax(x, g, axis=-1):
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True, dtype=np.float64).astype(x.dtype)
    dot = (g * y).sum(axis=axis, keepdims=True, dtype=np.float64).astype(x.dtype)
    return y, ref_first_grad((g - dot) * y, x)


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = xc * inv
    out = xhat * gain + bias
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    ga = (dxhat - m1 - xhat * m2) * inv
    red = tuple(range(g.ndim - 1))
    ggain = (g * xhat).sum(axis=red, dtype=np.float64)
    gbias = g.sum(axis=red, dtype=np.float64)
    return (out, ref_first_grad(ga, x), ref_first_grad(ggain, gain),
            ref_first_grad(gbias, bias))


def ref_cross_entropy_index(x, target, g, ignore_index=-1):
    """Per-row denominators, log-sum-exp and the loss total in float64."""
    valid = target != ignore_index
    n_valid = int(valid.sum())
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    denom = e.sum(axis=-1, keepdims=True, dtype=np.float64)
    lse = m[..., 0] + np.log(denom[..., 0])
    picked = np.take_along_axis(x, np.maximum(target, 0)[..., None], axis=-1)[..., 0]
    losses = np.where(valid, lse - picked, 0.0)
    out = np.asarray(losses.sum() / n_valid, dtype=x.dtype)
    p = e / denom.astype(x.dtype)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, np.maximum(target, 0)[..., None], 1.0, axis=-1)
    grad = (p - onehot) * valid[..., None] / n_valid
    return out, ref_first_grad(float(g) * grad, x)


def ref_cross_entropy_multihot(x, target, g):
    """Summed binary cross-entropy per row, averaged over rows; the total
    in float64."""
    y = target.astype(x.dtype)
    per = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    n_rows = int(np.prod(x.shape[:-1]))
    out = np.asarray(per.sum(dtype=np.float64) / n_rows, dtype=x.dtype)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    return out, ref_first_grad(float(g) * (s - y) / n_rows, x)


def _ref_shifted(x, head, shift):
    """x[:, head] moved up by `shift` rows, [B, L, dh]: row i holds row
    i + shift, and zeros where that is outside [0, L)."""
    B, _, L, dh = x.shape
    shifted = np.zeros((B, L, dh), dtype=x.dtype)
    lo, hi = max(0, -shift), min(L, L - shift)
    if lo < hi:
        shifted[:, lo:hi] = x[:, head, lo + shift:hi + shift]
    return shifted


def ref_slot_dots(a, x, window, gaps):
    """The band scores straight from their definition, [B,h,L,w+1]: slot s of
    row i of head h is a[..., i, :] . x[..., j, :] with
    j = i + (s - w/2)*(gaps[h]+1), and 0 where j is outside [0, L)."""
    B, h, L, _ = a.shape
    out = np.zeros((B, h, L, window + 1), dtype=np.result_type(a, x))
    for head, gap in enumerate(gaps):
        for s in range(window + 1):
            shifted = _ref_shifted(x, head, (s - window // 2) * (gap + 1))
            out[:, head, :, s] = (a[:, head] * shifted).sum(axis=-1)
    return out


def ref_slot_sum(w, x, window, gaps):
    """The band mix straight from its definition: row i of head h is the sum,
    slot by slot from s = 0, of w[..., i, s] * x[..., j, :] with
    j = i + (s - w/2)*(gaps[h]+1), and x zero outside [0, L). Each slot's
    products go into a fresh array that is added into zeros."""
    B, h, L, dh = x.shape
    out = np.zeros((B, h, L, dh), dtype=np.result_type(w, x))
    for head, gap in enumerate(gaps):
        for s in range(window + 1):
            shifted = _ref_shifted(x, head, (s - window // 2) * (gap + 1))
            out[:, head] += w[:, head, :, s, None] * shifted
    return out


def ref_slot_scatter(w, a, window, gaps):
    """The adjoint of reading the band's slots, [B,h,L,dh]: every slot's
    w[..., i, s] * a[..., i, :] added, slot by slot, into row
    j = i + (s - w/2)*(gaps[h]+1) when j is inside [0, L)."""
    B, h, L, dh = a.shape
    out = np.zeros((B, h, L, dh), dtype=np.result_type(w, a))
    for head, gap in enumerate(gaps):
        for s in range(window + 1):
            shift = (s - window // 2) * (gap + 1)
            lo, hi = max(0, -shift), min(L, L - shift)
            if lo < hi:
                out[:, head, lo + shift:hi + shift] += w[:, head, lo:hi, s, None] * a[:, head, lo:hi]
    return out


def ref_band_mask(length, window, gap, global_positions=()):
    """The one-head attention mask with the dilation test written as a
    modulo for every gap: |i - j| <= (w/2)(gap+1) and (j - i) % (gap+1) == 0,
    or i or j global."""
    idx = np.arange(length)
    delta = idx[None, :] - idx[:, None]
    step = gap + 1
    mask = (np.abs(delta) <= (window // 2) * step) & (delta % step == 0)
    g = list(global_positions)
    mask[g, :] = True
    mask[:, g] = True
    return mask


# ---------------------------------------------------------------------------
# Reference attention composition: the banded and the dense kernel as a chain
# of separate lctx graph ops, one array per step. The band scores and the
# global-column product are two nodes, each plus a 0/-inf additive mask
# (add_const), concatenated and passed to T.softmax; the probabilities are
# split by two slices. The dense kernel's local rows are the full score
# matrix plus its additive mask, T.softmax and the mix. Both kernels then
# replace their global rows by the same chain, whose global queries are
# projected over all L rows and then gathered. The fused kernels in
# lctx.attention must match this chain byte for byte, forward and backward,
# in float32 and float64 mode. ref_dense_attention_oracle is the older blend
# form, which shares no global-row code with the kernels: the dense kernel
# matches it within the oracle bound.
# ---------------------------------------------------------------------------


def _ref_additive_mask(allowed, dtype):
    return np.where(allowed, np.zeros((), dtype), np.full((), -np.inf, dtype))


def ref_sparse_attention_forward(hidden, params, pattern, n_heads, lengths=None):
    from lctx import tensor as T
    from lctx.attention import (_band_index, _gather_rows, _merge_heads, _project,
                                _row_valid, band_mix, band_scores)

    B, L, H = hidden.shape
    dh = H // n_heads
    pattern.check_globals(L)
    gaps = tuple(pattern.dilation_for(h, n_heads) for h in range(n_heads))
    half_k = pattern.window // 2
    if all(half_k * (gap + 1) >= L - 1 for gap in gaps):
        return ref_dense_attention_unfused(hidden, params, pattern, n_heads, lengths)
    gpos = np.asarray(pattern.global_positions, dtype=np.int64)
    G = len(gpos)
    K = pattern.window + 1
    dtype = hidden.data.dtype

    q = T.mul(_project(hidden, params.wq, params.bq, n_heads), 1.0 / np.sqrt(dh))
    k = _project(hidden, params.wk, params.bk, n_heads)
    v = _project(hidden, params.wv, params.bv, n_heads)

    idx_h, valid_h = zip(*(_band_index(L, pattern.window, gap) for gap in gaps))
    idxc = np.stack(idx_h)
    validc = np.stack(valid_h)
    if G:
        validc &= ~np.isin(idxc, gpos)
    row_ok = _row_valid(lengths, B, L)
    padded = not row_ok.all()
    key_ok = validc[None] & row_ok[:, idxc]
    key_ok[..., half_k] = True

    scores = band_scores(q, k, pattern.window, gaps)
    scores = T.add_const(scores, _ref_additive_mask(key_ok, dtype))
    if G:
        kcols = _gather_rows(k, gpos)
        vcols = _gather_rows(v, gpos)
        cscores = T.matmul(q, T.transpose(kcols, (0, 1, 3, 2)))
        if padded:
            cscores = T.add_const(cscores,
                                  _ref_additive_mask(row_ok[:, None, None, gpos], dtype))
        scores = T.concat([scores, cscores], axis=-1)
    probs = T.softmax(scores, axis=-1)
    pband = probs[..., :K] if G else probs
    out = band_mix(pband, v, pattern.window, gaps)

    if G:
        out = out + T.matmul(probs[..., K:], vcols)
        out = _ref_global_rows(hidden, params, n_heads, out, gpos, row_ok)

    merged = _merge_heads(out)
    y = T.matmul(merged, params.wo, params.bo)
    return T.mul_const(y, row_ok[:, :, None].astype(dtype))


def _ref_global_rows(hidden, params, n_heads, out, gpos, row_ok):
    """out [B,h,L,dh] with rows gpos replaced by the global rows: global
    queries projected over all L rows and gathered, scores against every
    key, a 0/-inf mask of the padding keys (the row itself always open)
    when a row is padded, T.softmax and the mix with the global values."""
    from lctx import tensor as T
    from lctx.attention import _gather_rows, _project, _scatter_rows

    B, L, H = hidden.shape
    dh = H // n_heads
    G = len(gpos)
    dtype = hidden.data.dtype
    qg = T.mul(_project(hidden, params.wq_g, params.bq_g, n_heads), 1.0 / np.sqrt(dh))
    kg = _project(hidden, params.wk_g, params.bk_g, n_heads)
    vg = _project(hidden, params.wv_g, params.bv_g, n_heads)
    qg_rows = _gather_rows(qg, gpos)
    gscores = T.matmul(qg_rows, T.transpose(kg, (0, 1, 3, 2)))
    if not row_ok.all():
        gok = np.repeat(row_ok[:, None, None, :], G, axis=2)
        gok[:, :, np.arange(G), gpos] = True
        gscores = T.add_const(gscores, _ref_additive_mask(gok, dtype))
    gout = T.matmul(T.softmax(gscores, axis=-1), vg)
    keep = np.ones((L, 1), dtype=dtype)
    keep[gpos] = 0.0
    return T.mul_const(out, keep) + _scatter_rows(gout, gpos, L)


def ref_dense_attention_unfused(hidden, params, pattern, n_heads, lengths=None):
    """The dense kernel's chain: every row's local scores plus the additive
    mask, T.softmax and the mix with the local values; then the global rows
    (_ref_global_rows)."""
    from lctx import tensor as T
    from lctx.attention import _merge_heads, _project, _row_valid, build_band_mask

    B, L, H = hidden.shape
    dh = H // n_heads
    pattern.check_globals(L)
    gpos = np.asarray(pattern.global_positions, dtype=np.int64)
    dtype = hidden.data.dtype

    q = T.mul(_project(hidden, params.wq, params.bq, n_heads), 1.0 / np.sqrt(dh))
    k = _project(hidden, params.wk, params.bk, n_heads)
    v = _project(hidden, params.wv, params.bv, n_heads)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    row_ok = _row_valid(lengths, B, L)
    gaps = [pattern.dilation_for(h, n_heads) for h in range(n_heads)]
    # no mask when every key of every row is open
    if not (row_ok.all() and not any(gaps) and pattern.window // 2 >= L - 1):
        allowed = np.stack([build_band_mask(L, pattern, h, n_heads) for h in range(n_heads)])
        allowed = allowed[None] & row_ok[:, None, None, :]
        allowed[:, :, np.arange(L), np.arange(L)] = True
        scores = T.add_const(scores, _ref_additive_mask(allowed, dtype))
    out = T.matmul(T.softmax(scores, axis=-1), v)
    if len(gpos):
        out = _ref_global_rows(hidden, params, n_heads, out, gpos, row_ok)

    y = T.matmul(_merge_heads(out), params.wo, params.bo)
    return T.mul_const(y, row_ok[:, :, None].astype(dtype))


def ref_dense_attention_oracle(hidden, params, pattern, n_heads, lengths=None):
    from lctx import tensor as T
    from lctx.attention import _merge_heads, _project, _row_valid, build_band_mask

    B, L, H = hidden.shape
    dh = H // n_heads
    pattern.check_globals(L)
    gpos = np.asarray(pattern.global_positions, dtype=np.int64)
    G = len(gpos)

    q = T.mul(_project(hidden, params.wq, params.bq, n_heads), 1.0 / np.sqrt(dh))
    k = _project(hidden, params.wk, params.bk, n_heads)
    v = _project(hidden, params.wv, params.bv, n_heads)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))

    row_ok = _row_valid(lengths, B, L)
    gaps = [pattern.dilation_for(h, n_heads) for h in range(n_heads)]
    if row_ok.all() and not any(gaps) and pattern.window // 2 >= L - 1:
        add_mask = None
    else:
        by_gap = {gap: build_band_mask(L, pattern, gaps.index(gap), n_heads)
                  for gap in set(gaps)}
        allowed = np.stack([by_gap[gap] for gap in gaps])[None] & row_ok[:, None, None, :]
        allowed[:, :, np.arange(L), np.arange(L)] = True
        add_mask = _ref_additive_mask(allowed, hidden.data.dtype)

    if G:
        qg = T.mul(_project(hidden, params.wq_g, params.bq_g, n_heads), 1.0 / np.sqrt(dh))
        kg = _project(hidden, params.wk_g, params.bk_g, n_heads)
        vg = _project(hidden, params.wv_g, params.bv_g, n_heads)
        gscores = T.matmul(qg, T.transpose(kg, (0, 1, 3, 2)))
        grow = np.zeros((L, 1), dtype=hidden.data.dtype)
        grow[gpos] = 1.0
        scores = T.mul_const(scores, 1.0 - grow) + T.mul_const(gscores, grow)
    if add_mask is not None:
        scores = T.add_const(scores, add_mask)
    probs = T.softmax(scores, axis=-1)
    if G:
        out = T.mul_const(T.matmul(probs, v), 1.0 - grow) + T.mul_const(T.matmul(probs, vg), grow)
    else:
        out = T.matmul(probs, v)

    y = T.matmul(_merge_heads(out), params.wo, params.bo)
    return T.mul_const(y, row_ok[:, :, None].astype(hidden.data.dtype))


# ---------------------------------------------------------------------------
# Reference corpus pipeline: the per-character vocabulary and the list-based
# packing, token by token. Special tokens PAD, UNK, CLS, SEP, MASK are ids
# 0..4. These predate the rule that surrogate codepoints are never tokens,
# so they are compared on texts without surrogates.
# ---------------------------------------------------------------------------

REF_SPECIAL_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]


def ref_char_tokens(text):
    return [ch for ch in text if not ch.isspace()]


def ref_vocab_tokens(texts):
    """Special tokens, then characters by descending count, ties by codepoint."""
    counts = Counter()
    for text in texts:
        counts.update(ref_char_tokens(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return REF_SPECIAL_TOKENS + [tok for tok, _ in ranked]


def ref_transform(tokens, text):
    """Ids of text's characters under a token list, 1 (UNK) when absent."""
    index = {tok: i for i, tok in enumerate(tokens)}
    return [index.get(ch, 1) for ch in ref_char_tokens(text)]


def ref_pack_documents(token_streams, target_len):
    """Tokens appended one at a time, a SEP (3) after each stream, a block cut
    whenever it is full, and the last one padded with PAD (0)."""
    blocks, current = [], []
    for stream in token_streams:
        for tok in list(stream) + [3]:
            current.append(int(tok))
            if len(current) == target_len:
                blocks.append(current)
                current = []
    if current:
        blocks.append(current + [0] * (target_len - len(current)))
    return np.asarray(blocks, dtype=np.int64).reshape(-1, target_len)


# ---------------------------------------------------------------------------
# Reference span decoding: every legal (start, end) pair in order, the first
# strictly best one kept.
# ---------------------------------------------------------------------------


def ref_best_span(start_logits, end_logits, max_span):
    best, best_pair = -np.inf, (0, 0)
    for i in range(len(start_logits)):
        for j in range(i, min(len(end_logits), i + max_span)):
            if start_logits[i] + end_logits[j] > best:
                best, best_pair = start_logits[i] + end_logits[j], (i, j)
    return best_pair
