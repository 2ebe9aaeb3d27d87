"""Brute-force metric oracles, written straight from the definitions (plain
loops, no shared code with the implementations). Used by the metric tests and
the acceptance suite. Also the reference formulas of the numeric kernels,
which the kernel byte-identity tests compare against."""

import itertools
import math

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
# Reference kernels: the lctx.tensor kernels as plain float64 expressions
# on raw arrays, one fresh array per step. Each returns the forward output
# and the input gradients for an upstream gradient g, each gradient cast and
# added into zeros. The kernels must match these byte for byte on float32
# input.
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
    acc = np.float64
    out = np.matmul(a.astype(acc, copy=False), b.astype(acc, copy=False)).astype(a.dtype, copy=False)
    g64 = g.astype(acc, copy=False)
    ga = np.matmul(g64, np.swapaxes(b.astype(acc, copy=False), -1, -2))
    gb = np.matmul(np.swapaxes(a.astype(acc, copy=False), -1, -2), g64)
    return (out,
            ref_first_grad(ref_unbroadcast(ga.astype(a.dtype, copy=False), a.shape), a),
            ref_first_grad(ref_unbroadcast(gb.astype(b.dtype, copy=False), b.shape), b))


def ref_gelu(a, g):
    x = a.astype(np.float64, copy=False)
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = (0.5 * x * (1.0 + t)).astype(a.dtype)
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
    return out, ref_first_grad((g.astype(np.float64, copy=False) * da).astype(a.dtype), a)


def ref_softmax(a, g, axis=-1):
    x = a.astype(np.float64, copy=False)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)
    g64 = g.astype(np.float64, copy=False)
    dot = (g64 * y).sum(axis=axis, keepdims=True)
    return y.astype(a.dtype), ref_first_grad(((g64 - dot) * y).astype(a.dtype), a)


def ref_layer_norm(a, gain, bias, g, eps=1e-5):
    x = a.astype(np.float64, copy=False)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = (xhat * gain + bias).astype(a.dtype)
    g64 = g.astype(np.float64, copy=False)
    dxhat = g64 * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    ga = ((dxhat - m1 - xhat * m2) * inv).astype(a.dtype)
    red = tuple(range(g.ndim - 1))
    ggain = (g64 * xhat).sum(axis=red).astype(gain.dtype)
    gbias = g64.sum(axis=red).astype(bias.dtype)
    return (out, ref_first_grad(ga, a), ref_first_grad(ggain, gain),
            ref_first_grad(gbias, bias))


def ref_cross_entropy_index(logits, target, g, ignore_index=-1):
    x = logits.astype(np.float64, copy=False)
    valid = target != ignore_index
    n_valid = int(valid.sum())
    m = x.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(x - m).sum(axis=-1))
    picked = np.take_along_axis(x, np.maximum(target, 0)[..., None], axis=-1)[..., 0]
    losses = np.where(valid, lse - picked, 0.0)
    out = np.asarray(losses.sum() / n_valid, dtype=logits.dtype)
    p = np.exp(x - m)
    p /= p.sum(axis=-1, keepdims=True)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, np.maximum(target, 0)[..., None], 1.0, axis=-1)
    grad = (p - onehot) * valid[..., None] / n_valid
    return out, ref_first_grad((float(g) * grad).astype(logits.dtype), logits)
