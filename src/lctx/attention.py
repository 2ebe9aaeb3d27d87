"""Banded multi-head attention: sliding window, dilated windows, global tokens.

Each token attends to w/2 neighbours per side (optionally dilated by a
per-head gap d, i.e. offsets +-k*(d+1) for k=1..w/2) plus every designated
global position. Global tokens attend to the whole sequence through a second,
independent projection set, and are attended from everywhere. Cost is linear
in sequence length for fixed window and global count.

The banded kernel gathers nothing per row. K and V are padded once along L,
and the band ops read the w+1 band slots as shifted slices of the padded
copy (slot stride (d+1) rows): the band scores are one row-wise dot product
per slot, band_mix sums the probability-weighted slots with one einsum over a
strided view of the padded copy, and each backward adds every slot's gradient
back as one shifted slice. No [B,h,L,w+1,dh] array is built.

Scores are written once. band_softmax writes a row's w+1 band scores and its
G global-column scores (one q @ k[globals]^T product, through matmul's out=)
side by side into one [B,h,L,w+1+G] buffer, sets the masked entries to -inf
in place and runs the softmax in that buffer; global_softmax does the same
for the global rows' [B,h,G,L] scores. Only the global rows' queries are
projected. The bytes are those of scoring, adding 0/-inf masks,
concatenating and taking a separate softmax. When every head's band covers
the sequence, (w/2)*(d+1) >= L-1, the call goes to the dense kernel.

`dense_attention_oracle` materializes the full mask and computes the same
quantity quadratically; it is the testing ground truth, the quadratic
baseline for benchmarks and the kernel for full windows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, make_op

NEG_INF = -np.inf


@dataclass(frozen=True)
class AttentionPattern:
    """Window size w (total width, w/2 per side), per-head dilation gaps,
    and the set of global token positions."""

    window: int = 4
    dilation_per_head: tuple[int, ...] | None = None
    global_positions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.window < 0 or self.window % 2 != 0:
            raise ValueError(f"window must be even and non-negative, got {self.window}")
        if self.dilation_per_head is not None and any(d < 0 for d in self.dilation_per_head):
            raise ValueError("dilation gaps must be non-negative")
        object.__setattr__(self, "global_positions",
                           tuple(sorted(set(int(g) for g in self.global_positions))))
        if any(g < 0 for g in self.global_positions):
            raise ValueError("global positions must be non-negative")

    def dilation_for(self, head: int, n_heads: int) -> int:
        if self.dilation_per_head is None:
            return 0
        if len(self.dilation_per_head) != n_heads:
            raise ValueError(
                f"dilation list has {len(self.dilation_per_head)} entries for {n_heads} heads")
        return self.dilation_per_head[head]

    def check_globals(self, seq_len: int) -> None:
        if self.global_positions and self.global_positions[-1] >= seq_len:
            raise ValueError("global position outside [0, sequence_length)")


def sliding_window_offsets(i: int, length: int, window: int, gap: int = 0) -> set[int]:
    """Positions row i attends to locally: {i} plus i +- k*(gap+1), k=1..w/2,
    truncated to [0, length)."""
    if window % 2 != 0:
        raise ValueError("window must be even")
    if not 0 <= i < length:
        raise ValueError("position outside sequence")
    step = gap + 1
    offs = {i}
    for k in range(1, window // 2 + 1):
        offs.add(i + k * step)
        offs.add(i - k * step)
    return {j for j in offs if 0 <= j < length}


def build_band_mask(length: int, pattern: AttentionPattern, head: int,
                    n_heads: int | None = None) -> np.ndarray:
    """Boolean [L, L] mask for one head: allowed(i, j) iff j is in i's window,
    or i is global, or j is global."""
    n_heads = n_heads if n_heads is not None else (
        len(pattern.dilation_per_head) if pattern.dilation_per_head else head + 1)
    pattern.check_globals(length)
    gap = pattern.dilation_for(head, n_heads)
    step = gap + 1
    half = pattern.window // 2
    idx = np.arange(length)
    delta = idx[None, :] - idx[:, None]
    mask = np.abs(delta) <= half * step
    if step > 1:
        mask &= delta % step == 0
    if pattern.global_positions:
        g = np.asarray(pattern.global_positions)
        mask[g, :] = True
        mask[:, g] = True
    return mask


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

_LOCAL_NAMES = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
_GLOBAL_NAMES = ("wq_g", "bq_g", "wk_g", "bk_g", "wv_g", "bv_g")


class AttentionParams:
    """Projection weights: local Q/K/V/O plus a distinct global Q/K/V set."""

    def __init__(self, hidden_dim: int, rng: np.random.Generator,
                 dtype=np.float32, init_scale: float = 0.02):
        self.hidden_dim = hidden_dim
        for name in _LOCAL_NAMES + _GLOBAL_NAMES:
            if name.startswith("w"):
                t = T.randn((hidden_dim, hidden_dim), rng, scale=init_scale,
                            requires_grad=True, dtype=dtype)
            else:
                t = T.zeros((hidden_dim,), requires_grad=True, dtype=dtype)
            setattr(self, name, t)

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        sep = "." if prefix else ""
        return {f"{prefix}{sep}{n}": getattr(self, n) for n in _LOCAL_NAMES + _GLOBAL_NAMES}


# ----------------------------------------------------------------------
# fused band/row ops for the banded kernel
# ----------------------------------------------------------------------


def _band_runs(window: int, gaps: tuple[int, ...]):
    """The padding along L that every head's band needs, and one (heads,
    step, lo) entry per run of heads that share a gap: slot s of row i holds
    padded row i + lo + s*step, which is row i + (s - w/2)*(gap+1)."""
    half = window // 2
    pad = half * (max(gaps) + 1)
    runs, first = [], 0
    for gap, run in itertools.groupby(gaps):
        heads = slice(first, first + len(list(run)))
        first = heads.stop
        step = gap + 1
        runs.append((heads, step, pad - half * step))
    return pad, runs


def _each_slot(runs, width: int, length: int):
    """(slot, heads, padded rows) for every band slot of every run."""
    for heads, step, lo in runs:
        for s in range(width):
            yield s, heads, slice(lo + s * step, lo + s * step + length)


def _pad_rows(x: np.ndarray, pad: int) -> np.ndarray:
    """x [B,h,L,dh] with `pad` zero rows before and after along L."""
    B, h, L, dh = x.shape
    xp = np.zeros((B, h, L + 2 * pad, dh), dtype=x.dtype)
    xp[:, :, pad:pad + L] = x
    return xp


def _slot_dots(a: np.ndarray, xp: np.ndarray, runs, width: int, out=None) -> np.ndarray:
    """[B,h,L,width]: entry s of each row is a . (slot s rows of xp) over dh,
    written into `out` when given."""
    if out is None:
        out = np.empty(a.shape[:3] + (width,), dtype=np.result_type(a, xp))
    for s, heads, rows in _each_slot(runs, width, a.shape[2]):
        np.einsum("bhld,bhld->bhl", a[:, heads], xp[:, heads, rows], out=out[:, heads, :, s])
    return out


def _slot_sum(w: np.ndarray, xp: np.ndarray, runs) -> np.ndarray:
    """sum over slots s of w[..., s] * (slot s rows of xp): [B,h,L,dh]. One
    einsum per run, over a read-only [B,h,L,w+1,dh] view of xp whose slot
    stride is `step` rows; nothing of that shape is allocated."""
    B, h, L, width = w.shape
    out = np.empty((B, h, L, xp.shape[-1]), dtype=np.result_type(w, xp))
    for heads, step, lo in runs:
        first = xp[:, heads, lo:lo + L]
        sB, sh, sL, sd = first.strides
        band = np.lib.stride_tricks.as_strided(
            first, first.shape[:3] + (width, first.shape[3]), (sB, sh, sL, sL * step, sd),
            writeable=False)
        np.einsum("bhls,bhlsd->bhld", w[:, heads], band, out=out[:, heads])
    return out


def _slot_scatter(w: np.ndarray, a: np.ndarray, runs, pad: int) -> np.ndarray:
    """The adjoint of reading slots from a padded copy: every slot's
    w[..., s] * a added back into its shifted rows, unpadded: [B,h,L,dh]."""
    B, h, L, dh = a.shape
    gp = np.zeros((B, h, L + 2 * pad, dh), dtype=np.result_type(w, a))
    tmp = np.empty((B, h, L, dh), dtype=gp.dtype)
    for s, heads, rows in _each_slot(runs, w.shape[-1], L):
        gp[:, heads, rows] += np.multiply(w[:, heads, :, s, None], a[:, heads], out=tmp[:, heads])
    return gp[:, :, pad:pad + L]


def band_scores(q: Tensor, k: Tensor, window: int, gaps: tuple[int, ...]) -> Tensor:
    """q, k [B,h,L,dh] -> [B,h,L,w+1]: slot s of row i is q_i . k_j with
    j = i + (s - w/2)*(gap_h+1), and 0 where j is outside [0, L).

    k is padded once along L; each slot is one dot product of q with a
    shifted slice of the padded copy, so no [B,h,L,w+1,dh] array is built,
    in the forward or the backward.
    """
    pad, runs = _band_runs(window, gaps)
    kp = _pad_rows(k.data, pad)
    out_data = _slot_dots(q.data, kp, runs, window + 1)

    def backward(g):
        _band_scores_backward(q, k, kp, runs, pad, g)

    return make_op(out_data, (q, k), backward)


def _band_scores_backward(q: Tensor, k: Tensor, kp: np.ndarray, runs, pad: int,
                          g: np.ndarray) -> None:
    if q.requires_grad:
        q._accum(_slot_sum(g, kp, runs))
    if k.requires_grad:
        k._accum(_slot_scatter(g, q.data, runs, pad))


def band_mix(p: Tensor, v: Tensor, window: int, gaps: tuple[int, ...]) -> Tensor:
    """p [B,h,L,w+1], v [B,h,L,dh] -> [B,h,L,dh]: row i is the sum over slots
    of p[i, s] * v_j, j = i + (s - w/2)*(gap_h+1), with v zero outside
    [0, L). The transpose of band_scores: v is padded once, and nothing
    [B,h,L,w+1,dh] is built."""
    pad, runs = _band_runs(window, gaps)
    vp = _pad_rows(v.data, pad)
    out_data = _slot_sum(p.data, vp, runs)

    def backward(g):
        if p.requires_grad:
            p._accum(_slot_dots(g, vp, runs, window + 1))
        if v.requires_grad:
            v._accum(_slot_scatter(p.data, g, runs, pad))

    return make_op(out_data, (p, v), backward)


def band_softmax(q: Tensor, k: Tensor, window: int, gaps: tuple[int, ...],
                 band_ok: np.ndarray, gpos: np.ndarray, col_ok: np.ndarray | None = None) -> Tensor:
    """The attention weights of the banded rows, [B,h,L,K+G] for K = w+1
    band slots and G global columns: softmax over the concatenation of
    band_scores(q, k) and q @ k[gpos]^T, with -inf wherever `band_ok`
    [B,h,L,K] or `col_ok` (broadcastable to [B,h,L,G]; None: all open) is
    False.

    Both products are written into one buffer, the masked entries are set
    to -inf in place and the softmax runs in that buffer, so the scores are
    never a graph node of their own. The backward is softmax's, then
    band_scores' backward on the first K columns and matmul's on the last G,
    each on a contiguous copy of its slice (fed the strided slice, the band
    backward's einsums can give other float32 bytes).
    """
    K, G = window + 1, len(gpos)
    pad, runs = _band_runs(window, gaps)
    kp = _pad_rows(k.data, pad)
    B, h, L, _ = q.shape
    y = np.empty((B, h, L, K + G), dtype=q.data.dtype)
    _slot_dots(q.data, kp, runs, K, out=y[..., :K])
    np.copyto(y[..., :K], NEG_INF, where=np.logical_not(band_ok))
    if G:
        kcols = k.data[:, :, gpos, :]
        np.matmul(q.data, np.swapaxes(kcols, -1, -2), out=y[..., K:])
        if col_ok is not None:
            np.copyto(y[..., K:], NEG_INF, where=np.logical_not(col_ok))
    T.softmax_(y)

    def backward(g):
        gs = T.softmax_grad(g, y)
        _band_scores_backward(q, k, kp, runs, pad, gs[..., :K] + 0.0 if G else gs)
        if G:
            gcols = gs[..., K:] + 0.0
            if q.requires_grad:
                q._accum(np.matmul(gcols, kcols))
            if k.requires_grad:
                gk = np.zeros_like(k.data)
                gk[:, :, gpos, :] = np.swapaxes(
                    np.matmul(np.swapaxes(q.data, -1, -2), gcols), -1, -2)
                k._accum(gk)

    return make_op(y, (q, k), backward)


def global_softmax(qg: Tensor, kg: Tensor, allowed: np.ndarray | None = None) -> Tensor:
    """The attention weights of the global rows, [B,h,G,L]: softmax of
    qg @ kg^T for qg [B,h,G,dh] and kg [B,h,L,dh], with -inf wherever
    `allowed` (broadcastable; None: all open) is False. One buffer holds
    the scores, the mask and the softmax, as in band_softmax."""
    y = np.matmul(qg.data, np.swapaxes(kg.data, -1, -2))
    if allowed is not None:
        np.copyto(y, NEG_INF, where=np.logical_not(allowed))
    T.softmax_(y)

    def backward(g):
        gs = T.softmax_grad(g, y)
        if qg.requires_grad:
            qg._accum(np.matmul(gs, kg.data))
        if kg.requires_grad:
            kg._accum(np.swapaxes(np.matmul(np.swapaxes(qg.data, -1, -2), gs), -1, -2))

    return make_op(y, (qg, kg), backward)


def _gather_rows(x: Tensor, positions: np.ndarray) -> Tensor:
    """x [B,h,L,dh] -> rows `positions` [B,h,G,dh]. Positions are distinct,
    so the backward assigns instead of scatter-adding."""
    out_data = x.data[:, :, positions, :]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, :, positions, :] = g
            x._accum(gx)

    return make_op(out_data, (x,), backward)


def _scatter_rows(src: Tensor, positions: np.ndarray, length: int) -> Tensor:
    """src [B,h,G,dh] -> [B,h,L,dh], zero except rows `positions`."""
    B, h, _, dh = src.shape
    out_data = np.zeros((B, h, length, dh), dtype=src.data.dtype)
    out_data[:, :, positions, :] = src.data

    def backward(g):
        if src.requires_grad:
            src._accum(g[:, :, positions, :])

    return make_op(out_data, (src,), backward)


def _project(x: Tensor, w: Tensor, b: Tensor, n_heads: int, rows=None) -> Tensor:
    """x [B,L,H] -> heads [B,h,L,dh], or [B,h,G,dh] for the rows `rows` only."""
    y = T.matmul(x, w, b) if rows is None else T.matmul_rows(x, w, b, rows)
    B, L, H = y.shape
    y = T.reshape(y, B, L, n_heads, H // n_heads)
    return T.transpose(y, (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    B, h, L, dh = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), B, L, h * dh)


def _band_index(length: int, window: int, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Banded key indices [L, K] (K = w+1, centre slot = self) plus validity."""
    half = window // 2
    ks = np.arange(-half, half + 1) * (gap + 1)
    idx = np.arange(length)[:, None] + ks[None, :]
    valid = (idx >= 0) & (idx < length)
    return np.clip(idx, 0, length - 1), valid


def _row_valid(lengths, batch: int, length: int) -> np.ndarray:
    if lengths is None:
        return np.ones((batch, length), dtype=bool)
    lengths = np.asarray(lengths)
    return np.arange(length)[None, :] < lengths[:, None]


def sparse_attention_forward(hidden: Tensor, params: AttentionParams,
                             pattern: AttentionPattern, n_heads: int,
                             lengths=None) -> Tensor:
    """Banded multi-head attention over [B, L, H] hidden states.

    Non-global rows score their w+1 banded keys plus the global columns
    under one joint softmax with the local projections (band_softmax);
    global rows attend everywhere through the global projections
    (global_softmax). Padding keys beyond `lengths` are excluded and
    padding rows give zero output. When every head's band reaches the
    whole sequence ((w/2)*(gap+1) >= L-1), the call goes to
    `dense_attention_oracle`, which computes the same quantity.
    """
    B, L, H = hidden.shape
    if H % n_heads != 0:
        raise ValueError("hidden dim not divisible by head count")
    dh = H // n_heads
    pattern.check_globals(L)
    gaps = tuple(pattern.dilation_for(h, n_heads) for h in range(n_heads))
    half_k = pattern.window // 2
    if all(half_k * (gap + 1) >= L - 1 for gap in gaps):
        return dense_attention_oracle(hidden, params, pattern, n_heads, lengths)
    gpos = np.asarray(pattern.global_positions, dtype=np.int64)
    G = len(gpos)
    K = pattern.window + 1
    dtype = hidden.data.dtype

    q = T.mul(_project(hidden, params.wq, params.bq, n_heads), 1.0 / np.sqrt(dh))
    k = _project(hidden, params.wk, params.bk, n_heads)
    v = _project(hidden, params.wv, params.bv, n_heads)

    idx_h, valid_h = zip(*(_band_index(L, pattern.window, gap) for gap in gaps))
    idxc = np.stack(idx_h)        # [h, L, K]
    validc = np.stack(valid_h)    # [h, L, K]
    if G:
        # global columns are scored on their own; drop band slots that duplicate them
        validc &= ~np.isin(idxc, gpos)
    row_ok = _row_valid(lengths, B, L)               # [B, L]
    # without padded rows every global column and every key of a global row
    # is open, so their masks are skipped
    padded = not row_ok.all()
    # key j usable iff its band slot is in range and j < length_b
    key_ok = validc[None] & row_ok[:, idxc]          # [B, h, L, K]
    key_ok[..., half_k] = True  # self slot always open (pad rows are zeroed later)

    probs = band_softmax(q, k, pattern.window, gaps, key_ok, gpos,
                         row_ok[:, None, None, gpos] if padded else None)  # [B,h,L,K+G]
    out = band_mix(probs[..., :K] if G else probs, v, pattern.window, gaps)  # [B,h,L,dh]
    if G:
        out = out + T.matmul(probs[..., K:], _gather_rows(v, gpos))
    # without a graph nothing else holds the [B,h,L,K+G] buffer: freed here,
    # its memory serves the global rows' [B,h,G,L] buffer
    del probs
    if G:
        qg = T.mul(_project(hidden, params.wq_g, params.bq_g, n_heads, gpos),
                   1.0 / np.sqrt(dh))                                 # [B,h,G,dh]
        kg = _project(hidden, params.wk_g, params.bk_g, n_heads)
        vg = _project(hidden, params.wv_g, params.bv_g, n_heads)
        gok = None
        if padded:
            gok = np.repeat(row_ok[:, None, None, :], G, axis=2)
            gok[:, :, np.arange(G), gpos] = True
        gout = T.matmul(global_softmax(qg, kg, gok), vg)
        keep = np.ones((L, 1), dtype=dtype)
        keep[gpos] = 0.0
        out = T.mul_const(out, keep) + _scatter_rows(gout, gpos, L)

    merged = _merge_heads(out)
    y = T.matmul(merged, params.wo, params.bo)
    return T.mul_const(y, row_ok[:, :, None].astype(dtype))


def dense_attention_oracle(hidden: Tensor, params: AttentionParams,
                           pattern: AttentionPattern, n_heads: int,
                           lengths=None) -> Tensor:
    """Quadratic reference: full score matrices under the materialized mask.

    Same semantics as sparse_attention_forward (local projections for banded
    rows, global projections for global rows, one softmax per row); used as
    the testing oracle, the dense baseline in benchmarks, and by
    sparse_attention_forward when the band covers the whole sequence.
    """
    B, L, H = hidden.shape
    dh = H // n_heads
    pattern.check_globals(L)
    gpos = np.asarray(pattern.global_positions, dtype=np.int64)
    G = len(gpos)

    q = T.mul(_project(hidden, params.wq, params.bq, n_heads), 1.0 / np.sqrt(dh))
    k = _project(hidden, params.wk, params.bk, n_heads)
    v = _project(hidden, params.wv, params.bv, n_heads)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))  # [B,h,L,L]

    row_ok = _row_valid(lengths, B, L)
    gaps = [pattern.dilation_for(h, n_heads) for h in range(n_heads)]
    if row_ok.all() and not any(gaps) and pattern.window // 2 >= L - 1:
        allowed = None  # every key of every row is open: nothing to mask
    else:
        # one mask per distinct gap (build_band_mask of a gap's first head)
        by_gap = {gap: build_band_mask(L, pattern, gaps.index(gap), n_heads)
                  for gap in set(gaps)}
        allowed = np.stack([by_gap[gap] for gap in gaps])[None] & row_ok[:, None, None, :]
        allowed[:, :, np.arange(L), np.arange(L)] = True

    if G:
        qg = T.mul(_project(hidden, params.wq_g, params.bq_g, n_heads), 1.0 / np.sqrt(dh))
        kg = _project(hidden, params.wk_g, params.bk_g, n_heads)
        vg = _project(hidden, params.wv_g, params.bv_g, n_heads)
        gscores = T.matmul(qg, T.transpose(kg, (0, 1, 3, 2)))
        grow = np.zeros((L, 1), dtype=hidden.data.dtype)
        grow[gpos] = 1.0
        scores = T.mul_const(scores, 1.0 - grow) + T.mul_const(gscores, grow)
    probs = T.softmax(scores, axis=-1, allowed=allowed)
    if G:
        out = T.mul_const(T.matmul(probs, v), 1.0 - grow) + T.mul_const(T.matmul(probs, vg), grow)
    else:
        out = T.matmul(probs, v)

    y = T.matmul(_merge_heads(out), params.wo, params.bo)
    return T.mul_const(y, row_ok[:, :, None].astype(hidden.data.dtype))


# ----------------------------------------------------------------------
# work counting
# ----------------------------------------------------------------------


def attention_flop_count(length: int, window: int, n_global: int,
                         n_heads: int, dim: int, dilation: int = 0) -> int:
    """Exact multiply-add count of the banded kernel (score dot products plus
    probability-weighted value sums; projections are common to both paths and
    excluded). Global tokens are assumed at the sequence head, which is where
    every task policy puts them. Affine in L for fixed (w, d, n_global)."""
    if length == 0:
        return 0
    dh = dim // n_heads
    half = window // 2
    step = dilation + 1
    i = np.arange(n_global, length)  # non-global rows
    if len(i):
        left = np.minimum(half, i // step)
        right = np.minimum(half, (length - 1 - i) // step)
        band = left + right + 1
        # overlap between the band and the global block [0, n_global)
        overlap = np.zeros_like(i)
        for kk in range(1, half + 1):
            j = i - kk * step
            overlap += (j >= 0) & (j < n_global)
        keys = band + n_global - overlap
        nonglobal = int(keys.sum())
    else:
        nonglobal = 0
    global_rows = n_global * length
    return 2 * dh * n_heads * (nonglobal + global_rows)


def dense_attention_flop_count(length: int, n_heads: int, dim: int) -> int:
    """Multiply-adds of the quadratic kernel (scores + value sums)."""
    dh = dim // n_heads
    return 2 * dh * n_heads * length * length
