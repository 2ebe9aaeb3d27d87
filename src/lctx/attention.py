"""Banded multi-head attention: sliding window, dilated windows, global tokens.

Each token attends to w/2 neighbours per side (optionally dilated by a
per-head gap d, i.e. offsets +-k*(d+1) for k=1..w/2) plus every designated
global position. Global tokens attend to the whole sequence through a second,
independent projection set, and are attended from everywhere. Cost is linear
in sequence length for fixed window and global count.

The band ops are sliding-chunks matmuls (Longformer's "chunks" form,
Beltagy et al. 2020). A head with gap d is an undilated band over the d+1
residue classes of the sequence, so every head runs the same way. Each class
is cut into chunks of c = max(1, w/2) query rows, and a chunk's keys are the
c + w rows around it: a read-only strided window view of K, padded once
along L. One np.matmul per run of heads that share a gap multiplies every
chunk by its window; the w+1 band entries are read out of that product
through a strided view. band_mix is the transpose: the probabilities are
expanded into zeroed chunk products and multiplied by the value windows.
Each backward is one chunk matmul per operand; the K and V sides give
window-shaped products that are folded back into rows by three shifted
slices (one copy, two adds).
The count of numpy calls does not grow with w, and no [B,h,L,w+1,dh] array
is built.

Scores are written once. band_softmax writes a row's w+1 band scores and its
G global-column scores (one q @ k[globals]^T product, through matmul's out=)
side by side into one [B,h,L,w+1+G] buffer, sets the masked entries to -inf
in place and runs the softmax in that buffer; global_softmax does the same
for the global rows' [B,h,G,L] scores. Only the global rows' queries are
projected. The bytes are those of scoring, adding 0/-inf masks,
concatenating and taking a separate softmax. When every head's band covers
the sequence, (w/2)*(d+1) >= L-1, the call goes to the dense kernel.

rows_attention computes chosen rows alone, for callers that read only
those (the encoder's last layer, for CLS heads and MLM's masked positions).
Global rows need only Longformer's global path: their queries, the keys and
values of all L rows, and the output projection of those rows, with no band
score and no local projection (both kernels compute their global rows with
the same helpers). Under a pattern that covers the sequence a
non-global row takes the same path through the local projections, under its
row of the band mask. A boolean [B, L] mask under a banded pattern without
globals projects queries for its N rows only, and each row scores, softmaxes
and mixes its w+1 gathered band keys and values in one [N,h,w+1] buffer.
Any other case computes every row and keeps those asked for.

`dense_attention_oracle` computes the same quantity quadratically; it is
the testing ground truth, the quadratic baseline for benchmarks and the
kernel for full windows. Both kernels run one body, _attention, which
differs only in the local rows: the dense kernel scores every row against
every key in one [B,h,L,L] buffer under the materialized band mask. The
projections, the global rows, the head merge, the output projection and
the padding-row mask are shared.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import NamedTuple

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

    def covers(self, length: int, n_heads: int) -> bool:
        """Every head's band reaches the whole sequence, (w/2)*(gap+1) >= L-1:
        a call goes to the dense kernel."""
        return all(self.window // 2 * (self.dilation_for(h, n_heads) + 1) >= length - 1
                   for h in range(n_heads))


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


class _Run(NamedTuple):
    """Heads that share a gap, and the chunking of their residue classes:
    row i of the sequence is row i // step of class i % step, and each class
    is cut into n chunks of c rows (the last one zero-padded past L)."""

    heads: slice
    step: int
    c: int
    n: int


def _band_runs(length: int, window: int, gaps: tuple[int, ...]) -> list[_Run]:
    """One _Run per run of heads that share a gap. The chunk length is
    c = max(1, w/2), so a chunk's keys, its c rows widened by w/2 on each
    side, are c + w = 3c rows (1 at w = 0)."""
    c = max(1, window // 2)
    runs, first = [], 0
    for gap, run in itertools.groupby(gaps):
        heads = slice(first, first + len(list(run)))
        first = heads.stop
        runs.append(_Run(heads, gap + 1, c, -(-length // ((gap + 1) * c))))
    return runs


def _chunks(x: np.ndarray, run: _Run) -> np.ndarray:
    """x [B,h,L,X] as the run's chunks, [B,h,step,n,c,X]: rows past L are
    zero. A view of x when the chunks end at L, else a padded copy."""
    B, h, L, X = x.shape
    rows = run.step * run.n * run.c
    if L != rows:
        padded = np.zeros((B, h, rows, X), dtype=x.dtype)
        padded[:, :, :L] = x
        x = padded
    return x.reshape(B, h, run.n, run.c, run.step, X).transpose(0, 1, 4, 2, 3, 5)


@contextlib.contextmanager
def _chunk_rows(out: np.ndarray, run: _Run):
    """A writable _chunks view of out [B,h,L,X]: out's own memory when the
    chunks end at L, else a scratch buffer whose first L rows are copied
    into out on exit."""
    B, h, L, X = out.shape
    rows = run.step * run.n * run.c
    if L == rows:
        yield _chunks(out, run)
        return
    scratch = np.empty((B, h, rows, X), dtype=out.dtype)
    yield _chunks(scratch, run)
    out[...] = scratch[:, :, :L]


def _padded(x: np.ndarray, run: _Run, window: int) -> np.ndarray:
    """The key side of x [B,h,L,X]: each residue class between w/2 zero rows
    before and the zero rows after that make n*c + w rows in all,
    [B,h,step,n*c + w,X]."""
    B, h, _, X = x.shape
    half, rows = window // 2, run.n * run.c
    xp = np.zeros((B, h, run.step, rows + window, X), dtype=x.dtype)
    xp[:, :, :, half:half + rows] = _chunks(x, run).reshape(B, h, run.step, rows, X)
    return xp


def _windows(xp: np.ndarray, run: _Run) -> np.ndarray:
    """The read-only [B,h,step,n,c+w,X] view of _padded rows whose window j
    is rows j*c .. j*c + c+w - 1: the keys of chunk j."""
    B, h, step, padded_rows, X = xp.shape
    width = padded_rows - (run.n - 1) * run.c
    sB, sh, sm, sl, sx = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (B, h, step, run.n, width, X), (sB, sh, sm, run.c * sl, sl, sx), writeable=False)


def _band(prod: np.ndarray, width: int) -> np.ndarray:
    """The band of chunk-by-window products [..., c, c+w]: the [..., c, w+1]
    strided view whose entry (r, s) is prod[..., r, r + s], slot s of row r."""
    sr, sc = prod.strides[-2:]
    return np.lib.stride_tricks.as_strided(
        prod, prod.shape[:-1] + (width,), prod.strides[:-2] + (sr + sc, sc))


def _expand(p: np.ndarray, run: _Run, window: int) -> np.ndarray:
    """The band entries p [B,h,L,w+1] in zeroed chunk-by-window products
    [B,h,step,n,c,c+w], the adjoint of _band."""
    B, h = p.shape[:2]
    pw = np.zeros((B, h, run.step, run.n, run.c, run.c + window), dtype=p.dtype)
    np.copyto(_band(pw, window + 1), _chunks(p, run))
    return pw


def _fold(xw: np.ndarray, run: _Run, window: int, out: np.ndarray) -> None:
    """The adjoint of _windows without the padding rows, into out, a _chunks
    view: window j is c + w rows in blocks of c, and its block t goes to
    chunk j + t - (w/2)/c. The block that lands on its own chunk is copied,
    the two others (none at w = 0) are added as shifted slices."""
    n, c = run.n, run.c
    own = (window // 2) // c
    blocks = xw.reshape(xw.shape[:4] + (-1, c, xw.shape[-1]))
    out[...] = blocks[:, :, :, :, own]
    for t in range(blocks.shape[4]):
        shift = t - own
        if shift > 0:
            out[:, :, :, shift:] += blocks[:, :, :, :n - shift, t]
        elif shift < 0:
            out[:, :, :, :shift] += blocks[:, :, :, -shift:, t]


def _band_dots(a: np.ndarray, xps, runs, width: int, out=None) -> np.ndarray:
    """[B,h,L,width]: slot s of row i is a_i . x_j over dh, for j = i + (s -
    w/2)*step and x zero outside [0, L), x given as each run's _padded rows;
    written into `out` when given. One chunk matmul per run, whose band is
    copied out."""
    if out is None:
        out = np.empty(a.shape[:3] + (width,), dtype=np.result_type(a, xps[0]))
    for run, xp in zip(runs, xps):
        prod = np.matmul(_chunks(a[:, run.heads], run), np.swapaxes(_windows(xp, run), -1, -2))
        with _chunk_rows(out[:, run.heads], run) as dst:
            np.copyto(dst, _band(prod, width))
    return out


def _band_sum(pws, xps, runs, out: np.ndarray) -> np.ndarray:
    """out [B,h,L,dh]: row i is the sum over slots s of p[i, s] * x_j, for
    each run's _expand(p) and _padded(x): one chunk matmul per run."""
    for run, pw, xp in zip(runs, pws, xps):
        with _chunk_rows(out[:, run.heads], run) as dst:
            np.matmul(pw, _windows(xp, run), out=dst)
    return out


def _band_fold(pws, a: np.ndarray, runs, window: int) -> np.ndarray:
    """The adjoint of reading x's band, [B,h,L,dh]: row j is the sum of
    p[i, s] * a_i over the (i, s) whose slot holds j, for each run's
    _expand(p). One chunk matmul per run, folded back by _fold."""
    out = np.empty(a.shape, dtype=np.result_type(pws[0], a))
    for run, pw in zip(runs, pws):
        prod = np.matmul(np.swapaxes(pw, -1, -2), _chunks(a[:, run.heads], run))
        with _chunk_rows(out[:, run.heads], run) as dst:
            _fold(prod, run, window, dst)
    return out


def band_scores(q: Tensor, k: Tensor, window: int, gaps: tuple[int, ...]) -> Tensor:
    """q, k [B,h,L,dh] -> [B,h,L,w+1]: slot s of row i is q_i . k_j with
    j = i + (s - w/2)*(gap_h+1), and 0 where j is outside [0, L).

    Each chunk of c query rows is multiplied against the c + w key rows
    around it in one matmul per run of heads, and the band is read out of
    the product; the backward is one chunk matmul for q and one for k,
    whose window-shaped product is folded back.
    """
    runs = _band_runs(q.shape[2], window, gaps)
    kps = [_padded(k.data[:, run.heads], run, window) for run in runs]
    out_data = _band_dots(q.data, kps, runs, window + 1)

    def backward(g):
        _band_scores_backward(q, k, kps, runs, window, g)

    return make_op(out_data, (q, k), backward)


def _band_scores_backward(q: Tensor, k: Tensor, kps, runs, window: int,
                          g: np.ndarray) -> None:
    gws = [_expand(g[:, run.heads], run, window) for run in runs]
    if q.requires_grad:
        gq = np.empty(q.shape, dtype=np.result_type(g, k.data))
        q._accum(_band_sum(gws, kps, runs, gq), owned=True)
    if k.requires_grad:
        k._accum(_band_fold(gws, q.data, runs, window), owned=True)


def band_mix(p: Tensor, v: Tensor, window: int, gaps: tuple[int, ...]) -> Tensor:
    """p [B,h,L,w+1], v [B,h,L,dh] -> [B,h,L,dh]: row i is the sum over slots
    of p[i, s] * v_j, j = i + (s - w/2)*(gap_h+1), with v zero outside
    [0, L). The transpose of band_scores: p is expanded into zeroed chunk
    products and multiplied by the value windows, one matmul per run."""
    runs = _band_runs(p.shape[2], window, gaps)
    pws = [_expand(p.data[:, run.heads], run, window) for run in runs]
    vps = [_padded(v.data[:, run.heads], run, window) for run in runs]
    out_data = _band_sum(pws, vps, runs, np.empty(v.shape, dtype=np.result_type(p.data, v.data)))

    def backward(g):
        if p.requires_grad:
            p._accum(_band_dots(g, vps, runs, window + 1), owned=True)
        if v.requires_grad:
            v._accum(_band_fold(pws, g, runs, window), owned=True)

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
    band_scores' backward on the first K columns and matmul's on a
    contiguous copy of the last G.
    """
    K, G = window + 1, len(gpos)
    runs = _band_runs(q.shape[2], window, gaps)
    kps = [_padded(k.data[:, run.heads], run, window) for run in runs]
    B, h, L, _ = q.shape
    y = np.empty((B, h, L, K + G), dtype=q.data.dtype)
    _band_dots(q.data, kps, runs, K, out=y[..., :K])
    np.copyto(y[..., :K], NEG_INF, where=np.logical_not(band_ok))
    if G:
        kcols = k.data[:, :, gpos, :]
        np.matmul(q.data, np.swapaxes(kcols, -1, -2), out=y[..., K:])
        if col_ok is not None:
            np.copyto(y[..., K:], NEG_INF, where=np.logical_not(col_ok))
    T.softmax_(y)

    def backward(g):
        gs = T.softmax_grad(g, y)
        _band_scores_backward(q, k, kps, runs, window, gs[..., :K])
        if G:
            gcols = gs[..., K:] + 0.0
            if q.requires_grad:
                q._accum(np.matmul(gcols, kcols), owned=True)
            if k.requires_grad:
                gk = np.zeros_like(k.data)
                gk[:, :, gpos, :] = np.swapaxes(
                    np.matmul(np.swapaxes(q.data, -1, -2), gcols), -1, -2)
                k._accum(gk, owned=True)

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
            qg._accum(np.matmul(gs, kg.data), owned=True)
        if kg.requires_grad:
            kg._accum(np.swapaxes(np.matmul(np.swapaxes(qg.data, -1, -2), gs), -1, -2),
                      owned=True)

    return make_op(y, (qg, kg), backward)


def _gather_rows(x: Tensor, positions: np.ndarray) -> Tensor:
    """x [B,h,L,dh] -> rows `positions` [B,h,G,dh]. Positions are distinct,
    so the backward assigns instead of scatter-adding."""
    out_data = x.data[:, :, positions, :]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[:, :, positions, :] = g
            x._accum(gx, owned=True)

    return make_op(out_data, (x,), backward)


def _scatter_rows(src: Tensor, positions: np.ndarray, length: int) -> Tensor:
    """src [B,h,G,dh] -> [B,h,L,dh], zero except rows `positions`."""
    B, h, _, dh = src.shape
    out_data = np.zeros((B, h, length, dh), dtype=src.data.dtype)
    out_data[:, :, positions, :] = src.data

    def backward(g):
        if src.requires_grad:
            src._accum(g[:, :, positions, :], owned=True)

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


def _check_call(hidden: Tensor, pattern: AttentionPattern, n_heads: int) -> tuple[int, ...]:
    """The per-head gaps of a kernel call, after its shape checks."""
    if hidden.shape[-1] % n_heads != 0:
        raise ValueError("hidden dim not divisible by head count")
    if hidden.shape[1] == 0:
        raise ValueError("sequence length 0: attention needs at least one row")
    pattern.check_globals(hidden.shape[1])
    return tuple(pattern.dilation_for(h, n_heads) for h in range(n_heads))


def _row_projections(hidden: Tensor, params: AttentionParams, n_heads: int, rows,
                     names: tuple[str, ...]) -> tuple[Tensor, Tensor, Tensor]:
    """The scaled queries of rows `rows` [B,h,R,dh] (None: of every row)
    and the keys and values of every row [B,h,L,dh], through the
    projections `names` (wq, bq, wk, bk, wv, bv: _GLOBAL_NAMES, or the
    local ones)."""
    wq, bq, wk, bk, wv, bv = (getattr(params, name) for name in names)
    dh = hidden.shape[-1] // n_heads
    q = T.mul(_project(hidden, wq, bq, n_heads, rows), 1.0 / np.sqrt(dh))
    return q, _project(hidden, wk, bk, n_heads), _project(hidden, wv, bv, n_heads)


def _attend_rows(q: Tensor, k: Tensor, v: Tensor, rows: np.ndarray, row_ok: np.ndarray,
                 band: np.ndarray | None = None) -> Tensor:
    """[B,h,R,dh]: the rows `rows`, whose queries q [B,h,R,dh] and every
    row's keys and values are given, attend to every key of their sequence
    (row_ok [B, L]) that their band-mask rows `band` [h,R,L] open (None:
    all), and to themselves. Without padded rows or a band no key is
    masked."""
    allowed = None
    if band is not None or not row_ok.all():
        allowed = np.repeat(row_ok[:, None, None, :], len(rows), axis=2)
        if band is not None:
            allowed = allowed & band
        allowed[:, :, np.arange(len(rows)), rows] = True
    return T.matmul(global_softmax(q, k, allowed), v)


def _rows_output(hidden: Tensor, params: AttentionParams, qkv, rows: np.ndarray, lengths,
                 full_rows: int, band: np.ndarray | None = None) -> Tensor:
    """[B,R,H]: the rows `rows` attend (_attend_rows, with their projections
    qkv) and their mixture goes through the output projection; padded rows
    give zero. A lone row is multiplied twice wherever the full call
    multiplies more than one row at once (its scores when it scores
    `full_rows` > 1 rows at once, and the output projection)."""
    B, L, _ = hidden.shape
    lone = len(rows) == 1 and L > 1
    row_ok = _row_valid(lengths, B, L)
    q, k, v = qkv
    if lone and full_rows > 1:
        q = T.index_select(q, (slice(None), slice(None), [0, 0]))
        rows = np.repeat(rows, 2)
        band = None if band is None else np.repeat(band, 2, axis=1)
    mixed = _merge_heads(_attend_rows(q, k, v, rows, row_ok, band))
    if lone and full_rows == 1:
        mixed = T.index_select(mixed, (slice(None), [0, 0]))
    y = T.mul_const(T.matmul(mixed, params.wo, params.bo),
                    row_ok[:, rows, None].astype(hidden.data.dtype))
    return T.index_select(y, (slice(None), slice(0, 1))) if lone else y


def _head_masks(length: int, pattern: AttentionPattern, gaps) -> np.ndarray:
    """[h, L, L]: each head's build_band_mask, built once per distinct gap
    (as the mask of that gap's first head)."""
    by_gap = {gap: build_band_mask(length, pattern, gaps.index(gap), len(gaps))
              for gap in set(gaps)}
    return np.stack([by_gap[gap] for gap in gaps])


def _band_rows(q: Tensor, k: Tensor, v: Tensor, keys: np.ndarray, key_ok: np.ndarray,
               runs: list[slice], pad: int) -> Tensor:
    """[N, H]: in each head, query row n of q [N, H] attends to the rows
    keys[n, head] [N, h, K] of k and v [B, L, H], flat row numbers b*L + j
    at most `pad` rows outside [0, B*L), where key_ok [N, h, K] is True.
    The heads of each slice in `runs` read the same rows.

    The forward gathers every row's K keys and values (an index outside
    [0, B*L) reads a clipped row, whose slot is masked), scores and mixes
    them with one small matmul per row and head, and runs the softmax in
    the scores' buffer. The backward adds the key and value gradients slot
    by slot into rows padded by `pad` on either side: the rows of one slot
    are distinct, so one indexed += per slot and run sums them, with no
    np.add.at."""
    N, H = q.shape
    n_heads, K = keys.shape[1:]
    dh = H // n_heads
    n_rows = k.data.size // H
    # a (row, head) pair is one dh-wide row of k.data viewed as [B*L*h, dh]
    gather = np.clip(keys, 0, n_rows - 1) * n_heads + np.arange(n_heads)[:, None]
    q3 = q.data.reshape(N, n_heads, dh)
    kg = k.data.reshape(-1, dh)[gather]                 # [N, h, K, dh]
    vg = v.data.reshape(-1, dh)[gather]
    y = np.matmul(kg, q3[..., None])[..., 0]            # [N, h, K]
    np.copyto(y, NEG_INF, where=np.logical_not(key_ok))
    T.softmax_(y)
    out = np.matmul(y[..., None, :], vg).reshape(N, H)

    def backward(g):
        g3 = g.reshape(N, n_heads, dh)
        gs = T.softmax_grad(np.matmul(vg, g3[..., None])[..., 0], y)
        if q.requires_grad:
            q._accum(np.matmul(gs[..., None, :], kg).reshape(N, H), owned=True)
        # slot s of a row adds weight[..., s] * other to the key (value) row it read
        for x, weight, other in ((k, gs, q3), (v, y, g3)):
            if x.requires_grad:
                gx = np.zeros((n_rows + 2 * pad, n_heads, dh), dtype=weight.dtype)
                part = np.empty((N, n_heads, dh), dtype=weight.dtype)
                for s in range(K):
                    np.multiply(weight[:, :, s, None], other, out=part)
                    for heads in runs:
                        gx[keys[:, heads.start, s] + pad, heads] += part[:, heads]
                x._accum(gx[pad:pad + n_rows].reshape(x.shape), owned=True)

    return make_op(out, (q, k, v), backward)


def _checked_rows(rows, batch: int, length: int) -> np.ndarray:
    """`rows` as distinct int64 positions in [0, L) or a boolean [B, L]
    mask; anything else is a ValueError naming the rows."""
    rows = np.asarray(rows)
    if rows.dtype == bool and rows.shape == (batch, length):
        return rows
    if rows.ndim <= 1 and (rows.size == 0 or np.issubdtype(rows.dtype, np.integer)):
        rows = rows.reshape(-1).astype(np.int64)
        if len(set(rows.tolist())) == len(rows) and ((rows >= 0) & (rows < length)).all():
            return rows
    named = rows.tolist() if rows.ndim <= 1 else f"of shape {list(rows.shape)}, {rows.dtype}"
    raise ValueError(f"rows {named} are neither distinct positions in [0, {length}) nor a "
                     f"boolean [{batch}, {length}] mask")


def rows_attention(hidden: Tensor, params: AttentionParams, pattern: AttentionPattern,
                   n_heads: int, rows, lengths=None) -> Tensor:
    """sparse_attention_forward(hidden, params, pattern, n_heads,
    lengths)[:, rows], [B,R,H], for R distinct positions `rows` in [0, L),
    or its [rows], [N,H], for a boolean [B, L] mask; any other `rows` is a
    ValueError. Global positions, non-global ones under a covering pattern
    and a mask under a banded pattern without globals are computed alone
    (see the module docstring); any other case calls
    sparse_attention_forward, looked up at call time, and keeps the rows.

    A position's row has the full call's bytes wherever BLAS gives a
    product's rows the same bytes at any row count but one (see
    T.matmul_rows): a lone row is multiplied twice wherever the full call
    multiplies more than one row at once. A mask's band rows do not: one
    small product per row and head replaces the chunk matmuls.
    """
    B, L, H = hidden.shape
    gaps = _check_call(hidden, pattern, n_heads)
    rows = _checked_rows(rows, B, L)
    covers = pattern.covers(L, n_heads)
    mask = rows.dtype == bool
    if mask and not pattern.global_positions and not covers:
        half = pattern.window // 2
        flat = np.flatnonzero(rows)                                  # b*L + i, in mask order
        # slot s of a head with gap d reads row i + (s - w/2)*(d+1)
        offsets = np.arange(-half, half + 1) * (np.asarray(gaps)[:, None] + 1)   # [h, K]
        pos = (flat % L)[:, None, None] + offsets                    # [N, h, K]
        keys = flat[:, None, None] + offsets
        row_ok = _row_valid(lengths, B, L)
        # a slot is open when its key lies inside the sequence's length; the
        # self slot always is
        key_ok = (pos >= 0) & (pos < L) & row_ok.reshape(-1)[np.clip(keys, 0, B * L - 1)]
        key_ok[..., half] = True
        q = T.mul(T.matmul(T.index_select(hidden, rows), params.wq, params.bq),
                  1.0 / np.sqrt(H // n_heads))
        k = T.matmul(hidden, params.wk, params.bk)
        v = T.matmul(hidden, params.wv, params.bv)
        runs = [run.heads for run in _band_runs(L, pattern.window, gaps)]
        mixed = _band_rows(q, k, v, keys, key_ok, runs, half * (max(gaps) + 1))
        y = T.matmul(mixed, params.wo, params.bo)
        return T.mul_const(y, row_ok[rows][:, None].astype(hidden.data.dtype))
    if not mask:
        glob = np.isin(rows, pattern.global_positions)
        if glob.all():
            # the full call scores its global rows at once
            qkv = _row_projections(hidden, params, n_heads, rows, _GLOBAL_NAMES)
            return _rows_output(hidden, params, qkv, rows, lengths,
                                len(pattern.global_positions))
        if covers and not glob.any():
            band = _head_masks(L, pattern, gaps)[:, rows] if any(gaps) else None
            qkv = _row_projections(hidden, params, n_heads, rows, _LOCAL_NAMES[:6])
            return _rows_output(hidden, params, qkv, rows, lengths, L, band)
    full = sparse_attention_forward(hidden, params, pattern, n_heads, lengths)
    return T.index_select(full, rows if mask else (slice(None), rows))


def _attention(hidden: Tensor, params: AttentionParams, pattern: AttentionPattern,
               n_heads: int, lengths, dense: bool) -> Tensor:
    """The body of both kernels. The local rows score and mix with the local
    projections: the banded kernel's w+1 band keys and the global columns
    under one softmax (band_softmax, band_mix), or, `dense`, every key under
    each head's band mask (_attend_rows). The global rows then replace
    theirs: they attend everywhere through the global projections. Padding
    keys beyond `lengths` are excluded and padding rows give zero."""
    B, L, H = hidden.shape
    gaps = _check_call(hidden, pattern, n_heads)
    gpos = np.asarray(pattern.global_positions, dtype=np.int64)
    G = len(gpos)
    dtype = hidden.data.dtype
    row_ok = _row_valid(lengths, B, L)               # [B, L]
    q, k, v = _row_projections(hidden, params, n_heads, None, _LOCAL_NAMES[:6])
    probs = None
    if dense:
        # a window that reaches the sequence without gaps opens every key
        opens_all = not any(gaps) and pattern.window // 2 >= L - 1
        out = _attend_rows(q, k, v, np.arange(L), row_ok,
                           None if opens_all else _head_masks(L, pattern, gaps))
    else:
        half_k, K = pattern.window // 2, pattern.window + 1
        idx_h, valid_h = zip(*(_band_index(L, pattern.window, gap) for gap in gaps))
        idxc = np.stack(idx_h)        # [h, L, K]
        validc = np.stack(valid_h)    # [h, L, K]
        if G:
            # global columns are scored on their own; drop band slots that duplicate them
            validc &= ~np.isin(idxc, gpos)
        # key j usable iff its band slot is in range and j < length_b
        key_ok = validc[None] & row_ok[:, idxc]          # [B, h, L, K]
        key_ok[..., half_k] = True  # self slot always open (pad rows are zeroed later)
        # without padded rows every global column is open: its mask is skipped
        probs = band_softmax(q, k, pattern.window, gaps, key_ok, gpos,
                             None if row_ok.all() else row_ok[:, None, None, gpos])
        out = band_mix(probs[..., :K] if G else probs, v, pattern.window, gaps)  # [B,h,L,dh]
        if G:
            out = out + T.matmul(probs[..., K:], _gather_rows(v, gpos))
    if G:
        qkv = _row_projections(hidden, params, n_heads, gpos, _GLOBAL_NAMES)
    # without a graph nothing else holds the banded kernel's [B,h,L,K+G]
    # buffer: freed here, its memory serves the global rows' [B,h,G,L]
    # buffer. The global projections are made before, so that none of them
    # lands in that memory.
    del probs
    if G:
        gout = _attend_rows(*qkv, gpos, row_ok)
        keep = np.ones((L, 1), dtype=dtype)
        keep[gpos] = 0.0
        out = T.mul_const(out, keep) + _scatter_rows(gout, gpos, L)

    y = T.matmul(_merge_heads(out), params.wo, params.bo)
    return T.mul_const(y, row_ok[:, :, None].astype(dtype))


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
    if pattern.covers(hidden.shape[1], n_heads):
        return dense_attention_oracle(hidden, params, pattern, n_heads, lengths)
    return _attention(hidden, params, pattern, n_heads, lengths, dense=False)


def dense_attention_oracle(hidden: Tensor, params: AttentionParams,
                           pattern: AttentionPattern, n_heads: int,
                           lengths=None) -> Tensor:
    """Quadratic reference: full score matrices under the materialized mask.

    Same semantics as sparse_attention_forward, and the same body but for
    the local rows: every row scores every key with the local projections
    under its head's band mask, in one [B,h,L,L] buffer; the global rows
    are sparse_attention_forward's. Used as the testing oracle, the dense
    baseline in benchmarks, and by sparse_attention_forward when the band
    covers the whole sequence.
    """
    return _attention(hidden, params, pattern, n_heads, lengths, dense=True)


# ----------------------------------------------------------------------
# work counting
# ----------------------------------------------------------------------


def attention_flop_count(length: int, window: int, n_global: int,
                         n_heads: int, dim: int, dilation: int = 0) -> int:
    """Multiply-adds of the attended pairs: score dot products plus
    probability-weighted value sums over every (row, key) pair the pattern
    allows (projections are common to both paths and excluded). This counts
    band entries, not the chunk kernel's work, which also multiplies the
    out-of-band entries of each chunk's c + w key window. Global tokens are
    assumed at the sequence head, which is where every task policy puts
    them. Affine in L for fixed (w, d, n_global)."""
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
