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
is built. Backward keeps only what it cannot cheaply rebuild (the
recomputation trade of Chen et al. 2016, per op): the padded keys and
values and the expanded probabilities are made one run at a time and
dropped, and each backward makes them again from its inputs' data, so
band_softmax keeps its weights and band_mix nothing beyond its inputs.

Row-by-row band lookups use that layout at c = 1, where window m of class r
holds the w+1 keys of row m*step + r, so no table of key indices is built:
the band mask [B,h,L,w+1] is the window view of one padded [B, L] indicator
of open keys (the rows of the sequence, less the global positions).

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
and mixes its w+1 band keys and values in one [N,h,w+1] buffer. Blocks of at
most _GATHER_BYTES are gathered from the c = 1 windows of the padded keys
and values, are not kept, and are gathered again in backward.
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
                    n_heads: int) -> np.ndarray:
    """Boolean [L, L] mask for head `head` of `n_heads`: allowed(i, j) iff j
    is in i's window, or i is global, or j is global."""
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


def _band_runs(length: int, window: int, gaps: tuple[int, ...],
               c: int | None = None) -> list[_Run]:
    """One _Run per run of heads that share a gap, at chunk length c, by
    default max(1, w/2): a chunk's keys, its c rows widened by w/2 on each
    side, are then c + w = 3c rows (1 at w = 0)."""
    c = c or max(1, window // 2)
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


def _open_slots(ok: np.ndarray, run: _Run, window: int) -> np.ndarray:
    """[B,step,n,w+1] for a run at c = 1: whether slot s of row m*step + r
    reads a key that ok [B, L] opens (False outside [0, L)). A read-only
    _windows view of ok, padded."""
    return _windows(_padded(ok[:, None, :, None], run, window), run)[:, 0, ..., 0]


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


def _band_dots(a: np.ndarray, x: np.ndarray, runs, window: int, out=None) -> np.ndarray:
    """[B,h,L,w+1]: slot s of row i is a_i . x_j over dh, for j = i + (s -
    w/2)*step and x zero outside [0, L); written into `out` when given. One
    chunk matmul per run against x's _padded rows, built for that run and
    dropped, whose band is copied out."""
    if out is None:
        out = np.empty(a.shape[:3] + (window + 1,), dtype=np.result_type(a, x))
    for run in runs:
        xp = _padded(x[:, run.heads], run, window)
        prod = np.matmul(_chunks(a[:, run.heads], run), np.swapaxes(_windows(xp, run), -1, -2))
        with _chunk_rows(out[:, run.heads], run) as dst:
            np.copyto(dst, _band(prod, window + 1))
    return out


def _band_sum(pw: np.ndarray, x: np.ndarray, run: _Run, window: int, out: np.ndarray) -> None:
    """The run's heads of out [B,h,L,dh]: row i is the sum over slots s of
    p[i, s] * x_j, for the run's _expand(p) `pw`: one chunk matmul against
    x's _padded rows, built here."""
    xp = _padded(x[:, run.heads], run, window)
    with _chunk_rows(out[:, run.heads], run) as dst:
        np.matmul(pw, _windows(xp, run), out=dst)


def _band_fold(pw: np.ndarray, a: np.ndarray, run: _Run, window: int, out: np.ndarray) -> None:
    """The run's heads of out [B,h,L,dh], the adjoint of reading x's band:
    row j is the sum of p[i, s] * a_i over the (i, s) whose slot holds j, for
    the run's _expand(p) `pw`. One chunk matmul, folded back by _fold."""
    prod = np.matmul(np.swapaxes(pw, -1, -2), _chunks(a[:, run.heads], run))
    with _chunk_rows(out[:, run.heads], run) as dst:
        _fold(prod, run, window, dst)


def _band_scores_backward(q: Tensor, k: Tensor, runs, window: int, g: np.ndarray) -> None:
    """The backward of _band_dots(q, k): per run, g's band entries expanded
    once (_expand) serve q's gradient, against k's padded rows, and k's,
    folded from q."""
    dtype = np.result_type(g, q.data, k.data)
    gq = np.empty(q.shape, dtype=dtype) if q.requires_grad else None
    gk = np.empty(k.shape, dtype=dtype) if k.requires_grad else None
    for run in runs:
        gw = _expand(g[:, run.heads], run, window)
        if gq is not None:
            _band_sum(gw, k.data, run, window, gq)
        if gk is not None:
            _band_fold(gw, q.data, run, window, gk)
    if gq is not None:
        q._accum(gq, owned=True)
    if gk is not None:
        k._accum(gk, owned=True)


def band_mix(p: Tensor, v: Tensor, window: int, gaps: tuple[int, ...]) -> Tensor:
    """p [B,h,L,w+1], v [B,h,L,dh] -> [B,h,L,dh]: row i is the sum over slots
    of p[i, s] * v_j, j = i + (s - w/2)*(gap_h+1), with v zero outside
    [0, L). The transpose of _band_dots: p is expanded into zeroed chunk
    products and multiplied by the value windows, one matmul per run.

    The graph keeps p and v only. The expanded probabilities (1.5x p) and
    the padded values are made one run at a time and dropped; the backward
    makes them again from p.data and v.data, with the same bytes.
    """
    runs = _band_runs(p.shape[2], window, gaps)
    out_data = np.empty(v.shape, dtype=np.result_type(p.data, v.data))
    for run in runs:
        _band_sum(_expand(p.data[:, run.heads], run, window), v.data, run, window, out_data)

    def backward(g):
        if p.requires_grad:
            p._accum(_band_dots(g, v.data, runs, window), owned=True)
        if v.requires_grad:
            gv = np.empty(v.shape, dtype=np.result_type(p.data, g))
            for run in runs:
                _band_fold(_expand(p.data[:, run.heads], run, window), g, run, window, gv)
            v._accum(gv, owned=True)

    return make_op(out_data, (p, v), backward)


def band_softmax(q: Tensor, k: Tensor, window: int, gaps: tuple[int, ...],
                 band_ok: np.ndarray, gpos: np.ndarray, col_ok: np.ndarray | None = None) -> Tensor:
    """The attention weights of the banded rows, [B,h,L,K+G] for K = w+1
    band slots and G global columns: softmax over the concatenation of
    _band_dots(q, k) and q @ k[gpos]^T, with -inf wherever `band_ok`
    [B,h,L,K] or `col_ok` (broadcastable to [B,h,L,G]; None: all open) is
    False.

    Both products are written into one buffer, the masked entries are set
    to -inf in place and the softmax runs in that buffer, so the scores are
    never a graph node of their own. The backward is softmax's, then
    _band_dots' backward on the first K columns and matmul's on a
    contiguous copy of the last G. The graph keeps the weights and the G
    global keys; the padded keys are made one run at a time, in the forward
    and again in the backward from k.data.
    """
    K, G = window + 1, len(gpos)
    runs = _band_runs(q.shape[2], window, gaps)
    B, h, L, _ = q.shape
    y = np.empty((B, h, L, K + G), dtype=q.data.dtype)
    _band_dots(q.data, k.data, runs, window, out=y[..., :K])
    np.copyto(y[..., :K], NEG_INF, where=np.logical_not(band_ok))
    if G:
        kcols = k.data[:, :, gpos, :]
        np.matmul(q.data, np.swapaxes(kcols, -1, -2), out=y[..., K:])
        if col_ok is not None:
            np.copyto(y[..., K:], NEG_INF, where=np.logical_not(col_ok))
    T.softmax_(y)

    def backward(g):
        gs = T.softmax_grad(g, y)
        _band_scores_backward(q, k, runs, window, gs[..., :K])
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


# _band_rows gathers the keys, then the values, of at most this many bytes
# of rows of one run of heads at a time (at least one row). One paper-shape
# rows_attention call (N=623 masked rows, 12 heads, K=513, dh=64, float32,
# one thread of a 2-vCPU x86-64 Xeon), forward + backward: 2.05 s at one
# row per block, 1.85 s at 4 MiB, 1.90 s at 16, 2.86 s at 64 and 2.93 s
# gathering every row at once; the process peaked at 182, 182, 204, 335
# and 2053 MiB RSS
_GATHER_BYTES = 4 << 20


def _band_rows(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, row_ok: np.ndarray,
               window: int, gaps: tuple[int, ...]) -> Tensor:
    """[N, H]: the N rows of the boolean mask [B, L], in its order, with
    queries q [N, H], attend in each head to the band keys of k and v
    [B, L, H] that row_ok [B, L] opens, and to themselves.

    Per run of heads, k and v are _padded at c = 1, and a block of rows
    gathers its [n, h_run, K, dh] keys (values) from the _windows view by
    batch, class and window; their validity is _open_slots(row_ok). A
    block holds at most _GATHER_BYTES (4 MiB; the measurement is at the
    constant). Each (row, head) pair is scored and mixed by one small
    matmul; the softmax runs in the scores' buffer, the graph keeps it, and
    the backward gathers each block again. The key and value gradients are
    added slot by slot into padded class rows, one indexed += per slot and
    run (the rows of one slot are distinct: no np.add.at), and unpadded.
    """
    N, H = q.shape
    B, L, _ = k.shape
    n_heads, K, half = len(gaps), window + 1, window // 2
    dh = H // n_heads
    runs = _band_runs(L, window, gaps, c=1)
    q3 = q.data.reshape(N, n_heads, dh)

    def heads(x: np.ndarray) -> np.ndarray:      # [B,L,H] as a [B,h,L,dh] view
        return x.reshape(B, L, n_heads, dh).transpose(0, 2, 1, 3)

    def places(run: _Run) -> tuple[np.ndarray, ...]:
        """Each row's batch, residue class and window, [N] each."""
        b, i = np.divmod(np.flatnonzero(mask), L)
        return b, i % run.step, i // run.step

    def gathered(x: Tensor):
        """((rows, heads), their [n, h_run, K, dh] band rows of x) per block."""
        for run in runs:
            win = _windows(_padded(heads(x.data)[:, run.heads], run, window), run)
            b, r, m = places(run)
            size = max(1, _GATHER_BYTES // (win.shape[1] * K * dh * x.data.itemsize))
            for lo in range(0, N, size):
                at = slice(lo, lo + size)
                yield (at, run.heads), win[b[at], :, r[at], m[at]]

    def slot_sums(weight: np.ndarray, other: np.ndarray, run: _Run) -> np.ndarray:
        """[B,h_run,step,n,dh]: the run's class rows, to which slot s of a row
        adds weight[:, :, s] * other; it reads row m + s of the padded ones."""
        part = np.empty(other[:, run.heads].shape, dtype=weight.dtype)
        gp = np.zeros((B, run.step, run.n + window) + part.shape[1:], part.dtype)
        b, r, m = places(run)
        first = (b * run.step + r) * (run.n + window) + m
        for s in range(K):
            np.multiply(weight[:, run.heads, s, None], other[:, run.heads], out=part)
            gp.reshape((-1,) + part.shape[1:])[first + s] += part
        return gp[:, :, half:half + run.n].transpose(0, 3, 1, 2, 4)

    y = np.empty((N, n_heads, K), dtype=np.result_type(q.data, k.data))
    for ix, kg in gathered(k):
        y[ix] = np.matmul(kg, q3[ix][..., None])[..., 0]
    for run in runs:
        open_ = _open_slots(row_ok, run, window)[places(run)]
        open_[:, half] = True
        np.copyto(y[:, run.heads], NEG_INF, where=np.logical_not(open_[:, None]))
    T.softmax_(y)
    out = np.empty((N, n_heads, dh), dtype=np.result_type(y, v.data))
    for ix, vg in gathered(v):
        out[ix] = np.matmul(y[ix][..., None, :], vg)[..., 0, :]

    def backward(g):
        g3 = g.reshape(N, n_heads, dh)
        gs = None
        if q.requires_grad or k.requires_grad:
            gy = np.empty_like(y)
            for ix, vg in gathered(v):
                gy[ix] = np.matmul(vg, g3[ix][..., None])[..., 0]
            gs = T.softmax_grad(gy, y)
            del gy
        if q.requires_grad:
            gq = np.empty((N, n_heads, dh), dtype=gs.dtype)
            for ix, kg in gathered(k):
                gq[ix] = np.matmul(gs[ix][..., None, :], kg)[..., 0, :]
            q._accum(gq.reshape(N, H), owned=True)
        for x, weight, other in ((k, gs, q3), (v, y, g3)):
            if x.requires_grad:
                # every run's sums first, then gx: the step then peaks lower
                sums = [slot_sums(weight, other, run) for run in runs]
                gx = np.empty(x.shape, dtype=weight.dtype)
                for run, rows in zip(runs, sums):
                    with _chunk_rows(heads(gx)[:, run.heads], run) as dst:
                        np.copyto(dst[..., 0, :], rows)
                del sums, rows
                x._accum(gx, owned=True)

    return make_op(out.reshape(N, H), (q, k, v), backward)


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
        row_ok = _row_valid(lengths, B, L)
        q = T.mul(T.matmul(T.index_select(hidden, rows), params.wq, params.bq),
                  1.0 / np.sqrt(H // n_heads))
        k = T.matmul(hidden, params.wk, params.bk)
        v = T.matmul(hidden, params.wv, params.bv)
        mixed = _band_rows(q, k, v, rows, row_ok, pattern.window, gaps)
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
        K = pattern.window + 1
        # a band slot is open when its key lies in [0, L), in its sequence and
        # is not global (global columns are scored on their own); the self
        # slot always is (padding rows are zeroed later)
        key_open = row_ok.copy()
        key_open[:, gpos] = False
        key_ok = np.empty((B, n_heads, L, K), dtype=bool)
        for run in _band_runs(L, pattern.window, gaps, c=1):
            with _chunk_rows(key_ok[:, run.heads], run) as dst:
                np.copyto(dst, _open_slots(key_open, run, pattern.window)[:, None, ..., None, :])
        key_ok[..., pattern.window // 2] = True
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
