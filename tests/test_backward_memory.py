"""Ops that keep less for backward and rebuild the rest: each against its
keep-everything reference in oracles.py, by the bytes of its output and
every gradient, in float32 and float64; then the bytes one MLM step keeps
and its forward peak, against bounds."""

import itertools
import tracemalloc

import numpy as np
import pytest

from lctx import attention
from lctx import tensor as T
from lctx.attention import AttentionParams, AttentionPattern, rows_attention
from lctx.encoder import Encoder, EncoderConfig
from graph_memory import kept_bytes, mlm_step_graph
from oracles import (ref_keep_band_mix, ref_keep_band_rows, ref_keep_band_softmax,
                     ref_keep_gelu)

DTYPES = [pytest.param(np.float32, id="float32"), pytest.param(np.float64, id="float64")]


def _flags(n: int):
    """Every requires_grad combination of n inputs but none."""
    return [pytest.param(f, id="".join("g" if x else "-" for x in f))
            for f in itertools.product((True, False), repeat=n) if any(f)]


def _run(op, arrays, flags):
    """op's output data and its inputs' gradients, for leaves of `arrays`
    that require grad as `flags` say, under a random upstream gradient."""
    leaves = [T.Tensor(a.copy(), requires_grad=f, dtype=a.dtype) for a, f in zip(arrays, flags)]
    out = op(*leaves)
    weights = np.random.default_rng(7).standard_normal(out.shape)
    T.reduce_sum(T.mul_const(out, weights)).backward()
    grads = [t.grad for t in leaves]
    held = [g for g in grads if g is not None]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(held, 2))
    return out.data, grads


def _same_bytes(got, want):
    (out, grads), (ref_out, ref_grads) = got, want
    assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
    for g, r in zip(grads, ref_grads):
        assert (g is None) == (r is None)
        if g is not None:
            assert g.dtype == r.dtype and g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_matches_its_keep_everything_reference(dtype):
    x = (np.random.default_rng(0).standard_normal((3, 5, 17)) * 3).astype(dtype)
    _same_bytes(_run(T.gelu, [x], [True]), _run(ref_keep_gelu, [x], [True]))


@pytest.mark.parametrize("flags", _flags(4))
@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_residual_matches_layer_norm_of_add(dtype, flags):
    rng = np.random.default_rng(1)
    x, r = (rng.standard_normal((2, 5, 12)).astype(dtype) for _ in range(2))
    gain, bias = (rng.standard_normal(12).astype(dtype) for _ in range(2))
    _same_bytes(_run(lambda x, r, g, b: T.layer_norm(x, g, b, residual=r),
                     [x, r, gain, bias], flags),
                _run(lambda x, r, g, b: T.layer_norm(T.add(x, r), g, b),
                     [x, r, gain, bias], flags))


@pytest.mark.parametrize("flags", _flags(3))
@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_with_x_as_its_own_residual_matches_add(dtype, flags):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 5, 12)).astype(dtype)
    gain, bias = (rng.standard_normal(12).astype(dtype) for _ in range(2))
    _same_bytes(_run(lambda x, g, b: T.layer_norm(x, g, b, residual=x), [x, gain, bias], flags),
                _run(lambda x, g, b: T.layer_norm(T.add(x, x), g, b), [x, gain, bias], flags))


def test_layer_norm_refuses_a_residual_of_another_shape():
    x = T.Tensor(np.ones((2, 4)))
    with pytest.raises(ValueError, match="residual shape"):
        T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)),
                     residual=T.Tensor(np.ones(4)))


@pytest.mark.parametrize("rows", [pytest.param(False, id="every-row"),
                                  pytest.param(True, id="masked-rows")])
@pytest.mark.parametrize("dtype", DTYPES)
def test_encoder_step_has_the_bytes_of_adding_before_layer_norm(monkeypatch, dtype, rows):
    """The encoder's residual adds, folded into its layer norms, against
    the same step with each add a node of its own: the loss and every
    parameter gradient, with global positions and a padded sequence, so
    that hidden states feed several ops whose gradients add up."""
    rng = np.random.default_rng(9)
    encoder = Encoder(EncoderConfig(n_layers=2, n_heads=2, hidden_dim=16, ffn_dim=24,
                                    vocab_size=40, max_positions=32, window=4), rng,
                      dtype=dtype)
    ids = rng.integers(5, 40, (2, 19))
    mask = rng.random((2, 19)) < 0.3
    types = rng.integers(0, 2, (2, 19))
    pattern = AttentionPattern(window=4, global_positions=() if rows else (0, 3))

    def step():
        for t in encoder.named_params().values():
            t.zero_grad()
        hidden = encoder.encode(ids, types, pattern, lengths=[19, 14],
                                rows=mask if rows else None)
        if not rows:
            hidden = T.index_select(hidden, mask)
        loss = T.cross_entropy(encoder.mlm_logits(hidden), ids[mask])
        loss.backward()
        return loss.data, [None if t.grad is None else t.grad.copy()
                           for t in encoder.named_params().values()]

    got = step()
    layer_norm = T.layer_norm

    def add_then_layer_norm(x, gain, bias, residual=None):
        return layer_norm(x if residual is None else T.add(x, residual), gain, bias)

    monkeypatch.setattr(T, "layer_norm", add_then_layer_norm)
    _same_bytes(got, step())


# (L, window, gaps): runs of heads with distinct gaps; chunks that end at L
# and chunks padded past it; w = 0
_BAND_SHAPES = [pytest.param(13, 4, (0, 0, 1), id="L13-w4-gaps001"),
                pytest.param(16, 6, (1, 2, 2), id="L16-w6-gaps122"),
                pytest.param(9, 0, (0, 0, 0), id="L9-w0")]


@pytest.mark.parametrize("flags", _flags(2))
@pytest.mark.parametrize("length, window, gaps", _BAND_SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_band_mix_matches_its_keep_everything_reference(dtype, length, window, gaps, flags):
    rng = np.random.default_rng(3)
    p = rng.random((2, len(gaps), length, window + 1)).astype(dtype)
    v = rng.standard_normal((2, len(gaps), length, 4)).astype(dtype)
    _same_bytes(_run(lambda p, v: attention.band_mix(p, v, window, gaps), [p, v], flags),
                _run(lambda p, v: ref_keep_band_mix(p, v, window, gaps), [p, v], flags))


@pytest.mark.parametrize("flags", _flags(2))
@pytest.mark.parametrize("globals_", [pytest.param((), id="no-globals"),
                                      pytest.param((0, 5), id="globals-masked-columns")])
@pytest.mark.parametrize("length, window, gaps", _BAND_SHAPES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_band_softmax_matches_its_keep_everything_reference(dtype, length, window, gaps,
                                                            globals_, flags):
    rng = np.random.default_rng(4)
    B, h, K = 2, len(gaps), window + 1
    q, k = (rng.standard_normal((B, h, length, 4)).astype(dtype) for _ in range(2))
    band_ok = rng.random((B, h, length, K)) < 0.8
    band_ok[..., window // 2] = True
    gpos = np.asarray(globals_, dtype=np.int64)
    col_ok = rng.random((B, 1, 1, len(gpos))) < 0.6 if len(gpos) else None

    def op(kernel):
        return lambda q, k: kernel(q, k, window, gaps, band_ok, gpos, col_ok)

    _same_bytes(_run(op(attention.band_softmax), [q, k], flags),
                _run(op(ref_keep_band_softmax), [q, k], flags))


# _band_rows' inputs at 4 heads of two gaps, so its runs of heads are
# slices 0:2 and 2:4; dh = 4, K = w + 1 = 5
_ROWS_HEADS, _ROWS_DH, _ROWS_K = 4, 4, 5


def _band_rows_call(dtype):
    """(hidden, params, pattern, mask) of a rows_attention call that takes
    the mask path, and the arguments it passes to _band_rows."""
    rng = np.random.default_rng(5)
    B, L, H = 2, 23, _ROWS_HEADS * _ROWS_DH
    hidden = T.Tensor(rng.standard_normal((B, L, H)).astype(dtype), dtype=dtype)
    params = AttentionParams(H, rng, dtype=dtype, init_scale=0.3)
    pattern = AttentionPattern(window=_ROWS_K - 1, dilation_per_head=(0, 0, 2, 2))
    mask = rng.random((B, L)) < 0.4
    seen = []

    def capture(*args):
        seen.append(args)
        return real(*args)

    real = attention._band_rows
    attention._band_rows = capture
    try:
        with T.no_grad():
            rows_attention(hidden, params, pattern, _ROWS_HEADS, mask, lengths=[L, 17])
    finally:
        attention._band_rows = real
    (q, k, v, *rest), = seen
    return (hidden, params, pattern, mask), (q.data, k.data, v.data), rest


# byte budgets, in (row, head) pairs of gathered keys; a block holds rows
# of one run of two heads: every row at once; three pairs, one row per
# block; six pairs, three rows, so that the last block of a run is partial;
# half a pair, one row per block (below one row)
_BUDGETS = [pytest.param(None, id="default-budget"),
            pytest.param(3, id="three-pairs"),
            pytest.param(6, id="three-rows"),
            pytest.param(0.5, id="under-one-pair")]


def _set_budget(monkeypatch, pairs, dtype):
    if pairs is not None:
        pair_bytes = _ROWS_K * _ROWS_DH * np.dtype(dtype).itemsize
        monkeypatch.setattr(attention, "_GATHER_BYTES", int(pairs * pair_bytes))


@pytest.mark.parametrize("flags", _flags(3))
@pytest.mark.parametrize("pairs", _BUDGETS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_band_rows_matches_its_keep_everything_reference(monkeypatch, dtype, pairs, flags):
    """_band_rows, which looks its keys up in padded class windows, against
    the reference, which gathers them by flat row numbers."""
    _, arrays, args = _band_rows_call(dtype)
    mask, row_ok, window, gaps = args
    assert gaps == (0, 0, 2, 2) and window == _ROWS_K - 1
    if pairs == 6:
        assert mask.sum() % 3    # a partial last block
    assert not row_ok.all()      # padding keys are masked
    _set_budget(monkeypatch, pairs, dtype)

    def op(kernel):
        return lambda q, k, v: kernel(q, k, v, *args)

    _same_bytes(_run(op(attention._band_rows), arrays, flags),
                _run(op(ref_keep_band_rows), arrays, flags))


@pytest.mark.parametrize("pairs", _BUDGETS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_rows_attention_mask_path_matches_the_keep_everything_kernel(monkeypatch, dtype,
                                                                    pairs):
    (hidden, params, pattern, mask), _, _ = _band_rows_call(dtype)
    _set_budget(monkeypatch, pairs, dtype)
    leaves = [hidden, *params.named().values()]

    def run():
        for t in leaves:
            t.zero_grad()
        hidden.requires_grad = True
        out = rows_attention(hidden, params, pattern, _ROWS_HEADS, mask, lengths=[23, 17])
        weights = np.random.default_rng(8).standard_normal(out.shape)
        T.reduce_sum(T.mul_const(out, weights)).backward()
        return out.data, [None if t.grad is None else t.grad.copy() for t in leaves]

    got = run()
    # hidden and the eight local projections get gradients, the global ones none
    assert sum(g is not None for g in got[1]) == 9
    monkeypatch.setattr(attention, "_band_rows", ref_keep_band_rows)
    _same_bytes(got, run())


def test_mlm_step_keeps_bounded_bytes_and_peaks_near_them():
    """One 2-layer MLM step at L=1024, w=256 (H=256, 4 heads, FFN 1024),
    the last layer at the 15 % masked rows, as pretraining runs it. A full
    layer keeps 13 B*L*H (its Q, K, V and scaled Q, the mix, the merged
    heads, the output projection and its mask, two layer norms' xhat and
    output, the FFN's output), 2 B*L*F (GELU's input and output) and one
    B*h*L*(w+1) (the weights); the embedding keeps 5 B*L*H, the last layer
    its K and V and about 15 % of a layer at the masked rows. The
    forward's allocation peak stays within two gather budgets of that
    bound."""
    B, L, H, heads, F, window = 1, 1024, 256, 4, 1024, 256
    encoder = Encoder(EncoderConfig(n_layers=2, n_heads=heads, hidden_dim=H, ffn_dim=F,
                                    vocab_size=128, max_positions=L, window=window),
                      np.random.default_rng(0))
    unit = np.dtype(np.float32).itemsize
    blh, blf, band = B * L * H * unit, B * L * F * unit, B * heads * L * (window + 1) * unit
    bound = 24 * blh + 2.5 * blf + 1.25 * band
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = mlm_step_graph(encoder, L, 0.15, True, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = kept_bytes(loss)
    loss.backward()
    assert kept <= bound, f"kept {kept / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    assert peak <= bound + 2 * attention._GATHER_BYTES, (
        f"forward peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB + 2 budgets")
