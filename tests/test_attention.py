"""Banded attention vs the dense masked-attention oracle."""

import sys
import tracemalloc

import numpy as np
import pytest

from lctx import attention
from lctx import tensor as T
from lctx.tensor import Tensor
from lctx.attention import (
    AttentionParams,
    AttentionPattern,
    attention_flop_count,
    build_band_mask,
    dense_attention_flop_count,
    dense_attention_oracle,
    rows_attention,
    sliding_window_offsets,
    sparse_attention_forward,
)
from oracles import (band_scores, ref_band_mask, ref_dense_attention_oracle,
                     ref_dense_attention_unfused, ref_slot_dots, ref_slot_scatter, ref_slot_sum,
                     ref_sparse_attention_forward)


# ---------------------------------------------------------------------------
# window offsets (values pinned by the pattern definition: w=2 attends one
# neighbour per side; gap d skips d tokens between attended positions)
# ---------------------------------------------------------------------------


def test_offsets_contiguous_window():
    assert sliding_window_offsets(2, 5, 2, 0) == {1, 2, 3}


def test_offsets_dilated_window():
    assert sliding_window_offsets(3, 7, 2, 1) == {1, 3, 5}


def test_offsets_boundary_truncation():
    assert sliding_window_offsets(0, 5, 4, 0) == {0, 1, 2}


def test_offsets_window_zero_is_self():
    assert sliding_window_offsets(3, 8, 0, 2) == {3}


def test_offsets_odd_window_rejected():
    with pytest.raises(ValueError):
        sliding_window_offsets(0, 4, 3, 0)


# ---------------------------------------------------------------------------
# band mask
# ---------------------------------------------------------------------------


def test_band_mask_global_row_and_column_full():
    pat = AttentionPattern(window=2, global_positions=(0,))
    mask = build_band_mask(6, pat, head=0, n_heads=1)
    assert mask[0].all()
    assert mask[:, 0].all()


def test_band_mask_full_window_all_true():
    L = 7
    pat = AttentionPattern(window=2 * (L - 1))
    assert build_band_mask(L, pat, head=0, n_heads=1).all()


def test_band_mask_window_zero_identity():
    pat = AttentionPattern(window=0)
    mask = build_band_mask(5, pat, head=0, n_heads=1)
    np.testing.assert_array_equal(mask, np.eye(5, dtype=bool))


def test_band_mask_matches_offsets():
    pat = AttentionPattern(window=4, dilation_per_head=(1,), global_positions=(2,))
    L = 11
    mask = build_band_mask(L, pat, head=0, n_heads=1)
    for i in range(L):
        for j in range(L):
            expect = (j in sliding_window_offsets(i, L, 4, 1)) or i == 2 or j == 2
            assert mask[i, j] == expect
    # gap 0 skips the modulo test; both gaps must give the modulo form's mask
    for head, gap in enumerate((0, 3)):
        for length in (1, 7, 40):
            glob = tuple(g for g in (0, 5) if g < length)
            mask = build_band_mask(length, AttentionPattern(6, (0, 3), glob), head, 2)
            assert np.array_equal(mask, ref_band_mask(length, 6, gap, glob))


def test_band_mask_global_symmetry():
    pat = AttentionPattern(window=2, global_positions=(1, 4))
    mask = build_band_mask(9, pat, head=0, n_heads=1)
    for g in (1, 4):
        assert mask[g].all() and mask[:, g].all()


def test_self_attendance_always():
    for w in (0, 2, 4):
        for d in (0, 1, 2):
            pat = AttentionPattern(window=w, dilation_per_head=(d,))
            mask = build_band_mask(10, pat, head=0, n_heads=1)
            assert np.diag(mask).all()


# ---------------------------------------------------------------------------
# sparse forward vs oracle
# ---------------------------------------------------------------------------


def _hidden(rng, B, L, H, dtype=np.float32):
    return Tensor(rng.standard_normal((B, L, H)), dtype=dtype)


def test_full_window_equals_dense_self_attention():
    rng = np.random.default_rng(10)
    L, H = 9, 16
    params = AttentionParams(H, rng)
    pat_full = AttentionPattern(window=2 * (L - 1))
    x = _hidden(rng, 2, L, H)
    with T.no_grad():
        sparse = sparse_attention_forward(x, params, pat_full, n_heads=2)
        dense = dense_attention_oracle(x, params, pat_full, n_heads=2)
    assert np.abs(sparse.data - dense.data).max() <= 1e-5
    # and the dense mask really is all-true, i.e. ordinary full self-attention
    assert build_band_mask(L, pat_full, 0, 2).all()


def _oracle_spy(monkeypatch):
    """Count the banded kernel's calls into the dense kernel."""
    calls = []
    real = attention.dense_attention_oracle

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(attention, "dense_attention_oracle", spy)
    return calls


@pytest.mark.parametrize("reach, dispatched", [(-2, False), (-1, True)])
@pytest.mark.parametrize("window, gap", [(4, 2), (8, 0), (2, 3)])
def test_dense_dispatch_boundary(monkeypatch, window, gap, reach, dispatched):
    # a band that reaches (w/2)*(gap+1) = L-2 stays banded; L-1 goes dense
    L = (window // 2) * (gap + 1) - reach
    rng = np.random.default_rng(16)
    H, heads = 16, 2
    params = AttentionParams(H, rng)
    pat = AttentionPattern(window=window, dilation_per_head=(gap, gap), global_positions=(1,))
    x = _hidden(rng, 2, L, H)
    calls = _oracle_spy(monkeypatch)
    with T.no_grad():
        sparse = sparse_attention_forward(x, params, pat, n_heads=heads, lengths=[L, L - 1])
    assert bool(calls) == dispatched
    with T.no_grad():
        dense = dense_attention_oracle(x, params, pat, n_heads=heads, lengths=[L, L - 1])
    assert np.abs(sparse.data - dense.data).max() <= 1e-5


def test_mixed_gaps_with_one_full_head_stay_banded(monkeypatch):
    # head 1 covers the sequence, head 0 does not: the banded path serves both
    rng = np.random.default_rng(17)
    L, H, heads = 13, 16, 2
    params = AttentionParams(H, rng)
    pat = AttentionPattern(window=4, dilation_per_head=(0, 5), global_positions=(0, 7))
    x = _hidden(rng, 1, L, H)
    calls = _oracle_spy(monkeypatch)
    with T.no_grad():
        sparse = sparse_attention_forward(x, params, pat, n_heads=heads)
    assert calls == []
    with T.no_grad():
        dense = dense_attention_oracle(x, params, pat, n_heads=heads)
    assert np.abs(sparse.data - dense.data).max() <= 1e-5


def test_forward_peak_memory_is_a_few_score_tensors():
    # global columns are one [L, G] product, not gathered per row: the peak
    # stays within a small multiple of one float64 score tensor
    B, L, H, heads, w, G = 1, 2048, 32, 2, 8, 256
    rng = np.random.default_rng(18)
    params = AttentionParams(H, rng)
    pat = AttentionPattern(window=w, global_positions=tuple(range(G)))
    x = _hidden(rng, B, L, H)
    score_bytes = 8 * B * heads * L * (w + 1 + G)
    tracemalloc.start()
    try:
        with T.no_grad():
            sparse_attention_forward(x, params, pat, n_heads=heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * score_bytes, f"peak {peak / score_bytes:.1f}x one score tensor"


def test_banded_forward_builds_no_key_index_table():
    """At a window that is large against L, a no-grad banded forward peaks
    at its float32 weights [B,h,L,K+G] (4 bytes an entry), one run's chunk
    product (c + w = 1.5 w columns: under 6 bytes an entry), the band mask
    and its negation (2 bytes) and a few float32 [B,L,H] arrays. An int64
    [h,L,K] table of band key indices would add 8 bytes an entry."""
    B, L, H, heads, w, G = 1, 1024, 64, 4, 256, 32
    rng = np.random.default_rng(28)
    params = AttentionParams(H, rng)
    pat = AttentionPattern(window=w, global_positions=tuple(range(G)))
    x = _hidden(rng, B, L, H)
    entries, hidden_bytes = B * heads * L * (w + 1 + G), 4 * B * L * H
    tracemalloc.start()
    try:
        with T.no_grad():
            sparse_attention_forward(x, params, pat, n_heads=heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * entries + 8 * hidden_bytes, (
        f"peak {peak / entries:.1f} bytes per B*h*L*(K+G) entry")


def test_single_token_sequence():
    rng = np.random.default_rng(11)
    H = 8
    params = AttentionParams(H, rng)
    x = _hidden(rng, 1, 1, H)
    with T.no_grad():
        out = sparse_attention_forward(x, params, AttentionPattern(window=0), n_heads=1)
        # attention over one token is a no-op: output = O(V(x))
        v = x.data @ params.wv.data.astype(np.float64) + params.bv.data
        expect = v @ params.wo.data.astype(np.float64) + params.bo.data
    np.testing.assert_allclose(out.data, expect.astype(np.float32), atol=1e-5)


def test_spec_random_config_matches_oracle():
    rng = np.random.default_rng(12)
    H, heads = 16, 2
    params = AttentionParams(H, rng)
    pat = AttentionPattern(window=4, dilation_per_head=(0, 1), global_positions=(0, 5))
    x = _hidden(rng, 1, 12, H)
    with T.no_grad():
        sparse = sparse_attention_forward(x, params, pat, n_heads=heads)
        dense = dense_attention_oracle(x, params, pat, n_heads=heads)
    assert np.abs(sparse.data - dense.data).max() <= 1e-5


@pytest.mark.parametrize("seed", range(8))
def test_randomized_oracle_equivalence_float64(seed):
    rng = np.random.default_rng(100 + seed)
    heads = int(rng.choice([1, 2, 4]))
    H = heads * int(rng.choice([4, 8]))
    L = int(rng.integers(1, 64))
    w = int(rng.choice([0, 2, 4, 8]))
    dil = tuple(int(d) for d in rng.choice([0, 1, 2], size=heads))
    n_glob = int(rng.integers(0, min(4, L + 1)))
    globals_ = tuple(int(g) for g in rng.choice(L, size=n_glob, replace=False)) if n_glob else ()
    pat = AttentionPattern(window=w, dilation_per_head=dil, global_positions=globals_)
    params = AttentionParams(H, rng, dtype=np.float64)
    x = _hidden(rng, 2, L, H, dtype=np.float64)
    with T.no_grad():
        sparse = sparse_attention_forward(x, params, pat, n_heads=heads)
        dense = dense_attention_oracle(x, params, pat, n_heads=heads)
    assert np.abs(sparse.data - dense.data).max() <= 1e-10


def test_padding_rows_zero_and_keys_excluded():
    rng = np.random.default_rng(13)
    H = 8
    params = AttentionParams(H, rng)
    pat = AttentionPattern(window=4, global_positions=(0,))
    full = Tensor(rng.standard_normal((2, 10, H)))
    lengths = np.array([10, 6])
    with T.no_grad():
        out = sparse_attention_forward(full, params, pat, n_heads=2, lengths=lengths)
        dense = dense_attention_oracle(full, params, pat, n_heads=2, lengths=lengths)
    assert np.abs(out.data - dense.data).max() <= 1e-5
    assert np.abs(out.data[1, 6:]).max() == 0.0
    # keys beyond the valid length must not influence valid rows
    perturbed = full.data.copy()
    perturbed[1, 7] += 3.0
    with T.no_grad():
        out2 = sparse_attention_forward(Tensor(perturbed), params, pat, n_heads=2, lengths=lengths)
    np.testing.assert_allclose(out.data[1, :6], out2.data[1, :6], atol=1e-6)


def _gradients(forward, params, pat, heads, x_data, r, lengths=None):
    """The output, x's gradient and the 14 parameter gradients (an empty
    array for a parameter the call does not reach) of sum(forward(x) * r)."""
    x = Tensor(x_data, requires_grad=True, dtype=x_data.dtype)
    out = forward(x, params, pat, n_heads=heads, lengths=lengths)
    T.reduce_sum(T.mul_const(out, r)).backward()
    grads = {"out": out.data, "x": x.grad}
    for name, p in params.named().items():
        grads[name] = p.grad if p.grad is not None else np.zeros(0)
        p.zero_grad()
    return grads


def _assert_gradient_parity(pat, heads, x_data, r, params, lengths=None):
    g_sparse = _gradients(sparse_attention_forward, params, pat, heads, x_data, r, lengths)
    g_dense = _gradients(dense_attention_oracle, params, pat, heads, x_data, r, lengths)
    for key in g_sparse:
        a, b = g_sparse[key], g_dense[key]
        denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
        assert np.abs(a - b).max() / denom <= 1e-4, key


def test_gradient_parity_with_oracle():
    rng = np.random.default_rng(14)
    H, heads, L = 8, 2, 12
    pat = AttentionPattern(window=4, dilation_per_head=(0, 1), global_positions=(0, 5))
    params_a = AttentionParams(H, rng, dtype=np.float64)
    x_data = rng.standard_normal((1, L, H))
    r = rng.standard_normal((1, L, H))
    _assert_gradient_parity(pat, heads, x_data, r, params_a)


def test_gradient_parity_with_oracle_padded_batch():
    # padded second row, a global past its length, mixed gaps: covers the
    # band's slice-add backward and the split after the joint softmax
    rng = np.random.default_rng(19)
    H, heads, L = 8, 2, 12
    pat = AttentionPattern(window=4, dilation_per_head=(0, 1), global_positions=(0, 5, 9))
    params = AttentionParams(H, rng, dtype=np.float64)
    x_data = rng.standard_normal((2, L, H))
    r = rng.standard_normal((2, L, H))
    _assert_gradient_parity(pat, heads, x_data, r, params, lengths=[L, L - 4])


# head 1's band (gap 5) reaches the whole sequence, head 0's does not, so the
# banded kernel runs with one band part per head; row 1 is padded
_MIXED = AttentionPattern(window=4, dilation_per_head=(0, 5), global_positions=(0, 7))
_MIXED_L, _MIXED_LENGTHS = 13, [13, 9]
_MIXED_NO_GLOBALS = AttentionPattern(window=4, dilation_per_head=(0, 5))


def _mixed_case(dtype):
    rng = np.random.default_rng(20)
    H, heads = 16, 2
    # a large init scale, so the scores are far from uniform and a band that
    # reads the wrong keys moves the gradient well past the tolerance
    params = AttentionParams(H, rng, dtype=dtype, init_scale=0.5)
    x_data = rng.standard_normal((2, _MIXED_L, H)).astype(dtype)
    r = rng.standard_normal((2, _MIXED_L, H)).astype(dtype)
    return params, heads, x_data, r


def test_band_ops_input_gradient_mixed_gaps_float32():
    params, heads, x_data, r = _mixed_case(np.float32)
    got = _gradients(sparse_attention_forward, params, _MIXED, heads, x_data, r,
                     _MIXED_LENGTHS)["x"]
    want = _gradients(dense_attention_oracle, params, _MIXED, heads, x_data, r,
                      _MIXED_LENGTHS)["x"]
    assert got.dtype == np.float32
    assert np.abs(got - want).max() / np.abs(want).max() <= 1e-5


def test_band_ops_input_gradient_mixed_gaps_float64_finite_differences():
    params, heads, x_data, r = _mixed_case(np.float64)
    got = _gradients(sparse_attention_forward, params, _MIXED, heads, x_data, r,
                     _MIXED_LENGTHS)["x"]

    def oracle_loss(xd):
        with T.no_grad():
            out = dense_attention_oracle(Tensor(xd, dtype=np.float64), params, _MIXED,
                                         heads, lengths=_MIXED_LENGTHS)
        return float((out.data * r).sum())

    h = 1e-5
    fd = np.zeros_like(x_data)
    for i in np.ndindex(x_data.shape):
        step = np.zeros_like(x_data)
        step[i] = h
        fd[i] = (oracle_loss(x_data + step) - oracle_loss(x_data - step)) / (2 * h)
    assert np.abs(got - fd).max() / np.abs(fd).max() <= 1e-4


# name: (B, L, dh, window, gaps, lengths); the kernel cuts each residue
# class into chunks of c = max(1, w/2) rows
_BAND_CASES = {
    "w0": (2, 7, 4, 0, (0, 0), None),
    "w2": (2, 9, 4, 2, (0,), None),
    "w8": (2, 40, 4, 8, (0, 0), None),
    "w64": (1, 150, 4, 64, (0,), None),
    "L-not-a-multiple-of-c": (2, 23, 5, 8, (0,), None),
    "L-below-c": (2, 3, 4, 16, (0,), None),
    "mixed-gaps": (2, 19, 3, 6, (0, 5, 5, 2), None),
    "padded-rows": (2, 21, 4, 6, (0, 1), [21, 13]),
    # (w/2)(gap+1) = L-2: the last banded length; L-1: the band covers the
    # sequence, where sparse_attention_forward dispatches to the dense kernel
    "banded-at-the-dispatch-edge": (2, 8, 4, 4, (2, 2), None),
    "at-the-dense-dispatch": (2, 9, 4, 4, (3, 3), None),
}


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("case", sorted(_BAND_CASES))
def test_band_ops_match_the_per_slot_oracles(case, dtype, tol):
    """band_scores and band_mix, forward and backward, against the slot-by-
    slot definitions computed in float64 from the same inputs."""
    B, L, dh, window, gaps, lengths = _BAND_CASES[case]
    rng = np.random.default_rng(21)
    rows = (B, len(gaps), L)
    q, k, v, g = (rng.standard_normal(rows + (dh,)).astype(dtype) for _ in range(4))
    p, gs = (rng.standard_normal(rows + (window + 1,)).astype(dtype) for _ in range(2))
    for b, n in enumerate(lengths or ()):
        # padding rows: zero inputs and no weight on them or from them
        for x in (q, k, v, g, p, gs):
            x[b, :, n:] = 0.0
    q64, k64, v64, g64, p64, gs64 = (x.astype(np.float64) for x in (q, k, v, g, p, gs))

    def close(got, want):
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())

    qt, kt = (Tensor(x, requires_grad=True, dtype=dtype) for x in (q, k))
    scores = band_scores(qt, kt, window, gaps)
    close(scores.data, ref_slot_dots(q64, k64, window, gaps))
    scores._backward(gs)
    close(qt.grad, ref_slot_sum(gs64, k64, window, gaps))
    close(kt.grad, ref_slot_scatter(gs64, q64, window, gaps))

    pt, vt = (Tensor(x, requires_grad=True, dtype=dtype) for x in (p, v))
    mixed = attention.band_mix(pt, vt, window, gaps)
    close(mixed.data, ref_slot_sum(p64, v64, window, gaps))
    mixed._backward(g)
    close(pt.grad, ref_slot_dots(g64, v64, window, gaps))
    close(vt.grad, ref_slot_scatter(p64, g64, window, gaps))


def test_band_op_calls_do_not_grow_with_the_window():
    """The band ops have no per-slot loop: their forward and backward make
    as many Python-level calls at w=2 as at w=64 (L = 256 fills the chunks
    of both)."""
    rng = np.random.default_rng(27)

    def calls(window):
        q, k, v = (Tensor(rng.standard_normal((1, 2, 256, 8)), requires_grad=True)
                   for _ in range(3))
        p = Tensor(rng.standard_normal((1, 2, 256, window + 1)), requires_grad=True)
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            band_scores(q, k, window, (0, 0))._backward(np.ones(p.shape))
            attention.band_mix(p, v, window, (0, 0))._backward(np.ones(v.shape))
        finally:
            sys.setprofile(None)
        return len(events)

    assert calls(2) == calls(64)


# ---------------------------------------------------------------------------
# the one-buffer ops against the unfused composition in tests/oracles.py
# (band_scores, additive masks, concat, softmax, slices; global queries
# projected over all L rows): the same bytes, forward and backward
# ---------------------------------------------------------------------------

# name: (B, L, H, heads, pattern, lengths)
_FUSED_CASES = {
    "no-globals": (2, 40, 16, 2, AttentionPattern(8), [40, 31]),
    "global-past-a-padded-length": (2, 12, 8, 2, AttentionPattern(4, (0, 1), (0, 5, 9)),
                                    [12, 8]),
    "ragged": (3, 30, 16, 2, AttentionPattern(2, None, (0, 3)), [30, 27, 23]),
    "mixed-gaps": (2, _MIXED_L, 16, 2, _MIXED, _MIXED_LENGTHS),
    "w0": (2, 20, 8, 1, AttentionPattern(0, None, (2,)), [20, 11]),
    "w2-one-global": (2, 33, 16, 2, AttentionPattern(2, None, (0,)), None),
    "w8-one-global-padded": (2, 33, 16, 2, AttentionPattern(8, None, (0,)), [33, 20]),
    # a band backward fed the strided K-wide slice of the gradient buffer
    # gives other float32 bytes at this shape
    "w16-wide-heads": (2, 256, 128, 2, AttentionPattern(16, None, (0,)), [256, 100]),
    "many-globals": (2, 300, 32, 2, AttentionPattern(8, None, tuple(range(60))), [300, 250]),
    "L1": (1, 1, 8, 1, AttentionPattern(0), None),
    "dense-dispatch": (2, 9, 16, 2, AttentionPattern(4, (3, 3), (1,)), [9, 8]),
    "banded-at-the-dispatch-edge": (2, 8, 16, 2, AttentionPattern(4, (2, 2), (1,)), [8, 7]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("case", sorted(_FUSED_CASES))
def test_fused_kernel_bytes_match_the_unfused_composition(case, dtype):
    B, L, H, heads, pat, lengths = _FUSED_CASES[case]
    rng = np.random.default_rng(22)
    params = AttentionParams(H, rng, dtype=dtype, init_scale=0.5)
    x_data = rng.standard_normal((B, L, H)).astype(dtype)
    r = rng.standard_normal((B, L, H)).astype(dtype)
    got = _gradients(sparse_attention_forward, params, pat, heads, x_data, r, lengths)
    want = _gradients(ref_sparse_attention_forward, params, pat, heads, x_data, r, lengths)
    assert len(got) == 16
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("window, gaps, globals_, lengths", [
    pytest.param(4, (0, 1), (0, 5, 9), [12, 8], id="dilated-padded-globals"),
    pytest.param(22, None, (), [12, 12], id="full-window-no-mask"),
    pytest.param(22, None, (3,), [12, 7], id="full-window-padded"),
])
def test_dense_oracle_bytes_match_the_additive_mask(window, gaps, globals_, lengths, dtype):
    """The dense kernel has the bytes of its unfused chain (the local rows
    under an additive mask, then the global rows that the banded kernel's
    chain replaces too), and matches the blend form, which shares no
    global-row code with it, at the oracle bound: the output and every
    gradient."""
    rng = np.random.default_rng(23)
    params = AttentionParams(8, rng, dtype=dtype, init_scale=0.5)
    pat = AttentionPattern(window, gaps, globals_)
    x_data = rng.standard_normal((2, 12, 8)).astype(dtype)
    r = rng.standard_normal((2, 12, 8)).astype(dtype)
    got = _gradients(dense_attention_oracle, params, pat, 2, x_data, r, lengths)
    want = _gradients(ref_dense_attention_unfused, params, pat, 2, x_data, r, lengths)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key
    blend = _gradients(ref_dense_attention_oracle, params, pat, 2, x_data, r, lengths)
    # floored by the largest gradient: the output does not depend on the
    # key biases, whose gradients are noise
    scale = max(np.abs(g).max() for name, g in blend.items() if name != "out" and g.size)
    for key in blend:
        assert got[key].shape == blend[key].shape, key
        if blend[key].size:
            denom = max(np.abs(blend[key]).max(), 1e-8 if key == "out" else scale)
            assert np.abs(got[key] - blend[key]).max() / denom <= 1e-5, key


_BANDED_GLOBALS = AttentionPattern(4, None, tuple(range(6)))


def _mask(B, L, picked):
    """The boolean [B, L] mask of the positions picked[b] of each sequence b."""
    mask = np.zeros((B, L), dtype=bool)
    for b, rows in enumerate(picked):
        mask[b, list(rows)] = True
    return mask


# name: (B, L, H, heads, pattern, lengths, rows, exact). `rows` is a tuple
# of positions, or a list of the masked positions of each sequence (a
# boolean [B, L] mask). Where `exact`, the bytes are the full call's too;
# the full call at its rows (fallback-*) has them by construction.
_ROWS_CASES = {
    # positions that are all global: the global path alone
    "global-one-row": (2, 40, 16, 2, _BANDED_GLOBALS, None, (0,), True),
    "global-several-rows": (2, 40, 16, 2, _BANDED_GLOBALS, None, (0, 2, 5), True),
    "global-unsorted-rows": (2, 40, 16, 2, _BANDED_GLOBALS, None, (5, 0, 2), True),
    "global-one-global": (2, 40, 16, 2, AttentionPattern(4, None, (0,)), None, (0,), True),
    # the third row's length ends before global 9
    "global-ragged": (3, 30, 16, 2, AttentionPattern(2, None, (0, 3, 9)), [30, 27, 8], (0, 9),
                      True),
    "global-ragged-one-row": (3, 30, 16, 2, AttentionPattern(2, None, (0, 3)), [30, 27, 23],
                              (0,), True),
    "global-dilated": (2, 33, 16, 2, AttentionPattern(4, (0, 2), (0, 7)), [33, 20], (0,), True),
    "global-dense-dispatch": (2, 9, 16, 2, AttentionPattern(4, (3, 3), (1, 4)), [9, 8], (1,),
                              True),
    "global-dense-dispatch-no-padding": (1, 5, 8, 1, AttentionPattern(8, None, (0,)), None,
                                         (0,), True),
    # non-global positions of a pattern that covers the sequence: the local
    # row path alone
    "dense-one-row": (2, 9, 16, 2, AttentionPattern(16), None, (0,), True),
    "dense-several-rows": (2, 9, 16, 2, AttentionPattern(16), None, (0, 3, 8), True),
    "dense-unsorted-rows": (2, 9, 16, 2, AttentionPattern(16), None, (8, 0, 3), True),
    # the third row's length ends before row 7
    "dense-ragged": (3, 12, 16, 2, AttentionPattern(22), [12, 9, 5], (0, 7), True),
    "dense-ragged-one-row": (3, 12, 16, 2, AttentionPattern(22), [12, 9, 5], (0,), True),
    # gaps 3 and 1 still cover 9 rows at w = 4 and 8: each row sees its own class
    "dense-dilated": (2, 9, 16, 2, AttentionPattern(4, (3, 3)), [9, 8], (0, 2), True),
    "dense-dilated-one-row": (2, 9, 16, 2, AttentionPattern(8, (1, 3)), None, (1,), True),
    "dense-with-globals": (2, 9, 16, 2, AttentionPattern(16, None, (1, 4)), [9, 6], (0, 5),
                           True),
    "dense-one-head": (1, 5, 8, 1, AttentionPattern(8), None, (2,), True),
    # a mask under a banded pattern without globals: each row's band slots
    # alone, whose per-row products sum in another order than the chunk
    # matmuls; a row past its sequence's length (row 27 of the ragged
    # case's third sequence) gives zero
    "mask-ragged": (3, 30, 16, 2, AttentionPattern(4), [30, 21, 9],
                    [(0, 5, 6, 29), (1, 2, 20), (0, 4, 8, 27)], False),
    "mask-dilated": (2, 33, 16, 2, AttentionPattern(4, (0, 2)), [33, 20],
                     [(0, 3, 16, 31, 32), (1, 6, 7, 19)], False),
    "mask-dilated-one-gap": (2, 33, 16, 2, AttentionPattern(6, (2, 2)), None,
                             [(2, 9, 10, 30), (0, 32)], False),
    "mask-w0": (2, 17, 8, 2, AttentionPattern(0), [17, 12], [(0, 8, 16), (3, 11)], False),
    "mask-one-masked-row": (2, 24, 16, 2, AttentionPattern(8), [24, 15], [(), (7,)], False),
    "mask-a-sequence-without-masked-rows": (3, 24, 16, 2, AttentionPattern(8), None,
                                            [(1, 2, 23), (), (0, 12)], False),
    "mask-one-head": (2, 20, 8, 1, AttentionPattern(2, (1,)), [20, 20], [(4, 5, 19), (0,)],
                      False),
    # head 1's band covers the sequence, head 0's does not: a banded call
    "mask-mixed-gaps": (2, _MIXED_L, 16, 2, _MIXED_NO_GLOBALS, _MIXED_LENGTHS,
                        [(0, 6, 12), (2, 8)], False),
    # anything else: the full call, at its rows
    "fallback-mask-under-globals": (3, 30, 16, 2, AttentionPattern(4, None, (0, 3)),
                                    [30, 21, 9], [(0, 5, 29), (3, 20), (4, 8, 27)], True),
    "fallback-mask-under-a-covering-band": (2, 9, 16, 2, AttentionPattern(16), [9, 6],
                                            [(0, 4, 8), (2, 7)], True),
    "fallback-mixed-positions": (2, 40, 16, 2, _BANDED_GLOBALS, [40, 30], (0, 9, 33), True),
    "fallback-mixed-positions-covering": (2, 9, 16, 2, AttentionPattern(16, None, (1,)), None,
                                          (1, 4), True),
    "fallback-non-global-banded": (2, 40, 16, 2, _BANDED_GLOBALS, [40, 30], (7, 35), True),
    "fallback-positions-without-globals": (2, 30, 16, 2, AttentionPattern(4, (0, 2)), None,
                                           (3,), True),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("case", sorted(_ROWS_CASES))
def test_rows_attention_matches_the_full_call_at_its_rows(case, dtype, monkeypatch):
    """Output and every gradient of the rows alone equal those of the full
    call's rows at the oracle bound, padded rows give zero and, where the
    case is `exact`, at these shapes (where BLAS gives a row the same bytes
    at two rows and at the full call's count), byte for byte. Positions out
    of order sum the key and value gradients in another order, so there
    only the bound holds. Only the fallback cases make the full call."""
    B, L, H, heads, pat, lengths, rows, exact = _ROWS_CASES[case]
    if isinstance(rows, list):
        key = rows = _mask(B, L, rows)
    else:
        key = (slice(None), list(rows))
        exact = exact and list(rows) == sorted(rows)
    rng = np.random.default_rng(30 if isinstance(rows, np.ndarray) else 27)
    params = AttentionParams(H, rng, dtype=dtype, init_scale=0.5)
    x_data = rng.standard_normal((B, L, H)).astype(dtype)
    r_full = np.zeros((B, L, H), dtype=dtype)
    r = rng.standard_normal(r_full[key].shape).astype(dtype)
    r_full[key] = r

    full_calls = []

    def counting(*args):
        full_calls.append(args)
        return sparse_attention_forward(*args)

    def alone(x, params, pat, n_heads, lengths):
        with monkeypatch.context() as patched:
            patched.setattr(attention, "sparse_attention_forward", counting)
            return rows_attention(x, params, pat, n_heads, rows, lengths)

    got = _gradients(alone, params, pat, heads, x_data, r, lengths)
    assert len(full_calls) == case.startswith("fallback")
    want = _gradients(sparse_attention_forward, params, pat, heads, x_data, r_full, lengths)
    want["out"] = want["out"][key]
    assert got["out"].shape == r.shape and got["out"].dtype == dtype
    valid = np.arange(L)[None] < np.asarray(lengths or [L] * B)[:, None]
    assert not got["out"][~valid[key]].any()
    # per-tensor denominators floored by the largest gradient, so that the
    # key biases, which the output provably does not depend on, are compared
    # at noise level rather than 0/0
    scale = max(np.abs(g).max() for name, g in want.items() if name != "out" and g.size)
    for name in want:
        if got[name].size == 0:
            # a projection set the rows do not reach; the full call gives it
            # zeros, or does not reach it either
            assert not want[name].any(), name
            continue
        denom = max(np.abs(want[name]).max(), 1e-8 if name == "out" else scale)
        assert np.abs(got[name] - want[name]).max() / denom <= 1e-5, name
        if exact:
            assert got[name].tobytes() == want[name].tobytes(), name


def _graph(root):
    """Every node of root's graph."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _closure_arrays(fn, seen):
    """The arrays a function's closure holds: directly, as a Tensor's data
    or through a function it holds."""
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:
            continue
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, Tensor):
            value = value.data
        if isinstance(value, np.ndarray):
            yield value
        elif callable(value):
            yield from _closure_arrays(value, seen)


def test_float32_attention_backward_keeps_no_float64_buffers():
    B, L, H, heads, pat, lengths = _FUSED_CASES["global-past-a-padded-length"]
    rng = np.random.default_rng(24)
    params = AttentionParams(H, rng)
    x = Tensor(rng.standard_normal((B, L, H)), requires_grad=True)
    out = sparse_attention_forward(x, params, pat, heads, lengths)
    kept = [arr for node in _graph(out) if node._backward is not None
            for arr in _closure_arrays(node._backward, set())]
    assert any(arr.dtype == np.float32 and arr.size >= B * heads * L for arr in kept)
    assert [arr.shape for arr in kept if arr.dtype == np.float64] == []


def test_masked_rows_backward_keeps_no_integer_array():
    """The masked-row path looks its band keys up in the padded windows: no
    node of its graph keeps a table of key indices, or any other integer
    array, for backward."""
    B, L, H, heads = 2, 40, 16, 2
    rng = np.random.default_rng(29)
    params = AttentionParams(H, rng)
    x = Tensor(rng.standard_normal((B, L, H)), requires_grad=True)
    mask = rng.random((B, L)) < 0.3
    out = rows_attention(x, params, AttentionPattern(8, (0, 1)), heads, mask, [L, 31])
    kept = [arr for node in _graph(out) if node._backward is not None
            for arr in _closure_arrays(node._backward, set())]
    assert any(arr.dtype == np.float32 and arr.size >= mask.sum() * heads for arr in kept)
    assert [arr.shape for arr in kept if np.issubdtype(arr.dtype, np.integer)] == []


def test_make_op_calls_per_padded_call_with_globals(monkeypatch):
    """The unfused composition builds 47 graph nodes here: the scores, both
    masks, the concatenation, the softmax and the gather of k are one node,
    and the global scores, their mask and softmax another."""
    calls = []
    real = T.make_op

    def counting(data, parents, backward):
        calls.append(T._op_name(backward))
        return real(data, parents, backward)

    monkeypatch.setattr(T, "make_op", counting)
    monkeypatch.setattr(attention, "make_op", counting)
    B, L, H, heads, pat, lengths = _FUSED_CASES["global-past-a-padded-length"]
    rng = np.random.default_rng(25)
    params = AttentionParams(H, rng)
    x = Tensor(rng.standard_normal((B, L, H)), requires_grad=True)
    sparse_attention_forward(x, params, pat, heads, lengths)
    assert len(calls) == 36, calls
    assert calls.count("band_softmax") == calls.count("global_softmax") == 1
    assert not {"softmax", "concat", "add_const"} & set(calls)


def test_debug_checks_pass_a_masked_call():
    """set_debug checks every op's output for non-finite values; the masked
    scores live only inside the one-buffer ops, so a padded call with
    globals passes, forward and backward."""
    B, L, H, heads, pat, lengths = _FUSED_CASES["global-past-a-padded-length"]
    rng = np.random.default_rng(26)
    params = AttentionParams(H, rng)
    x = Tensor(rng.standard_normal((B, L, H)), requires_grad=True)
    T.set_debug(True)
    try:
        for forward in (sparse_attention_forward, dense_attention_oracle):
            T.reduce_sum(forward(x, params, pat, heads, lengths)).backward()
    finally:
        T.set_debug(False)
    assert np.isfinite(x.grad).all()


def test_local_and_global_parameters_distinct():
    rng = np.random.default_rng(15)
    params = AttentionParams(8, rng)
    assert params.wq is not params.wq_g
    assert not np.array_equal(params.wq.data, params.wq_g.data)


def test_pattern_validation():
    with pytest.raises(ValueError):
        AttentionPattern(window=3)
    with pytest.raises(ValueError):
        AttentionPattern(window=2, dilation_per_head=(-1,))
    with pytest.raises(ValueError):
        AttentionPattern(window=2, global_positions=(4,)).check_globals(3)


@pytest.mark.parametrize("forward", [sparse_attention_forward, dense_attention_oracle],
                         ids=["sparse", "dense"])
@pytest.mark.parametrize("L, H, pattern, named", [
    pytest.param(10, 10, AttentionPattern(4), "hidden dim not divisible", id="banded-H10"),
    pytest.param(4, 10, AttentionPattern(8, None, (0,)), "hidden dim not divisible",
                 id="covering-H10"),
    pytest.param(0, 16, AttentionPattern(4), "sequence length 0", id="L0"),
    pytest.param(0, 16, AttentionPattern(0), "sequence length 0", id="L0-w0"),
])
def test_kernels_refuse_a_bad_shape_by_name(forward, L, H, pattern, named):
    # both kernels check their input's shape before any numpy call can fail
    # on it (at L = 0 a softmax's max over no keys)
    rng = np.random.default_rng(31)
    params = AttentionParams(H, rng)
    with pytest.raises(ValueError, match=named):
        forward(_hidden(rng, 2, L, H), params, pattern, n_heads=4)


# ---------------------------------------------------------------------------
# flop counting
# ---------------------------------------------------------------------------


def test_flops_affine_in_length():
    for w, d, g in [(4, 0, 0), (8, 1, 1), (2, 2, 3)]:
        # zero divided second difference over the doubling grid 256/512/1024
        f = [attention_flop_count(L, w, g, n_heads=2, dim=32, dilation=d)
             for L in (256, 512, 1024)]
        assert (f[1] - f[0]) * (1024 - 512) == (f[2] - f[1]) * (512 - 256)
        # and the plain second difference on an equally spaced grid
        f = [attention_flop_count(L, w, g, n_heads=2, dim=32, dilation=d)
             for L in (256, 512, 768)]
        assert f[2] - 2 * f[1] + f[0] == 0


def test_flops_doubling_ratio():
    f1 = attention_flop_count(512, 4, 1, n_heads=2, dim=32)
    f2 = attention_flop_count(1024, 4, 1, n_heads=2, dim=32)
    assert f2 / f1 <= 2.1
    d1 = dense_attention_flop_count(512, 2, 32)
    d2 = dense_attention_flop_count(1024, 2, 32)
    assert d2 / d1 >= 3.9


def test_flops_zero_length():
    assert attention_flop_count(0, 4, 1, 2, 32) == 0


def test_flops_match_mask_enumeration():
    # the counter must agree with a literal count of allowed pairs
    L, w, g, heads, dim, d = 33, 4, 2, 2, 16, 1
    pat = AttentionPattern(window=w, dilation_per_head=(d,) * heads,
                           global_positions=tuple(range(g)))
    total = 0
    for h in range(heads):
        mask = build_band_mask(L, pat, h, heads)
        total += int(mask.sum())
    assert attention_flop_count(L, w, g, heads, dim, dilation=d) == 2 * (dim // heads) * total
