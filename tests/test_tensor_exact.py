"""Byte identity of the numeric kernels against their plain reference
formulas (tests/oracles.py), and their promise never to write into the
arrays they are given."""

import numpy as np
import pytest

from lctx import tensor as T
from lctx.tensor import Tensor
from oracles import (ref_cross_entropy_index, ref_cross_entropy_multihot, ref_first_grad,
                     ref_gelu, ref_layer_norm, ref_matmul, ref_softmax)


def same_bytes(a, b):
    """Equal values, dtype and sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def f32(rng, shape, scale=1.0, dtype=np.float32):
    return (rng.standard_normal(shape) * scale).astype(dtype)


def upstream(rng, shape, dtype=np.float32):
    """An upstream gradient with exact zeros of both signs in it."""
    g = f32(rng, shape, dtype=dtype)
    flat = g.reshape(-1)
    flat[::7] = 0.0
    flat[3::7] = -0.0
    return g


def leaf(data):
    return Tensor(data, requires_grad=True, dtype=data.dtype)


# ---------------------------------------------------------------------------
# softmax, layer norm, GELU and the losses against tests/oracles.py: each
# check runs in float32 mode (elementwise work in float32) below, and in
# float64 mode in test_float64_bytes_match_reference
# ---------------------------------------------------------------------------


def check_gelu(scale, dtype):
    rng = np.random.default_rng(11)
    x = f32(rng, (3, 64, 48), scale, dtype)
    x.reshape(-1)[:6] = [0.0, -0.0, 1e-30, -1e-30, 20.0, -20.0]
    g = upstream(rng, x.shape, dtype)
    a = leaf(x)
    out = T.gelu(a)
    out._backward(g)
    ref_out, ref_ga = ref_gelu(x, g)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


def check_masked_softmax(scale, dtype):
    rng = np.random.default_rng(12)
    x = f32(rng, (2, 3, 40, 19), scale, dtype)
    masked = rng.random(x.shape) < 0.4
    masked[..., 4] = False                      # every row keeps a finite entry
    masked[0, 0, 0, :] = True
    masked[0, 0, 0, 7] = False                  # a row with one open entry
    x[masked] = -np.inf
    g = upstream(rng, x.shape, dtype)
    a = leaf(x)
    out = T.softmax(a, axis=-1)
    out._backward(g)
    ref_out, ref_ga = ref_softmax(x, g, axis=-1)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)
    assert np.all(out.data[masked] == 0.0)


def check_softmax_other_axis(dtype):
    rng = np.random.default_rng(13)
    x = f32(rng, (5, 9, 4), 3.0, dtype)
    g = upstream(rng, x.shape, dtype)
    a = leaf(x)
    out = T.softmax(a, axis=1)
    out._backward(g)
    ref_out, ref_ga = ref_softmax(x, g, axis=1)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


def check_softmax_allowed(dtype):
    """The allowed mask writes -inf into the kernel's own copy: the bytes of
    softmax over the input plus a 0/-inf mask, and the input is untouched."""
    rng = np.random.default_rng(20)
    x = f32(rng, (2, 3, 40, 19), 4.0, dtype)
    allowed = rng.random((1, 3, 40, 19)) >= 0.4      # broadcast over the batch
    allowed[..., 4] = True
    x[0, 0, 0, 4] = -0.0
    g = upstream(rng, x.shape, dtype)
    a = leaf(x.copy())
    out = T.softmax(a, axis=-1, allowed=allowed)
    out._backward(g)
    ref_out, ref_ga = ref_softmax(np.where(allowed, x, -np.inf).astype(dtype), g, axis=-1)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)
    assert same_bytes(a.data, x)
    b = leaf(x.copy())
    masked = T.add_const(b, np.where(allowed, 0.0, -np.inf))
    added = T.softmax(masked, axis=-1)
    added._backward(g)
    masked._backward(masked.grad)
    assert same_bytes(out.data, added.data)
    assert same_bytes(a.grad, b.grad)


def check_layer_norm(dtype):
    rng = np.random.default_rng(14)
    x = f32(rng, (3, 17, 24), 2.0, dtype)
    x[0, 0] = 5.0                                # a constant row
    gain, bias = f32(rng, (24,), dtype=dtype), f32(rng, (24,), dtype=dtype)
    g = upstream(rng, x.shape, dtype)
    a, tg, tb = leaf(x), leaf(gain), leaf(bias)
    out = T.layer_norm(a, tg, tb)
    out._backward(g)
    ref = ref_layer_norm(x, gain, bias, g)
    for got, want in zip((out.data, a.grad, tg.grad, tb.grad), ref):
        assert same_bytes(got, want)


def check_cross_entropy_index(g, dtype):
    rng = np.random.default_rng(15)
    x = f32(rng, (4, 13, 31), 6.0, dtype)
    target = rng.integers(0, 31, (4, 13))
    target[:, ::5] = T.IGNORE_INDEX
    a = leaf(x)
    g = np.asarray(g, dtype=dtype)
    out = T.cross_entropy(a, target)
    out._backward(g)
    ref_out, ref_ga = ref_cross_entropy_index(x, target, g)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


def check_cross_entropy_multihot(g, dtype):
    rng = np.random.default_rng(18)
    x = f32(rng, (4, 13, 31), 6.0, dtype)
    x[0, 0, :4] = [100.0, -100.0, 0.0, -0.0]     # exp(-x) overflows float32 at -100
    target = (rng.random(x.shape) < 0.3).astype(np.float64)
    a = leaf(x)
    g = np.asarray(g, dtype=dtype)
    out = T.cross_entropy(a, target)
    out._backward(g)
    ref_out, ref_ga = ref_cross_entropy_multihot(x, target, g)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


@pytest.mark.parametrize("scale", [1.0, 4.0, 40.0])
def test_gelu_bytes_match_reference(scale):
    check_gelu(scale, np.float32)


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_masked_softmax_bytes_match_reference(scale):
    check_masked_softmax(scale, np.float32)


def test_softmax_other_axis_bytes_match_reference():
    check_softmax_other_axis(np.float32)


def test_softmax_allowed_bytes_match_an_additive_mask():
    check_softmax_allowed(np.float32)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 2, 300, 9), (512, 16), (512, 1), (512, 17), (64, 9),
                                   (3, 519)],
                         ids=["band-rows", "widest-running", "one-column", "past-the-width",
                              "few-rows", "retrieval-long-width"])
def test_softmax_row_max_equals_np_max(shape, dtype):
    # the running max over narrow columns, and np.max everywhere else, give
    # np.max's bytes, with masked entries, a masked row and a NaN row
    rng = np.random.default_rng(30)
    y = f32(rng, shape, 4.0, dtype)
    y[rng.random(shape) < 0.2] = -np.inf
    flat = y.reshape(-1, shape[-1])
    flat[0] = -np.inf
    flat[-1, -1] = np.nan
    assert same_bytes(T._row_max(y, -1), np.max(y, axis=-1, keepdims=True))
    flat[-1, -1] = 0.0
    with pytest.raises(FloatingPointError):
        T.softmax_(y)


def test_layer_norm_bytes_match_reference():
    check_layer_norm(np.float32)


@pytest.mark.parametrize("g", [1.0, 0.37])
def test_cross_entropy_index_bytes_match_reference(g):
    check_cross_entropy_index(g, np.float32)


@pytest.mark.parametrize("g", [1.0, 0.37])
def test_cross_entropy_multihot_bytes_match_reference(g):
    check_cross_entropy_multihot(g, np.float32)


@pytest.mark.parametrize("check, args", [
    pytest.param(check_gelu, (1.0,), id="gelu-1.0"),
    pytest.param(check_gelu, (40.0,), id="gelu-40.0"),
    pytest.param(check_masked_softmax, (1.0,), id="masked_softmax-1.0"),
    pytest.param(check_masked_softmax, (30.0,), id="masked_softmax-30.0"),
    pytest.param(check_softmax_other_axis, (), id="softmax_other_axis"),
    pytest.param(check_softmax_allowed, (), id="softmax_allowed"),
    pytest.param(check_layer_norm, (), id="layer_norm"),
    pytest.param(check_cross_entropy_index, (0.37,), id="cross_entropy_index"),
    pytest.param(check_cross_entropy_multihot, (0.37,), id="cross_entropy_multihot"),
])
def test_float64_bytes_match_reference(check, args):
    # the same formulas in float64: float64 mode keeps float64 internals
    check(*args, np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b_shape", [(2, 24, 7), (24, 7)])
def test_matmul_products_run_in_the_operand_dtype(b_shape, dtype):
    # float32 operands give a plain float32 np.matmul's bytes, not a rounded
    # float64 product; float64 operands keep the float64 bytes
    rng = np.random.default_rng(16)
    x, w = f32(rng, (2, 9, 24)).astype(dtype), f32(rng, b_shape).astype(dtype)
    g = upstream(rng, (2, 9, 7)).astype(dtype)
    a, b = leaf(x), leaf(w)
    out = T.matmul(a, b)
    out._backward(g)
    ref = ref_matmul(x, w, g)
    for got, want in zip((out.data, a.grad, b.grad), ref):
        assert same_bytes(got, want)
    if dtype == np.float32:
        wide = np.matmul(x.astype(np.float64), w.astype(np.float64)).astype(np.float32)
        assert not same_bytes(out.data, wide)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length, rows", [
    pytest.param(40, (0,), id="first"),
    pytest.param(40, (37,), id="one-inside"),
    pytest.param(40, (0, 5, 38), id="three"),
    pytest.param(40, tuple(range(40)), id="all"),
    pytest.param(1, (0,), id="one-row-input"),
])
def test_matmul_rows_bytes_match_the_rows_of_matmul(length, rows, dtype):
    # forward: the rows of the full product (a lone row included, which
    # numpy would send to gemv, and the one row of a one-row input, which
    # the full product sends there too); backward: matmul's with the
    # gradient scattered into zeros, so every gradient has the full
    # product's bytes
    rng = np.random.default_rng(21)
    x, w = f32(rng, (3, length, 32), dtype=dtype), f32(rng, (32, 24), 0.2, dtype)
    bias, g = f32(rng, (24,), dtype=dtype), upstream(rng, (3, len(rows), 24), dtype)
    a, b, c = leaf(x), leaf(w), leaf(bias)
    out = T.matmul_rows(a, b, c, np.array(rows))
    out._backward(g)
    fa, fb, fc = leaf(x), leaf(w), leaf(bias)
    full = T.matmul(fa, fb, fc)
    g_full = np.zeros(full.shape, dtype=dtype)
    g_full[:, list(rows)] = g
    full._backward(g_full)
    assert same_bytes(out.data, full.data[:, list(rows)])
    for got, want in ((a, fa), (b, fb), (c, fc)):
        assert same_bytes(got.grad, want.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b_shape", [(2, 24, 7), (24, 7)])
def test_matmul_bias_bytes_match_matmul_plus_bias(b_shape, dtype):
    # the folded bias gives the bytes of the two-node graph it replaces:
    # the output and the gradients of a, b and the bias
    rng = np.random.default_rng(18)
    x, w = f32(rng, (2, 9, 24), dtype=dtype), f32(rng, b_shape, dtype=dtype)
    bias, g = f32(rng, (7,), dtype=dtype), upstream(rng, (2, 9, 7), dtype)
    runs = []
    for fold in (True, False):
        a, b, c = leaf(x), leaf(w), leaf(bias)
        out = T.matmul(a, b, c) if fold else T.matmul(a, b) + c
        T.reduce_sum(T.mul_const(out, g)).backward()
        runs.append([out.data, a.grad, b.grad, c.grad])
    for got, want in zip(*runs):
        assert same_bytes(got, want)


def test_matmul_bias_must_be_a_suffix_of_the_product():
    # [3, 1] broadcasts to the [2, 3, 5] product in numpy, but not on leading
    # axes only, which is add's rule and therefore the bias's
    x, w = leaf(np.ones((2, 3, 4), np.float32)), leaf(np.ones((4, 5), np.float32))
    with pytest.raises(ValueError, match="leading axes"):
        T.matmul(x, w, leaf(np.ones((3, 1), np.float32)))


@pytest.mark.parametrize("rows", [2, 64], ids=["type-table", "masked-sum-limit"])
def test_embedding_gradient_bytes_match_scatter_add(rows):
    # pretrain shape [2, 4096, 64]; tables up to _MASKED_SUM_ROWS rows take
    # one masked sum per row in place of np.add.at
    rng = np.random.default_rng(20)
    ids = rng.integers(0, rows, (2, 4096))
    ids[0] = 0                                   # a row with one id throughout
    g = upstream(rng, (2, 4096, 64))
    table = leaf(f32(rng, (rows, 64)))
    T.embedding(table, ids)._backward(g)
    want = np.zeros((rows, 64), np.float32)
    np.add.at(want, ids, g)
    assert same_bytes(table.grad, want)


@pytest.mark.parametrize("batch", [1, 2, 4, 9])
def test_embedding_prefix_matches_embedding_of_positions(batch):
    # the position lookup at pretrain width and length, added to the token
    # embeddings as the encoder does: the forward and the gradient bytes of
    # embedding(table, arange(L) in every row), whose backward is np.add.at
    rng = np.random.default_rng(21)
    L, H = 4096, 64
    data, g = f32(rng, (L + 8, H)), upstream(rng, (batch, L, H))
    tok = f32(rng, (batch, L, H))
    runs = []
    for lookup in (lambda t: T.embedding_prefix(t, batch, L),
                   lambda t: T.embedding(t, np.broadcast_to(np.arange(L), (batch, L)))):
        table = leaf(data)
        out = T.add(Tensor(tok), lookup(table))
        T.reduce_sum(T.mul_const(out, g)).backward()
        runs.append((out.data, table.grad))
    for got, want in zip(*runs):
        assert same_bytes(got, want)


def test_first_gradient_turns_negative_zero_positive():
    # -0.0 as it arrives, and a negative float64 value that rounds to -0.0
    g = np.array([-0.0, -1e-50, 1e-50, -2.5, 0.0])
    t = leaf(np.ones(5, dtype=np.float32))
    t._accum(g)
    assert same_bytes(t.grad, ref_first_grad(g, t.data))
    assert not np.signbit(t.grad[:3]).any()
    t._accum(g)                                  # later gradients add as before
    want = ref_first_grad(g, t.data)
    want += g.astype(np.float32)
    assert same_bytes(t.grad, want)


def test_first_gradient_through_the_graph_turns_negative_zero_positive():
    x = leaf(np.array([1.0, 2.0, 3.0], dtype=np.float32))
    T.reduce_sum(T.mul_const(x, np.array([-0.0, 1.0, -0.0]))).backward()
    assert same_bytes(x.grad, np.array([0.0, 1.0, 0.0], dtype=np.float32))


def test_first_gradient_keeps_the_data_layout():
    base = np.arange(12, dtype=np.float32).reshape(3, 4)
    t = leaf(base)
    t.data = base.T                              # a transposed view, as transpose() makes
    t._accum(np.ones((4, 3), dtype=np.float64))
    assert t.grad.strides == np.zeros_like(t.data).strides


@pytest.mark.parametrize("owned", [False, True])
def test_first_gradient_of_a_broadcast_view_is_c_ordered(owned):
    """Data that is a zero-stride broadcast view, as embedding_prefix makes,
    gets a C-ordered first gradient (numpy's own layout for it puts the
    broadcast axis innermost), with the bytes of the copy."""
    rows = np.arange(15, dtype=np.float32).reshape(5, 3)
    g = upstream(np.random.default_rng(13), (4, 5, 3))
    for t in (leaf(np.broadcast_to(rows, (4, 5, 3))), T.embedding_prefix(leaf(rows), 4, 5)):
        assert t.data.strides[0] == 0
        t._accum(g.copy(), owned=owned)
        assert t.grad.flags.c_contiguous
        assert same_bytes(t.grad, ref_first_grad(g, t.data))


def test_an_owned_first_gradient_is_adopted_in_the_data_layout_only():
    t = leaf(np.ones((3, 4), dtype=np.float32))
    g = np.array([[-0.0, 1.0, 2.0, 3.0]] * 3, dtype=np.float32)
    t._accum(g, owned=True)
    assert t.grad is g and not np.signbit(g).any()     # -0.0 turned +0.0 in place
    for other in (g.astype(np.float64), np.asfortranarray(g), np.repeat(g, 2, axis=1)[:, ::2],
                  np.broadcast_to(g[0], (3, 4)), g[:1]):
        t.grad = None
        t._accum(other, owned=True)
        assert t.grad is not other and t.grad.flags.c_contiguous
    t.grad = None
    t._accum(g)                                          # not owned: copied
    assert t.grad is not g


def _handover_losses(rng):
    """name -> (leaf arrays, loss(*leaves)): graphs whose backward hands an
    incoming or fresh gradient over to a parent, with exact zeros of both
    signs in the gradients (the -0.0 of the constants)."""
    x, w, v = f32(rng, (3, 4)), f32(rng, (4, 4)), f32(rng, (4,))
    c = upstream(rng, (3, 4))
    return {
        "add-x-x": ([x], lambda a: T.reduce_sum(T.mul_const(T.add(a, a), c))),
        "read-by-two-ops": ([x, w, v], lambda a, b, d: T.reduce_sum(T.mul_const(
            T.add(a, T.gelu(T.matmul(a, b, d))), c))),
        "reshape-chain": ([x, v], lambda a, d: T.reduce_sum(T.mul_const(T.reshape(
            T.reshape(T.add_const(T.add(T.reshape(a, 12), T.reshape(T.add(a, d), 12)), 1.0),
                      2, 6), 3, 4), c))),
    }


def _leaf_grads(name):
    arrays, loss = _handover_losses(np.random.default_rng(41))[name]
    leaves = [leaf(arr.copy()) for arr in arrays]
    loss(*leaves).backward()
    return leaves


@pytest.mark.parametrize("name", sorted(_handover_losses(np.random.default_rng(0))))
def test_gradient_handover_gives_the_bytes_of_the_copy_path(name, monkeypatch):
    """Each first gradient adopted (an incoming gradient handed to one
    parent, a fresh buffer kept) gives the bytes of copying every one."""
    handed = [t.grad for t in _leaf_grads(name)]
    real = Tensor._accum
    monkeypatch.setattr(Tensor, "_accum", lambda self, g, owned=False: real(self, g))
    copied = [t.grad for t in _leaf_grads(name)]
    for got, want in zip(handed, copied):
        assert same_bytes(got, want)


def _assert_no_shared_buffers(tensors):
    arrays = [t.grad for t in tensors if t.grad is not None] + [t.data for t in tensors]
    assert len(arrays) > len(tensors)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("name", sorted(_handover_losses(np.random.default_rng(0))))
def test_no_two_gradients_share_a_buffer_after_backward(name):
    _assert_no_shared_buffers(_leaf_grads(name))


def test_no_two_gradients_share_a_buffer_after_an_mlm_step():
    from lctx.encoder import Encoder, EncoderConfig

    cfg = EncoderConfig(n_layers=2, n_heads=2, hidden_dim=16, ffn_dim=32, vocab_size=30,
                        max_positions=32, window=4)
    enc = Encoder(cfg, np.random.default_rng(42))
    ids = np.random.default_rng(43).integers(5, 30, (2, 24))
    mask = np.random.default_rng(44).random((2, 24)) < 0.2
    logits = enc.mlm_logits(enc.encode(ids, lengths=[24, 17], rows=mask))
    T.cross_entropy(logits, ids[mask]).backward()
    _assert_no_shared_buffers(list(enc.named_params().values()))


# ---------------------------------------------------------------------------
# float64 mode: astype(copy=False) hands back the input itself, so a kernel
# that wrote into its float64 working array would change its input
# ---------------------------------------------------------------------------

_IDS = np.array([[0, 2, 2, 5], [1, 0, 4, 3]])


def _ops(rng):
    """op name -> (build(inputs) -> output, input arrays)."""
    x = rng.standard_normal((2, 4, 6))
    w = rng.standard_normal((6, 6))
    v = rng.standard_normal(6)
    target = np.array([[0, 5, -1, 2], [3, 3, 1, -1]])
    hot = (rng.random((2, 4, 6)) < 0.3).astype(np.float64)
    scores = x.copy()
    scores[..., 1] = -np.inf
    return {
        "add": (lambda a, b: T.add(a, b), [x, v]),
        "mul": (lambda a, b: T.mul(a, b), [x, v]),
        "mul_const": (lambda a: T.mul_const(a, v), [x]),
        "add_const": (lambda a: T.add_const(a, v), [x]),
        "matmul": (lambda a, b: T.matmul(a, b), [x, w]),
        "matmul_bias": (lambda a, b, c: T.matmul(a, b, c), [x, w, v]),
        "reshape": (lambda a: T.reshape(a, 8, 6), [x]),
        "transpose": (lambda a: T.transpose(a, (2, 0, 1)), [x]),
        "concat": (lambda a, b: T.concat([a, b], axis=1), [x, x[:, :2].copy()]),
        "index_select": (lambda a: a[:, 1:3], [x]),
        "index_select_array": (lambda a: a[:, np.array([0, 0, 3])], [x]),
        "reduce_sum": (lambda a: T.reduce_sum(a, axis=1), [x]),
        "reduce_sum_all": (lambda a: T.reduce_sum(a), [x]),
        "relu": (T.relu, [x]),
        "gelu": (T.gelu, [x]),
        "sigmoid": (T.sigmoid, [x]),
        "tanh": (T.tanh, [x]),
        "softmax": (lambda a: T.softmax(a, axis=-1), [x]),
        "softmax_masked": (lambda a: T.softmax(a, axis=-1), [scores]),
        "softmax_allowed": (lambda a: T.softmax(a, axis=-1, allowed=x > -1.0), [x]),
        "matmul_rows": (lambda a, b, c: T.matmul_rows(a, b, c, np.array([3, 1])), [x, w, v]),
        "layer_norm": (lambda a, g, b: T.layer_norm(a, g, b), [x, v, v[::-1].copy()]),
        "cross_entropy": (lambda a: T.cross_entropy(a, target), [x]),
        "cross_entropy_multihot": (lambda a: T.cross_entropy(a, hot), [x]),
        "embedding": (lambda t: T.embedding(t, _IDS), [w]),
        "embedding_prefix": (lambda t: T.embedding_prefix(t, 3, 4), [w]),
    }


@pytest.mark.parametrize("name", sorted(_ops(np.random.default_rng(0))))
def test_float64_kernels_leave_inputs_untouched(name):
    """Forward and backward write neither into the inputs' data, nor into
    the output or the incoming gradient, nor into what the backward keeps:
    a second backward pass gives the same gradients."""
    rng = np.random.default_rng(17)
    build, arrays = _ops(rng)[name]
    inputs = [Tensor(arr.copy(), requires_grad=True, dtype=np.float64) for arr in arrays]
    out = build(*inputs)
    for t, arr in zip(inputs, arrays):
        assert np.array_equal(t.data, arr), "forward wrote into its input"
    g = rng.standard_normal(out.shape)
    g_before, kept = g.copy(), out.data.copy()
    passes = []
    for _ in range(2):
        for t in inputs:
            t.grad = None
        out._backward(g)
        passes.append([t.grad.copy() for t in inputs])
    for t, arr in zip(inputs, arrays):
        assert np.array_equal(t.data, arr), "backward wrote into its input"
    assert np.array_equal(out.data, kept)
    assert np.array_equal(g, g_before)
    for first, second in zip(*passes):
        assert np.array_equal(first, second)


@pytest.mark.parametrize("name", ["gelu", "sigmoid", "tanh", "softmax", "softmax_masked",
                                  "softmax_allowed", "layer_norm", "cross_entropy",
                                  "cross_entropy_multihot"])
def test_float32_backward_keeps_no_float64_buffers(name):
    """What a float32 op's backward closure holds on to until the graph walk
    reaches it: its input-sized buffers are float32, never float64 casts."""
    build, arrays = _ops(np.random.default_rng(19))[name]
    inputs = [Tensor(arr.astype(np.float32), requires_grad=True) for arr in arrays]
    out = build(*inputs)
    kept = [cell.cell_contents for cell in out._backward.__closure__]
    kept = [k for k in kept if isinstance(k, np.ndarray) and k.size == inputs[0].data.size]
    assert [k.dtype for k in kept if k.dtype == np.float64] == []
    assert any(k.dtype == np.float32 for k in kept)
