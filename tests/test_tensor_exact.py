"""Byte identity of the in-place numeric kernels against their plain float64
formulas (tests/oracles.py), and their promise never to write into the
arrays they are given."""

import numpy as np
import pytest

from lctx import tensor as T
from lctx.tensor import Tensor
from oracles import (ref_cross_entropy_index, ref_first_grad, ref_gelu, ref_layer_norm,
                     ref_matmul, ref_softmax)


def same_bytes(a, b):
    """Equal values, dtype and sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def f32(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def upstream(rng, shape):
    """A float32 upstream gradient with exact zeros of both signs in it."""
    g = f32(rng, shape)
    flat = g.reshape(-1)
    flat[::7] = 0.0
    flat[3::7] = -0.0
    return g


def leaf(data):
    return Tensor(data, requires_grad=True, dtype=data.dtype)


@pytest.mark.parametrize("scale", [1.0, 4.0, 40.0])
def test_gelu_bytes_match_reference(scale):
    rng = np.random.default_rng(11)
    x = f32(rng, (3, 64, 48), scale)
    x.reshape(-1)[:6] = [0.0, -0.0, 1e-30, -1e-30, 20.0, -20.0]
    g = upstream(rng, x.shape)
    a = leaf(x)
    out = T.gelu(a)
    out._backward(g)
    ref_out, ref_ga = ref_gelu(x, g)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_masked_softmax_bytes_match_reference(scale):
    rng = np.random.default_rng(12)
    x = f32(rng, (2, 3, 40, 19), scale)
    masked = rng.random(x.shape) < 0.4
    masked[..., 4] = False                      # every row keeps a finite entry
    masked[0, 0, 0, :] = True
    masked[0, 0, 0, 7] = False                  # a row with one open entry
    x[masked] = -np.inf
    g = upstream(rng, x.shape)
    a = leaf(x)
    out = T.softmax(a, axis=-1)
    out._backward(g)
    ref_out, ref_ga = ref_softmax(x, g, axis=-1)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)
    assert np.all(out.data[masked] == 0.0)


def test_softmax_other_axis_bytes_match_reference():
    rng = np.random.default_rng(13)
    x = f32(rng, (5, 9, 4), 3.0)
    g = upstream(rng, x.shape)
    a = leaf(x)
    out = T.softmax(a, axis=1)
    out._backward(g)
    ref_out, ref_ga = ref_softmax(x, g, axis=1)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


def test_layer_norm_bytes_match_reference():
    rng = np.random.default_rng(14)
    x = f32(rng, (3, 17, 24), 2.0)
    x[0, 0] = 5.0                                # a constant row
    gain, bias = f32(rng, (24,)), f32(rng, (24,))
    g = upstream(rng, x.shape)
    a, tg, tb = leaf(x), leaf(gain), leaf(bias)
    out = T.layer_norm(a, tg, tb)
    out._backward(g)
    ref = ref_layer_norm(x, gain, bias, g)
    for got, want in zip((out.data, a.grad, tg.grad, tb.grad), ref):
        assert same_bytes(got, want)


@pytest.mark.parametrize("g", [1.0, 0.37])
def test_cross_entropy_index_bytes_match_reference(g):
    rng = np.random.default_rng(15)
    x = f32(rng, (4, 13, 31), 6.0)
    target = rng.integers(0, 31, (4, 13))
    target[:, ::5] = T.IGNORE_INDEX
    a = leaf(x)
    g = np.asarray(g, dtype=np.float32)
    out = T.cross_entropy(a, target)
    out._backward(g)
    ref_out, ref_ga = ref_cross_entropy_index(x, target, g)
    assert same_bytes(out.data, ref_out)
    assert same_bytes(a.grad, ref_ga)


@pytest.mark.parametrize("b_shape", [(2, 24, 7), (24, 7)])
def test_matmul_bytes_match_reference(b_shape):
    rng = np.random.default_rng(16)
    x, w = f32(rng, (2, 9, 24)), f32(rng, b_shape)
    g = upstream(rng, (2, 9, 7))
    a, b = leaf(x), leaf(w)
    out = T.matmul(a, b)
    out._backward(g)
    ref = ref_matmul(x, w, g)
    for got, want in zip((out.data, a.grad, b.grad), ref):
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
        "layer_norm": (lambda a, g, b: T.layer_norm(a, g, b), [x, v, v[::-1].copy()]),
        "cross_entropy": (lambda a: T.cross_entropy(a, target), [x]),
        "cross_entropy_multihot": (lambda a: T.cross_entropy(a, hot), [x]),
        "embedding": (lambda t: T.embedding(t, _IDS), [w]),
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
