"""Numeric core: hand-computed values, gradient oracles, invariants."""

import numpy as np
import pytest

from lctx import tensor as T
from lctx.tensor import Tensor


def finite_diff(f, params, h=1e-3):
    """Central-difference gradients of scalar f() w.r.t. each float64 tensor."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    np.testing.assert_allclose(T.matmul(eye, a).data, a.data)


def test_matmul_hand():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    np.testing.assert_allclose(T.matmul(a, b).data, [[2.0], [4.0]])


def test_matmul_zero():
    z = Tensor(np.zeros((2, 2)))
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(T.matmul(z, a).data, np.zeros((2, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_batch_leading_axes():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4, 5)))
    w = Tensor(rng.standard_normal((5, 2)))
    out = T.matmul(a, w)
    assert out.shape == (3, 4, 2)
    np.testing.assert_allclose(out.data, a.data @ w.data, atol=1e-5)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform():
    np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3, atol=1e-7)


def test_softmax_hand():
    out = T.softmax(Tensor([1.0, 2.0, 3.0])).data
    np.testing.assert_allclose(out, [0.0900, 0.2447, 0.6652], atol=5e-5)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    a = T.softmax(Tensor(x, dtype=np.float64)).data
    b = T.softmax(Tensor(x + 3.7, dtype=np.float64)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((5, 7)))
    s = T.softmax(x, axis=-1).data.sum(axis=-1)
    np.testing.assert_allclose(s, 1.0, atol=1e-6)


def test_softmax_masked_entries_zero():
    x = Tensor([1.0, -np.inf, 2.0])
    out = T.softmax(x).data
    assert out[1] == 0.0
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-6)


def test_softmax_all_masked_row_is_error():
    with pytest.raises(FloatingPointError):
        T.softmax(Tensor([-np.inf, -np.inf]))
    for dtype in (np.float32, np.float64):  # one masked row among open ones
        x = np.zeros((3, 4), dtype=dtype)
        x[1] = -np.inf
        with pytest.raises(FloatingPointError):
            T.softmax(Tensor(x, dtype=dtype), axis=-1)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row():
    x = Tensor(np.full((1, 4), 3.0))
    g = Tensor(np.ones(4))
    b = T.zeros((4,))
    np.testing.assert_allclose(T.layer_norm(x, g, b).data, np.zeros((1, 4)), atol=1e-3)


def test_layer_norm_mean_is_bias():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 6)))
    g = Tensor(np.ones(6))
    b = Tensor(np.full(6, 0.25))
    out = T.layer_norm(x, g, b).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.25, atol=1e-5)


def test_layer_norm_hand():
    x = Tensor([[1.0, 3.0]], dtype=np.float64)
    g = Tensor(np.ones(2), dtype=np.float64)
    b = T.zeros((2,), dtype=np.float64)
    out = T.layer_norm(x, g, b, eps=1e-12).data
    np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_bad_eps():
    with pytest.raises(ValueError):
        T.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]), eps=0.0)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_hand():
    loss = T.cross_entropy(Tensor([[1.0, 2.0]]), np.array([0]))
    np.testing.assert_allclose(loss.item(), 1.3133, atol=5e-5)


def test_cross_entropy_confident():
    loss = T.cross_entropy(Tensor([[100.0, 0.0]]), np.array([0]))
    assert loss.item() < 1e-6


def test_cross_entropy_uniform_is_log_c():
    for c in (2, 5, 11):
        loss = T.cross_entropy(Tensor(np.zeros((1, c))), np.array([0]))
        np.testing.assert_allclose(loss.item(), np.log(c), atol=1e-5)


def test_cross_entropy_index_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor([[0.0, 1.0]]), np.array([2]))


def test_cross_entropy_ignore_index():
    logits = Tensor(np.zeros((2, 3)))
    loss_all = T.cross_entropy(logits, np.array([0, T.IGNORE_INDEX]))
    np.testing.assert_allclose(loss_all.item(), np.log(3), atol=1e-5)


def test_cross_entropy_multihot_matches_manual_bce():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    y = (rng.random((3, 5)) < 0.4).astype(np.float64)
    loss = T.cross_entropy(Tensor(x, dtype=np.float64), y).item()
    p = 1 / (1 + np.exp(-x))
    manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)).sum() / 3
    np.testing.assert_allclose(loss, manual, rtol=1e-6)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    T.reduce_sum(x).backward()
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_backward_square_gives_2x():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    T.reduce_sum(T.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)


def test_backward_reuse_accumulates():
    x = Tensor([2.0], requires_grad=True)
    y = x + x  # d/dx = 2
    T.reduce_sum(y).backward()
    np.testing.assert_allclose(x.grad, [2.0])


def test_backward_twice_without_reset_errors():
    x = Tensor([1.0], requires_grad=True)
    s = T.reduce_sum(x)
    s.backward()
    with pytest.raises(RuntimeError):
        s.backward()


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        x.backward()


@pytest.mark.parametrize("name", ["matmul", "softmax", "layer_norm", "gelu", "sigmoid",
                                  "tanh", "relu", "cross_entropy", "bce", "mean"])
def test_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (5, 5)), requires_grad=True, dtype=np.float64)
    r = rng.uniform(-1, 1, (4, 5))
    tgt = rng.integers(0, 5, 4)
    hot = (rng.random((4, 5)) < 0.4).astype(np.float64)

    def build():
        if name == "matmul":
            return T.reduce_sum(T.mul_const(T.matmul(x, w), r))
        if name == "softmax":
            return T.reduce_sum(T.mul_const(T.softmax(x, axis=-1), r))
        if name == "layer_norm":
            return T.reduce_sum(T.mul_const(T.layer_norm(x, w[0], w[1]), r))
        if name == "cross_entropy":
            return T.cross_entropy(T.matmul(x, w), tgt)
        if name == "bce":
            return T.cross_entropy(T.matmul(x, w), (hot @ np.eye(5)).astype(np.float64))
        if name == "mean":
            return T.reduce_sum(T.mul(T.reduce_mean(x, axis=0), T.reduce_mean(x, axis=0)))
        fn = getattr(T, name)
        return T.reduce_sum(T.mul_const(fn(x), r))

    loss = build()
    loss.backward()
    fds = finite_diff(lambda: float(build().data), [x, w])
    assert rel_err(x.grad, fds[0]) <= 1e-4
    if w.grad is not None:
        assert rel_err(w.grad, fds[1]) <= 1e-4


def test_composite_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (6, 6)), requires_grad=True, dtype=np.float64)
    g = Tensor(np.ones(6), requires_grad=True, dtype=np.float64)
    b = T.zeros((6,), requires_grad=True, dtype=np.float64)
    b.data += 0.1
    tgt = np.array([0, 3, 1, 5])

    def build():
        h = T.layer_norm(T.gelu(T.matmul(x, w)), g, b)
        return T.cross_entropy(h, tgt)

    loss = build()
    loss.backward()
    for p, fd in zip([x, w, g, b], finite_diff(lambda: float(build().data), [x, w, g, b])):
        assert rel_err(p.grad, fd) <= 1e-4


def test_embedding_gradient_scatter():
    table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True, dtype=np.float64)
    ids = np.array([[0, 0, 2]])
    out = T.embedding(table, ids)
    T.reduce_sum(out).backward()
    expected = np.zeros((4, 3))
    expected[0] = 2.0
    expected[2] = 1.0
    np.testing.assert_allclose(table.grad, expected)


def test_no_broadcast_beyond_leading_axes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        T.add(a, b)


def test_suffix_broadcast_bias():
    a = Tensor(np.zeros((2, 4, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    out = a + b
    assert out.shape == (2, 4, 3)
    T.reduce_sum(out).backward()
    np.testing.assert_allclose(b.grad, np.full(3, 8.0))


def test_debug_mode_catches_nan():
    x = Tensor([1.0, 2.0])
    inf = Tensor([np.inf, 1.0])  # built before the checks are on
    big = Tensor([[1e30]])
    T.set_debug(True)
    try:
        with pytest.raises(FloatingPointError):
            Tensor([np.nan, 1.0])
        # an op's non-finite output names the op
        with pytest.raises(FloatingPointError, match="op 'mul'"):
            T.mul(x, inf)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="op 'matmul'"):
            T.matmul(big, big)  # 1e60 overflows float32
        with pytest.raises(FloatingPointError):
            T.mul(x, np.inf)  # the constant itself is non-finite tensor data
    finally:
        T.set_debug(False)


def test_no_grad_blocks_graph():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad


def test_dropout_semantics():
    x = Tensor(np.ones((4, 8)), requires_grad=True)
    assert T.dropout(x, 0.0, np.random.default_rng(0)) is x
    y = T.dropout(x, 0.5, np.random.default_rng(0))
    kept = y.data != 0
    np.testing.assert_allclose(y.data[kept], 2.0)  # inverted scaling
    y2 = T.dropout(x, 0.5, np.random.default_rng(0))
    np.testing.assert_array_equal(y.data, y2.data)  # same rng stream -> same mask
    T.reduce_sum(y).backward()
    np.testing.assert_allclose(x.grad[kept], 2.0)
    np.testing.assert_allclose(x.grad[~kept], 0.0)
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, np.random.default_rng(0))


def test_determinism_same_inputs():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    a = T.softmax(Tensor(x), axis=-1).data
    b = T.softmax(Tensor(x), axis=-1).data
    assert np.array_equal(a, b)
