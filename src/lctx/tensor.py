"""Minimal dense tensor algebra with reverse-mode automatic differentiation.

Storage is float32 by default with reductions accumulated in float64; a pure
float64 mode (pass dtype=np.float64 at creation) exists for gradient checks.
Kernels that work in place do so in float64 buffers of their own: no op
writes into an input's data, its output or an incoming gradient (in float64
mode astype(copy=False) would hand back the input array itself).
Broadcasting is restricted to leading batch axes: two operand shapes must be
equal, or one must be a suffix of the other. Everything else requires an
explicit reshape.
"""

from __future__ import annotations

import contextlib

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled = True
_debug_checks = False


def set_debug(flag: bool) -> None:
    """Enable per-op NaN/Inf detection (checked error naming the op when tripped)."""
    global _debug_checks
    _debug_checks = bool(flag)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# float32 storage accumulates in float64; float64 stays put
_ACC_DTYPE = np.float64


class Tensor:
    """A dense n-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents = ()
        self._backward = None
        self._done = False
        if _debug_checks and not np.all(np.isfinite(arr)):
            raise FloatingPointError("non-finite values in tensor data")

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None
        self._done = False

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # one cast copy in data's layout; adding +0.0 after the cast turns
            # -0.0 into +0.0, as accumulating into zeros would
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data), dtype=self.data.dtype)
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def backward(self) -> None:
        """Populate .grad on every requires_grad tensor reachable from this scalar.

        Gradients accumulate additively across uses. Calling backward twice on
        the same root without zero_grad() is a checked error.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if self._done:
            raise RuntimeError("backward() already called on this tensor; zero_grad() first")
        self._done = True
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index_select(self, key)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)


def make_op(data: np.ndarray, parents, backward) -> Tensor:
    """Assemble a graph node from precomputed forward data and a backward fn.

    `backward(g)` receives the output gradient and must push gradients into
    the parents via their _accum method. Used by fused ops (attention gathers)
    that do not decompose nicely into the generic primitives here.
    """
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by op {_op_name(backward)!r}")
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, dtype=data.dtype)
    out.requires_grad = req
    if req:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _op_name(backward) -> str:
    """The op that defined a backward closure: the innermost enclosing
    function of its __qualname__ ("softmax.<locals>.backward" -> "softmax")."""
    parts = getattr(backward, "__qualname__", "?").split(".<locals>.")
    return parts[-2] if len(parts) > 1 else parts[0]


# ----------------------------------------------------------------------
# creation helpers
# ----------------------------------------------------------------------


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad=False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def randn(shape, rng: np.random.Generator, scale=1.0, requires_grad=False, dtype=DEFAULT_DTYPE) -> Tensor:
    data = (rng.standard_normal(shape) * scale).astype(dtype)
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


# ----------------------------------------------------------------------
# shape plumbing
# ----------------------------------------------------------------------


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype), dtype=like.data.dtype)


def _check_suffix(a_shape, b_shape):
    small, big = (a_shape, b_shape) if len(a_shape) <= len(b_shape) else (b_shape, a_shape)
    if small != big[len(big) - len(small):] and small != ():
        raise ValueError(f"shapes {a_shape} and {b_shape} only broadcast on leading axes")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64).astype(g.dtype)
    return g.reshape(shape)


# ----------------------------------------------------------------------
# arithmetic primitives
# ----------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.data.dtype))
    b = _coerce(b, a)
    _check_suffix(a.shape, b.shape)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return make_op(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.data.dtype))
    b = _coerce(b, a)
    _check_suffix(a.shape, b.shape)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return make_op(out_data, (a, b), backward)


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant array broadcastable to a.shape.

    The constant carries no gradient, so general numpy broadcasting is safe
    here (used for padding/row masks).
    """
    c = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ValueError("constant must broadcast to the tensor shape")
    out_data = a.data * c

    def backward(g):
        if a.requires_grad:
            a._accum(g * c)

    return make_op(out_data, (a,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (no gradient) broadcastable to a.shape."""
    c = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ValueError("constant must broadcast to the tensor shape")
    out_data = a.data + c

    def backward(g):
        if a.requires_grad:
            a._accum(g)

    return make_op(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product over the trailing two axes.

    Leading axes must match exactly, or one operand may be a plain 2-D matrix
    (the usual weight case). Accumulation runs in float64 for float32 inputs.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"leading batch axes disagree: {a.shape} x {b.shape}")
    acc = _ACC_DTYPE
    out_data = np.matmul(a.data.astype(acc, copy=False), b.data.astype(acc, copy=False))
    out_data = out_data.astype(a.data.dtype, copy=False)

    def backward(g):
        # _accum rounds a same-shape float64 gradient in its one copy; a 2-D
        # operand's batch sum adds the rounded per-batch gradients
        g64 = g.astype(acc, copy=False)
        if a.requires_grad:
            ga = np.matmul(g64, np.swapaxes(b.data.astype(acc, copy=False), -1, -2))
            if ga.shape != a.shape:
                ga = _unbroadcast(ga.astype(a.data.dtype, copy=False), a.shape)
            a._accum(ga)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data.astype(acc, copy=False), -1, -2), g64)
            if gb.shape != b.shape:
                gb = _unbroadcast(gb.astype(b.data.dtype, copy=False), b.shape)
            b._accum(gb)

    return make_op(out_data, (a, b), backward)


# ----------------------------------------------------------------------
# shape ops
# ----------------------------------------------------------------------


def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accum(g.reshape(old))

    return make_op(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    return make_op(out_data, (a,), backward)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    return make_op(out_data, tuple(tensors), backward)


def _is_basic_index(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (slice, int, np.integer, type(Ellipsis), type(None))) for k in parts)


def index_select(a: Tensor, key) -> Tensor:
    """Basic slicing / integer-array indexing. A basic key selects every
    element at most once, so its backward assigns; array keys scatter-add."""
    out_data = a.data[key]
    basic = _is_basic_index(key)

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            if basic:
                ga[key] = g
            else:
                np.add.at(ga, key, g)
            a._accum(ga)

    return make_op(out_data, (a,), backward)


# ----------------------------------------------------------------------
# reductions (float64 accumulation)
# ----------------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.data.dtype)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g.reshape((1,) * a.ndim), a.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.shape))

    return make_op(out_data, (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(reduce_sum(a, axis, keepdims), 1.0 / float(n))


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g):
        if a.requires_grad:
            a._accum(g * (a.data > 0))

    return make_op(out_data, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; the approximation itself is what we differentiate.

    0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), computed in place in
    float64. The cube is x*x*x, not x**3, which is a float64 np.power call
    dozens of times slower. A float32 input squares exactly, so x*x*x is its
    correctly rounded cube; np.power can differ from that in the last float64
    bit, which the float32 output does not resolve (no difference in 4e7
    sampled inputs). Scaling by 0.5 is exact, so it is applied last.
    """
    x = a.data.astype(np.float64, copy=False)
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    out_data = y.astype(a.data.dtype, copy=False)

    def backward(g):
        if a.requires_grad:
            # da = 0.5 * (1 + t) + 0.5 * x * (1 - t^2) * c * (1 + 3 * 0.044715 * x^2)
            dinner = x * x
            dinner *= 3 * 0.044715
            dinner += 1.0
            dinner *= _GELU_C
            da = t * t
            np.subtract(1.0, da, out=da)
            da *= x
            da *= 0.5
            da *= dinner
            np.add(t, 1.0, out=dinner)
            dinner *= 0.5
            dinner += da
            dinner *= g
            a._accum(dinner)

    return make_op(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data.astype(np.float64, copy=False)
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out_data = s.astype(a.data.dtype)

    def backward(g):
        if a.requires_grad:
            a._accum((g * (s * (1.0 - s))).astype(a.data.dtype))

    return make_op(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data.astype(np.float64, copy=False))
    out_data = t.astype(a.data.dtype)

    def backward(g):
        if a.requires_grad:
            a._accum((g * (1.0 - t**2)).astype(a.data.dtype))

    return make_op(out_data, (a,), backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    return mul_const(a, keep)


# ----------------------------------------------------------------------
# softmax / layer norm / losses
# ----------------------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Row-stable softmax; -inf entries yield exact zero weight.

    A row whose entries are all -inf is a checked error (an all-masked
    attention row cannot legitimately occur).
    """
    # one float64 copy of a.data, shifted, exponentiated and normalised in
    # place (a.data itself is never written)
    y = a.data.astype(np.float64)
    m = np.max(y, axis=axis, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("softmax over an all-masked (or non-finite) row")
    y -= m
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out_data = y.astype(a.data.dtype)

    def backward(g):
        if a.requires_grad:
            ga = g * y
            dot = ga.sum(axis=axis, keepdims=True)
            np.subtract(g, dot, out=ga, dtype=np.float64)
            ga *= y
            a._accum(ga)

    return make_op(out_data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ValueError("gain/bias must match the last axis")
    # xhat is centred, then scaled, in one float64 copy of a.data
    xhat = a.data.astype(np.float64)
    xhat -= xhat.mean(axis=-1, keepdims=True)
    y = np.square(xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out_data = y.astype(a.data.dtype)

    def backward(g):
        g64 = g.astype(np.float64, copy=False)
        if a.requires_grad:
            # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv
            dxhat = g64 * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            tmp = dxhat * xhat
            m2 = tmp.mean(axis=-1, keepdims=True)
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=tmp)
            dxhat *= inv
            a._accum(dxhat)
        red = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            gain._accum((g64 * xhat).sum(axis=red))
        if bias.requires_grad:
            bias._accum(g64.sum(axis=red))

    return make_op(out_data, (a, gain, bias), backward)


IGNORE_INDEX = -1


def cross_entropy(logits: Tensor, target) -> Tensor:
    """-log softmax(logits)[target], averaged over target rows.

    Two target modes:
      * integer array of class indices (last logits axis is the class axis);
        entries equal to IGNORE_INDEX are excluded from the average
      * float array of multi-hot labels with logits' shape; the loss is then
        per-row summed binary cross-entropy, averaged over rows
    """
    target = np.asarray(target)
    if not np.all(np.isfinite(logits.data)):
        raise FloatingPointError("non-finite logits")

    if np.issubdtype(target.dtype, np.integer):
        if target.shape != logits.shape[:-1]:
            raise ValueError("index target must match logits shape minus class axis")
        ncls = logits.shape[-1]
        valid = target != IGNORE_INDEX
        if np.any((target < 0) & valid) or np.any(target >= ncls):
            raise IndexError("target index out of range")
        n_valid = int(valid.sum())
        if n_valid == 0:
            raise ValueError("no valid targets")
        # the only full-size float64 array is e = exp(x - max), kept for the
        # backward; the picked logits are exact in the storage dtype
        e = logits.data.astype(np.float64)
        m = e.max(axis=-1, keepdims=True)
        e -= m
        np.exp(e, out=e)
        denom = e.sum(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(denom[..., 0])
        idx = np.maximum(target, 0)[..., None]
        picked = np.take_along_axis(logits.data, idx, axis=-1)[..., 0]
        losses = np.where(valid, lse - picked, 0.0)
        out_data = np.asarray(losses.sum() / n_valid, dtype=logits.data.dtype)

        def backward(g):
            if logits.requires_grad:
                # (softmax - onehot) * valid / n_valid * g
                p = e / denom
                np.put_along_axis(p, idx, np.take_along_axis(p, idx, axis=-1) - 1.0, axis=-1)
                p *= valid[..., None]
                p /= n_valid
                p *= float(g)
                logits._accum(p)

        return make_op(out_data, (logits,), backward)

    if target.shape != logits.shape:
        raise ValueError("multi-hot target must match logits shape")
    x = logits.data.astype(np.float64, copy=False)
    y = target.astype(np.float64)
    # stable BCE-with-logits: max(x,0) - x*y + log1p(exp(-|x|))
    per = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    n_rows = max(1, int(np.prod(logits.shape[:-1])))
    out_data = np.asarray(per.sum() / n_rows, dtype=logits.data.dtype)

    def backward(g):
        if logits.requires_grad:
            s = 1.0 / (1.0 + np.exp(-x))
            logits._accum((float(g) * (s - y) / n_rows).astype(logits.data.dtype))

    return make_op(out_data, (logits,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table with scatter-add backward."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table._accum(gt)

    return make_op(out_data, (table,), backward)
