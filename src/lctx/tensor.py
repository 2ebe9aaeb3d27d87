"""Minimal dense tensor algebra with reverse-mode automatic differentiation.

Storage is float32 by default; a pure float64 mode (pass dtype=np.float64 at
creation) exists for gradient checks. Products and elementwise work run in the
storage dtype: float32 storage multiplies, exponentiates and normalises in
float32. Reductions (sums, means, the softmax denominator, layer-norm
statistics, loss totals) accumulate in float64 and are cast to the storage
dtype, so float64 mode computes exactly as a float64-internal kernel would.
Embedding gradients are the exception: they add in the storage dtype, with
the bytes of an np.add.at scatter-add.
Kernels that work in place do so in buffers of their own (a.data.copy() or
a fresh result): no op writes into an input's data or its output.
Gradient buffers have one owner each. The graph walk hands a node's
gradient to its backward and then drops it, so a backward owns its incoming
gradient and the fresh arrays it makes, and hands each of them to at most
one parent (_accum's `owned`; add hands g itself to its first operand only).
When that is a parent's first gradient, the parent adopts the buffer if a
copy would have its dtype, shape and C layout, and later gradients are
added into it; otherwise the parent gets a copy. Either way the bytes are
the copy's, and after backward() no two tensors share a gradient buffer.
Broadcasting is restricted to leading batch axes: two operand shapes must be
equal, or one must be a suffix of the other. Everything else requires an
explicit reshape.
Tensor.backward() consumes the graph it walks: each intermediate drops its
gradient and backward closure once it has run, so peak memory falls during
the walk and only the leaves (parameters) keep gradients. Build one graph per
backward(); gradients of separate graphs accumulate on the shared leaves.
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


def _released(g) -> None:
    """The backward of a node whose graph backward() has already walked."""
    raise RuntimeError("backward() through a released graph node")


class Tensor:
    """A dense n-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g to .grad. The first gradient is one cast copy in data's
        layout; adding +0.0 turns -0.0 into +0.0, as accumulating into zeros
        would. An `owned` g, which no one else holds, is adopted instead of
        copied when the copy would have its dtype, shape and layout (both C
        order): the +0.0 is then added in place, with the same bytes."""
        if self.grad is not None:
            self.grad += g.astype(self.data.dtype, copy=False)
        elif (owned and g.dtype == self.data.dtype and g.shape == self.data.shape
              and g.flags.c_contiguous and g.flags.writeable and self.data.flags.c_contiguous):
            g += 0.0
            self.grad = g
        else:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data), dtype=self.data.dtype)

    def backward(self) -> None:
        """Populate .grad on every requires_grad tensor reachable from this scalar.

        Gradients accumulate additively across uses, and leaves keep theirs
        across calls. The graph is released as the walk goes: once a non-leaf
        node has pushed its gradient to its parents, its grad, parents and
        backward closure are dropped, so the intermediates of a finished part
        of the graph are freed during the walk. A later backward() that
        reaches a released node (the same root twice, or an intermediate
        shared with an earlier root) is a checked error.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
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
            if node._backward is _released:
                raise RuntimeError("backward() reached a node whose graph an earlier "
                                   "backward() released; build a new graph per backward")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data), owned=True)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its grad
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _released

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

    `backward(g)` receives the output gradient, which it owns, and must push
    gradients into the parents via their _accum method, each buffer it owns
    (g, a view of it, or an array it made) to at most one parent as owned.
    Used by fused ops (attention gathers) that do not decompose nicely into
    the generic primitives here.
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
        # g itself goes to a only: b gets a copy of it (or a fresh sum), so
        # no two gradients share a buffer, add(x, x) included
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape), owned=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape), owned=b.shape != g.shape)

    return make_op(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.data.dtype))
    b = _coerce(b, a)
    _check_suffix(a.shape, b.shape)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape), owned=True)

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
            a._accum(g * c, owned=True)

    return make_op(out_data, (a,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (no gradient) broadcastable to a.shape."""
    c = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ValueError("constant must broadcast to the tensor shape")
    out_data = a.data + c

    def backward(g):
        if a.requires_grad:
            a._accum(g, owned=True)

    return make_op(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Stacked matrix product over the trailing two axes, plus an optional bias.

    Leading axes must match exactly, or one operand may be a plain 2-D matrix
    (the usual weight case). The forward product and both backward products
    run in the operands' dtype, np.result_type(a, b): float32 operands
    multiply and accumulate in float32, float64 operands in float64. A 2-D
    operand's gradient sums the per-batch products in float64.

    A bias in the product's dtype, whose shape is a suffix of the product's
    (a [n] vector for a weight of n columns), is added in place to the fresh
    product, so the graph keeps one output where matmul(a, b) + bias keeps
    two. Its forward and its gradient are those of `add`: the bytes equal
    matmul(a, b) + bias.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"leading batch axes disagree: {a.shape} x {b.shape}")
    out_data = np.matmul(a.data, b.data).astype(a.data.dtype, copy=False)
    parents = (a, b)
    if bias is not None:
        _check_suffix(out_data.shape, bias.shape)
        out_data += bias.data
        parents = (a, b, bias)

    def backward(g):
        _matmul_backward(a, b, bias, g)

    return make_op(out_data, parents, backward)


def _matmul_backward(a: Tensor, b: Tensor, bias: Tensor | None, g: np.ndarray) -> None:
    if a.requires_grad:
        a._accum(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape), owned=True)
    if b.requires_grad:
        b._accum(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape), owned=True)
    if bias is not None and bias.requires_grad:
        bias._accum(_unbroadcast(g, bias.shape), owned=True)


def matmul_rows(a: Tensor, w: Tensor, bias: Tensor, rows: np.ndarray) -> Tensor:
    """matmul(a, w, bias) at the distinct rows `rows` of a's axis -2 only:
    [B, G, n] for a [B, L, m] and a 2-D weight w [m, n].

    The forward multiplies only those rows. numpy sends a one-row product
    to gemv, whose sums differ from gemm's in the last bit, so a lone row of
    an input of L >= 2 rows is multiplied twice; at L = 1 the full product
    is one row too and the row is multiplied once. Past that, a row keeps
    its bytes where BLAS gives a row the same bytes at any row count; not
    every kernel does: OpenBLAS's SkylakeX sgemm gave a row of a product
    over 32 or 64 terms into 64 or 32 columns one set of bytes at 2 to 16
    rows and another at 40 and 100.
    The backward is matmul's over all L rows, with a zero gradient outside
    `rows`, so the weight gradient sums over the rows in the full product's
    order and the gradients have the bytes of matmul(a, w, bias)[..., rows,
    :]'s.
    """
    if w.ndim != 2 or a.ndim < 2:
        raise ValueError("matmul_rows needs a 2-D weight and an input of at least 2 dims")
    rows = np.asarray(rows, dtype=np.int64)
    lone = len(rows) == 1 and a.shape[-2] > 1
    picked = a.data[..., np.repeat(rows, 2) if lone else rows, :]
    out_data = np.matmul(picked, w.data).astype(a.data.dtype, copy=False)
    _check_suffix(out_data.shape, bias.shape)
    out_data += bias.data
    out_data = out_data[..., :len(rows), :]

    def backward(g):
        full = np.zeros(a.shape[:-1] + (w.shape[-1],), dtype=g.dtype)
        full[..., rows, :] = g
        _matmul_backward(a, w, bias, full)

    return make_op(out_data, (a, w, bias), backward)


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
            a._accum(g.reshape(old), owned=True)

    return make_op(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward(g):
        if a.requires_grad:
            a._accum(g.transpose(inv), owned=True)

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


def _selects_once(key) -> bool:
    """Whether the key selects every element at most once: a basic key, or a
    lone boolean mask."""
    if isinstance(key, np.ndarray) and key.dtype == bool:
        return True
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, (slice, int, np.integer, type(Ellipsis), type(None))) for k in parts)


def index_select(a: Tensor, key) -> Tensor:
    """Basic slicing, integer-array indexing or a boolean mask. A basic key
    or a mask selects every element at most once, so its backward assigns;
    integer arrays scatter-add."""
    out_data = a.data[key]
    once = _selects_once(key)

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            if once:
                ga[key] = g
            else:
                np.add.at(ga, key, g)
            a._accum(ga, owned=True)

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
            a._accum(g * (a.data > 0), owned=True)

    return make_op(out_data, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; the approximation itself is what we differentiate.

    0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), elementwise in the
    storage dtype, in fresh buffers. The cube is x*x*x, not x**3, which is an
    np.power call dozens of times slower. Scaling by 0.5 is exact, so it is
    applied last.
    """
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = t + 1.0
    out_data *= x
    out_data *= 0.5

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
            a._accum(dinner, owned=True)

    return make_op(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        if a.requires_grad:
            a._accum(g * (s * (1.0 - s)), owned=True)

    return make_op(s, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum(g * (1.0 - t**2), owned=True)

    return make_op(t, (a,), backward)


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


def _sum64(x: np.ndarray, axis) -> np.ndarray:
    """A sum over axis (kept) accumulated in float64, cast back to x's dtype."""
    return x.sum(axis=axis, keepdims=True, dtype=np.float64).astype(x.dtype, copy=False)


def _mean64(x: np.ndarray) -> np.ndarray:
    """A mean over the last axis (kept) accumulated in float64, cast back to
    x's dtype."""
    return x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype, copy=False)


# numpy reduces a narrow innermost axis row by row, so rows up to this wide,
# when there are at least _RUNNING_MAX_ROWS of them, take their max as a
# running np.maximum over the columns. np.max time over running time, float32,
# one thread of a 2-vCPU x86-64 Xeon: at 2048 rows 14.0x at 3 columns, 7.7x at
# 9, 4.2x at 16, 1.8x at 20 and 1.3x at 48; at 320 rows 2.2x at 9, 2.1x at 16
# and 0.77x at 20; at 64 rows 0.58x at 9; at 3584 rows of 519 columns 0.08x
_RUNNING_MAX_WIDTH = 16
_RUNNING_MAX_ROWS = 256


def _row_max(y: np.ndarray, axis: int) -> np.ndarray:
    """np.max(y, axis, keepdims=True), as a running np.maximum over the
    columns of many narrow rows. A max is exact, so both give the same
    bytes, NaN included."""
    width = y.shape[-1] if y.ndim else 0
    if (axis not in (-1, y.ndim - 1) or not 0 < width <= _RUNNING_MAX_WIDTH
            or y.size < _RUNNING_MAX_ROWS * width):
        return np.max(y, axis=axis, keepdims=True)
    m = y[..., :1].copy()
    for j in range(1, width):
        np.maximum(m, y[..., j:j + 1], out=m)
    return m


def softmax_(y: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax's kernel, in place: normalises y along axis (row-stable;
    -inf entries get exact zero weight) and returns it. The exponentials
    are in y's dtype and the denominator is summed in float64. A row whose
    entries are all -inf is a checked error (an all-masked attention row
    cannot legitimately occur). softmax_grad is its backward."""
    m = _row_max(y, axis)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError("softmax over an all-masked (or non-finite) row")
    y -= m
    np.exp(y, out=y)
    y /= _sum64(y, axis)
    return y


def softmax_grad(g: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """The gradient of softmax's input, (g - sum(g * y)) * y, in a fresh
    array: y is softmax_'s output and g the gradient of that output."""
    ga = g * y
    dot = _sum64(ga, axis)
    np.subtract(g, dot, out=ga)
    ga *= y
    return ga


def softmax(a: Tensor, axis: int = -1, allowed: np.ndarray | None = None) -> Tensor:
    """Row-stable softmax; -inf entries yield exact zero weight.

    `allowed`, a boolean array broadcastable to a.shape, masks the entries
    where it is False: they are set to -inf in the kernel's own copy of
    a.data, which has the bytes of adding a 0/-inf mask, without building
    one. A row whose entries are all -inf is a checked error.
    """
    # one copy of a.data, masked and normalised in place (a.data itself is
    # never written); the output is also what backward keeps
    y = a.data.copy()
    if allowed is not None:
        np.copyto(y, -np.inf, where=np.logical_not(allowed))
    softmax_(y, axis)

    def backward(g):
        if a.requires_grad:
            a._accum(softmax_grad(g, y, axis), owned=True)

    return make_op(y, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Mean, variance and the per-row 1/sqrt(var + eps) are computed in float64
    and cast to the storage dtype; the rest is elementwise in that dtype.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gain.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ValueError("gain/bias must match the last axis")
    # xhat is centred, then scaled, in one copy of a.data
    xhat = a.data.copy()
    xhat -= _mean64(xhat)
    y = np.square(xhat)
    var = y.mean(axis=-1, keepdims=True, dtype=np.float64)
    inv = (1.0 / np.sqrt(var + eps)).astype(xhat.dtype, copy=False)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data

    def backward(g):
        if a.requires_grad:
            # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv
            dxhat = g * gain.data
            m1 = _mean64(dxhat)
            tmp = dxhat * xhat
            m2 = _mean64(tmp)
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=tmp)
            dxhat *= inv
            a._accum(dxhat, owned=True)
        red = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            gain._accum((g * xhat).sum(axis=red, dtype=np.float64), owned=True)
        if bias.requires_grad:
            bias._accum(g.sum(axis=red, dtype=np.float64), owned=True)

    return make_op(y, (a, gain, bias), backward)


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
        # the only full-size array is e = exp(x - max) in the storage dtype,
        # kept for the backward; the denominators, the log-sum-exp and the
        # loss total are float64, and the picked logits are exact in either
        e = logits.data.copy()
        m = e.max(axis=-1, keepdims=True)
        e -= m
        np.exp(e, out=e)
        denom = e.sum(axis=-1, keepdims=True, dtype=np.float64)
        lse = m[..., 0] + np.log(denom[..., 0])
        idx = np.maximum(target, 0)[..., None]
        picked = np.take_along_axis(logits.data, idx, axis=-1)[..., 0]
        losses = np.where(valid, lse - picked, 0.0)
        out_data = np.asarray(losses.sum() / n_valid, dtype=logits.data.dtype)

        def backward(g):
            if logits.requires_grad:
                # (softmax - onehot) * valid / n_valid * g
                p = e / denom.astype(e.dtype, copy=False)
                np.put_along_axis(p, idx, np.take_along_axis(p, idx, axis=-1) - 1.0, axis=-1)
                p *= valid[..., None]
                p /= n_valid
                p *= float(g)
                logits._accum(p, owned=True)

        return make_op(out_data, (logits,), backward)

    if target.shape != logits.shape:
        raise ValueError("multi-hot target must match logits shape")
    x = logits.data
    y = target.astype(x.dtype)
    # stable BCE-with-logits: max(x,0) - x*y + log1p(exp(-|x|))
    per = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    n_rows = max(1, int(np.prod(logits.shape[:-1])))
    out_data = np.asarray(per.sum(dtype=np.float64) / n_rows, dtype=x.dtype)

    def backward(g):
        if logits.requires_grad:
            # exp(-x) overflows to inf (and s to an exact 0) for very negative
            # x, sooner in float32 than in float64
            with np.errstate(over="ignore"):
                s = 1.0 / (1.0 + np.exp(-x))
            logits._accum(float(g) * (s - y) / n_rows, owned=True)

    return make_op(out_data, (logits,), backward)


def embedding_prefix(table: Tensor, batch: int, length: int) -> Tensor:
    """embedding(table, ids) for ids = arange(length) in each of `batch` rows
    (the position lookup), [batch, length, ...], as a read-only broadcast
    view of table rows [0, length).

    The backward adds g's batch rows one after another in the storage dtype,
    which are np.add.at's additions in its order: the bytes are the
    scatter-add's, without it. (g.sum(axis=0) would not do: the gradient
    buffer follows the view's layout, batch axis innermost, and numpy sums
    a contiguous axis pairwise.)
    """
    if length > table.shape[0]:
        raise IndexError("embedding id out of range")
    rows = table.data[:length]
    out_data = np.broadcast_to(rows, (batch,) + rows.shape)

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            for row in g:
                gt[:length] += row
            table._accum(gt, owned=True)

    return make_op(out_data, (table,), backward)


# tables up to this many rows get one masked sum per row in embedding's
# backward: at 8192 ids of width 64 that took 3.2 ms at 64 rows, against
# 9.0 ms for np.add.at at any row count
_MASKED_SUM_ROWS = 64


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into an embedding table with scatter-add backward.

    A table of at most _MASKED_SUM_ROWS rows gets one masked sum per row in
    place of np.add.at. For rows wider than one element, numpy's sum over
    the leading axis adds the selected rows one after another, in the C
    order of ids, as np.add.at does, so the bytes are np.add.at's.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range")
    out_data = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            if table.shape[0] <= _MASKED_SUM_ROWS:
                for row in range(table.shape[0]):
                    gt[row] += g[ids == row].sum(axis=0)
            else:
                np.add.at(gt, ids, g)
            table._accum(gt, owned=True)

    return make_op(out_data, (table,), backward)
