"""Small dense-tensor engine with reverse-mode differentiation.

Arrays are numpy float32 by default; float64 is used for verification
work (gradient checks are unreliable at 32 bit). Every operation checks
its output for NaN/Inf and raises instead of propagating garbage.

Ops are pure functions over immutable inputs. The compute graph is
kept apart from the tensors: a tracked op result holds a small node
with its parents' nodes, its output shape and a vector-Jacobian
closure (VJP), and a tracked leaf holds one cached node that receives
``.grad``. A VJP keeps only the arrays its rule reads, plus shapes,
dtypes and the operands' ``requires_grad`` flags as they were at
forward time; it never holds a ``Tensor``. So an array that no VJP
reads (the input of a frozen projection, a residual sum) is freed as
soon as the forward drops its tensor. The graph is single-owner, and
the backward consumes it: each VJP runs once and is dropped with the
arrays it kept, so the backward frees the graph as it walks it.

``matmul(a, b, bias)`` adds the bias in place to the fresh product:
one node and one array where ``matmul(a, b) + bias`` makes two, with
bitwise the same values and gradients. The model's biased projections
use it; the adapter's up-projection does not, because its bias is
added after the residual sum.

Nothing is computed for a gradient nobody reads:

- An op computes its output and checks it for non-finite values. When
  grad mode is off or no operand requires grad (``_tracks``), it
  returns that output untracked at once, before it builds a VJP or any
  of the shapes, flags and arrays the VJP would keep.
- Inside ``with no_grad():`` ops record no graph at all: outputs have
  no parents and ``requires_grad=False``, so a forward-only pass keeps
  no saved activations, and ``depthwise_conv3d`` skips the
  rate-derivative matrices. Values are bitwise those of grad mode, and
  the finite checks still run on every output; one above
  ``_GUARD_SLICE`` elements that has a flat view is checked slice by
  slice into one small scratch, not into a bool array of its own size.
  ``train()`` uses it to encode its one cache, the tokens entering the
  first block that holds a trainable tensor (the frozen prefix), and
  every eval runs under it.
- A multi-operand VJP returns ``None`` for every operand with
  ``requires_grad=False`` instead of computing its gradient, so a
  frozen weight costs no backward work.

``chunked(fn, inputs)`` is the one chunk loop: ``fn`` over 4-row
chunks, two at a time on threads, joined by one ``concat``. Its one
caller, ``VideoViT._per_clip``, decides which passes chunk: the
forward-only ones and the tracked ones whose gradient reaches more
than the last block. In grad mode its join is a fork when the chunk
subgraphs share no op node, and the backward walks each chunk's
subgraph on a thread of its own. ``.grad`` is written once, after the
walk, so a backward that raises changes no ``.grad``.

``depthwise_conv3d`` takes batched input only, (batch, channels, T, H,
W), with its dilation rates as a float triple or a (batch, 3) tensor.
Its trilinear sampling factors into one closed-form matrix per (clip,
axis, kernel tap). The forward resamples the T taps and then the H
taps as batched GEMMs, then folds the kernel into the W axis, one
W x W matrix per (clip, t-tap, h-tap, channel). The largest forward
intermediate is therefore kT*kH times the input; the kT*kH*kW-fold
tensor of resampled copies is never built. The graph does not keep that
intermediate either: the VJP holds the T-resampled input, kT times the
input, and its backward rebuilds the H taps from it with one batched
GEMM.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import reprlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, expit

from .errors import ConfigError, NonFiniteError, ShapeError, UsageError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph; restores the previous mode on
    exit, also when nested or left by an exception."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


# _guard_finite checks an output above this many elements slice by slice
_GUARD_SLICE = 1 << 16


def _flat_view(arr: np.ndarray) -> np.ndarray | None:
    """``arr``'s elements as one 1-d view in memory order, or None when
    they do not fill one block of memory (a broadcast or sliced view)."""
    axes = sorted(range(arr.ndim), key=arr.strides.__getitem__, reverse=True)
    view = arr.transpose(axes)
    return view.reshape(-1) if view.flags.c_contiguous else None


def _guard_finite(arr: np.ndarray, op: str) -> None:
    """Raise ``NonFiniteError`` naming ``op`` if ``arr`` holds a NaN or
    an inf. A large array with a flat view is checked in slices into one
    small scratch, not into a bool array of its own size."""
    flat = _flat_view(arr) if arr.size > _GUARD_SLICE else None
    if flat is None:
        # the ufunc reduce directly: ndarray.all goes through a Python wrapper
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise NonFiniteError(f"{op}: produced non-finite values")
        return
    scratch = np.empty(_GUARD_SLICE, dtype=bool)
    for start in range(0, flat.size, _GUARD_SLICE):
        part = flat[start:start + _GUARD_SLICE]
        if not np.logical_and.reduce(np.isfinite(part, out=scratch[:part.size])):
            raise NonFiniteError(f"{op}: produced non-finite values")


class _Node:
    """A gradient-tracked value in the graph: its parents' nodes, its
    VJP (None for a leaf), its output shape, for a leaf only the tensor
    that receives ``.grad``, and whether it is the join of ``chunked``
    (a fork, whose parents' subgraphs the backward runs on threads)."""

    __slots__ = ("_parents", "_vjp", "shape", "leaf", "fork")
    requires_grad = True

    def __init__(self, parents: tuple, vjp: Callable | None, shape: tuple, leaf=None):
        self._parents = parents
        self._vjp = vjp
        self.shape = shape
        self.leaf = leaf
        self.fork = False


class _Untracked(_Node):
    __slots__ = ()
    requires_grad = False


# the parent slot of every operand that takes no gradient
_UNTRACKED = _Untracked((), None, ())


class Tensor:
    """Dense n-dimensional float array with optional gradient tracking.

    A tracked op result or a tracked leaf that has been used holds its
    graph node; ``_vjp`` reads and writes through it."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        _guard_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def _vjp(self) -> Callable | None:
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, fn: Callable) -> None:
        self._node._vjp = fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        backward(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return getitem(self, key)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


# creates leaf nodes: two chunk threads may meet a leaf's first use at once
_LEAF_LOCK = threading.Lock()


def _node_of(t: Tensor) -> _Node:
    """The node an op records for operand ``t``: the shared sentinel
    when ``t`` takes no gradient, else its own (for a leaf, created on
    first use and cached, so a leaf used twice is one node, also when
    two threads use it first at once)."""
    if not t.requires_grad:
        return _UNTRACKED
    if t._node is None:
        with _LEAF_LOCK:
            if t._node is None:
                t._node = _Node((), None, t.data.shape, t)
    return t._node


def _tracks(*operands: Tensor) -> bool:
    """Whether an op over ``operands`` records a node: grad mode is on
    and some operand requires grad. An op that does not returns
    ``_result(data, (), None, op)`` before it builds its VJP."""
    if _grad_enabled:
        for t in operands:
            if t.requires_grad:
                return True
    return False


def _result(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """The op's output after its non-finite check: a tracked result
    whose node has ``parents`` when ``vjp`` is given (the op found that
    it ``_tracks``), else an untracked one."""
    _guard_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if vjp is None:
        out.requires_grad = False
        out._node = None
    else:
        out.requires_grad = True
        out._node = _Node(tuple(map(_node_of, parents)), vjp, data.shape)
    return out


def _reduce_to_shape(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over broadcast axes back down to the operand shape."""
    extra = arr.ndim - len(shape)
    if extra > 0:
        arr = arr.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (have, want) in enumerate(zip(arr.shape, shape)) if want == 1 and have != 1)
    if axes:
        arr = arr.sum(axis=axes, keepdims=True)
    return arr.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = (_as_tensor(a, b if isinstance(b, Tensor) else None),
            _as_tensor(b, a if isinstance(a, Tensor) else None))
    data = a.data + b.data
    if not _tracks(a, b):
        return _result(data, (), None, "add")
    sa = a.data.shape if a.requires_grad else None
    sb = b.data.shape if b.requires_grad else None

    def vjp(g):
        return (None if sa is None else _reduce_to_shape(g, sa),
                None if sb is None else _reduce_to_shape(g, sb))

    return _result(data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = (_as_tensor(a, b if isinstance(b, Tensor) else None),
            _as_tensor(b, a if isinstance(a, Tensor) else None))
    data = a.data - b.data
    if not _tracks(a, b):
        return _result(data, (), None, "sub")
    sa = a.data.shape if a.requires_grad else None
    sb = b.data.shape if b.requires_grad else None

    def vjp(g):
        return (None if sa is None else _reduce_to_shape(g, sa),
                None if sb is None else _reduce_to_shape(-g, sb))

    return _result(data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = (_as_tensor(a, b if isinstance(b, Tensor) else None),
            _as_tensor(b, a if isinstance(a, Tensor) else None))
    data = a.data * b.data
    if not _tracks(a, b):
        return _result(data, (), None, "mul")
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other's values
    bd, ad = (b.data if a.requires_grad else None), (a.data if b.requires_grad else None)

    def vjp(g):
        return (None if bd is None else _reduce_to_shape(g * bd, sa),
                None if ad is None else _reduce_to_shape(g * ad, sb))

    return _result(data, (a, b), vjp, "mul")


def neg(a) -> Tensor:
    a = _as_tensor(a)
    data = -a.data
    if not _tracks(a):
        return _result(data, (), None, "neg")
    return _result(data, (a,), lambda g: (-g,), "neg")


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading axes,
    plus ``bias`` when given.

    The bias is added in place to the fresh product, so ``matmul(a, b,
    bias)`` is bitwise ``matmul(a, b) + bias`` as one node and one
    array. It must broadcast to the product's shape and must not need a
    wider dtype. Gradients follow dA = dC @ B^T, dB = A^T @ dC and
    dbias = dC summed over the axes the bias was broadcast along.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: inner extents disagree for shapes {sa} and {sb}")
    data = a.data @ b.data
    if bias is None:
        operands = (a, b)
    else:
        bias = _as_tensor(bias, a)
        try:
            np.add(data, bias.data, out=data, casting="safe")
        except (TypeError, ValueError):
            raise ShapeError(f"matmul: bias {bias.shape} {bias.data.dtype} does not fit the "
                             f"product {data.shape} {data.dtype}") from None
        operands = (a, b, bias)
    if not _tracks(*operands):
        return _result(data, (), None, "matmul")
    bd, ad = (b.data if a.requires_grad else None), (a.data if b.requires_grad else None)
    biased = bias is not None
    sbias = bias.data.shape if biased and bias.requires_grad else None

    def vjp(g):
        ga = gb = None
        if bd is not None:
            ga = _reduce_to_shape(g @ np.swapaxes(bd, -1, -2), sa)
        if ad is not None:
            gb = _reduce_to_shape(np.swapaxes(ad, -1, -2) @ g, sb)
        if not biased:
            return ga, gb
        return ga, gb, None if sbias is None else _reduce_to_shape(g, sbias)

    return _result(data, operands, vjp, "matmul")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    if not _tracks(a):
        return _result(data, (), None, "reshape")
    old = a.data.shape
    return _result(data, (a,), lambda g: (g.reshape(old),), "reshape")


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    data = a.data.transpose(axes)
    if not _tracks(a):
        return _result(data, (), None, "transpose")
    inv = tuple(np.argsort(axes))
    return _result(data, (a,), lambda g: (np.transpose(g, inv),), "transpose")


def moveaxis(a, src: int, dst: int) -> Tensor:
    a = _as_tensor(a)
    perm = list(range(a.data.ndim))
    perm.insert(dst % a.data.ndim, perm.pop(src % a.data.ndim))
    return transpose(a, perm)


def _is_basic(key) -> bool:
    """Whether ``key`` indexes by ints, slices, Ellipsis and None only
    (a bool is an advanced index)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, (bool, np.bool_)))
               for k in parts)


def getitem(a, key) -> Tensor:
    """``a[key]`` for a basic key only (``_is_basic``). Any other key
    can repeat an index, whose gradient the VJP's ``buf[key] += g``
    would drop, so it is a ``UsageError``."""
    a = _as_tensor(a)
    if not _is_basic(key):
        raise UsageError(
            f"getitem takes ints, slices, Ellipsis and None only, not {reprlib.repr(key)}")
    data = np.array(a.data[key], copy=True)  # 0-d, not a scalar, for an all-int key
    if not _tracks(a):
        return _result(data, (), None, "getitem")
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        # adding (not assigning) into zeros keeps +0.0 where g holds -0.0
        buf = np.zeros(shape, dtype)
        buf[key] += g
        return (buf,)

    return _result(data, (a,), vjp, "getitem")


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise UsageError("concat of an empty sequence")
    data = np.concatenate([t.data for t in ts], axis=axis)
    if not _tracks(*ts):
        return _result(data, (), None, "concat")
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]
    tracked = [t.requires_grad for t in ts]

    def vjp(g):
        return tuple(part if keep else None
                     for keep, part in zip(tracked, np.split(g, splits, axis=axis)))

    return _result(data, tuple(ts), vjp, "concat")


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = np.broadcast_to(a.data, shape).copy()
    if not _tracks(a):
        return _result(data, (), None, "broadcast_to")
    old = a.data.shape
    return _result(data, (a,), lambda g: (_reduce_to_shape(g, old),), "broadcast_to")


def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_axis(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axis(axis, a.data.ndim)
    data = np.asarray(a.data.sum(axis=axes, keepdims=keepdims))
    if not _tracks(a):
        return _result(data, (), None, "sum")
    shape = a.data.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy(),)

    return _result(data, (a,), vjp, "sum")


def mean_axis(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axis(axis, a.data.ndim)
    count = math.prod(a.data.shape[ax] for ax in axes)
    if count == 0:
        raise UsageError("mean over an empty axis")
    data = np.asarray(a.data.mean(axis=axes, keepdims=keepdims))
    if not _tracks(a):
        return _result(data, (), None, "mean")
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, shape).copy().astype(dtype, copy=False),)

    return _result(data, (a,), vjp, "mean")


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def softmax_lastdim(x) -> Tensor:
    """Row-wise softmax over the last axis, computed with max subtraction."""
    x = _as_tensor(x)
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    if not _tracks(x):
        return _result(y, (), None, "softmax")

    def vjp(g):
        dx = g * y
        dot = dx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=dx)
        dx *= y
        return (dx,)

    return _result(y, (x,), vjp, "softmax")


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}")
    # np.add.reduce(...) / d is ndarray.mean without its Python wrapper
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    y = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    if not _tracks(x, gamma, beta):
        return _result(y, (), None, "layer_norm")
    gd = gamma.data
    tx, tgamma, tbeta = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dx = dgamma = dbeta = None
        if tgamma:
            dgamma = (g * xhat).sum(axis=lead)
        if tbeta:
            dbeta = g.sum(axis=lead)
        if tx:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            dxhat = g * gd
            mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
            dx = dxhat * xhat
            proj = dx.mean(axis=-1, keepdims=True)
            dxhat -= mean_dxhat
            np.subtract(dxhat, np.multiply(xhat, proj, out=dx), out=dx)
            dx *= inv
        return dx, dgamma, dbeta

    return _result(y, (x, gamma, beta), vjp, "layer_norm")


def gelu(x) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form, not tanh).

    A tracked call computes the derivative Phi(x) + x * pdf(x) in the
    forward, while the CDF is at hand, and its VJP keeps that one array.
    Either way the product goes into the CDF buffer, so the op holds at
    most three arrays of the input's size: the input, the CDF and the
    derivative."""
    x = _as_tensor(x)
    xd = x.data
    cdf = xd * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    if not _tracks(x):
        cdf *= xd
        return _result(cdf, (), None, "gelu")
    # cdf + x * pdf(x), pdf(x) = exp(-x*x/2) / sqrt(2 pi)
    deriv = xd * -0.5
    deriv *= xd
    np.exp(deriv, out=deriv)
    deriv *= _INV_SQRT2PI
    deriv *= xd
    deriv += cdf
    cdf *= xd
    # the VJP reads deriv and never writes into it, as no VJP writes
    # into what it keeps
    return _result(cdf, (x,), lambda g: (deriv * g,), "gelu")


def relu(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    data = np.maximum(xd, 0)
    if not _tracks(x):
        return _result(data, (), None, "relu")
    return _result(data, (x,), lambda g: (g * (xd > 0),), "relu")


def softplus(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    data = np.logaddexp(0.0, xd).astype(xd.dtype, copy=False)
    if not _tracks(x):
        return _result(data, (), None, "softplus")
    return _result(data, (x,), lambda g: (g * expit(xd),), "softplus")


def cross_entropy(logits, labels) -> Tensor:
    """Mean softmax cross-entropy of integer labels against logit rows."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise UsageError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")
    labels = labels.astype(np.int64)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    loss = np.asarray(-logp[np.arange(n), labels].mean(), dtype=logits.data.dtype)
    if not _tracks(logits):
        return _result(loss, (), None, "cross_entropy")

    def vjp(g):
        d = np.exp(logp)
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return _result(loss, (logits,), vjp, "cross_entropy")


# ---------------------------------------------------------------------------
# depthwise 3-d convolution with real-valued dilation
# ---------------------------------------------------------------------------

def _axis_matrices(rates: np.ndarray, n: int, extent: int, dtype,
                   with_deriv: bool):
    """Per-clip sampling matrices for one axis, in closed form.

    Kernel tap a at rate d makes output index i sample input position
    i + (a - center)*d by linear interpolation of its two neighbours,
    zero outside the volume (zero padding):
    ``M[b, a, i, j] = max(0, 1 - |(a - center)*d_b - (j - i)|)``.
    Returns M of shape (batch, extent, n, n) and, when requested, dM/dd
    with the same shape: the right derivative, so at a kink it is the
    slope on the side the rate moves into.
    """
    off = np.arange(extent) - extent // 2
    u = (off[:, None, None] * rates[:, None, None, None]
         - (np.arange(n) - np.arange(n)[:, None]))      # (B, A, n, n)
    mats = np.maximum(0.0, 1.0 - np.abs(u)).astype(dtype)
    if not with_deriv:
        return mats, None
    # a rising rate moves u in the direction of its offset's sign
    ahead = np.sign(off)[:, None, None] * u
    slope = ((ahead >= -1) & (ahead < 0)).astype(dtype) - ((ahead >= 0) & (ahead < 1))
    return mats, np.abs(off)[:, None, None].astype(dtype) * slope


def _swap(m: np.ndarray) -> np.ndarray:
    """Contiguous transpose of the last two axes: numpy's stacked matmul
    runs about twice as slowly with a transposed view as its broadcast
    operand."""
    return np.ascontiguousarray(np.swapaxes(m, -1, -2))


def _clip_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-clip inner product of two arrays with a leading batch axis."""
    batch = a.shape[0]
    return (a.reshape(batch, 1, -1) @ b.reshape(batch, -1, 1)).ravel()


def depthwise_conv3d(x, kernel, dilation=(1.0, 1.0, 1.0)) -> Tensor:
    """Extent-preserving depthwise 3-d convolution with real dilation rates.

    ``x`` is (batch, channels, T, H, W); ``kernel`` is (channels, kT, kH,
    kW) with odd extents, one filter per channel. Integer dilations
    sample the exact dilated lattice with zero padding. Fractional
    dilations sample the input at real-valued offsets through trilinear
    interpolation of the surrounding voxels (zero outside the volume),
    which keeps the output differentiable in the rates. ``dilation`` is
    a triple of floats shared by every clip, or a (batch, 3) tensor of
    per-clip rates, which receives gradients.

    The trilinear sampling factors into one closed-form matrix per
    (clip, axis, tap), built by ``_axis_matrices``. The forward resamples
    the T taps and then the H taps as batched GEMMs, then folds the
    kernel into the W axis, one W x W matrix per (clip, t-tap, h-tap,
    channel), and contracts it with the resampled input. The largest
    forward intermediate is kT*kH times the input. The VJP keeps the
    T-resampled input (kT times the input) and rebuilds the H taps from
    it. The backward runs the stages' adjoints in reverse order; each
    rate's gradient dots the output gradient of its stage with the
    stage rerun through dM/dd.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if kernel.data.ndim != 4:
        raise ShapeError(f"kernel must be (channels, kT, kH, kW), got {kernel.shape}")
    if any(k % 2 == 0 for k in kernel.shape[1:]):
        raise ConfigError(f"kernel extents must be odd, got {kernel.shape[1:]}")
    if x.data.ndim != 5:
        raise ShapeError(f"input must be (B, C, T, H, W), got {x.shape}")
    if x.shape[1] != kernel.shape[0]:
        raise ShapeError(f"channel mismatch: input {x.shape[1]} vs kernel {kernel.shape[0]}")
    batch, channels, t_n, h_n, w_n = x.shape

    dil_tensor = dilation if isinstance(dilation, Tensor) else None
    if dil_tensor is not None:
        rates = dil_tensor.data.astype(np.float64)
        if rates.shape != (batch, 3):
            raise ShapeError(f"per-clip dilation needs ({batch}, 3) rates, got {dil_tensor.shape}")
    else:
        rates = np.asarray([float(d) for d in dilation], dtype=np.float64)
        if rates.shape != (3,):
            raise ShapeError(f"dilation must give three rates, got {dilation!r}")
        rates = np.broadcast_to(rates, (batch, 3))
    if rates.min() < 1.0:
        raise ValueError(f"dilation rates must be >= 1, got {rates.min()}")

    need_rate_grad = _grad_enabled and dil_tensor is not None and dil_tensor.requires_grad
    kern = kernel.data
    kt, kh, kw = kern.shape[1:]
    mt, dmt = _axis_matrices(rates[:, 0], t_n, kt, x.data.dtype, need_rate_grad)
    mh, dmh = _axis_matrices(rates[:, 1], h_n, kh, x.data.dtype, need_rate_grad)
    mw, dmw = _axis_matrices(rates[:, 2], w_n, kw, x.data.dtype, need_rate_grad)

    # u[b,a,c,t] = Mt[b,a] x[b,c] and v[b,a,e,c,t] = Mh[b,e] u[b,a,c,t]
    xs = x.data.reshape(batch, 1, channels, t_n, h_n * w_n)
    u = (mt[:, :, None] @ xs).reshape(batch, kt, 1, channels, t_n, h_n, w_n)
    v = (mh[:, None, :, None, None] @ u).reshape(batch, kt, kh, channels, t_n * h_n, w_n)
    # fold[b,a,e,c] = sum_f kern[c,a,e,f] Mw[b,f]^T, one (W, W) matrix
    kflat = kern.transpose(1, 2, 0, 3).reshape(kt * kh * channels, kw)
    fold = (kflat @ _swap(mw).reshape(batch, kw, -1)).reshape(batch, kt, kh, channels, w_n, w_n)
    data = (v @ fold).sum(axis=(1, 2)).reshape(x.shape)
    parents = (x, kernel) if dil_tensor is None else (x, kernel, dil_tensor)
    if not _tracks(*parents):
        return _result(data, (), None, "depthwise_conv3d")
    x_shape, tx, tk = x.data.shape, x.requires_grad, kernel.requires_grad
    per_clip = dil_tensor is not None
    rate_dtype = dil_tensor.data.dtype if per_clip else None
    # keep only what the backward's live branches read; never v, which
    # is kT*kH times the input and is rebuilt from u where it is read
    if not need_rate_grad:
        xs = None
        if not tk:
            u = None
        if not tx:
            fold = None

    def vjp(g):
        g = g.reshape(batch, 1, 1, channels, t_n * h_n, w_n)
        dx = dk = dd = None
        if tk or need_rate_grad:
            # the forward's v, by the forward's own expression
            v = (mh[:, None, :, None, None] @ u).reshape(batch, kt, kh, channels, t_n * h_n, w_n)
            dfold_t = (np.swapaxes(g, -1, -2) @ v).reshape(batch, -1, w_n * w_n)
            del v
            if tk:
                dk = (dfold_t @ mw.reshape(batch, kw, -1).transpose(0, 2, 1)).sum(axis=0)
                dk = dk.reshape(kt, kh, channels, kw).transpose(2, 0, 1, 3)
        if tx or need_rate_grad:
            dv = (g @ _swap(fold)).reshape(batch, kt, kh, channels, t_n, h_n, w_n)
            du = (_swap(mh)[:, None, :, None, None] @ dv).sum(axis=2)
            du = du.reshape(batch, kt, channels, t_n, h_n * w_n)
            if tx:
                dx = (_swap(mt)[:, :, None] @ du).sum(axis=1).reshape(x_shape)
        if need_rate_grad:
            dd = np.stack([_clip_dot(du, dmt[:, :, None] @ xs),
                           _clip_dot(dv, dmh[:, None, :, None, None] @ u),
                           _clip_dot(dfold_t, kflat @ dmw.reshape(batch, kw, -1))], axis=1)
            dd = dd.astype(rate_dtype)
        return (dx, dk, dd) if per_clip else (dx, dk)

    return _result(data, parents, vjp, "depthwise_conv3d")


# ---------------------------------------------------------------------------
# whole chunks on two threads
# ---------------------------------------------------------------------------

# rows per chunk, and chunks in flight at once: two 4-clip chunks hold
# about what one 8-clip chunk held, and most of a chunk's forward and
# backward is native code that releases the GIL (erf, the GEMMs; README,
# "Engine: whole chunks on two threads")
_CHUNK = 4
_WORKERS = 2


def _in_parallel(fn, items: list) -> list:
    """``[fn(item) for item in items]``, ``_WORKERS`` items at a time on
    a thread pool of this call's own, each in a copy of the caller's
    context, so the caller's ``np.errstate`` holds in the workers too.
    A failing item raises the error of the first failing item in order,
    as a serial loop would, once the items already started have ended;
    the items not yet started are cancelled. The pool is per call: a
    process forked (a ``--parallel`` sweep) while a long-lived pool
    exists inherits that pool without its threads, and hangs on its
    first chunk."""
    caller = contextvars.copy_context()
    with ThreadPoolExecutor(_WORKERS) as pool:
        return list(pool.map(lambda item: caller.copy().run(fn, item), items))


def chunked(fn, inputs) -> Tensor:
    """``fn`` over ``inputs`` in chunks of ``_CHUNK`` rows, run by
    ``_in_parallel`` and joined in chunk order by one ``concat`` along
    the first axis: the one chunk loop, called by
    ``VideoViT._per_clip``. Its working memory is that of the chunks in
    flight, so under ``no_grad`` it does not grow with the row count.

    In grad mode the join of tracked chunk outputs is an ordinary
    ``concat`` node whose parents are the chunk outputs. It is a fork
    when no op node is in two chunk subgraphs, which one walk over each
    chunk output tells here: ``backward`` then walks each chunk's
    subgraph on a thread of its own, and a leaf's ``.grad`` ends as old
    + chunk 0 + chunk 1 + ..., the same bits on one core or two, which
    may differ in their last bits from a backward over the unchunked
    rows. A fork's chunk subgraphs must be reached only through the
    join: a loss that also reaches an op node under a chunk output by
    another path makes ``backward`` raise the ``UsageError`` of a spent
    graph, whose message names this cause and a second backward."""
    outs = _in_parallel(fn, [inputs[lo:lo + _CHUNK] for lo in range(0, len(inputs), _CHUNK)])
    out = concat(outs, axis=0)
    if out.requires_grad:
        ops = [node for part in out._node._parents if part.requires_grad
               for node in _order(part, True) if node._vjp is not None]
        out._node.fork = len(set(ops)) == len(ops)
    return out


# ---------------------------------------------------------------------------
# reverse-mode traversal
# ---------------------------------------------------------------------------

def _order(top: _Node, through_forks: bool) -> list[_Node]:
    """The nodes reachable from ``top`` through gradient-tracked edges,
    in topological order (parents before consumers); without
    ``through_forks``, a fork's parents and what lies under them are
    left out."""
    order: list[_Node] = []
    visited: set[_Node] = set()
    stack: list[tuple[_Node, bool]] = [(top, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        if node.fork and not through_forks:
            continue
        for p in node._parents:
            if p.requires_grad and p not in visited:
                stack.append((p, False))
    return order


def trace_graph(root: Tensor) -> list[_Node]:
    """The graph nodes reachable from ``root``'s node through
    gradient-tracked edges, chunk subgraphs included, in topological
    order (parents before consumers). Leaves are the nodes whose
    ``_vjp`` is None; after a backward the op nodes are still traced,
    with ``_spent`` as their ``_vjp``."""
    return _order(_node_of(root), True)


def _spent(g):
    """The VJP of a node whose backward has run; its saved arrays are gone."""
    raise UsageError("this graph's backward already ran, or the loss reaches a node under a "
                     "chunked join by a path outside the join; run a new forward to "
                     "differentiate again")


def _walk(seed) -> list[tuple[_Node, np.ndarray]]:
    """From ``seed``, a node and the gradient at it, run the VJPs under
    that node in reverse topological order, and return each leaf node
    reached with its summed gradient, in the order reached. At a fork
    the chunk subgraphs are walked on two threads, and their pairs
    follow in chunk order."""
    top, g = seed
    pairs: list[tuple[_Node, np.ndarray]] = []
    grads: dict[_Node, np.ndarray] = {top: g}
    for node in reversed(_order(top, False)):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._vjp is None:
            pairs.append((node, g))
            continue
        vjp, node._vjp = node._vjp, _spent
        seeds = []
        for parent, pg in zip(node._parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            _guard_finite(pg, "backward")
            if pg.shape != parent.shape:
                pg = pg.reshape(parent.shape)
            if node.fork:
                seeds.append((parent, pg))
                continue
            held = grads.get(parent)
            grads[parent] = pg if held is None else held + pg
        if seeds:
            for chunk in _in_parallel(_walk, seeds):
                pairs.extend(chunk)
        # hold nothing of this node into the next VJP
        vjp = g = pg = held = seeds = None
    return pairs


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every gradient-tracked
    leaf reachable from it. One walk (``_walk``) runs the VJPs in exact
    reverse topological order; at the join of ``chunked`` (a fork), each
    chunk's subgraph is walked on a thread of its own. The walk returns
    the leaf gradients, and ``.grad`` is written once, after it, in the
    order the walk reached them, chunk sums in chunk order.

    The backward consumes the graph: each op node's VJP is swapped for
    ``_spent`` once it has run, and the walk drops its own references
    before the next VJP runs, so a saved array dies as soon as its one
    reader is done. Leaf nodes stay as they are. A backward that raises
    (a spent node, ``UsageError``, or a non-finite gradient,
    ``NonFiniteError``) leaves every ``.grad`` as it was; the VJPs it
    ran before it raised are spent."""
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss does not require gradients; nothing to differentiate")
    for node, g in _walk((_node_of(loss), np.ones_like(loss.data))):
        leaf = node.leaf
        leaf.grad = g if leaf.grad is None else leaf.grad + g


def finite_difference_gradient(f, params: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``params``.

    The verification oracle: (f(p + eps*e_i) - f(p - eps*e_i)) / (2 eps)
    per coordinate, never touching the reverse-mode path.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def evaluate(arr):
        out = f(Tensor(arr, requires_grad=False))
        return float(out.data) if isinstance(out, Tensor) else float(out)

    base = np.array(params.data, copy=True)
    flat = base.ravel()
    grad = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = evaluate(base)
        flat[i] = orig - eps
        lo = evaluate(base)
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return Tensor(grad.reshape(params.shape).astype(params.data.dtype))
