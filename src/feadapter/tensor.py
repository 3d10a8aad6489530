"""Small dense-tensor engine with reverse-mode differentiation.

Arrays are numpy float32 by default; float64 is used for verification
work (gradient checks are unreliable at 32 bit). Every operation checks
its output for NaN/Inf and raises instead of propagating garbage.

Ops are pure functions over immutable inputs. The implicit compute
graph (parent links plus a vector-Jacobian closure per node) is
single-owner: build it, call ``backward`` once, drop it.

Nothing is computed for a gradient nobody reads:

- Inside ``with no_grad():`` ops record no graph at all: outputs have
  no parents and ``requires_grad=False``, so a forward-only pass keeps
  no saved activations, and ``depthwise_conv3d`` skips the
  rate-derivative matrices. Values are bitwise those of grad mode, and
  the finite checks still run. ``train()`` uses it to encode its one
  cache, the tokens entering the first block that holds a trainable
  tensor (the frozen prefix), and every eval runs under it.
- A multi-operand VJP returns ``None`` for every operand with
  ``requires_grad=False`` instead of computing its gradient, so a
  frozen weight costs no backward work.

``depthwise_conv3d`` takes batched input only, (batch, channels, T, H,
W), with its dilation rates as a float triple or a (batch, 3) tensor.
Its trilinear sampling factors into one closed-form matrix per (clip,
axis, kernel tap). The forward resamples the T taps and then the H
taps as batched GEMMs, then folds the kernel into the W axis, one
W x W matrix per (clip, t-tap, h-tap, channel). The largest
intermediate is therefore kT*kH times the input; the kT*kH*kW-fold
tensor of resampled copies is never built.
"""

from __future__ import annotations

import contextlib
import math
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


def _guard_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: produced non-finite values")


class Tensor:
    """Dense n-dimensional float array with optional gradient tracking.

    Graph nodes carry their parents, the op kind that produced them,
    and a vector-Jacobian closure over the saved activations."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        _guard_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None
        self._op: str | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return self._vjp is None

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return sum_axis(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False) -> "Tensor":
        return mean_axis(self, axis, keepdims)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    def __neg__(self):
        return neg(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _result(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    _guard_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
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

    def vjp(g):
        return (_reduce_to_shape(g, a.shape) if a.requires_grad else None,
                _reduce_to_shape(g, b.shape) if b.requires_grad else None)

    return _result(data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = (_as_tensor(a, b if isinstance(b, Tensor) else None),
            _as_tensor(b, a if isinstance(a, Tensor) else None))
    data = a.data - b.data

    def vjp(g):
        return (_reduce_to_shape(g, a.shape) if a.requires_grad else None,
                _reduce_to_shape(-g, b.shape) if b.requires_grad else None)

    return _result(data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = (_as_tensor(a, b if isinstance(b, Tensor) else None),
            _as_tensor(b, a if isinstance(a, Tensor) else None))
    data = a.data * b.data

    def vjp(g):
        return (_reduce_to_shape(g * b.data, a.shape) if a.requires_grad else None,
                _reduce_to_shape(g * a.data, b.shape) if b.requires_grad else None)

    return _result(data, (a, b), vjp, "mul")


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _result(-a.data, (a,), lambda g: (-g,), "neg")


def matmul(a, b) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading axes.

    Gradients follow dA = dC @ B^T and dB = A^T @ dC.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents disagree for shapes {a.shape} and {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to_shape(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.requires_grad:
            gb = _reduce_to_shape(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _result(data, (a, b), vjp, "matmul")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)
    return _result(data, (a,), lambda g: (g.reshape(a.shape),), "reshape")


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.transpose(a.data, axes)
    return _result(data, (a,), lambda g: (np.transpose(g, inv),), "transpose")


def moveaxis(a, src: int, dst: int) -> Tensor:
    a = _as_tensor(a)
    perm = list(range(a.data.ndim))
    perm.insert(dst % a.data.ndim, perm.pop(src % a.data.ndim))
    return transpose(a, perm)


def getitem(a, key) -> Tensor:
    a = _as_tensor(a)
    data = a.data[key]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=a.data.dtype)

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        return (buf,)

    return _result(np.array(data, copy=True), (a,), vjp, "getitem")


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise UsageError("concat of an empty sequence")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(part if t.requires_grad else None
                     for t, part in zip(ts, np.split(g, splits, axis=axis)))

    return _result(data, tuple(ts), vjp, "concat")


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = np.broadcast_to(a.data, shape).copy()
    return _result(data, (a,), lambda g: (_reduce_to_shape(g, a.shape),), "broadcast_to")


def _normalize_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_axis(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axis(axis, a.data.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(np.asarray(data), (a,), vjp, "sum")


def mean_axis(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _normalize_axis(axis, a.data.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    if count == 0:
        raise UsageError("mean over an empty axis")
    data = a.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.shape).copy().astype(a.data.dtype, copy=False),)

    return _result(np.asarray(data), (a,), vjp, "mean")


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def softmax_lastdim(x) -> Tensor:
    """Row-wise softmax over the last axis, computed with max subtraction."""
    x = _as_tensor(x)
    if x.data.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _result(y, (x,), vjp, "softmax")


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma.data + beta.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dx = dgamma = dbeta = None
        if gamma.requires_grad:
            dgamma = (g * xhat).sum(axis=lead)
        if beta.requires_grad:
            dbeta = g.sum(axis=lead)
        if x.requires_grad:
            dxhat = g * gamma.data
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return _result(y, (x, gamma, beta), vjp, "layer_norm")


def gelu(x) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form, not tanh)."""
    x = _as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (cdf + x.data * pdf),)

    return _result(x.data * cdf, (x,), vjp, "gelu")


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0)
    return _result(data, (x,), lambda g: (g * (x.data > 0),), "relu")


def softplus(x) -> Tensor:
    x = _as_tensor(x)
    data = np.logaddexp(0.0, x.data).astype(x.data.dtype, copy=False)
    return _result(data, (x,), lambda g: (g * expit(x.data),), "softplus")


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
    loss = -logp[np.arange(n), labels].mean()

    def vjp(g):
        d = np.exp(logp)
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return _result(np.asarray(loss, dtype=logits.data.dtype), (logits,), vjp, "cross_entropy")


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
    intermediate is kT*kH times the input. The backward runs these
    stages' adjoints in reverse order; each rate's gradient dots the
    output gradient of its stage with the stage rerun through dM/dd.
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
    if not need_rate_grad:
        u = None  # only the rate derivative reads it

    def vjp(g):
        g = g.reshape(batch, 1, 1, channels, t_n * h_n, w_n)
        dx = dk = dd = None
        if kernel.requires_grad or need_rate_grad:
            dfold_t = (np.swapaxes(g, -1, -2) @ v).reshape(batch, -1, w_n * w_n)
            if kernel.requires_grad:
                dk = (dfold_t @ mw.reshape(batch, kw, -1).transpose(0, 2, 1)).sum(axis=0)
                dk = dk.reshape(kt, kh, channels, kw).transpose(2, 0, 1, 3)
        if x.requires_grad or need_rate_grad:
            dv = (g @ _swap(fold)).reshape(batch, kt, kh, channels, t_n, h_n, w_n)
            du = (_swap(mh)[:, None, :, None, None] @ dv).sum(axis=2)
            du = du.reshape(batch, kt, channels, t_n, h_n * w_n)
            if x.requires_grad:
                dx = (_swap(mt)[:, :, None] @ du).sum(axis=1).reshape(x.shape)
        if need_rate_grad:
            dd = np.stack([_clip_dot(du, dmt[:, :, None] @ xs),
                           _clip_dot(dv, dmh[:, None, :, None, None] @ u),
                           _clip_dot(dfold_t, kflat @ dmw.reshape(batch, kw, -1))], axis=1)
            dd = dd.astype(dil_tensor.data.dtype)
        return (dx, dk) if dil_tensor is None else (dx, dk, dd)

    parents = (x, kernel) if dil_tensor is None else (x, kernel, dil_tensor)
    return _result(data, parents, vjp, "depthwise_conv3d")


# ---------------------------------------------------------------------------
# reverse-mode traversal
# ---------------------------------------------------------------------------

def trace_graph(root: Tensor) -> list[Tensor]:
    """Nodes reachable from root through gradient-tracked edges, in
    topological order (parents before consumers)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every gradient-tracked
    leaf reachable from it. Traverses exact reverse topological order."""
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss does not require gradients; nothing to differentiate")
    order = trace_graph(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            _guard_finite(pg, "backward")
            if pg.shape != parent.data.shape:
                pg = pg.reshape(parent.data.shape)
            held = grads.get(id(parent))
            grads[id(parent)] = pg if held is None else held + pg


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
