"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation records its parents and a backward closure on a tape;
``Tensor.backward`` walks the tape in reverse topological order,
accumulates gradients and frees each node as it goes, so a tape can be
walked once. Inside ``no_grad()`` nothing is recorded, so a
forward pass keeps no intermediate alive once the next operation has
consumed it. Gradients through broadcasting are sum-reduced back
to the parent shape. Linear, layer norm and the attention core are each one
node with a hand-written backward. Every tensor holds 64-bit floats, which
the gradient checks need.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager

import numpy as np

from ..errors import RangeError, ShapeError


def _load_erf():
    """scipy's ``erf`` ufunc, loaded without running ``scipy.special``'s
    ``__init__``. That package import copies numpy's namespace (``numpy.f2py``,
    ``numpy.testing`` and more) and loads a second OpenBLAS, all for one
    ufunc. So the extension module that defines ``erf`` is loaded alone,
    under its package name: a later ``import scipy.special`` finds it in
    ``sys.modules``, and both bind the same ufunc. Builds without that
    extension take the package import."""
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy, does not import it
    if module is None and scipy_spec is not None:
        paths = (os.path.join(directory, "special", "_special_ufuncs" + suffix)
                 for directory in scipy_spec.submodule_search_locations or ()
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is not None:
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            sys.modules[name] = module
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


erf = _load_erf()

# glibc's mallopt parameters, and the values this module sets at import.
# Backward frees a step's tape, so every step ends with free memory at the top
# of the heap. glibc's default policy trims that back to the OS (and maps large
# blocks afresh until a free raises its mmap threshold), so the next step's
# forward faults the same pages in again: one MLM epoch at benchmark shapes
# took 539k minor faults, against 3k with these values. Blocks up to 32 MiB
# (glibc's cap on the threshold) come from the heap, and up to 128 MiB free at
# its top is kept.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


def _keep_freed_heap() -> None:
    """Set both thresholds through ``mallopt``; a no-op where the C library
    has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_heap()

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Record no tape inside the block: results have no parents and no
    backward closure. The previous mode is restored on exit, exceptions
    included."""
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if not _GRAD_ENABLED:
            _parents, _backward_fn = (), None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None) -> None:
        """Accumulate the gradient of this tensor into every leaf that requires
        one. Each node drops its parents and closure once its closure has run,
        so every forward array is freed after the last backward that reads it;
        a second ``backward`` through a freed node raises ``RangeError``."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)

        # reverse topological order of the recorded tape
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): grad}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            fn, parents = node._backward_fn, node._parents
            if fn is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            node._parents, node._backward_fn = (), _freed
            for parent, pg in zip(parents, fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg
            del fn, parents  # drop this closure before the next node's runs

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return mul(self, 1.0 / other)


def _freed(g):
    raise RangeError("backward() through a tape that an earlier backward() freed")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a gradient back to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        _parents=(a, b),
        _backward_fn=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        _parents=(a, b),
        _backward_fn=lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor(np.matmul(a.data, b.data), _parents=(a, b), _backward_fn=backward)


# Most multiply-adds in one weight-gradient GEMM. OpenBLAS runs a product this
# small on the calling thread. One GEMM over all rows wakes its thread pool: on
# two cores the field encoder's [3840, 16]ᵀ @ [3840, 64] then ran ten times
# slower than on one thread, and the worker spun between calls, so training
# time swung with whatever else ran on the machine.
_GEMM_MAX_MNK = 1 << 18


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x.T @ g`` for [R, n_in] and [R, n_out] rows, accumulated over blocks of
    rows that each stay within ``_GEMM_MAX_MNK``."""
    step = max(1, _GEMM_MAX_MNK // (x.shape[1] * g.shape[1]))
    gw = x[:step].T @ g[:step]
    for start in range(step, len(x), step):
        gw += x[start:start + step].T @ g[start:start + step]
    return gw


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for ``x`` of shape [..., n_in] as one node. The forward is
    numpy's batched matmul; the weight gradient flattens every leading axis into
    rows, and the input gradient is skipped when ``x`` needs none."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def backward(g):
        n_in, n_out = w.shape
        rows = g.reshape(-1, n_out)
        gx = np.matmul(g, w.data.T) if x.requires_grad else None
        return gx, _weight_grad(x.data.reshape(-1, n_in), rows), rows.sum(axis=0)

    out = np.matmul(x.data, w.data)
    out += b.data
    return Tensor(out, _parents=(x, w, b), _backward_fn=backward)


def layer_norm(x, gain, bias, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias``; one node with an analytic backward."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    xhat = x.data - mu
    inv = ((xhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n) + eps) ** -0.5
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        gxhat = g * gain.data
        gx = gxhat - gxhat.sum(axis=-1, keepdims=True) * (1.0 / n)
        gx -= xhat * ((gxhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n))
        gx *= inv
        return gx, (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)

    return Tensor(out, _parents=(x, gain, bias), _backward_fn=backward)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over [batch, S, H] inputs as one
    node: split into heads, softmax(q kᵀ / √dh) v, and merge back to [batch, S, H]."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    batch, s, h = q.shape
    dh = h // heads
    scale = 1.0 / np.sqrt(dh)

    def split(t):  # [B, S, H] -> [B, heads, S, dh]
        return t.reshape(batch, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(t):  # [B, heads, S, dh] -> [B, S, H]
        return t.transpose(0, 2, 1, 3).reshape(batch, s, h)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    scores *= scale
    attn = _softmax(scores, -1)

    def backward(g):
        gctx = split(g)
        gscores = _softmax_grad(attn, np.matmul(gctx, vh.transpose(0, 1, 3, 2)), -1)
        gscores *= scale
        return (merge(np.matmul(gscores, kh)),
                merge(np.matmul(gscores.transpose(0, 1, 3, 2), qh)),
                merge(np.matmul(attn.transpose(0, 1, 3, 2), gctx)))

    return Tensor(merge(np.matmul(attn, vh)), _parents=(q, k, v), _backward_fn=backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU; smooth everywhere, so finite differences behave."""
    a = as_tensor(a)
    cdf = a.data * _INV_SQRT2  # 0.5 * (1 + erf(a / √2)), built in this one buffer
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward(g):  # g * (cdf + a * pdf), built in one buffer; inference never needs the pdf
        t = a.data * -0.5
        t *= a.data
        np.exp(t, out=t)
        t *= _INV_SQRT_2PI
        t *= a.data
        t += cdf
        t *= g
        return (t,)

    return Tensor(a.data * cdf, _parents=(a,), _backward_fn=backward)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out, _parents=(a,), _backward_fn=backward)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        n = a.shape[axis] if isinstance(axis, int) else int(np.prod([a.shape[i] for i in axis]))
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return Tensor(
        a.data.reshape(shape),
        _parents=(a,),
        _backward_fn=lambda g: (g.reshape(a.shape),),
    )


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    out = _softmax(a.data, axis)
    return Tensor(out, _parents=(a,), _backward_fn=lambda g: (_softmax_grad(out, g, axis),))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table: ``take`` after a range check."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise RangeError("embedding id out of table range")
    return take(table, (ids,))


def take(a, idx: tuple) -> Tensor:
    """Select ``a[idx]`` for a tuple of non-negative integer arrays indexing the
    leading axes of ``a``. Backward scatter-adds into the flattened source with
    one ``np.add.at`` over 1-D indices and values, which takes numpy's fast
    path where a tuple index does not; it adds repeated indices one at a time
    in index order."""
    a = as_tensor(a)

    def backward(g):
        lead = a.shape[:len(idx)]
        width = int(np.prod(a.shape[len(idx):]))
        flat = np.ravel_multi_index(idx, lead)[..., None] * width + np.arange(width)
        grad = np.zeros(a.data.size)
        np.add.at(grad, flat.reshape(-1), g.reshape(-1))
        return (grad.reshape(a.shape),)

    return Tensor(a.data[idx], _parents=(a,), _backward_fn=backward)


def dropout(a, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout with a seeded Bernoulli mask; call only in training.
    At ``p = 0`` it returns its input and needs no ``rng``."""
    if not 0.0 <= p < 1.0:
        raise RangeError("dropout probability must lie in [0, 1)")
    if p == 0.0:
        return as_tensor(a)
    if rng is None:
        raise RangeError(f"dropout {p} needs a random generator")
    a = as_tensor(a)
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return Tensor(a.data * mask, _parents=(a,), _backward_fn=lambda g: (g * mask,))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy over the batch, via stable log-sum-exp."""
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [batch, classes], got {logits.shape}")
    n, c = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets must have shape ({n},), got {targets.shape}")
    if not np.issubdtype(targets.dtype, np.integer):
        raise RangeError("class targets must be integers")
    if targets.min() < 0 or targets.max() >= c:
        raise RangeError("class index out of range")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(n), targets]
    loss = float(np.mean(lse - picked))

    def backward(g):
        probs = np.exp(shifted - lse[:, None])
        probs[np.arange(n), targets] -= 1.0
        return (g * probs / n,)

    return Tensor(loss, _parents=(logits,), _backward_fn=backward)


def mse(preds, targets) -> Tensor:
    """Mean squared error over all elements."""
    preds = as_tensor(preds)
    targets = as_tensor(targets)
    if preds.shape != targets.shape:
        raise ShapeError(f"shape mismatch: {preds.shape} vs {targets.shape}")
    diff = preds - targets
    return tmean(mul(diff, diff))
