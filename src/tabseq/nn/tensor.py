"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation records its parents and a backward closure on a tape;
``Tensor.backward`` walks the tape in reverse topological order and
accumulates gradients. Inside ``no_grad()`` nothing is recorded, so a
forward pass keeps no intermediate alive once the next operation has
consumed it. Gradients through broadcasting are sum-reduced back
to the parent shape. Every tensor holds 64-bit floats, which the gradient
checks need.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from ..errors import RangeError, ShapeError

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
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = pg if key not in grads else grads[key] + pg

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
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)


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


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    out = a.data**exponent
    return Tensor(
        out,
        _parents=(a,),
        _backward_fn=lambda g: (g * exponent * a.data ** (exponent - 1.0),),
    )


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU; smooth everywhere, so finite differences behave."""
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))

    def backward(g):  # the pdf is only needed here, so inference never computes it
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        return (g * (cdf + a.data * pdf),)

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


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)
    return Tensor(
        a.data.transpose(axes),
        _parents=(a,),
        _backward_fn=lambda g: (g.transpose(inverse),),
    )


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, _parents=(a,), _backward_fn=backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; backward scatter-adds."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise RangeError("embedding id out of table range")

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return Tensor(table.data[ids], _parents=(table,), _backward_fn=backward)


def take(a, idx) -> Tensor:
    """Advanced-index selection; backward scatter-adds into the source."""
    a = as_tensor(a)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor(a.data[idx], _parents=(a,), _backward_fn=backward)


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a seeded Bernoulli mask; call only in training."""
    if not 0.0 <= p < 1.0:
        raise RangeError("dropout probability must lie in [0, 1)")
    if p == 0.0:
        return as_tensor(a)
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
