"""Layer set shared by all model families.

Modules hold named parameter tensors and collect them recursively. Each
multi-head attention block also reports the number of query-key score pairs
it computes (batch * heads * S^2 per call) through an AttentionCounter,
which is the measurable proxy used for complexity accounting.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .tensor import Tensor


class AttentionCounter:
    """Accumulates query-key score pairs computed across forward passes."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)

    def reset(self) -> None:
        self.count = 0


class Module:
    def _walk(self, prefix: str):
        """(name, parameter) pairs in attribute order."""
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield key, value
            elif isinstance(value, Module):
                yield from value._walk(f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._walk(f"{key}.{i}.")

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return dict(self._walk(prefix))

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(state)
        if missing:
            raise ShapeError(f"state is missing parameters: {sorted(missing)[:5]} ...")
        unknown = set(state) - set(params)
        if unknown:
            raise ShapeError(f"state has tensors the model lacks: {sorted(unknown)[:5]} ...")
        for name, tensor in params.items():
            arr = np.asarray(state[name], dtype=tensor.data.dtype)
            if arr.shape != tensor.data.shape:
                raise ShapeError(f"parameter {name!r}: shape {arr.shape} != {tensor.data.shape}")
            tensor.data = arr.copy()

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters().items()}


def _init(rng: np.random.Generator, shape, scale: float) -> Tensor:
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.weight = _init(rng, (n_in, n_out), 1.0 / np.sqrt(n_in))
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class Embedding(Module):
    def __init__(self, n_tokens: int, dim: int, rng: np.random.Generator):
        self.table = _init(rng, (n_tokens, dim), 0.02)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.embedding(self.table, ids)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-8):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.eps)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with residual add and layer norm."""

    def __init__(self, hidden: int, heads: int, rng: np.random.Generator):
        if hidden % heads != 0:
            raise ShapeError(f"hidden size {hidden} not divisible by {heads} heads")
        self.hidden = hidden
        self.heads = heads
        self.wq = Linear(hidden, hidden, rng)
        self.wk = Linear(hidden, hidden, rng)
        self.wv = Linear(hidden, hidden, rng)
        self.wo = Linear(hidden, hidden, rng)
        self.norm = LayerNorm(hidden)

    def __call__(
        self,
        x: Tensor,
        counter: AttentionCounter | None = None,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        if x.ndim != 3 or x.shape[-1] != self.hidden:
            raise ShapeError(f"expected [batch, S, {self.hidden}], got {x.shape}")
        if counter is not None:
            counter.add(x.shape[0] * self.heads * x.shape[1] ** 2)
        out = self.wo(T.attention(self.wq(x), self.wk(x), self.wv(x), self.heads))
        out = T.dropout(out, dropout, rng)
        return self.norm(x + out)


class FeedForward(Module):
    """Position-wise two-layer MLP with residual add and layer norm."""

    def __init__(self, hidden: int, rng: np.random.Generator, mult: int = 4):
        self.lin1 = Linear(hidden, mult * hidden, rng)
        self.lin2 = Linear(mult * hidden, hidden, rng)
        self.norm = LayerNorm(hidden)

    def __call__(
        self, x: Tensor, dropout: float = 0.0, rng: np.random.Generator | None = None
    ) -> Tensor:
        out = self.lin2(T.gelu(self.lin1(x)))
        out = T.dropout(out, dropout, rng)
        return self.norm(x + out)


class EncoderLayer(Module):
    def __init__(self, hidden: int, heads: int, rng: np.random.Generator):
        self.attn = MultiHeadSelfAttention(hidden, heads, rng)
        self.ffn = FeedForward(hidden, rng)

    def __call__(self, x, counter=None, dropout=0.0, rng=None):
        return self.ffn(self.attn(x, counter, dropout, rng), dropout, rng)


class Encoder(Module):
    """A stack of identical encoder layers over one sequence axis."""

    def __init__(self, hidden: int, heads: int, layers: int, rng: np.random.Generator):
        self.layers = [EncoderLayer(hidden, heads, rng) for _ in range(layers)]

    def __call__(self, x, counter=None, dropout=0.0, rng=None):
        for layer in self.layers:
            x = layer(x, counter, dropout, rng)
        return x


class TaskHead(Module):
    """Two-layer projection from a pooled representation to task outputs."""

    def __init__(self, hidden: int, n_out: int, rng: np.random.Generator):
        self.lin1 = Linear(hidden, hidden, rng)
        self.lin2 = Linear(hidden, n_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(T.gelu(self.lin1(x)))
