"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor


class Adam:
    """Adam over tensors that become views of one flat buffer, which a step
    updates in one pass; a parameter without a gradient takes a zero gradient."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.steps = 0
        self.flat = np.concatenate([p.data.ravel() for p in params])
        ends = np.cumsum([p.data.size for p in params])
        for p, part in zip(params, np.split(self.flat, ends[:-1])):
            p.data = part.reshape(p.shape)
        self.m = np.zeros_like(self.flat)  # first moments
        self.v = np.zeros_like(self.flat)  # second moments

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is not None and p.shape != p.grad.shape:
                raise ShapeError(f"parameter {i}: gradient shape {p.grad.shape} != {p.shape}")
        g = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                            for p in self.params])
        self.steps += 1
        bc1 = 1.0 - self.beta1**self.steps
        bc2 = 1.0 - self.beta2**self.steps
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / bc1
        v_hat = self.v / bc2
        self.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
