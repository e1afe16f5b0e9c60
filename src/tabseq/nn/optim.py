"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor


class Adam:
    """Adam over a fixed list of tensors; a parameter without a gradient
    takes a zero gradient."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.steps = 0
        self.m = [np.zeros_like(p.data) for p in params]  # first moments
        self.v = [np.zeros_like(p.data) for p in params]  # second moments

    def step(self) -> None:
        self.steps += 1
        bc1 = 1.0 - self.beta1**self.steps
        bc2 = 1.0 - self.beta2**self.steps
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if p.shape != g.shape:
                raise ShapeError(f"parameter {i}: gradient shape {g.shape} != {p.shape}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
