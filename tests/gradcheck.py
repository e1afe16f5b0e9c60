"""Finite-difference verification of reverse-mode gradients: the reference the
gradient gates of the test suite compare against."""

from __future__ import annotations

import numpy as np

from tabseq.errors import RangeError, TabseqError
from tabseq.nn.tensor import Tensor


class NonFiniteError(TabseqError):
    """A function or gradient evaluated to NaN or infinity."""


def grad_check(
    f,
    params: list[Tensor],
    eps: float = 1e-5,
    max_coords: int = 24,
    rng: np.random.Generator | None = None,
    atol: float = 1e-7,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f()`` must evaluate a scalar loss Tensor from the current data of
    ``params``. For tensors larger than ``max_coords`` a random coordinate
    subset is checked. Relative error per coordinate is
    |a - b| / max(|a|, |b|, 1e-8); coordinates where |a - b| <= atol count
    as exact so that structurally zero gradients (for example a key bias
    under softmax) are not swamped by finite-difference noise.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise RangeError("finite-difference step must lie in [1e-7, 1e-3]")
    rng = rng or np.random.default_rng(0)

    for p in params:
        p.grad = None
    out = f()
    if not np.isfinite(out.data):
        raise NonFiniteError("function value is not finite")
    out.backward()

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(analytic)):
            raise NonFiniteError("reverse-mode gradient is not finite")
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = f().item()
            flat[c] = orig - eps
            lo = f().item()
            flat[c] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NonFiniteError("function value is not finite near the base point")
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic.reshape(-1)[c]
            gap = abs(a - numeric)
            err = 0.0 if gap <= atol else gap / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
