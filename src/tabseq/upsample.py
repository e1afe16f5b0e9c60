"""Minority-class oversampling over flattened window features.

SMOTE interpolates between a minority window and one of its k nearest
neighbors in flattened feature space, so experiments reject it on token grids
(ids cannot be interpolated); ``duplicate_upsample`` repeats any input's windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TooFewSamples

UPSAMPLE_METHODS = ("none", "smote", "duplicate")
KNN_BLOCK_CELLS = 2**20  # float64 differences k_nearest_neighbors holds at once


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("neighbor count k must be >= 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ConfigError("target_ratio must lie in (0, 1]")


def k_nearest_neighbors(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices [n, k] of each row's k nearest other rows (Euclidean), ties in row
    order; distances are taken a block of rows at a time, not n² at once, the
    block's [rows, n, F] differences holding KNN_BLOCK_CELLS values or one row's."""
    out = np.empty((len(flat), min(k, len(flat))), dtype=np.intp)
    rows = max(1, KNN_BLOCK_CELLS // max(1, flat.size))
    for start in range(0, len(flat), rows):
        block = flat[start:start + rows]
        d2 = np.sum((block[:, None, :] - flat[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2[:, start:], np.inf)  # each row's distance to itself
        out[start:start + len(block)] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def smote_upsample(minority: np.ndarray, majority_count: int, cfg: SmoteConfig) -> np.ndarray:
    """Synthesize minority windows until minority/majority hits target_ratio.

    ``minority`` stacks the minority windows along its first axis. Each
    synthetic sample is x + u * (x_nn - x) with u uniform in [0, 1], x a
    seeded-random minority window and x_nn one of its k nearest neighbors.
    Returns only the synthetic windows, stacked the same way.
    """
    if len(minority) <= cfg.k:
        raise TooFewSamples(
            f"SMOTE needs more than k={cfg.k} minority samples, got {len(minority)}"
        )
    wanted = int(round(cfg.target_ratio * majority_count)) - len(minority)
    if wanted <= 0:
        return np.empty((0,) + minority.shape[1:])
    flat = minority.reshape(len(minority), -1)
    neighbors = k_nearest_neighbors(flat, cfg.k)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    base = rng.integers(0, len(minority), size=wanted)
    pick = rng.integers(0, cfg.k, size=wanted)
    u = rng.random(wanted)
    x = flat[base]
    x_nn = flat[neighbors[base, pick]]
    return (x + u[:, None] * (x_nn - x)).reshape((wanted,) + minority.shape[1:])


def duplicate_upsample(minority: list, majority_count: int, target_ratio: float, seed: int) -> list:
    """Token-path counterpart of SMOTE: repeat seeded-random minority windows."""
    if not 0.0 < target_ratio <= 1.0:
        raise ConfigError("target_ratio must lie in (0, 1]")
    if not minority:
        raise TooFewSamples("no minority windows to duplicate")
    wanted = int(round(target_ratio * majority_count)) - len(minority)
    if wanted <= 0:
        return []
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return [minority[i] for i in rng.integers(0, len(minority), size=wanted)]
