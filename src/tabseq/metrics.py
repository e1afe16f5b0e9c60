"""Evaluation measures: precision/recall/F1, weighted normalized Gini,
capture rate at a top fraction, their combined mean, and RMSE.

The rank metrics follow the weighted-Lorenz-curve formalization: negative
samples carry a configurable weight (default 20) to offset downsampling,
rows are ranked by score descending with ties broken by stable input
order, and the Gini is the curve's area statistic normalized by its value
under perfect ordering, so it lies in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, LengthMismatch, RangeError

DEFAULT_NEG_WEIGHT = 20.0
DEFAULT_CAPTURE_FRACTION = 0.04


@dataclass(frozen=True)
class BinaryConfusion:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion(preds, labels) -> BinaryConfusion:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise LengthMismatch(f"{preds.shape} vs {labels.shape}")
    p = preds.astype(bool)
    y = labels.astype(bool)
    return BinaryConfusion(
        tp=int(np.sum(p & y)),
        fp=int(np.sum(p & ~y)),
        tn=int(np.sum(~p & ~y)),
        fn=int(np.sum(~p & y)),
    )


def f1(preds, labels) -> tuple[float, float, float]:
    """(precision, recall, F1) on the positive class; 0/0 cases give 0."""
    c = confusion(preds, labels)
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    score = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, score


def _ranked(scores, labels, neg_weight):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LengthMismatch(f"{scores.shape} vs {labels.shape}")
    if neg_weight <= 0:
        raise RangeError("neg_weight must be positive")
    pos = labels.astype(bool)
    if pos.all() or not pos.any():
        raise DegenerateLabels("need at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")  # descending, ties in input order
    weights = np.where(pos, 1.0, neg_weight)
    return order, pos, weights


def _lorenz_area(pos_sorted, w_sorted) -> float:
    """Trapezoidal area under (cumulative weight, cumulative positive capture)."""
    total_w = w_sorted.sum()
    pos_mass = np.where(pos_sorted, w_sorted, 0.0)
    total_pos = pos_mass.sum()
    x = np.concatenate(([0.0], np.cumsum(w_sorted) / total_w))
    y = np.concatenate(([0.0], np.cumsum(pos_mass) / total_pos))
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5))


def weighted_gini(scores, labels, neg_weight: float = DEFAULT_NEG_WEIGHT) -> float:
    """Weighted normalized Gini in [-1, 1]; 1 for perfect ordering."""
    order, pos, weights = _ranked(scores, labels, neg_weight)
    actual = 2.0 * _lorenz_area(pos[order], weights[order]) - 1.0
    perfect_order = np.argsort(~pos, kind="stable")  # all positives first
    perfect = 2.0 * _lorenz_area(pos[perfect_order], weights[perfect_order]) - 1.0
    return actual / perfect


def capture_rate(
    scores,
    labels,
    neg_weight: float = DEFAULT_NEG_WEIGHT,
    fraction: float = DEFAULT_CAPTURE_FRACTION,
) -> float:
    """Fraction of positives inside the top-ranked prefix holding
    ``fraction`` of total sample weight (boundary row excluded rather than
    partially included)."""
    if not 0.0 < fraction <= 1.0:
        raise RangeError("fraction must lie in (0, 1]")
    order, pos, weights = _ranked(scores, labels, neg_weight)
    w_sorted = weights[order]
    pos_sorted = pos[order]
    threshold = fraction * w_sorted.sum()
    inside = np.cumsum(w_sorted) <= threshold
    return float(pos_sorted[inside].sum() / pos_sorted.sum())


def metric_m(g: float, d: float) -> float:
    """Mean of the two rank-ordering measures, 0.5 * (G + D)."""
    if not -1.0 <= g <= 1.0:
        raise RangeError(f"G must lie in [-1, 1], got {g}")
    if not 0.0 <= d <= 1.0:
        raise RangeError(f"D must lie in [0, 1], got {d}")
    return 0.5 * (g + d)


def rmse(preds, targets) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.size == 0:
        raise LengthMismatch(f"{preds.shape} vs {targets.shape}")
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


def tie_fraction(scores) -> float:
    """Fraction of samples sharing a score with another sample."""
    scores = np.asarray(scores)
    _, counts = np.unique(scores, return_counts=True)
    return float(counts[counts > 1].sum() / scores.size) if scores.size else 0.0


@dataclass(frozen=True)
class RankMetrics:
    gini: float
    capture_at_4: float
    metric_m: float
    neg_weight: float = DEFAULT_NEG_WEIGHT


def rank_metrics(scores, labels, neg_weight: float = DEFAULT_NEG_WEIGHT) -> RankMetrics:
    g = weighted_gini(scores, labels, neg_weight)
    d = capture_rate(scores, labels, neg_weight)
    return RankMetrics(g, d, metric_m(g, d), neg_weight)
