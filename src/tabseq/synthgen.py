"""Seeded generators for fraud-style classification and regression fixtures.

The planted structure is architecture-discriminating on purpose:

* the temporal term is a product between the current value of the first
  numeric field and its rolling mean over the previous LAG rows, so models
  that attend across time can capture it while row-independent or
  linear-in-time models cannot;
* the cross-feature term is a same-row product of two numeric fields, so
  models that attend across the attribute dimension can capture it;
* fields themselves are serially dependent when serial_correlation > 0
  (AR(1) numerics with standard normal marginals, sticky categoricals with
  uniform marginals), so a masked cell is partially predictable from its
  neighbors in time and representation pretraining has real structure to
  pick up.

All randomness flows through counter-based (Philox) streams derived from
the config seed, one stream per entity plus one for label assignment, so
output is bit-reproducible and generation is parallelizable per entity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .errors import ConfigError
from .schema import Dataset, FieldKind, FieldSpec, Record, Schema

LAG = 3


def _entity_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


@dataclass(frozen=True)
class GenConfig(JsonConfig):
    entities: int = 200
    rows_per_entity: int = 40
    numerical_fields: int = 8
    categorical_cardinalities: tuple[int, ...] = (4, 6, 3, 5)
    fraud_rate: float = 0.05
    temporal_signal_strength: float = 0.9
    cross_feature_signal_strength: float = 0.1
    noise_scale: float = 0.1
    serial_correlation: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.entities < 1 or self.rows_per_entity < 1:
            raise ConfigError("entity and row counts must be >= 1")
        if self.numerical_fields < 1:
            raise ConfigError("need at least one numerical field")
        if any(c < 1 for c in self.categorical_cardinalities):
            raise ConfigError("categorical cardinalities must be >= 1")
        if not 0.0 < self.fraud_rate < 1.0:
            raise ConfigError("fraud_rate must lie in (0, 1)")
        for s in (self.temporal_signal_strength, self.cross_feature_signal_strength):
            if not 0.0 <= s <= 1.0:
                raise ConfigError("signal strengths must lie in [0, 1]")
        if self.noise_scale < 0.0:
            raise ConfigError("noise_scale must be >= 0")
        if not 0.0 <= self.serial_correlation < 1.0:
            raise ConfigError("serial_correlation must lie in [0, 1)")


def _make_schema(cfg: GenConfig, label_kind: FieldKind) -> Schema:
    fields = [
        FieldSpec("entity_id", FieldKind.CATEGORICAL),
        FieldSpec("time_idx", FieldKind.NUMERICAL),
        FieldSpec("label", label_kind),
    ]
    fields += [FieldSpec(f"num_{i}", FieldKind.NUMERICAL, nullable=True)
               for i in range(cfg.numerical_fields)]
    fields += [FieldSpec(f"cat_{i}", FieldKind.CATEGORICAL, nullable=True)
               for i in range(len(cfg.categorical_cardinalities))]
    return Schema(tuple(fields), entity_key="entity_id", time_key="time_idx", label_key="label")


def _ar1(rng: np.random.Generator, rows: int, fields: int, phi: float) -> np.ndarray:
    """Stationary AR(1) columns: x_t = phi*x_{t-1} + sqrt(1-phi^2)*eps_t,
    so the marginal law stays standard normal for any phi in [0, 1)."""
    eps = rng.standard_normal((rows, fields))
    if phi == 0.0:
        return eps
    x = np.empty_like(eps)
    x[0] = eps[0]
    innovation = np.sqrt(1.0 - phi**2)
    for t in range(1, rows):
        x[t] = phi * x[t - 1] + innovation * eps[t]
    return x


def _sticky_categories(rng: np.random.Generator, rows: int, card: int,
                       phi: float) -> np.ndarray:
    """Markov chain with uniform stationary law: repeat the previous value
    with probability phi, otherwise resample uniformly."""
    fresh = rng.integers(0, card, size=rows)
    if phi == 0.0:
        return fresh
    stay = rng.random(rows) < phi
    out = fresh.copy()
    for t in range(1, rows):
        if stay[t]:
            out[t] = out[t - 1]
    return out


def _draw_features(cfg: GenConfig):
    """Per-entity numeric matrices [T, F] and categorical id matrices [T, C]."""
    phi = cfg.serial_correlation
    nums, cats = [], []
    for e in range(cfg.entities):
        rng = _entity_rng(cfg.seed, e)
        nums.append(_ar1(rng, cfg.rows_per_entity, cfg.numerical_fields, phi))
        cats.append(
            np.column_stack(
                [_sticky_categories(rng, cfg.rows_per_entity, card, phi)
                 for card in cfg.categorical_cardinalities]
            )
            if cfg.categorical_cardinalities
            else np.zeros((cfg.rows_per_entity, 0), dtype=np.int64)
        )
    return nums, cats


def temporal_term(x: np.ndarray) -> np.ndarray:
    """Rolling mean of field 0 over the previous LAG rows times its current value."""
    t = np.zeros(len(x))
    for i in range(LAG, len(x)):
        t[i] = x[i - LAG : i, 0].mean() * x[i, 0]
    return t


def cross_term(x: np.ndarray) -> np.ndarray:
    """Same-row product of numeric fields 1 and 2 (0 if fewer than 3 fields)."""
    if x.shape[1] < 3:
        return np.zeros(len(x))
    return x[:, 1] * x[:, 2]


def _calibrate_intercept(z: np.ndarray, rate: float, scale: float) -> float:
    """Bisect the logistic intercept so the mean positive probability is rate."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if np.mean(1.0 / (1.0 + np.exp(-(scale * z + mid)))) < rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _records(cfg: GenConfig, nums, cats, labels, label_fmt) -> list[Record]:
    records = []
    width = len(str(cfg.entities - 1))
    for e in range(cfg.entities):
        entity = f"e{e:0{width}d}"
        for i in range(cfg.rows_per_entity):
            values = (entity, float(i), label_fmt(labels[e][i]))
            values += tuple(float(v) for v in nums[e][i])
            values += tuple(f"c{int(k)}" for k in cats[e][i])
            records.append(Record(values, entity, i))
    records.sort(key=lambda r: (r.entity, r.time_index))
    return records


def generate_fraud_dataset(cfg: GenConfig) -> Dataset:
    """Binary-labeled rows from a logistic model over planted signals.

    The logit mixes the temporal and cross-feature terms with the configured
    strengths; the intercept is calibrated so the expected positive-row rate
    equals ``fraud_rate``. With both strengths zero the labels are i.i.d.
    Bernoulli(fraud_rate), independent of the features.
    """
    nums, cats = _draw_features(cfg)
    z = np.concatenate(
        [
            cfg.temporal_signal_strength * temporal_term(x)
            + cfg.cross_feature_signal_strength * cross_term(x)
            for x in nums
        ]
    )
    std = z.std()
    if std > 0:
        z = (z - z.mean()) / std
    scale = 4.0  # logit steepness: sharp enough to plant learnable signal
    intercept = _calibrate_intercept(z, cfg.fraud_rate, scale)
    probs = 1.0 / (1.0 + np.exp(-(scale * z + intercept)))
    label_rng = _entity_rng(cfg.seed, cfg.entities)
    flat = (label_rng.random(len(z)) < probs).astype(np.float64)
    labels = flat.reshape(cfg.entities, cfg.rows_per_entity)
    schema = _make_schema(cfg, FieldKind.NUMERICAL)
    return Dataset(schema, tuple(_records(cfg, nums, cats, labels, float)))


def noiseless_target(x: np.ndarray) -> np.ndarray:
    """The documented regression generating function for one entity's rows."""
    t = np.zeros(len(x))
    for i in range(len(x)):
        lag = x[max(0, i - LAG) : i, 0]
        rolling = lag.mean() if len(lag) else 0.0
        t[i] = np.sin(rolling) + 0.5 * np.tanh(x[i, 0])
        if x.shape[1] >= 3:
            t[i] += 0.25 * x[i, 1] * x[i, 2]
    return t


def generate_regression_dataset(cfg: GenConfig) -> Dataset:
    """Real-valued per-row targets: noiseless_target plus seeded Gaussian noise."""
    nums, cats = _draw_features(cfg)
    noise_rng = _entity_rng(cfg.seed, cfg.entities)
    targets = [
        noiseless_target(x) + cfg.noise_scale * noise_rng.standard_normal(len(x))
        for x in nums
    ]
    schema = _make_schema(cfg, FieldKind.NUMERICAL)
    return Dataset(schema, tuple(_records(cfg, nums, cats, targets, float)))
