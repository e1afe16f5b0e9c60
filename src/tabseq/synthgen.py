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
output is bit-reproducible. Rows are computed as [entity, row, field] arrays,
which become the dataset's columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .errors import ConfigError
from .schema import Column, Dataset, FieldKind, FieldSpec, Schema

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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _make_schema(cfg: GenConfig) -> Schema:
    fields = [FieldSpec("entity_id", FieldKind.CATEGORICAL),
              FieldSpec("time_idx", FieldKind.NUMERICAL), FieldSpec("label", FieldKind.NUMERICAL)]
    fields += [FieldSpec(f"num_{i}", FieldKind.NUMERICAL, nullable=True)
               for i in range(cfg.numerical_fields)]
    fields += [FieldSpec(f"cat_{i}", FieldKind.CATEGORICAL, nullable=True)
               for i in range(len(cfg.categorical_cardinalities))]
    return Schema(tuple(fields), entity_key="entity_id", time_key="time_idx", label_key="label")


def _draw_features(cfg: GenConfig) -> tuple[np.ndarray, np.ndarray]:
    """Numeric rows [E, T, F] and categorical ids [E, T, C]. Numerics are AR(1),
    x_t = phi*x_{t-1} + sqrt(1-phi^2)*eps_t, standard normal for any phi in [0, 1);
    an id repeats the previous one with probability phi, else is drawn uniformly,
    so its law stays uniform. Each entity draws from its own stream; the
    recursions then step all entities at once."""
    phi, entities, rows = cfg.serial_correlation, cfg.entities, cfg.rows_per_entity
    cards = cfg.categorical_cardinalities
    x = np.empty((entities, rows, cfg.numerical_fields))
    ids = np.empty((entities, rows, len(cards)), dtype=np.int64)
    stay = np.empty((entities, rows, len(cards)), dtype=bool)
    for e in range(entities):
        rng = _entity_rng(cfg.seed, e)
        x[e] = rng.standard_normal((rows, cfg.numerical_fields))
        for j, card in enumerate(cards):
            ids[e, :, j] = rng.integers(0, card, size=rows)
            if phi != 0.0:
                stay[e, :, j] = rng.random(rows) < phi
    if phi != 0.0:
        innovation = np.sqrt(1.0 - phi**2)
        for t in range(1, rows):  # x[:, t] holds eps_t until this step
            x[:, t] = phi * x[:, t - 1] + innovation * x[:, t]
            ids[:, t] = np.where(stay[:, t], ids[:, t - 1], ids[:, t])
    return x, ids


def _lag_means(x: np.ndarray, first: int) -> np.ndarray:
    """Mean of field 0 of rows [..., T, F] over the previous LAG rows (fewer at
    the start), from row ``first`` on; 0 before it."""
    out = np.zeros(x.shape[:-1])
    for i in range(first, x.shape[-2]):
        out[..., i] = x[..., max(0, i - LAG):i, 0].mean(axis=-1)
    return out


def temporal_term(x: np.ndarray) -> np.ndarray:
    """Rolling mean of field 0 over the previous LAG rows times its current
    value, for rows [..., T, F]; 0 in the first LAG rows."""
    t = _lag_means(x, LAG)
    t[..., LAG:] *= x[..., LAG:, 0]
    return t


def cross_term(x: np.ndarray) -> np.ndarray:
    """Same-row product of numeric fields 1 and 2 of rows [..., T, F] (0 if
    fewer than 3 fields)."""
    if x.shape[-1] < 3:
        return np.zeros(x.shape[:-1])
    return x[..., 1] * x[..., 2]


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


def _category_column(ids: np.ndarray) -> Column:
    """The column whose cell reads "c{id}": its categories are the observed
    names sorted as strings ("c10" before "c2"), as a Dataset sorts them."""
    present, inverse = np.unique(ids, return_inverse=True)
    names = np.array([f"c{k}" for k in present.tolist()])
    order = np.argsort(names)
    return Column(np.argsort(order)[inverse], tuple(names[order].tolist()))


def _dataset(cfg: GenConfig, x: np.ndarray, ids: np.ndarray, label: np.ndarray) -> Dataset:
    """The dataset of rows [E, T, ...]: entity e is named e{e}, zero-padded so
    that the names sort in entity order, and row t has time index t."""
    width = len(str(cfg.entities - 1))
    entities = tuple(f"e{e:0{width}d}" for e in range(cfg.entities))
    entity, time_index = np.indices(x.shape[:2], dtype=np.int64).reshape(2, -1)
    columns = [Column(entity, entities), Column(time_index.astype(np.float64)),
               Column(label.ravel())]
    columns += [Column(x[..., j].ravel()) for j in range(x.shape[-1])]
    columns += [_category_column(ids[..., j].ravel()) for j in range(ids.shape[-1])]
    return Dataset.from_columns(_make_schema(cfg), entities, entity, time_index, tuple(columns))


def generate_fraud_dataset(cfg: GenConfig) -> Dataset:
    """Binary-labeled rows from a logistic model over planted signals.

    The logit mixes the temporal and cross-feature terms with the configured
    strengths; the intercept is calibrated so the expected positive-row rate
    equals ``fraud_rate``. With both strengths zero the labels are i.i.d.
    Bernoulli(fraud_rate), independent of the features.
    """
    x, ids = _draw_features(cfg)
    z = (cfg.temporal_signal_strength * temporal_term(x)
         + cfg.cross_feature_signal_strength * cross_term(x)).ravel()
    std = z.std()
    if std > 0:
        z = (z - z.mean()) / std
    scale = 4.0  # logit steepness: sharp enough to plant learnable signal
    intercept = _calibrate_intercept(z, cfg.fraud_rate, scale)
    probs = 1.0 / (1.0 + np.exp(-(scale * z + intercept)))
    label_rng = _entity_rng(cfg.seed, cfg.entities)
    labels = (label_rng.random(len(z)) < probs).astype(np.float64)
    return _dataset(cfg, x, ids, labels)


def noiseless_target(x: np.ndarray) -> np.ndarray:
    """The documented regression generating function of rows [..., T, F]."""
    t = np.sin(_lag_means(x, 1)) + 0.5 * np.tanh(x[..., 0])
    if x.shape[-1] >= 3:
        t += 0.25 * x[..., 1] * x[..., 2]
    return t


def generate_regression_dataset(cfg: GenConfig) -> Dataset:
    """Real-valued per-row targets: noiseless_target plus seeded Gaussian noise."""
    x, ids = _draw_features(cfg)
    noise = _entity_rng(cfg.seed, cfg.entities).standard_normal(x.shape[:-1])
    return _dataset(cfg, x, ids, noiseless_target(x) + cfg.noise_scale * noise)
