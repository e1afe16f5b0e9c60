import numpy as np
import pytest

from tabseq.errors import ConfigError
from tabseq.schema import Dataset, FieldKind
from tabseq.synthgen import (
    LAG,
    GenConfig,
    cross_term,
    generate_fraud_dataset,
    generate_regression_dataset,
    noiseless_target,
    temporal_term,
)

SMALL = GenConfig(entities=40, rows_per_entity=30, numerical_fields=4,
                  categorical_cardinalities=(3, 4), fraud_rate=0.08, seed=5)


def label_column(d):
    col = d.schema.index_of("label")
    return np.array([r.values[col] for r in d.records])


def numeric_matrix(d, entity):
    cols = [d.schema.index_of(f"num_{i}") for i in range(4)]
    rows = [r for r in d.records if r.entity == entity]
    return np.array([[r.values[c] for c in cols] for r in rows])


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GenConfig(entities=0)
        with pytest.raises(ConfigError):
            GenConfig(fraud_rate=0.0)
        with pytest.raises(ConfigError):
            GenConfig(temporal_signal_strength=1.5)
        with pytest.raises(ConfigError):
            GenConfig(noise_scale=-0.1)

    def test_json_round_trip(self):
        assert GenConfig.from_json(SMALL.to_json()) == SMALL

    def test_unknown_key_rejected(self):
        doc = SMALL.to_json()
        doc["bogus"] = 1
        with pytest.raises(ConfigError):
            GenConfig.from_json(doc)


class TestFraudGenerator:
    def test_deterministic(self):
        a = generate_fraud_dataset(SMALL)
        b = generate_fraud_dataset(SMALL)
        assert a.records == b.records

    def test_seed_changes_output(self):
        a = generate_fraud_dataset(SMALL)
        b = generate_fraud_dataset(GenConfig(**{**SMALL.to_json(), "seed": 6}))
        assert a.records != b.records

    def test_passes_dataset_validation(self):
        d = generate_fraud_dataset(SMALL)
        # reconstructing through the Dataset invariants re-runs all checks
        assert Dataset(d.schema, d.records).records == d.records
        assert len(d) == SMALL.entities * SMALL.rows_per_entity

    def test_schema_shape(self):
        d = generate_fraud_dataset(SMALL)
        kinds = {f.name: f.kind for f in d.schema.fields}
        assert kinds["label"] is FieldKind.NUMERICAL
        assert d.schema.n_features == 4 + 2  # num fields + cat fields

    def test_realized_rate_near_target(self):
        cfg = GenConfig(entities=400, rows_per_entity=50, fraud_rate=0.05, seed=1)
        rate = label_column(generate_fraud_dataset(cfg)).mean()
        assert abs(rate - 0.05) / 0.05 < 0.2

    def test_low_rate_regime(self):
        cfg = GenConfig(entities=600, rows_per_entity=60, fraud_rate=0.00125, seed=2)
        rate = label_column(generate_fraud_dataset(cfg)).mean()
        assert 0.0005 < rate < 0.0025

    def test_no_signal_labels_independent(self):
        cfg = GenConfig(entities=300, rows_per_entity=40, numerical_fields=4,
                        categorical_cardinalities=(3,), fraud_rate=0.1,
                        temporal_signal_strength=0.0,
                        cross_feature_signal_strength=0.0, seed=3)
        d = generate_fraud_dataset(cfg)
        y = label_column(d)
        col = d.schema.index_of("num_0")
        x = np.array([r.values[col] for r in d.records])
        # correlation between any feature and the label is pure noise
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(len(y))
        assert abs(y.mean() - 0.1) < 0.02

    def test_temporal_term_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 4))
        t = temporal_term(x)
        assert t[:LAG].tolist() == [0.0] * LAG
        for i in range(LAG, 12):
            assert t[i] == pytest.approx(x[i - LAG:i, 0].mean() * x[i, 0])

    def test_cross_term_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        assert cross_term(x) == pytest.approx(x[:, 1] * x[:, 2])
        assert cross_term(x[:, :2]).tolist() == [0.0] * 5

    def test_signal_raises_label_rate_in_high_signal_rows(self):
        cfg = GenConfig(entities=300, rows_per_entity=40, fraud_rate=0.05,
                        temporal_signal_strength=1.0,
                        cross_feature_signal_strength=0.0, seed=7)
        d = generate_fraud_dataset(cfg)
        y = label_column(d).reshape(cfg.entities, cfg.rows_per_entity)
        z = np.array([temporal_term(numeric_matrix_all(d, cfg)[e])
                      for e in range(cfg.entities)])
        top = z > np.quantile(z, 0.9)
        assert y[top].mean() > 3 * y[~top].mean()


def numeric_matrix_all(d, cfg):
    cols = [d.schema.index_of(f"num_{i}") for i in range(cfg.numerical_fields)]
    by_entity = {}
    for r in d.records:
        by_entity.setdefault(r.entity, []).append(r)
    return [np.array([[r.values[c] for c in cols] for r in recs])
            for _, recs in sorted(by_entity.items())]


class TestRegressionGenerator:
    def test_deterministic(self):
        cfg = GenConfig(**{**SMALL.to_json(), "noise_scale": 0.1})
        assert generate_regression_dataset(cfg).records == \
            generate_regression_dataset(cfg).records

    def test_noiseless_matches_generating_function(self):
        cfg = GenConfig(entities=10, rows_per_entity=20, numerical_fields=4,
                        categorical_cardinalities=(3,), noise_scale=0.0, seed=9)
        d = generate_regression_dataset(cfg)
        col = d.schema.index_of("label")
        mats = numeric_matrix_all(d, cfg)
        targets = np.array([r.values[col] for r in d.records]).reshape(10, 20)
        for e in range(10):
            assert np.max(np.abs(targets[e] - noiseless_target(mats[e]))) < 1e-12

    def test_noise_scale_quadruples_residual_variance(self):
        base = dict(entities=300, rows_per_entity=40, numerical_fields=4,
                    categorical_cardinalities=(3,), seed=4)
        var = {}
        for scale in (0.2, 0.4):
            cfg = GenConfig(noise_scale=scale, **base)
            d = generate_regression_dataset(cfg)
            col = d.schema.index_of("label")
            mats = numeric_matrix_all(d, cfg)
            targets = np.array([r.values[col] for r in d.records])
            clean = np.concatenate([noiseless_target(m) for m in mats])
            var[scale] = np.var(targets - clean)
        assert var[0.4] / var[0.2] == pytest.approx(4.0, rel=0.1)
