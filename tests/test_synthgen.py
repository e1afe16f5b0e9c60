import hashlib

import numpy as np
import pytest

from tabseq.errors import ConfigError
from tabseq.schema import Dataset, FieldKind, save_csv
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


# SHA-256 of save_csv's output, recorded when the generator still built one
# Record per row (numpy 2.4, x86-64 with AVX-512: numpy's exp, sin and tanh
# kernels depend on the CPU, so another CPU may round a cell differently)
RECORDED_CSV = {
    ("fraud", "phi0-card12-one-numeric"):
        "82eecf3dd1ac0f0efe42fa0a139f1ce7d9d5a587365f5bb6fbf988b25ab7ecdc",
    ("regression", "phi0-card12-one-numeric"):
        "ea98509b2a84480fc2829206ee4daef9b01a23c9b22265f0596dae4d668eafe3",
    ("fraud", "phi05-no-categorical"):
        "c30384fc55658e284c7d2a3928534eb2438a144885b7d86e7ed3d0eff38233c7",
    ("regression", "phi05-no-categorical"):
        "81d2cbf4c394205928c3b2d36901f659948c416c34fa17ea60e033f9083fe4d5",
    ("fraud", "phi03-card25"):
        "0ee45ec4cb754319c52cb0788b1d1db6f44702efe8b482ac4e75dba9cb5b6ec8",
    ("regression", "phi03-card25"):
        "6f2c71644a550901e88eff562ea7ff59523ba6720350d07eefb96bfd3fb3de5e",
}
RECORDED_CONFIGS = {
    "phi0-card12-one-numeric": GenConfig(entities=6, rows_per_entity=8, numerical_fields=1,
                                         categorical_cardinalities=(12, 3), fraud_rate=0.2,
                                         serial_correlation=0.0, seed=2),
    "phi05-no-categorical": GenConfig(entities=12, rows_per_entity=7, numerical_fields=4,
                                      categorical_cardinalities=(), fraud_rate=0.2,
                                      serial_correlation=0.5, seed=3),
    "phi03-card25": GenConfig(entities=5, rows_per_entity=9, numerical_fields=3,
                              categorical_cardinalities=(25,), fraud_rate=0.2,
                              serial_correlation=0.3, noise_scale=0.2, seed=4),
}
GENERATORS = {"fraud": generate_fraud_dataset, "regression": generate_regression_dataset}


@pytest.mark.parametrize("task, name", sorted(RECORDED_CSV))
def test_csv_bytes_match_recording(task, name, tmp_path):
    d = GENERATORS[task](RECORDED_CONFIGS[name])
    if name != "phi05-no-categorical":  # covers two-digit ids, which sort as strings
        assert any(len(c) > 2 for c in d.columns[d.schema.index_of("cat_0")].categories)
    save_csv(d, tmp_path / "data.csv")
    assert hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest() == \
        RECORDED_CSV[task, name]


@pytest.mark.parametrize("fn", [temporal_term, cross_term, noiseless_target])
@pytest.mark.parametrize("fields", [2, 4])
def test_stacked_rows_equal_per_entity_calls(fn, fields):
    x = np.random.default_rng(1).standard_normal((2, 5, 11, fields))
    stacked = fn(x)
    assert stacked.shape == (2, 5, 11)
    assert np.array_equal(stacked, [[fn(rows) for rows in block] for block in x])


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
        mats = numeric_matrix_all(d, cfg)
        z = np.array([temporal_term(mats[e]) for e in range(cfg.entities)])
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
