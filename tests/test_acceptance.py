"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is stated inline next to its check; fixtures for the
directional criteria (5-7) are frozen configurations whose sizes were chosen
to fit the stated runtime budgets. Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines as they print.
"""

import time
from dataclasses import replace

import numpy as np

from gradcheck import grad_check
from tabseq.bench import run_experiment
from tabseq.metrics import capture_rate, f1, metric_m, weighted_gini
from tabseq.models import ModelSpec, build_model, expected_attention_pairs
from tabseq.nn import (
    Embedding,
    Encoder,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    TaskHead,
    Tensor,
)
from tabseq.nn import tensor as T
from tabseq.preprocess import (
    N_SPECIALS,
    FieldTokens,
    Vocabulary,
    encode_numeric,
    encode_tokens,
    fit_preprocess,
)
from tabseq.schema import Dataset, FieldKind, impute_missing, make_windows
from tabseq.synthgen import GenConfig, generate_fraud_dataset
from tabseq.training import (
    TrainConfig,
    fine_tune,
    load_preset,
    predict_scores,
    pretrain_mlm,
    save_model,
    split_entities,
    train_supervised,
)
from tabseq.upsample import SmoteConfig, smote_upsample

from test_metrics import capture_oracle, pairwise_gini_oracle
from test_nn_core import probe


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {criterion} ({description}): {status}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


# -- shared pipeline helpers -------------------------------------------------


def _prepare(gen: GenConfig, window: int, stride: int, seed: int, token=False,
             bins=8):
    """Generate, window, split entity-wise, and fit preprocessing on train."""
    d = impute_missing(generate_fraud_dataset(gen))
    windows = make_windows(d, window, stride, "any_positive")
    train_w, val_w, test_w = split_entities(windows, 0.15, 0.15, seed)
    ents = {w.entity for w in train_w}
    art = fit_preprocess(
        Dataset(d.schema, tuple(r for r in d.records if r.entity in ents)),
        bins=bins,
    )

    if token:
        def enc(ws):
            grids = [encode_tokens(w, d.schema, art.vocab, art.quantizers)
                     for w in ws]
            return np.stack([g.ids for g in grids])
    else:
        def enc(ws):
            return np.stack([encode_numeric(w, art).values
                             for w in ws])

    def labels(ws):
        return np.array([w.label for w in ws], dtype=np.float64)

    return art, d.schema, [(enc(ws), labels(ws)) for ws in (train_w, val_w, test_w)]


def _vocab_with(m: int) -> Vocabulary:
    """m alternating categorical/quantized-numeric fields."""
    fields, start = [], N_SPECIALS
    for j in range(m):
        if j % 2 == 0:
            spec = FieldTokens(f"cat_{j}", FieldKind.CATEGORICAL, start,
                               ("a", "b", "c"))
        else:
            spec = FieldTokens(f"num_{j}", FieldKind.NUMERICAL, start,
                               ("bin_0", "bin_1", "bin_2", "bin_3"))
        fields.append(spec)
        start = spec.start + spec.size
    return Vocabulary(tuple(fields))


def _random_ids(vocab, batch, n, rng):
    ids = np.zeros((batch, n, len(vocab.fields)), dtype=np.int64)
    for j, ft in enumerate(vocab.fields):
        ids[:, :, j] = rng.integers(ft.start, ft.start + ft.size, (batch, n))
    return ids


# -- criterion 1: published metric arithmetic --------------------------------


def test_criterion_1_metric_arithmetic():
    # F1 recomputed from the published (precision, recall) pairs must match
    # the published F1 within +-0.001 for all four architecture rows
    f1_rows = [
        ("vanilla", 0.96, 0.74, 0.836),
        ("twin_tower", 0.95, 0.76, 0.844),
        ("tabbert", 0.97, 0.81, 0.886),
        ("luna", 0.98, 0.80, 0.880),
    ]
    # M recomputed from the published (Gini, capture) pairs, x100 scale,
    # within +-0.01 (+-0.03 for the tabbert row)
    m_rows = [
        ("lightgbm", 91.87, 66.72, 79.29, 0.01),
        ("vanilla", 91.95, 66.91, 79.43, 0.01),
        ("twin_tower", 92.17, 67.56, 79.86, 0.01),
        ("tabbert", 88.56, 54.89, 71.70, 0.03),
    ]
    failures = []
    for name, p, r, reported in f1_rows:
        got = 2 * p * r / (p + r)
        if abs(got - reported) > 1e-3:
            failures.append(f"F1[{name}]: {got:.6f} vs {reported} (tol 1e-3)")
    for name, g, d, reported, tol in m_rows:
        got = 100 * metric_m(g / 100, d / 100)
        if abs(got - reported) > tol:
            failures.append(f"M[{name}]: {got:.4f} vs {reported} (tol {tol})")
    _report(1, "published F1/M arithmetic", not failures, "; ".join(failures))


# -- criterion 2: rank-metric oracle equivalence -----------------------------


def test_criterion_2_rank_metric_oracles():
    rng = np.random.default_rng(2024)
    ok, detail = True, ""

    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    labels = np.array([1, 1, 0, 0, 0])
    if weighted_gini(scores, labels) != 1.0:
        ok, detail = False, "perfect ordering did not give exactly G=1"

    checked = 0
    while ok and checked < 100:
        n = int(rng.integers(4, 501))
        labels = rng.integers(0, 2, n)
        if labels.all() or not labels.any():
            continue
        scores = np.round(rng.standard_normal(n), 2)  # deliberate ties
        for nw in (1.0, 20.0):
            gap = abs(weighted_gini(scores, labels, nw)
                      - pairwise_gini_oracle(scores, labels, nw))
            if gap > 1e-12:
                ok, detail = False, f"gini oracle gap {gap:.2e} at n={n}"
        checked += 1

    checked = 0
    while ok and checked < 50:
        n = int(rng.integers(4, 501))
        labels = rng.integers(0, 2, n)
        if labels.all() or not labels.any():
            continue
        scores = rng.standard_normal(n)
        for nw in (1.0, 20.0):
            gap = abs(capture_rate(scores, labels, nw, 0.04)
                      - capture_oracle(scores, labels, nw, 0.04))
            if gap > 1e-12:
                ok, detail = False, f"capture oracle gap {gap:.2e} at n={n}"
        checked += 1

    _report(2, "Gini/capture oracle equivalence at 1e-12", ok, detail)


# -- criterion 3: finite-difference gradient checks --------------------------


def test_criterion_3_gradient_checks():
    tol = 1e-4
    rng = np.random.default_rng(30)
    results = {}

    def params(module):
        return list(module.named_parameters().values())

    lin = Linear(5, 3, rng)
    results["Linear"] = grad_check(probe(lin, rng.standard_normal((4, 5))),
                                   params(lin))
    emb = Embedding(12, 6, rng)
    ids = rng.integers(0, 12, (3, 4))
    c = rng.standard_normal((3, 4, 6))
    results["Embedding"] = grad_check(lambda: T.tsum(emb(ids) * c), params(emb))
    ln = LayerNorm(8)
    x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    cn = rng.standard_normal((3, 8))
    results["LayerNorm"] = grad_check(lambda: T.tsum(ln(x) * cn),
                                      params(ln) + [x])
    mha = MultiHeadSelfAttention(16, 2, rng)
    results["MultiHeadSelfAttention"] = grad_check(
        probe(mha, rng.standard_normal((2, 4, 16))), params(mha))
    ffn = FeedForward(6, rng)
    results["FeedForward"] = grad_check(
        probe(ffn, rng.standard_normal((2, 3, 6))), params(ffn))
    enc = Encoder(8, 2, 2, rng)
    results["Encoder"] = grad_check(probe(enc, rng.standard_normal((2, 3, 8))),
                                    params(enc), max_coords=8)
    head = TaskHead(6, 2, rng)
    results["TaskHead"] = grad_check(probe(head, rng.standard_normal((4, 6))),
                                     params(head))

    # the four end-to-end training losses (N <= 6, M <= 5, H <= 16)
    model = build_model(ModelSpec("vanilla", 4, 3, hidden=8, heads=2, layers=1),
                        seed=1)
    xv = rng.standard_normal((3, 4, 3))
    results["vanilla CE"] = grad_check(
        lambda: T.cross_entropy(model(xv), np.array([0, 1, 1])),
        model.parameters(), max_coords=6)
    twin = build_model(ModelSpec("twin_tower", 4, 3, hidden=8, heads=2,
                                 layers=1), seed=2)
    xt = rng.standard_normal((2, 4, 3))
    results["twin_tower CE"] = grad_check(
        lambda: T.cross_entropy(twin(xt), np.array([1, 0])),
        twin.parameters(), max_coords=6)
    vocab = _vocab_with(3)
    hier = build_model(ModelSpec("hierarchical", 3, 3, hidden=8, heads=2,
                                 layers=1, head="mlm"), seed=3, vocab=vocab)
    hids = _random_ids(vocab, 2, 3, rng)
    mask = rng.random(hids.shape) < 0.4
    mask[0, 0, 0] = True
    masked = hids.copy()
    masked[mask] = 1
    results["hierarchical MLM"] = grad_check(
        lambda: hier.mlm_loss(masked, hids, mask), hier.parameters(),
        max_coords=6)
    joint = build_model(ModelSpec("hierarchical_joint", 3, 3, hidden=8,
                                  heads=2, layers=1, head="mlm"), seed=4,
                        vocab=vocab)
    raw = rng.standard_normal(hids.shape)
    mask[0, 0, 1] = True
    masked = hids.copy()
    masked[mask] = 1
    results["joint MLM+MSE"] = grad_check(
        lambda: joint.mlm_loss(masked, hids, mask, raw=raw),
        joint.parameters(), max_coords=6)

    bad = {k: v for k, v in results.items() if not v < tol}
    _report(3, "finite-difference gradients < 1e-4", not bad,
            ", ".join(f"{k}={v:.2e}" for k, v in bad.items()))


# -- criterion 4: attention-pair accounting ----------------------------------


def test_criterion_4_complexity_accounting():
    heads, layers, field_layers = 2, 1, 1
    ns, ms = [4, 8, 16, 32], [3, 6, 12]
    rng = np.random.default_rng(40)
    ok, detail = True, ""

    measured = {}
    for family in ("vanilla", "twin_tower", "hierarchical"):
        for n in ns:
            for m in ms:
                spec = ModelSpec(family, n, m, hidden=8, heads=heads,
                                 layers=layers, field_layers=field_layers)
                if family == "hierarchical":
                    vocab = _vocab_with(m)
                    model = build_model(spec, seed=0, vocab=vocab)
                    model(_random_ids(vocab, 1, n, rng))
                else:
                    model = build_model(spec, seed=0)
                    model(rng.standard_normal((1, n, m)))
                measured[family, n, m] = model.counter.count
                expect = expected_attention_pairs(spec, 1)
                if model.counter.count != expect and ok:
                    ok = False
                    detail = (f"{family} n={n} m={m}: measured "
                              f"{model.counter.count} != closed form {expect}")

    # log-log slope in N must be 2.0 +- 0.05 for every family's N^2 stage
    # (the N-independent / linear-in-N feature stages are subtracted first)
    if ok:
        for family in ("vanilla", "twin_tower", "hierarchical"):
            for m in ms:
                counts = []
                for n in ns:
                    c = measured[family, n, m]
                    if family == "twin_tower":
                        c -= heads * layers * m * m
                    elif family == "hierarchical":
                        c -= heads * field_layers * n * m * m
                    counts.append(c)
                slope = np.polyfit(np.log(ns), np.log(counts), 1)[0]
                if abs(slope - 2.0) > 0.05:
                    ok = False
                    detail = f"{family} m={m}: N-slope {slope:.3f}"

    # hierarchical field stage: slope 2.0 +- 0.05 in M at fixed N
    if ok:
        for n in ns:
            field = [measured["hierarchical", n, m] - heads * layers * n * n
                     for m in ms]
            slope = np.polyfit(np.log(ms), np.log(field), 1)[0]
            if abs(slope - 2.0) > 0.05:
                ok = False
                detail = f"hierarchical field stage n={n}: M-slope {slope:.3f}"

    _report(4, "attention-pair closed forms and slopes", ok, detail)


# -- criterion 5: tower ablation direction -----------------------------------


def test_criterion_5_ablation_direction():
    t0 = time.perf_counter()
    gen = GenConfig(entities=500, rows_per_entity=50, numerical_fields=4,
                    categorical_cardinalities=(3, 4), fraud_rate=0.05,
                    temporal_signal_strength=0.9,
                    cross_feature_signal_strength=0.1, noise_scale=0.1,
                    serial_correlation=0.0, seed=101)
    _, schema, splits = _prepare(gen, 10, 1, seed=101)
    (tr_x, tr_y), (va_x, va_y), (te_x, te_y) = splits
    assert len(tr_y) + len(va_y) + len(te_y) >= 20000

    scores = {}
    for mask in ("both", "time", "feature"):
        spec = ModelSpec("twin_tower", 10, schema.n_features, hidden=16,
                         heads=2, layers=1, tower_mask=mask)
        model = build_model(spec, seed=7)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, epochs=4,
                          patience=None, seed=7)
        model, _ = train_supervised(model, ((tr_x,), tr_y), ((va_x,), va_y), cfg)
        scores[mask] = f1(predict_scores(model, (te_x,)) >= 0.5, te_y)[2]

    ok = (scores["time"] >= 2.0 * scores["feature"]
          and scores["both"] >= 0.95 * scores["time"])
    _report(5, "TimeOnly >= 2x FeatureOnly and Both >= 0.95x TimeOnly", ok,
            f"F1 both={scores['both']:.3f} time={scores['time']:.3f} "
            f"feature={scores['feature']:.3f} ({time.perf_counter()-t0:.0f}s)")


# -- criterion 6: upsampling direction ---------------------------------------


def test_criterion_6_upsampling_direction():
    t0 = time.perf_counter()
    gen = GenConfig(entities=500, rows_per_entity=40, numerical_fields=4,
                    categorical_cardinalities=(3, 4), fraud_rate=0.005,
                    temporal_signal_strength=0.9,
                    cross_feature_signal_strength=0.1, noise_scale=0.1,
                    serial_correlation=0.0, seed=202)
    _, schema, splits = _prepare(gen, 10, 2, seed=202)
    (tr_x, tr_y), (va_x, va_y), (te_x, te_y) = splits

    scores = {}
    for use_smote in (False, True):
        x, y = tr_x, tr_y
        if use_smote:
            syn = smote_upsample(x[y == 1.0], int((y != 1.0).sum()),
                                 SmoteConfig(k=5, seed=202))
            x = np.concatenate([x, syn])
            y = np.concatenate([y, np.ones(len(syn))])
        spec = ModelSpec("twin_tower", 10, schema.n_features, hidden=16,
                         heads=2, layers=1)
        model = build_model(spec, seed=7)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=128, epochs=4,
                          patience=None, seed=7)
        model, _ = train_supervised(model, ((x,), y), ((va_x,), va_y), cfg)
        scores[use_smote] = f1(predict_scores(model, (te_x,)) >= 0.5, te_y)[2]

    improvement = scores[True] - scores[False]
    ok = scores[True] > scores[False] and improvement >= 0.05
    _report(6, "SMOTE minority-F1 improvement >= 0.05", ok,
            f"with={scores[True]:.3f} without={scores[False]:.3f} "
            f"({time.perf_counter()-t0:.0f}s)")


# -- criterion 7: pretraining behavior ---------------------------------------


def test_criterion_7_pretraining(tmp_path):
    t0 = time.perf_counter()
    gen = GenConfig(entities=600, rows_per_entity=40, numerical_fields=4,
                    categorical_cardinalities=(3, 4), fraud_rate=0.05,
                    temporal_signal_strength=0.9,
                    cross_feature_signal_strength=0.1, noise_scale=0.1,
                    serial_correlation=0.5, seed=303)
    art, schema, splits = _prepare(gen, 10, 1, seed=303, token=True)
    (tr_ids, tr_y), (va_ids, va_y), _ = splits

    spec = ModelSpec("hierarchical", 10, schema.n_features, hidden=16, heads=2,
                     layers=1, field_layers=1, head="mlm")
    pre = build_model(spec, seed=0, vocab=art.vocab)
    pre_cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=3,
                          mlm_probability=0.15, patience=None, seed=0)
    pre, hist = pretrain_mlm(pre, tr_ids, None, pre_cfg)
    loss_decreases = hist.train_loss[2] < hist.train_loss[0]
    ckpt = tmp_path / "pretrained.ckpt"
    save_model(ckpt, pre, art, 0)

    def val_f1(model):
        return f1(predict_scores(model, (va_ids, None)) >= 0.5, va_y)[2]

    wins, pairs = 0, []
    for seed in (1, 2, 3):
        keep = np.random.default_rng(seed).permutation(len(tr_y))
        keep = keep[: int(0.05 * len(tr_y))]  # 5% of the labels
        sub = ((tr_ids[keep], None), tr_y[keep])
        cfg = TrainConfig(learning_rate=3e-4, batch_size=32, epochs=15,
                          patience=None, seed=seed)
        tuned, _ = fine_tune(ckpt, sub, ((va_ids, None), va_y), cfg, art)
        scratch = build_model(replace(spec, head="binary"), seed=seed,
                              vocab=art.vocab)
        scratch, _ = train_supervised(scratch, sub, ((va_ids, None), va_y), cfg)
        ft, sc = val_f1(tuned), val_f1(scratch)
        pairs.append((ft, sc))
        wins += ft >= sc

    ok = loss_decreases and wins * 2 > len(pairs)
    _report(7, "MLM loss falls and pretrained >= scratch (majority)", ok,
            f"mlm={['%.4f' % l for l in hist.train_loss]} pairs={pairs} "
            f"wins={wins}/3 ({time.perf_counter()-t0:.0f}s)")


# -- criterion 8: determinism ------------------------------------------------

METRIC_KEYS = ("precision", "recall", "f1", "gini", "capture_at_4",
               "metric_m", "rmse", "attn_pairs")


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "data": {"generator": {
            "entities": 40, "rows_per_entity": 20, "numerical_fields": 3,
            "categorical_cardinalities": [3, 4], "fraud_rate": 0.08,
            "temporal_signal_strength": 0.8,
            "cross_feature_signal_strength": 0.2, "noise_scale": 0.1,
            "seed": 5,
        }},
        "task": "fraud", "seed": 3, "window_size": 5, "stride": 5, "bins": 4,
        "arms": [
            {"name": "vanilla", "family": "vanilla",
             "model": {"hidden": 8, "heads": 2, "layers": 1},
             "train": {"epochs": 2, "batch_size": 32, "patience": None}},
            {"name": "hier", "family": "hierarchical",
             "model": {"hidden": 8, "heads": 2, "layers": 1, "field_layers": 1},
             "train": {"epochs": 1, "batch_size": 32, "patience": None,
                       "mlm_probability": 0.15},
             "pretrain": {"epochs": 1, "mlm_probability": 0.15}},
        ],
    }
    a = run_experiment(cfg, tmp_path / "a")
    b = run_experiment(cfg, tmp_path / "b")
    ok, detail = True, ""
    for name in ("vanilla", "hier"):
        ra = a["deterministic"]["arms"][name]
        rb = b["deterministic"]["arms"][name]
        for key in METRIC_KEYS:
            va, vb = float(ra[key]), float(rb[key])
            if np.isnan(va) and np.isnan(vb):
                continue
            if not abs(va - vb) <= 1e-12:
                ok, detail = False, f"{name}.{key}: {va!r} != {vb!r}"
        ca = (tmp_path / "a" / f"{name}_final.ckpt").read_bytes()
        cb = (tmp_path / "b" / f"{name}_final.ckpt").read_bytes()
        if ca != cb:
            ok, detail = False, f"{name}: checkpoint bytes differ"
    _report(8, "rerun metrics within 1e-12 and identical checkpoints", ok,
            detail)


# -- criterion 9: preset fidelity --------------------------------------------


def test_criterion_9_preset_fidelity():
    expected = {
        "fraud_tabbert": dict(architecture="hierarchical", learning_rate=5e-5,
                              optimizer="Adam", dropout=0.1,
                              attention_heads=12, hidden_units=768,
                              window_size=10, stride=5, batch_size=8,
                              mlm_probability=0.15),
        "fraud_twintower": dict(architecture="twin_tower",
                                learning_rate=4.35e-5, optimizer="Adam",
                                dropout=0.134, attention_heads=8,
                                hidden_units=256, window_size=10, stride=1,
                                batch_size=256, mlm_probability=None),
        "fraud_luna": dict(architecture="hierarchical_joint",
                           learning_rate=5e-5, optimizer="Adam", dropout=0.1,
                           attention_heads=12, hidden_units=768,
                           window_size=10, stride=10, batch_size=8,
                           mlm_probability=0.15),
        "default_tabbert": dict(architecture="hierarchical", learning_rate=0.01,
                                optimizer="Adam", dropout=0.1,
                                attention_heads=12, seed=9, hidden_units=768,
                                window_size=12, batch_size=16,
                                mlm_probability=0.15),
        "default_twintower": dict(architecture="twin_tower",
                                  learning_rate=1e-4, optimizer="Adam",
                                  dropout=0.1, attention_heads=12, seed=42,
                                  hidden_units=512, window_size=12,
                                  batch_size=512, mlm_probability=None),
        "default_lightgbm": dict(model="lightgbm", num_leaves=100,
                                 min_data_in_leaf=2, num_boost_round=2000,
                                 early_stopping_rounds=50, learning_rate=0.01,
                                 seed=42, max_depth=-1),
    }
    failures = []
    for name, values in expected.items():
        preset = load_preset(name)
        for key, value in values.items():
            if preset.get(key) != value:
                failures.append(f"{name}.{key}: {preset.get(key)!r} != {value!r}")
    _report(9, "preset values round-trip exactly", not failures,
            "; ".join(failures))
