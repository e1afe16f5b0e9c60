"""End-to-end experiment orchestration.

An experiment config names a data source (generator config or CSV paths),
preprocessing choices, and a list of arms; each arm picks a model family,
optional preset, optional upsampling, and a tower mask. Running an
experiment executes every arm deterministically and writes a report JSON,
a per-arm metrics CSV, per-arm training histories, and checkpoints.

Report layout: everything reproducible lives under the "deterministic"
key; wall-clock figures and timestamps live under "timing" so reruns can
be compared byte-for-byte on the deterministic part alone.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import platform
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import ConfigError
from .models import (
    HierarchicalModel,
    ModelSpec,
    TOWER_MASKS,
    build_model,
    expected_attention_pairs,
)
from .preprocess import PreprocessArtifact, fit_preprocess
from .schema import Dataset, Schema, impute_missing, load_csv, make_windows
from .synthgen import GenConfig, generate_fraud_dataset, generate_regression_dataset
from .training import (
    TASKS,
    TrainConfig,
    encode_inputs,
    evaluate_scores,
    fine_tune,
    load_transformer_preset,
    predict_scores,
    preset_model_spec,
    pretrain_mlm,
    preset_train_config,
    save_model,
    split_entities,
    train_supervised,
    window_labels,
)
from .upsample import SmoteConfig, duplicate_upsample, smote_upsample

METRIC_KEYS = ("precision", "recall", "f1", "gini", "capture_at_4", "metric_m", "rmse")
CSV_HEADER = ["arm", *METRIC_KEYS, "attn_pairs", "seconds"]


def _arm_seed(base_seed: int, arm_index: int) -> int:
    # distinct, reproducible per-arm streams without a shared generator
    state = np.random.SeedSequence(base_seed, spawn_key=(arm_index,)).generate_state(1)
    return int(state[0]) % 2**31


def load_experiment_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    validate_experiment_config(cfg)
    return cfg


def validate_experiment_config(cfg: dict) -> None:
    data = cfg.get("data", {})
    if ("generator" in data) == ("csv" in data):
        raise ConfigError("config needs exactly one data source: generator or csv")
    if cfg.get("task", "fraud") not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}")
    arms = cfg.get("arms", [])
    if not arms:
        raise ConfigError("config declares no arms")
    names = [a.get("name") for a in arms]
    if len(set(names)) != len(names):
        raise ConfigError("arm names must be unique")
    for arm in arms:
        if "preset" in arm and arm["preset"] is not None:
            load_transformer_preset(arm["preset"])  # raises on unknown or non-transformer
        if arm.get("tower_mask", "both") not in TOWER_MASKS:
            raise ConfigError(f"bad tower_mask in arm {arm.get('name')!r}")
        if arm.get("upsample", "none") not in ("none", "smote", "duplicate"):
            raise ConfigError(f"bad upsample choice in arm {arm.get('name')!r}")


def _load_dataset(cfg: dict) -> Dataset:
    data = cfg["data"]
    if "generator" in data:
        gen = GenConfig.from_json(data["generator"])
        if cfg.get("task", "fraud") == "fraud":
            return generate_fraud_dataset(gen)
        return generate_regression_dataset(gen)
    schema = Schema.load(data["schema"])
    return load_csv(data["csv"], schema)


def prepare(cfg: dict):
    """Load, impute, window, split and fit: returns the (train, val, test)
    window lists and the artifact fitted on the train entities' rows."""
    dataset = impute_missing(_load_dataset(cfg))
    rule, _ = TASKS[cfg.get("task", "fraud")]
    windows = make_windows(dataset, cfg.get("window_size", 10), cfg.get("stride", 5), rule)
    splits = split_entities(windows, cfg.get("val_fraction", 0.15),
                            cfg.get("test_fraction", 0.15), cfg.get("seed", 0))
    for name, part in zip(("train", "validation", "test"), splits):
        if not part:
            raise ConfigError(f"entity split produced an empty {name} partition")
    train_entities = {w.entity for w in splits[0]}
    artifact = fit_preprocess(
        Dataset(dataset.schema, tuple(r for r in dataset.records if r.entity in train_entities)),
        bins=cfg.get("bins", 32))
    return splits, artifact


def _arm_model_spec(arm: dict, n: int, m: int, head: str) -> ModelSpec:
    block = arm.get("model", {})
    # these follow from the arm's family or preset, the windows and the task
    for key in ("family", "n", "m", "head"):
        if key in block:
            raise ConfigError(f"arm {arm.get('name')!r}: model key {key!r} is set "
                              "by the experiment, not the model block")
    kwargs = {"tower_mask": arm["tower_mask"]} if "tower_mask" in arm else {}
    kwargs.update(block, n=n, m=m, head=head)
    if arm.get("family") is not None:
        kwargs["family"] = arm["family"]
    if arm.get("preset"):
        return preset_model_spec(load_transformer_preset(arm["preset"]), **kwargs)
    if "family" not in kwargs:
        raise ConfigError(f"arm {arm.get('name')!r} names neither family nor preset")
    return ModelSpec.from_json(kwargs)


def _arm_train_config(arm: dict, base_seed: int, arm_index: int) -> TrainConfig:
    overrides = {"seed": _arm_seed(base_seed, arm_index), **arm.get("train", {})}
    if arm.get("preset"):
        return preset_train_config(load_transformer_preset(arm["preset"]), **overrides)
    return TrainConfig.from_json(overrides)


def _upsample_training_data(arm, inputs, y, seed):
    choice = arm.get("upsample", "none")
    if choice == "none":
        return inputs, y
    pos_idx = np.nonzero(y == 1.0)[0]
    neg_idx = np.nonzero(y != 1.0)[0]
    if choice == "smote":
        smote_cfg = SmoteConfig(
            k=arm.get("smote_k", 5),
            target_ratio=arm.get("target_ratio", 1.0),
            seed=seed,
        )
        synthetic = smote_upsample(inputs[0][pos_idx], len(neg_idx), smote_cfg)
        x = np.concatenate([inputs[0], synthetic])
        return (x,), np.concatenate([y, np.ones(len(synthetic))])
    # duplicate: token-path (and generic) upsampling by repetition
    extra = duplicate_upsample(list(pos_idx), len(neg_idx),
                               arm.get("target_ratio", 1.0), seed)
    if not extra:
        return inputs, y
    idx = np.concatenate([np.arange(len(y)), np.array(extra, dtype=np.int64)])
    return tuple(a[idx] if a is not None else None for a in inputs), y[idx]


def _measure_attention_pairs(model, inputs) -> int:
    model.counter.reset()
    one = tuple(a[:1] if a is not None else None for a in inputs)
    if isinstance(model, HierarchicalModel):
        model(one[0], raw=one[1])
    else:
        model(one[0])
    pairs = model.counter.count
    model.counter.reset()
    return pairs


def run_arm(arm: dict, arm_index: int, cfg: dict, splits, artifact: PreprocessArtifact,
            out_dir) -> dict:
    """Train and evaluate one arm; returns its deterministic report entry."""
    task = cfg.get("task", "fraud")
    _, head = TASKS[task]
    spec = _arm_model_spec(arm, len(splits[0][0].rows), artifact.schema.n_features, head)
    tcfg = _arm_train_config(arm, cfg.get("seed", 0), arm_index)
    seed = tcfg.seed
    token_path = spec.family.startswith("hierarchical")

    train_inputs, val_inputs, test_inputs = (encode_inputs(ws, artifact, spec.family)
                                             for ws in splits)
    train_y, val_y, test_y = (window_labels(ws) for ws in splits)

    if task == "fraud":
        train_inputs, train_y = _upsample_training_data(arm, train_inputs, train_y, seed)

    name = arm["name"]
    pretrain_epochs = int(arm.get("pretrain", {}).get("epochs", 3)) if token_path else 0
    history_paths = {}
    if token_path:
        mlm_spec = replace(spec, head="mlm")
        model = build_model(mlm_spec, seed=seed, vocab=artifact.vocab)
        mlm_p = arm.get("pretrain", {}).get("mlm_probability",
                                            tcfg.mlm_probability or 0.15)
        pre_cfg = replace(tcfg, epochs=pretrain_epochs, mlm_probability=mlm_p,
                          patience=None)
        ids, raw = train_inputs
        model, pre_hist = pretrain_mlm(model, ids, raw, pre_cfg)
        ckpt = os.path.join(out_dir, f"{name}_pretrained.ckpt")
        save_model(ckpt, model, artifact, seed)
        pre_path = os.path.join(out_dir, f"{name}_pretrain_history.csv")
        pre_hist.to_csv(pre_path)
        history_paths["pretrain"] = pre_path
        model, hist = fine_tune(ckpt, (train_inputs, train_y), (val_inputs, val_y),
                                tcfg, artifact, head=head)
    else:
        model = build_model(spec, seed=seed)
        model, hist = train_supervised(model, (train_inputs, train_y),
                                       (val_inputs, val_y), tcfg)

    hist_path = os.path.join(out_dir, f"{name}_history.csv")
    hist.to_csv(hist_path)
    history_paths["train"] = hist_path
    final_ckpt = os.path.join(out_dir, f"{name}_final.ckpt")
    save_model(final_ckpt, model, artifact, seed)

    result = dict.fromkeys(METRIC_KEYS, np.nan)
    result.update(evaluate_scores(predict_scores(model, test_inputs), test_y, spec.head))
    result["val_metric"] = hist.val_metric[hist.best_epoch - 1]  # the restored model's
    result["attn_pairs"] = _measure_attention_pairs(model, test_inputs)
    result["attn_pairs_closed_form"] = expected_attention_pairs(spec, 1)
    result["model_spec"] = spec.to_json()
    result["train_config"] = tcfg.to_json()
    result["history"] = history_paths
    result["checkpoint"] = final_ckpt
    return result


def run_experiment(cfg: dict, out_dir) -> dict:
    """Execute every arm of an experiment; writes report.json and metrics.csv."""
    validate_experiment_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    seed = cfg.get("seed", 0)

    splits, artifact = prepare(cfg)
    artifact.save(os.path.join(out_dir, "preprocess.json"))

    arms = {}
    timing = {}
    for i, arm in enumerate(cfg["arms"]):
        t0 = time.perf_counter()
        arms[arm["name"]] = run_arm(arm, i, cfg, splits, artifact, out_dir)
        timing[arm["name"]] = time.perf_counter() - t0

    report = {
        "deterministic": {
            "config": cfg,
            "seed": seed,
            "split_sizes": {"train": len(splits[0]), "val": len(splits[1]),
                            "test": len(splits[2])},
            "vocab_hash": artifact.content_hash(),
            "arms": arms,
            "environment": {
                "package_version": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        },
        "timing": {
            "arm_seconds": timing,
            "total_seconds": time.perf_counter() - t_start,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "platform": platform.platform(),
        },
    }
    write_report(report, out_dir)
    return report


def write_report(report: dict, out_dir) -> None:
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        timing = report["timing"]["arm_seconds"]
        for name, res in report["deterministic"]["arms"].items():
            writer.writerow([
                name,
                *(repr(float(res[k])) for k in METRIC_KEYS),
                res["attn_pairs"],
                f"{timing.get(name, float('nan')):.3f}",
            ])


def ablate_towers(cfg: dict, out_dir) -> dict:
    """Expand a single twin-tower arm into both/time/feature mask arms."""
    validate_experiment_config(cfg)
    base_arms = [a for a in cfg["arms"]
                 if a.get("family") == "twin_tower"
                 or (a.get("preset") or "").endswith("twintower")]
    if not base_arms:
        raise ConfigError("tower ablation needs a twin_tower arm")
    base = base_arms[0]
    expanded = []
    for mask in ("both", "time", "feature"):
        arm = dict(base)
        arm["name"] = f"{base['name']}_{mask}"
        arm["tower_mask"] = mask
        # shared seed and data: same per-arm train seed for every mask
        arm.setdefault("train", {})
        arm["train"] = dict(arm["train"])
        arm["train"].setdefault("seed", _arm_seed(cfg.get("seed", 0), 0))
        expanded.append(arm)
    abl_cfg = dict(cfg)
    abl_cfg["arms"] = expanded
    return run_experiment(abl_cfg, out_dir)


def _grid_points(grid: dict, budget: int | None, seed: int) -> list[dict]:
    keys = sorted(grid)
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]
    if budget is not None and budget < len(points):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        chosen = rng.choice(len(points), size=budget, replace=False)
        points = [points[i] for i in sorted(chosen)]
    return points


def sweep(cfg: dict, grid: dict, out_dir, budget: int | None = None) -> dict:
    """Grid (or budgeted random) search over TrainConfig/ModelSpec fields of
    the first arm; selects the point with the best validation metric and
    reports that point's test metrics."""
    validate_experiment_config(cfg)
    if not grid:
        raise ConfigError("sweep needs a non-empty grid")
    os.makedirs(out_dir, exist_ok=True)
    base = cfg["arms"][0]
    model_keys = {"hidden", "heads", "layers", "field_layers", "dropout"}
    splits, artifact = prepare(cfg)

    results = []
    for i, point in enumerate(_grid_points(grid, budget, cfg.get("seed", 0))):
        arm = json.loads(json.dumps(base))
        arm["name"] = f"sweep_{i:03d}"
        arm.setdefault("model", {})
        arm.setdefault("train", {})
        for k, v in point.items():
            (arm["model"] if k in model_keys else arm["train"])[k] = v
        arm["train"]["seed"] = _arm_seed(cfg.get("seed", 0), 100 + i)
        res = run_arm(arm, 100 + i, cfg, splits, artifact, out_dir)
        results.append({"point": point, "arm": arm["name"],
                        "val_metric": res["val_metric"], "test": res})

    best = max(results, key=lambda r: r["val_metric"])
    report = {
        "deterministic": {
            "config": cfg,
            "grid": grid,
            "budget": budget,
            "points": [{"point": r["point"], "arm": r["arm"],
                        "val_metric": r["val_metric"]} for r in results],
            "best": {"point": best["point"], "arm": best["arm"],
                     "val_metric": best["val_metric"],
                     "test_metrics": {k: best["test"][k] for k in METRIC_KEYS}},
        },
        "timing": {"created": time.strftime("%Y-%m-%dT%H:%M:%S")},
    }
    with open(os.path.join(out_dir, "sweep_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
