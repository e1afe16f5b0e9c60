"""End-to-end experiment orchestration.

An experiment config names a data source (generator config or CSV paths),
preprocessing choices, and a list of arms; each arm picks a model family,
optional preset, model and training settings, and upsampling. Running an
experiment executes every arm deterministically and writes a report JSON,
a per-arm metrics CSV, per-arm training histories, and checkpoints.

Report layout: everything reproducible lives under the "deterministic"
key; wall-clock figures and timestamps live under "timing" so reruns can
be compared byte-for-byte on the deterministic part alone.
"""

from __future__ import annotations

import csv
import itertools
import os
import platform
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import __version__
from .config import JsonConfig, output_to, read_json, write_json
from .errors import ConfigError
from .models import ModelSpec, TOWER_MASKS, build_model, expected_attention_pairs
from .preprocess import PreprocessArtifact, fit_preprocess
from .schema import Dataset, Schema, impute_missing, load_csv, make_windows
from .synthgen import GenConfig, generate_fraud_dataset, generate_regression_dataset
from .training import (
    TASKS,
    TrainConfig,
    TransformerPreset,
    encode_inputs,
    evaluate_scores,
    fine_tune,
    index_inputs,
    load_transformer_preset,
    predict_scores,
    pretrain_mlm,
    require_partitions,
    save_model,
    split_entities,
    train_rows,
    train_supervised,
    window_labels,
)
from .upsample import UPSAMPLE_METHODS, SmoteConfig, duplicate_upsample, smote_upsample

METRIC_KEYS = ("precision", "recall", "f1", "gini", "capture_at_4", "metric_m", "rmse")
CSV_HEADER = ["arm", *METRIC_KEYS, "attn_pairs", "seconds"]


@dataclass(frozen=True)
class DataConfig(JsonConfig):
    generator: GenConfig | None = None
    csv: str | None = None  # a CSV source takes its schema file too
    schema: str | None = None

    def __post_init__(self):
        if (self.generator is None) == (self.csv is None) or \
                (self.csv is None) != (self.schema is None):
            raise ConfigError("config needs exactly one data source: generator, or csv and schema")

    def load(self, task: str) -> Dataset:
        if self.generator is None:
            return load_csv(self.csv, Schema.load(self.schema))
        gen = generate_fraud_dataset if task == "fraud" else generate_regression_dataset
        return gen(self.generator)


@dataclass(frozen=True)
class PretrainConfig(JsonConfig):
    epochs: int = 3
    mlm_probability: float | None = None  # None: the arm's train value, else 0.15


@dataclass(frozen=True)
class ArmConfig(JsonConfig):
    """One arm: a family or preset, its ``model``/``train`` overrides
    (``ModelSpec``/``TrainConfig`` keys) and its upsampling."""

    name: str
    family: str | None = None
    preset: str | None = None
    upsample: str = "none"
    smote_k: int | None = None
    target_ratio: float | None = None
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    pretrain: PretrainConfig | None = None

    def __post_init__(self):
        arm = f"arm {self.name!r}"
        if self.family is None and self.preset is None:
            raise ConfigError(f"{arm} names neither family nor preset")
        if self.upsample not in UPSAMPLE_METHODS:
            raise ConfigError(f"{arm}: upsample must be one of {UPSAMPLE_METHODS}")
        # these follow from the arm's family or preset, the windows and the task
        for key in ("family", "n", "m", "head"):
            if key in self.model:
                raise ConfigError(f"{arm}: model key {key!r} is set "
                                  "by the experiment, not the model block")
        family = self.architecture
        token_path = family.startswith("hierarchical")
        if "mlm_probability" in self.train and not token_path:
            raise ConfigError(f"{arm}: train key 'mlm_probability' needs a hierarchical "
                              f"family, not {family!r}")
        if self.pretrain is not None and not token_path:
            raise ConfigError(f"{arm}: a pretrain block needs a hierarchical family, "
                              f"not {family!r}")
        if self.upsample == "smote" and token_path:
            raise ConfigError(f"{arm}: SMOTE cannot interpolate the token ids of {family!r}; "
                              "use upsample 'duplicate'")
        if self.smote_k is not None and self.upsample != "smote":
            raise ConfigError(f"{arm}: smote_k needs upsample 'smote'")
        if self.target_ratio is not None and self.upsample == "none":
            raise ConfigError(f"{arm}: target_ratio needs upsample 'smote' or 'duplicate'")
        if self.upsample != "none":
            try:
                self.smote_config(seed=0)
            except ConfigError as exc:
                raise ConfigError(f"{arm}: {exc}") from None

    def smote_config(self, seed: int) -> SmoteConfig:
        """The arm's upsampling settings; unset keys take SmoteConfig's defaults."""
        given = {"k": self.smote_k, "target_ratio": self.target_ratio}
        return SmoteConfig(seed=seed, **{k: v for k, v in given.items() if v is not None})

    @cached_property
    def transformer_preset(self) -> TransformerPreset | None:
        """The arm's preset, parsed once; None when the arm names none."""
        return load_transformer_preset(self.preset) if self.preset is not None else None

    @property
    def architecture(self) -> str:
        """The arm's family, else its preset's; a named preset is parsed either way."""
        preset = self.transformer_preset
        return self.family if self.family is not None else preset.architecture


@dataclass(frozen=True)
class ExperimentConfig(JsonConfig):
    """An experiment document: data source, task, windowing, split, bins, arms."""

    data: DataConfig
    arms: tuple[ArmConfig, ...]
    task: str = "fraud"
    seed: int = 0
    window_size: int = 10
    stride: int = 5
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    bins: int = 32

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {tuple(TASKS)}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.arms:
            raise ConfigError("config declares no arms")
        names = [arm.name for arm in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError("arm names must be unique")
        upsampled = [arm.name for arm in self.arms if arm.upsample != "none"]
        if upsampled and TASKS[self.task][1] != "binary":
            raise ConfigError(f"arm {upsampled[0]!r}: upsample needs a binary task, "
                              f"not {self.task!r}")


def _arm_seed(base_seed: int, arm_index: int) -> int:
    # distinct, reproducible per-arm streams without a shared generator
    state = np.random.SeedSequence(base_seed, spawn_key=(arm_index,)).generate_state(1)
    return int(state[0]) % 2**31


def load_experiment_config(path) -> dict:
    """The experiment document at ``path``, checked by parsing it."""
    cfg = read_json(path)
    ExperimentConfig.from_json(cfg)
    return cfg


def prepare(exp: ExperimentConfig):
    """Load, impute, window, split and fit: returns the (train, val, test)
    window lists and the artifact fitted on ``train_rows``."""
    dataset = impute_missing(exp.data.load(exp.task))
    windows = make_windows(dataset, exp.window_size, exp.stride, TASKS[exp.task][0])
    split = (exp.val_fraction, exp.test_fraction, exp.seed)
    splits = split_entities(windows, *split)
    require_partitions(splits)
    return splits, fit_preprocess(train_rows(dataset, *split), bins=exp.bins)


def _arm_configs(arm: ArmConfig, index: int, exp: ExperimentConfig, artifact: PreprocessArtifact):
    """The arm's ModelSpec and TrainConfig: its preset's values, overridden by its
    blocks, then by the window shape, the task head and (unless set) the arm seed;
    and, for a hierarchical family, the TrainConfig of its pretraining (else None)."""
    preset = arm.transformer_preset
    model = {**(preset.model if preset else {}), "family": arm.architecture, **arm.model,
             "n": exp.window_size, "m": artifact.schema.n_features, "head": TASKS[exp.task][1]}
    train = {**(preset.train if preset else {}), "seed": _arm_seed(exp.seed, index),
             **arm.train}
    try:
        spec, tcfg = ModelSpec.from_json(model), TrainConfig.from_json(train)
        if not spec.family.startswith("hierarchical"):
            return spec, tcfg, None
        pre = arm.pretrain or PretrainConfig()
        mlm_p = (pre.mlm_probability if pre.mlm_probability is not None
                 else tcfg.mlm_probability or 0.15)
        return spec, tcfg, replace(tcfg, epochs=pre.epochs, mlm_probability=mlm_p,
                                   patience=None)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (arm {arm.name!r})") from None


def _upsample_training_data(arm: ArmConfig, inputs, y, seed):
    if arm.upsample == "none":
        return inputs, y
    pos_idx = np.nonzero(y == 1.0)[0]
    neg_count = int(np.sum(y != 1.0))
    smote_cfg = arm.smote_config(seed)
    if arm.upsample == "smote":
        synthetic = smote_upsample(inputs[0][pos_idx], neg_count, smote_cfg)
        x = np.concatenate([inputs[0], synthetic])
        return (x,), np.concatenate([y, np.ones(len(synthetic))])
    extra = duplicate_upsample(list(pos_idx), neg_count, smote_cfg.target_ratio, seed)
    idx = np.concatenate([np.arange(len(y)), np.array(extra, dtype=np.int64)])
    return index_inputs(inputs, idx), y[idx]


def run_arm(arm: ArmConfig, spec: ModelSpec, tcfg: TrainConfig, pre_cfg: TrainConfig | None,
            splits, artifact: PreprocessArtifact, out_dir) -> dict:
    """Train and evaluate one arm with its resolved configs, pretraining first
    when ``pre_cfg`` is given; returns its report entry."""
    seed, name = tcfg.seed, arm.name

    train_inputs, val_inputs, test_inputs = (encode_inputs(ws, artifact, spec.family)
                                             for ws in splits)
    train_y, val_y, test_y = (window_labels(ws) for ws in splits)
    pretrain_inputs = train_inputs  # pretraining is label-free: no upsampled copies
    train_inputs, train_y = _upsample_training_data(arm, train_inputs, train_y, seed)

    history_paths = {}
    if pre_cfg is not None:
        model = build_model(replace(spec, head="mlm"), seed=seed, vocab=artifact.vocab)
        ids, raw = pretrain_inputs
        model, pre_hist = pretrain_mlm(model, ids, raw, pre_cfg)
        ckpt = os.path.join(out_dir, f"{name}_pretrained.ckpt")
        save_model(ckpt, model, artifact, seed)
        pre_path = os.path.join(out_dir, f"{name}_pretrain_history.csv")
        pre_hist.to_csv(pre_path)
        history_paths["pretrain"] = pre_path
        model, hist = fine_tune(ckpt, (train_inputs, train_y), (val_inputs, val_y),
                                tcfg, artifact, head=spec.head)
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
    model.counter.reset()  # one window's forward alone
    model(*index_inputs(test_inputs, slice(0, 1)))
    result["attn_pairs"] = model.counter.count
    result["attn_pairs_closed_form"] = expected_attention_pairs(spec, 1)
    result["model_spec"] = spec.to_json()
    result["train_config"] = tcfg.to_json()
    result["history"] = history_paths
    result["checkpoint"] = final_ckpt
    return result


def run_experiment(cfg: dict, out_dir) -> dict:
    """Run every arm of an experiment document; writes report.json and metrics.csv."""
    exp = ExperimentConfig.from_json(cfg)
    with output_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()

    splits, artifact = prepare(exp)
    configs = [_arm_configs(arm, i, exp, artifact) for i, arm in enumerate(exp.arms)]
    artifact.save(os.path.join(out_dir, "preprocess.json"))

    arms = {}
    timing = {}
    for arm, arm_configs in zip(exp.arms, configs):
        t0 = time.perf_counter()
        arms[arm.name] = run_arm(arm, *arm_configs, splits, artifact, out_dir)
        timing[arm.name] = time.perf_counter() - t0

    report = {
        "deterministic": {
            "config": cfg,
            "seed": exp.seed,
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


def read_report(path) -> dict:
    """The experiment report at ``path``. A ``ConfigError`` names the file unless each
    arm of ``deterministic.arms`` holds every metric and ``attn_pairs``, and
    ``timing.arm_seconds`` is an object: each a number or null, which renders as NaN."""
    report = read_json(path)
    try:
        arms, seconds = report["deterministic"]["arms"], report["timing"]["arm_seconds"]
        cells = [(name, key, res[key]) for name, res in arms.items()
                 for key in (*METRIC_KEYS, "attn_pairs")]
        cells += [(name, "seconds", seconds.get(name)) for name in arms]
    except (KeyError, TypeError, AttributeError):
        raise ConfigError(f"{path}: not a report of arms and their metrics") from None
    for name, key, value in cells:
        if isinstance(value, bool) or not isinstance(value, (int, float, type(None))):
            raise ConfigError(f"{path}: arm {name!r}: {key!r} must be a number or null, "
                              f"not {value!r}")
    return report


def _float(value) -> float:
    return float("nan") if value is None else float(value)


def write_report(report: dict, out_dir) -> None:
    """Write ``report.json`` and ``metrics.csv`` into ``out_dir``, creating it."""
    with output_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report)
    path = os.path.join(out_dir, "metrics.csv")
    with output_to(path), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        timing = report["timing"]["arm_seconds"]
        for name, res in report["deterministic"]["arms"].items():
            writer.writerow([
                name,
                *(repr(_float(res[k])) for k in METRIC_KEYS),
                res["attn_pairs"],
                f"{_float(timing.get(name)):.3f}",
            ])


def ablate_towers(cfg: dict, out_dir) -> dict:
    """Expand the first twin-tower arm into both/time/feature mask arms."""
    exp = ExperimentConfig.from_json(cfg)
    base = next((arm for arm in exp.arms if arm.architecture == "twin_tower"), None)
    if base is None:
        raise ConfigError("tower ablation needs a twin_tower arm")
    # shared seed and data: same per-arm train seed for every mask
    train = {"seed": _arm_seed(exp.seed, 0), **base.train}
    arms = tuple(replace(base, name=f"{base.name}_{mask}",
                         model={**base.model, "tower_mask": mask}, train=train)
                 for mask in TOWER_MASKS)
    return run_experiment({**cfg, "arms": [arm.to_json() for arm in arms]}, out_dir)


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
    the first arm, each point one arm of a ``run_experiment`` run in
    ``out_dir``; selects the point with the best validation metric and
    reports that point's test metrics in sweep_report.json."""
    exp = ExperimentConfig.from_json(cfg)
    if not isinstance(grid, dict) or not grid:
        raise ConfigError(f"sweep grid must be a non-empty JSON object, not {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep grid key {key!r} must be a non-empty array, not {values!r}")
    if budget is not None and budget < 1:
        raise ConfigError(f"sweep budget must be >= 1, not {budget}")
    base = exp.arms[0]
    model_keys = {f.name for f in fields(ModelSpec)}
    points = _grid_points(grid, budget, exp.seed)
    # each point trains from its own seed, unless the arm or the grid sets one
    arms = [replace(base, name=f"sweep_{i:03d}",
                    model={**base.model, **{k: v for k, v in p.items() if k in model_keys}},
                    train={"seed": _arm_seed(exp.seed, 100 + i), **base.train,
                           **{k: v for k, v in p.items() if k not in model_keys}})
            for i, p in enumerate(points)]
    results = run_experiment({**cfg, "arms": [arm.to_json() for arm in arms]},
                             out_dir)["deterministic"]["arms"]
    scored = [{"point": p, "arm": arm.name, "val_metric": results[arm.name]["val_metric"]}
              for p, arm in zip(points, arms)]
    best = max(scored, key=lambda r: r["val_metric"])
    report = {
        "deterministic": {
            "config": cfg,
            "grid": grid,
            "budget": budget,
            "points": scored,
            "best": {**best, "test_metrics": {k: results[best["arm"]][k] for k in METRIC_KEYS}},
        },
        "timing": {"created": time.strftime("%Y-%m-%dT%H:%M:%S")},
    }
    write_json(os.path.join(out_dir, "sweep_report.json"), report)
    return report
