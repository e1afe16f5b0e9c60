"""Command-line interface.

Each subcommand consumes and produces files so pipeline stages can be rerun
independently: generate -> preprocess -> (pretrain) -> train/finetune ->
evaluate -> report. Rank metrics are printed on the x100 scale; JSON output
stores them unscaled.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench
from .config import output_to, read_json, write_json
from .errors import ConfigError, SchemaMismatch, TabseqError
from .models import TOWER_MASKS, build_model
from .preprocess import PreprocessArtifact, fit_preprocess
from .schema import Dataset, Schema, impute_missing, load_csv, make_windows, save_csv
from .synthgen import GenConfig, generate_fraud_dataset, generate_regression_dataset
from .training import (
    TASKS,
    TrainConfig,
    encode_inputs,
    evaluate_scores,
    load_transformer_preset,
    predict_scores,
    preset_model_spec,
    preset_train_config,
    pretrain_mlm,
    require_partitions,
    restore_model,
    save_model,
    split_entities,
    split_entity_names,
    train_supervised,
    window_labels,
)
from .upsample import UPSAMPLE_METHODS


def cmd_generate(args) -> int:
    cfg = GenConfig.from_json(read_json(args.config))
    gen = generate_fraud_dataset if args.task == "fraud" else generate_regression_dataset
    dataset = gen(cfg)
    with output_to(args.out):
        os.makedirs(args.out, exist_ok=True)
    save_csv(dataset, os.path.join(args.out, "data.csv"))
    dataset.schema.save(os.path.join(args.out, "schema.json"))
    print(f"wrote {len(dataset)} records for {cfg.entities} entities to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    dataset = impute_missing(load_csv(args.data, Schema.load(args.schema)))
    train_set, _, _ = split_entity_names({r.entity for r in dataset.records},
                                         args.val_fraction, args.test_fraction, args.seed)
    train_data = Dataset(dataset.schema,
                         tuple(r for r in dataset.records if r.entity in train_set))
    artifact = fit_preprocess(train_data, bins=args.bins)
    artifact.save(args.out)
    print(f"vocabulary size {artifact.vocab.size}, hash {artifact.content_hash()[:12]}")
    return 0


def _dataset(args, artifact: PreprocessArtifact) -> Dataset:
    if Schema.load(args.schema) != artifact.schema:
        raise SchemaMismatch(f"{args.schema} is not the schema of {args.artifact}")
    return impute_missing(load_csv(args.data, artifact.schema))


def _windows(dataset: Dataset, args, rule=None):
    return make_windows(dataset, args.window, args.stride, rule or TASKS[args.task][0])


def cmd_pretrain(args) -> int:
    preset = load_transformer_preset(args.preset)
    artifact = PreprocessArtifact.load(args.artifact)
    sizes = {k: v for k, v in (("hidden", args.hidden), ("heads", args.heads)) if v}
    spec = preset_model_spec(preset, n=args.window, m=artifact.schema.n_features,
                             head="mlm", **sizes)
    ids, raw = encode_inputs(_windows(_dataset(args, artifact), args, "none"), artifact,
                             spec.family)
    cfg = preset_train_config(preset, seed=args.seed, epochs=args.epochs, patience=None)
    model = build_model(spec, seed=args.seed, vocab=artifact.vocab)
    model, history = pretrain_mlm(model, ids, raw, cfg)
    save_model(args.out, model, artifact, args.seed)
    history.to_csv(args.out + ".history.csv")
    print(f"pretrained {spec.family} on {len(ids)} windows; "
          f"final MLM loss {history.train_loss[-1]:.4f}")
    return 0


def _experiment_config(args) -> dict:
    """The experiment document of ``--config``, with ``--seed`` if given."""
    cfg = bench.load_experiment_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    arm_flags = ("preset", "upsample", "smote_k", "target_ratio")
    overrides = {k: v for k, v in vars(args).items() if k in arm_flags and v is not None}
    for arm in cfg["arms"]:
        arm.update(overrides)
        if args.tower_mask is not None:
            arm["model"] = {**arm.get("model", {}), "tower_mask": args.tower_mask}
    _print_arm_table(bench.run_experiment(cfg, args.out))
    return 0


def cmd_finetune(args) -> int:
    artifact = PreprocessArtifact.load(args.artifact)
    model = restore_model(args.checkpoint, artifact, head=TASKS[args.task][1], seed=args.seed)
    family = model.spec.family
    dataset = _dataset(args, artifact)
    train_w, val_w, _ = splits = split_entities(_windows(dataset, args), args.val_fraction,
                                                args.test_fraction, args.seed,
                                                {r.entity for r in dataset.records})
    require_partitions(splits[:2])  # the test partition goes unused here
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      epochs=args.epochs, seed=args.seed)
    model, history = train_supervised(
        model, (encode_inputs(train_w, artifact, family), window_labels(train_w)),
        (encode_inputs(val_w, artifact, family), window_labels(val_w)), cfg)
    save_model(args.out, model, artifact, args.seed)
    history.to_csv(args.out + ".history.csv")
    print(f"fine-tuned on {len(train_w)} windows; best val loss "
          f"{np.nanmin(history.val_loss):.4f}")
    return 0


def cmd_evaluate(args) -> int:
    artifact = PreprocessArtifact.load(args.artifact)
    model = restore_model(args.checkpoint, artifact)
    head = TASKS[args.task][1]
    if model.spec.head != head:
        raise ConfigError(f"checkpoint has a {model.spec.head!r} head; "
                          f"--task {args.task} needs {head!r}")
    windows = _windows(_dataset(args, artifact), args)
    scores = predict_scores(model, encode_inputs(windows, artifact, model.spec.family))
    result = evaluate_scores(scores, window_labels(windows), head)
    if result.pop("tie_warning", False):
        print("warning: >0.1% of scores are tied; rank metrics depend on stable input order",
              file=sys.stderr)
    if head == "binary":
        print(f"precision {result['precision']:.3f}  recall {result['recall']:.3f}  "
              f"F1 {result['f1']:.3f}")
        print(f"Gini {100 * result['gini']:.2f}  capture@4% {100 * result['capture_at_4']:.2f}  "
              f"M {100 * result['metric_m']:.2f}")
    else:
        print(f"RMSE {result['rmse']:.4f}")
    if args.out:
        write_json(args.out, result)
    return 0


def cmd_ablate(args) -> int:
    _print_arm_table(bench.ablate_towers(_experiment_config(args), args.out))
    return 0


def cmd_sweep(args) -> int:
    report = bench.sweep(_experiment_config(args), read_json(args.grid), args.out,
                         budget=args.budget)
    best = report["deterministic"]["best"]
    print(f"best point {best['point']} (val metric {best['val_metric']:.4f})")
    return 0


def cmd_report(args) -> int:
    report = read_json(args.report)
    _print_arm_table(report)
    if args.out:
        bench.write_report(report, args.out)
    return 0


def _print_arm_table(report: dict) -> None:
    arms = report["deterministic"]["arms"]
    print(f"{'arm':<24}{'prec':>7}{'rec':>7}{'F1':>8}{'Gini':>8}{'cap@4%':>8}"
          f"{'M':>8}{'RMSE':>10}")
    for name, res in arms.items():
        def fmt(key, scale=1.0, width=7, digits=3):
            v = res.get(key)
            if v is None or (isinstance(v, float) and np.isnan(v)):
                return " " * (width - 1) + "-"
            return f"{scale * v:>{width}.{digits}f}"

        print(f"{name:<24}{fmt('precision')}{fmt('recall')}{fmt('f1', width=8)}"
              f"{fmt('gini', 100.0, 8, 2)}{fmt('capture_at_4', 100.0, 8, 2)}"
              f"{fmt('metric_m', 100.0, 8, 2)}{fmt('rmse', 1.0, 10, 4)}")
        if res.get("tie_warning"):
            print(f"  warning: >0.1% of {name} scores are tied; "
                  "rank metrics depend on stable input order")


def _add_data_args(p):
    p.add_argument("--data", required=True, help="CSV data file")
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--seed", type=int, default=bench.ExperimentConfig.seed)
    p.add_argument("--val-fraction", type=float, default=bench.ExperimentConfig.val_fraction,
                   dest="val_fraction")
    p.add_argument("--test-fraction", type=float, default=bench.ExperimentConfig.test_fraction,
                   dest="test_fraction")


def _add_common_data_args(p):
    _add_data_args(p)
    p.add_argument("--artifact", required=True, help="preprocessing artifact JSON")
    p.add_argument("--task", choices=tuple(TASKS), default=bench.ExperimentConfig.task)
    p.add_argument("--window", type=int, default=bench.ExperimentConfig.window_size)
    p.add_argument("--stride", type=int, default=bench.ExperimentConfig.stride)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabseq",
        description="Benchmark transformer families on sequential tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--task", choices=tuple(TASKS), default=bench.ExperimentConfig.task)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="fit quantizers/vocabulary/stats")
    _add_data_args(p)
    p.add_argument("--bins", type=int, default=bench.ExperimentConfig.bins)
    p.add_argument("--out", required=True, help="artifact JSON path")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="masked-cell pretraining")
    _add_common_data_args(p)
    p.add_argument("--preset", required=True)
    p.add_argument("--epochs", type=int, default=bench.PretrainConfig.epochs)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run all arms of an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--preset", default=None, help="preset override for every arm")
    p.add_argument("--upsample", choices=UPSAMPLE_METHODS, default=None)
    p.add_argument("--smote-k", type=int, default=None, dest="smote_k")
    p.add_argument("--target-ratio", type=float, default=None, dest="target_ratio")
    p.add_argument("--tower-mask", choices=TOWER_MASKS, default=None, dest="tower_mask")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune a pretrained checkpoint")
    _add_common_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size, dest="batch_size")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--out", required=True, help="fine-tuned checkpoint path")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    _add_common_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="twin-tower mask ablation (both/time/feature)")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="grid/random hyperparameter search")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="grid JSON: {param: [values]}")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="render a report JSON as a table/CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None, help="directory for re-rendered files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TabseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
