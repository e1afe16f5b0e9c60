import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tabseq.bench import (
    CSV_HEADER,
    ArmConfig,
    ExperimentConfig,
    _arm_seed,
    _upsample_training_data,
    ablate_towers,
    prepare,
    run_experiment,
    sweep,
    write_report,
)
from tabseq import cli
from tabseq.cli import main
from tabseq.errors import ConfigError
from tabseq.models import ModelSpec, expected_attention_pairs
from tabseq.nn import load_checkpoint, save_checkpoint
from tabseq.preprocess import PreprocessArtifact, fit_preprocess
from tabseq.schema import (
    Dataset,
    Record,
    Schema,
    impute_missing,
    load_csv,
    make_windows,
    save_csv,
)
from tabseq.synthgen import GenConfig, generate_fraud_dataset
from tabseq.training import (
    TrainHistory,
    encode_inputs,
    evaluate_scores,
    predict_scores,
    restore_model,
    split_entities,
    split_entity_names,
    window_labels,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULE_HELP = [sys.executable, "-c",
               "from tabseq.cli import main; raise SystemExit(main(['--help']))"]


def base_config(**overrides):
    cfg = {
        "data": {"generator": {
            "entities": 40, "rows_per_entity": 20, "numerical_fields": 3,
            "categorical_cardinalities": [3, 4], "fraud_rate": 0.08,
            "temporal_signal_strength": 0.8, "cross_feature_signal_strength": 0.2,
            "noise_scale": 0.1, "seed": 5,
        }},
        "task": "fraud",
        "seed": 3,
        "window_size": 5,
        "stride": 5,
        "bins": 4,
        "arms": [
            {"name": "vanilla", "family": "vanilla",
             "model": {"hidden": 8, "heads": 2, "layers": 1},
             "train": {"epochs": 2, "batch_size": 32, "patience": None}},
            {"name": "twin", "family": "twin_tower",
             "model": {"hidden": 8, "heads": 2, "layers": 1},
             "train": {"epochs": 2, "batch_size": 32, "patience": None}},
            {"name": "hier", "family": "hierarchical",
             "model": {"hidden": 8, "heads": 2, "layers": 1, "field_layers": 1},
             "train": {"epochs": 1, "batch_size": 32, "patience": None,
                       "mlm_probability": 0.15},
             "pretrain": {"epochs": 1, "mlm_probability": 0.15}},
        ],
    }
    cfg.update(overrides)
    return cfg


def csv_config(data_dir, arm_index, **overrides):
    """base_config reading the pipeline's CSV, with one of its arms."""
    cfg = base_config(**overrides)
    cfg["data"] = {"csv": str(data_dir / "data.csv"), "schema": str(data_dir / "schema.json")}
    cfg["arms"] = [cfg["arms"][arm_index]]
    return cfg


def best_history_row(path) -> dict:
    """The first row with the least validation loss: the epoch training restored."""
    with open(path, newline="") as fh:
        return min(csv.DictReader(fh), key=lambda row: float(row["val_loss"]))


class TestValidateConfig:
    def test_valid_passes(self):
        ExperimentConfig.from_json(base_config())

    def test_needs_exactly_one_data_source(self):
        cfg = base_config()
        cfg["data"]["csv"] = "x.csv"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(cfg)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(base_config(data={}))

    def test_duplicate_arm_names(self):
        cfg = base_config()
        cfg["arms"][1]["name"] = "vanilla"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(cfg)

    def test_no_arms(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(base_config(arms=[]))

    def test_unknown_preset(self):
        cfg = base_config()
        cfg["arms"][0]["preset"] = "missing_preset"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(cfg)

    def test_non_transformer_preset(self):
        cfg = base_config()
        cfg["arms"][0]["preset"] = "default_lightgbm"
        with pytest.raises(ConfigError, match="default_lightgbm"):
            ExperimentConfig.from_json(cfg)

    def test_bad_tower_mask(self, tmp_path):
        cfg = base_config()
        cfg["arms"][1]["model"]["tower_mask"] = "sideways"
        with pytest.raises(ConfigError, match="sideways"):
            run_experiment(cfg, tmp_path)

    def test_bad_upsample(self):
        cfg = base_config()
        cfg["arms"][0]["upsample"] = "adasyn"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(cfg)

    def test_bad_task(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(base_config(task="ranking"))

    @pytest.mark.parametrize("arm, patch, key", [
        (2, {"pretrain": {"epoch": 1}}, "epoch"),
        (None, {"windowsize": 3}, "windowsize"),
        (1, {"towermask": "time"}, "towermask"),
        (1, {"tower_mask": "time"}, "tower_mask"),
        (0, {"pretrain": {"epochs": 1}}, "pretrain"),
        (1, {"pretrain": {}}, "pretrain"),
        (0, {"smote_k": 3}, "smote_k"),
        (0, {"upsample": "duplicate", "smote_k": 3}, "smote_k"),
        (0, {"target_ratio": 0.5}, "target_ratio"),
        (None, {"seed": "7"}, "seed"),
        (None, {"window_size": 2.5}, "window_size"),
    ], ids=["pretrain-typo", "experiment-typo", "arm-typo", "arm-tower_mask",
            "pretrain-on-vanilla", "pretrain-on-twin", "smote_k-without-upsample",
            "smote_k-on-duplicate", "target_ratio-without-upsample", "string-seed",
            "float-window"])
    def test_unused_or_wrong_key_fails_before_training(self, arm, patch, key, tmp_path):
        cfg = base_config()
        (cfg if arm is None else cfg["arms"][arm]).update(patch)
        with pytest.raises(ConfigError, match=key):
            run_experiment(cfg, tmp_path)
        assert not (tmp_path / "preprocess.json").exists()

    def test_bad_arm_block_fails_before_any_arm_trains(self, tmp_path):
        cfg = base_config()
        cfg["arms"][2]["model"]["hiden"] = 8
        with pytest.raises(ConfigError, match="'hiden' \\(arm 'hier'\\)"):
            run_experiment(cfg, tmp_path / "exp")
        for key, value, match in [("mlm_probability", 1.5, "MLM probability"),
                                  ("epochs", 0, "epochs")]:
            cfg = base_config()
            cfg["arms"][2]["pretrain"][key] = value
            with pytest.raises(ConfigError, match=f"{match}.*\\(arm 'hier'\\)"):
                run_experiment(cfg, tmp_path / f"pretrain-{key}")
        cfg = base_config(arms=[base_config()["arms"][0]])
        with pytest.raises(ConfigError, match="epochs.*\\(arm 'sweep_001'\\)"):
            sweep(cfg, {"epochs": [1, 0]}, tmp_path / "sweep")
        assert not [entry for out in tmp_path.iterdir() for entry in out.iterdir()]

    def test_upsample_on_regression_rejected(self, tmp_path):
        cfg = base_config(task="regression")
        cfg["arms"][0]["upsample"] = "duplicate"
        with pytest.raises(ConfigError, match="arm 'vanilla': upsample"):
            run_experiment(cfg, tmp_path)


class TestArmConfig:
    def test_arm_seeds_distinct(self):
        seeds = {_arm_seed(base, index) for base in range(20) for index in range(20)}
        assert len(seeds) == 400

    @pytest.mark.parametrize("block, key", [("train", "dropout"), ("train", "stride"),
                                            ("model", "widht")])
    def test_unread_arm_key_fails_train(self, block, key, pipeline, tmp_path, capsys):
        _, data_dir, _ = pipeline
        cfg = csv_config(data_dir, 0)
        cfg["arms"][0][block][key] = 0.5
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("key, value", [("family", "twin_tower"), ("n", 5), ("m", 5),
                                            ("head", "regression")])
    def test_derived_model_key_fails_train(self, key, value, pipeline, tmp_path, capsys):
        # the window shape, the head and the family are not the model block's to set
        _, data_dir, _ = pipeline
        cfg = csv_config(data_dir, 0)
        cfg["arms"][0]["model"][key] = value
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert f"error: arm 'vanilla': model key {key!r}" in capsys.readouterr().err

    def test_tower_mask_on_non_twin_arm_fails_train(self, pipeline, tmp_path, capsys):
        _, data_dir, _ = pipeline
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(csv_config(data_dir, 0)))  # the vanilla arm
        assert main(["train", "--config", str(cfg_path), "--tower-mask", "time",
                     "--out", str(tmp_path / "run")]) == 1
        assert "error: tower mask 'time' needs the twin_tower family" in capsys.readouterr().err

    def test_tower_mask_flag_overrides_model_block(self, pipeline, tmp_path):
        _, data_dir, _ = pipeline
        cfg = csv_config(data_dir, 1)  # the twin-tower arm
        cfg["arms"][0]["model"]["tower_mask"] = "time"
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--tower-mask", "feature",
                     "--out", str(out)]) == 0
        header, _ = load_checkpoint(out / "twin_final.ckpt")
        assert header["model_spec"]["tower_mask"] == "feature"

    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    def test_smote_on_token_arm_fails_train(self, family, pipeline, tmp_path, capsys):
        _, data_dir, _ = pipeline
        cfg = csv_config(data_dir, 2)  # the hierarchical arm
        cfg["arms"][0]["family"] = family
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--upsample", "smote",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: arm 'hier'") and "'duplicate'" in err

    def test_upsampling_through_run_experiment(self, tmp_path):
        cfg = base_config()
        cfg["arms"][0].update(upsample="smote", smote_k=3, target_ratio=0.8)
        cfg["arms"][2].update(family="hierarchical_joint", upsample="duplicate")
        cfg["arms"] = [cfg["arms"][0], cfg["arms"][2]]
        arms = run_experiment(cfg, tmp_path)["deterministic"]["arms"]
        assert arms["vanilla"]["attn_pairs"] > 0 and arms["hier"]["attn_pairs"] > 0

        # duplication keeps every input, raw values included, row for row
        ids = np.arange(40).reshape(20, 1, 2)
        y = np.array([1.0] * 4 + [0.0] * 16)
        arm = ArmConfig(name="joint", family="hierarchical_joint", upsample="duplicate")
        (up_ids, up_raw), up_y = _upsample_training_data(arm, (ids, ids * 0.5), y, seed=0)
        assert len(up_y) == 32 and up_y[20:].all()
        assert np.array_equal(up_raw, up_ids * 0.5) and np.array_equal(up_ids[:20], ids)

    @pytest.mark.parametrize("fraction", ["val_fraction", "test_fraction"])
    def test_empty_partition_rejected(self, fraction, tmp_path):
        cfg = base_config(**{fraction: 0.0})
        with pytest.raises(ConfigError, match="empty"):
            prepare(ExperimentConfig.from_json(cfg))
        with pytest.raises(ConfigError, match="empty"):
            run_experiment(cfg, tmp_path / "exp")
        with pytest.raises(ConfigError, match="empty"):
            sweep(cfg, {"learning_rate": [1e-3]}, tmp_path / "sweep")


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    report = run_experiment(base_config(), out)
    return out, report


@pytest.fixture(scope="module")
def trained_run(pipeline):
    """``tabseq train`` with the vanilla arm on the pipeline's CSV; returns
    the config path and the run directory."""
    root, data_dir, _ = pipeline
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(csv_config(data_dir, 0)))
    out = root / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> preprocess via the CLI; returns the shared paths."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({
        "entities": 40, "rows_per_entity": 20, "numerical_fields": 3,
        "categorical_cardinalities": [3, 4], "fraud_rate": 0.08,
        "temporal_signal_strength": 0.8, "cross_feature_signal_strength": 0.2,
        "noise_scale": 0.1, "seed": 5,
    }))
    data_dir = root / "data"
    assert main(["generate", "--config", str(gen_cfg),
                 "--out", str(data_dir)]) == 0
    artifact = root / "artifact.json"
    assert main(["preprocess", "--data", str(data_dir / "data.csv"),
                 "--schema", str(data_dir / "schema.json"),
                 "--bins", "4", "--out", str(artifact)]) == 0
    return root, data_dir, artifact


class TestRunExperiment:
    def test_report_layout(self, report_dir):
        out, report = report_dir
        det = report["deterministic"]
        assert set(det["arms"]) == {"vanilla", "twin", "hier"}
        assert det["seed"] == 3
        assert det["split_sizes"]["train"] > 0 and det["split_sizes"]["test"] > 0
        assert len(det["vocab_hash"]) == 64
        assert "timing" in report and "arm_seconds" in report["timing"]
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["deterministic"] == json.loads(
            json.dumps(det))  # round-trips through JSON unchanged

    def test_metrics_csv(self, report_dir):
        out, report = report_dir
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert sorted(r[0] for r in rows[1:]) == ["hier", "twin", "vanilla"]
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0  # f1 column
            assert int(row[8]) > 0  # attn_pairs

    def test_attention_pairs_match_closed_form(self, report_dir):
        _, report = report_dir
        for res in report["deterministic"]["arms"].values():
            spec = ModelSpec.from_json(res["model_spec"])
            assert res["attn_pairs"] == expected_attention_pairs(spec, 1)
            assert res["attn_pairs"] == res["attn_pairs_closed_form"]

    def test_artifacts_on_disk(self, report_dir):
        out, report = report_dir
        assert (out / "preprocess.json").exists()
        for name, res in report["deterministic"]["arms"].items():
            assert (out / f"{name}_final.ckpt").exists()
            assert (out / f"{name}_history.csv").exists()
        assert (out / "hier_pretrained.ckpt").exists()
        assert (out / "hier_pretrain_history.csv").exists()

    def test_val_metric_is_the_restored_epochs(self, report_dir):
        _, report = report_dir
        for res in report["deterministic"]["arms"].values():
            row = best_history_row(res["history"]["train"])
            assert res["val_metric"] == float(row["val_metric"])

    def test_rerun_is_byte_identical_on_deterministic_part(self, report_dir,
                                                           tmp_path):
        out, report = report_dir
        rerun = run_experiment(base_config(), tmp_path)
        a = json.dumps(report["deterministic"], sort_keys=True, default=str)
        b = json.dumps(rerun["deterministic"], sort_keys=True, default=str)
        # history/checkpoint paths differ by output directory; normalize them
        a = a.replace(str(out), "OUT")
        b = b.replace(str(tmp_path), "OUT")
        assert a == b
        for name in report["deterministic"]["arms"]:
            assert (out / f"{name}_final.ckpt").read_bytes() == \
                (tmp_path / f"{name}_final.ckpt").read_bytes()


class TestAblation:
    def test_three_masks_share_seed(self, tmp_path):
        cfg = base_config()
        cfg["arms"] = [cfg["arms"][1]]  # just the twin-tower arm
        report = ablate_towers(cfg, tmp_path)
        arms = report["deterministic"]["arms"]
        assert set(arms) == {"twin_both", "twin_time", "twin_feature"}
        seeds = {res["train_config"]["seed"] for res in arms.values()}
        assert len(seeds) == 1
        for name, res in arms.items():
            assert res["model_spec"]["family"] == "twin_tower"

    def test_masks_override_model_block(self, tmp_path):
        cfg = base_config()
        cfg["arms"] = [cfg["arms"][1]]
        cfg["arms"][0]["model"]["tower_mask"] = "time"
        arms = ablate_towers(cfg, tmp_path)["deterministic"]["arms"]
        assert {name: res["model_spec"]["tower_mask"] for name, res in arms.items()} == \
            {"twin_both": "both", "twin_time": "time", "twin_feature": "feature"}

    def test_requires_twin_tower_arm(self, tmp_path):
        cfg = base_config()
        cfg["arms"] = [cfg["arms"][0]]
        with pytest.raises(ConfigError):
            ablate_towers(cfg, tmp_path)


class TestSweep:
    def sweep_config(self):
        cfg = base_config()
        cfg["arms"] = [cfg["arms"][0]]
        cfg["arms"][0]["train"]["epochs"] = 1
        return cfg

    def test_single_point_grid(self, tmp_path):
        report = sweep(self.sweep_config(), {"learning_rate": [1e-3]}, tmp_path)
        det = report["deterministic"]
        assert len(det["points"]) == 1
        assert det["best"]["point"] == {"learning_rate": 1e-3}
        assert "f1" in det["best"]["test_metrics"]

    def test_budget_limits_points(self, tmp_path):
        grid = {"learning_rate": [1e-4, 1e-3, 1e-2], "batch_size": [16, 32]}
        report = sweep(self.sweep_config(), grid, tmp_path, budget=2)
        det = report["deterministic"]
        assert len(det["points"]) == 2
        assert det["budget"] == 2
        assert det["best"]["val_metric"] == max(p["val_metric"]
                                                for p in det["points"])

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(self.sweep_config(), {}, tmp_path)

    def test_grid_over_model_block_key(self, tmp_path):
        cfg = base_config()
        cfg["arms"] = [dict(cfg["arms"][2], family="hierarchical_joint")]
        report = sweep(cfg, {"mlm_lambda": [0.5, 2.0]}, tmp_path)
        for point in report["deterministic"]["points"]:
            header, _ = load_checkpoint(tmp_path / f"{point['arm']}_final.ckpt")
            assert header["model_spec"]["mlm_lambda"] == point["point"]["mlm_lambda"]

    def test_grid_over_seed(self, tmp_path):
        report = sweep(self.sweep_config(), {"seed": [1, 2]}, tmp_path)
        seeds = [load_checkpoint(tmp_path / f"{point['arm']}_final.ckpt")[0]["seed"]
                 for point in report["deterministic"]["points"]]
        assert seeds == [1, 2]

    def test_val_metric_from_training_history(self, tmp_path):
        report = sweep(self.sweep_config(), {"learning_rate": [1e-3, 1e-2]}, tmp_path)
        for point in report["deterministic"]["points"]:
            row = best_history_row(tmp_path / f"{point['arm']}_history.csv")
            assert point["val_metric"] == float(row["val_metric"])


NO_FILE = "No such file or directory"


class TestCli:
    def test_generate_outputs(self, pipeline):
        _, data_dir, _ = pipeline
        assert (data_dir / "data.csv").exists()
        assert (data_dir / "schema.json").exists()

    def test_train_and_report(self, trained_run, capsys):
        _, out = trained_run
        assert (out / "report.json").exists()
        assert main(["report", "--report", str(out / "report.json")]) == 0
        table = capsys.readouterr().out
        assert "vanilla" in table and "F1" in table

    def test_evaluate_checkpoint(self, pipeline, trained_run, tmp_path):
        _, data_dir, _ = pipeline
        _, out = trained_run
        ckpt = out / "vanilla_final.ckpt"
        assert ckpt.exists()
        metrics_path = tmp_path / "metrics.json"
        assert main(["evaluate", "--data", str(data_dir / "data.csv"),
                     "--schema", str(data_dir / "schema.json"),
                     "--artifact", str(out / "preprocess.json"), "--window", "5",
                     "--stride", "5", "--checkpoint", str(ckpt),
                     "--out", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) >= {"precision", "recall", "f1", "gini"}

    def evaluate_args(self, data_csv, data_dir, out, *extra):
        return ["evaluate", "--data", str(data_csv), "--schema", str(data_dir / "schema.json"),
                "--artifact", str(out / "preprocess.json"), "--window", "5", "--stride", "5",
                "--checkpoint", str(out / "vanilla_final.ckpt"), *extra]

    def test_evaluate_matches_restored_model(self, pipeline, trained_run, tmp_path):
        # `tabseq evaluate` reports the metrics of restore_model's scores
        _, data_dir, _ = pipeline
        _, out = trained_run
        metrics_path = tmp_path / "metrics.json"
        assert main(self.evaluate_args(data_dir / "data.csv", data_dir, out,
                                       "--out", str(metrics_path))) == 0
        artifact = PreprocessArtifact.load(out / "preprocess.json")
        model = restore_model(out / "vanilla_final.ckpt", artifact)
        data = impute_missing(load_csv(data_dir / "data.csv",
                                       Schema.load(data_dir / "schema.json")))
        windows = make_windows(data, 5, 5, "any_positive")
        scores = predict_scores(model, encode_inputs(windows, artifact, model.spec.family))
        expected = evaluate_scores(scores, window_labels(windows), "binary")
        del expected["tie_warning"]
        assert json.loads(metrics_path.read_text()) == expected

    def test_evaluate_all_negative_labels(self, pipeline, trained_run, tmp_path):
        # one class in the held-out data: F1 is defined, the rank metrics are NaN
        _, data_dir, _ = pipeline
        _, out = trained_run
        data = load_csv(data_dir / "data.csv", Schema.load(data_dir / "schema.json"))
        label = data.schema.index_of(data.schema.label_key)
        negative = tuple(Record(r.values[:label] + (0.0,) + r.values[label + 1:],
                                r.entity, r.time_index) for r in data.records)
        negative_csv = tmp_path / "negative.csv"
        save_csv(Dataset(data.schema, negative), negative_csv)
        metrics_path = tmp_path / "metrics.json"
        assert main(self.evaluate_args(negative_csv, data_dir, out,
                                       "--out", str(metrics_path))) == 0
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics) == {"precision", "recall", "f1", "gini", "capture_at_4",
                                "metric_m"}
        assert metrics["f1"] == 0.0
        assert all(math.isnan(metrics[k]) for k in ("gini", "capture_at_4", "metric_m"))

    def test_evaluate_rejects_task_of_other_head(self, pipeline, trained_run, capsys):
        _, data_dir, _ = pipeline
        _, out = trained_run
        assert main(self.evaluate_args(data_dir / "data.csv", data_dir, out,
                                       "--task", "regression")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'binary'" in err and "'regression'" in err

    def test_evaluate_rejects_other_vocabulary(self, pipeline, trained_run, capsys):
        # the pipeline's artifact is fitted on the seed-0 split, the
        # checkpoint on the experiment's own (seed-3) split
        _, data_dir, artifact = pipeline
        _, out = trained_run
        assert main(["evaluate", "--data", str(data_dir / "data.csv"),
                     "--schema", str(data_dir / "schema.json"),
                     "--artifact", str(artifact), "--window", "5", "--stride", "5",
                     "--checkpoint", str(out / "vanilla_final.ckpt")]) == 1
        assert "error: checkpoint was built against a different" in capsys.readouterr().err

    def test_evaluate_reproduces_ablation_arm(self, pipeline, tmp_path):
        # the checkpoint keeps its tower mask: scoring the test split through
        # `tabseq evaluate` gives the metrics the ablation reported
        _, data_dir, _ = pipeline
        cfg = csv_config(data_dir, 1)  # the twin-tower arm
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
        reported = json.loads((out / "report.json").read_text())["deterministic"]["arms"]

        (_, _, test_w), _ = prepare(ExperimentConfig.from_json(cfg))
        entities = {w.entity for w in test_w}
        data = load_csv(data_dir / "data.csv", Schema.load(data_dir / "schema.json"))
        test_csv = tmp_path / "test.csv"
        save_csv(Dataset(data.schema, tuple(r for r in data.records if r.entity in entities)),
                 test_csv)
        for mask in ("time", "feature"):
            metrics_path = tmp_path / f"{mask}.json"
            assert main(["evaluate", "--data", str(test_csv),
                         "--schema", str(data_dir / "schema.json"),
                         "--artifact", str(out / "preprocess.json"), "--window", "5",
                         "--stride", "5", "--checkpoint", str(out / f"twin_{mask}_final.ckpt"),
                         "--out", str(metrics_path)]) == 0
            metrics = json.loads(metrics_path.read_text())
            arm = reported[f"twin_{mask}"]
            assert {k: arm[k] for k in metrics} == pytest.approx(metrics, abs=1e-6)

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_vocabulary_checked_before_data(self, command, pipeline, tmp_path, capsys):
        # the data path does not exist: a file error would mean the CSV was read first
        _, data_dir, artifact = pipeline
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(ckpt, {}, {"family": "hierarchical"}, vocab_hash="0" * 64)
        assert main([command, "--data", str(tmp_path / "absent.csv"),
                     "--schema", str(data_dir / "schema.json"),
                     "--artifact", str(artifact), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "out")]) == 1
        assert "error: checkpoint was built against a different" in capsys.readouterr().err

    def test_evaluate_rejects_other_schema(self, pipeline, trained_run, tmp_path, capsys):
        # the artifact's schema reads the CSV; a --schema that differs is refused
        _, data_dir, _ = pipeline
        _, out = trained_run
        doc = json.loads((data_dir / "schema.json").read_text())
        names = [f["name"] for f in doc["fields"]]
        i, j = names.index("num_0"), names.index("num_1")
        doc["fields"][i], doc["fields"][j] = doc["fields"][j], doc["fields"][i]
        (tmp_path / "schema.json").write_text(json.dumps(doc))
        assert main(self.evaluate_args(data_dir / "data.csv", tmp_path, out)) == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'schema.json'} is not the schema of {out / 'preprocess.json'}\n"

    def test_pretrain_windows_at_experiment_default(self, pipeline, tmp_path):
        # a preset's window_size (12 for default_tabbert) is not a pretrain default
        _, data_dir, artifact = pipeline
        ckpt = tmp_path / "pre.ckpt"
        data = ["--data", str(data_dir / "data.csv"), "--schema", str(data_dir / "schema.json"),
                "--artifact", str(artifact)]
        assert main(["pretrain", *data, "--preset", "default_tabbert", "--hidden", "8",
                     "--heads", "2", "--epochs", "1", "--out", str(ckpt)]) == 0
        assert load_checkpoint(ckpt)[0]["model_spec"]["n"] == ExperimentConfig.window_size
        assert main(["finetune", *data, "--checkpoint", str(ckpt), "--epochs", "1",
                     "--out", str(tmp_path / "tuned.ckpt")]) == 0

    @pytest.mark.parametrize("command, flag", [
        ("generate", "--config"), ("preprocess", "--schema"), ("pretrain", "--artifact"),
        ("pretrain", "--schema"), ("train", "--config"), ("finetune", "--artifact"),
        ("evaluate", "--artifact"), ("evaluate", "--schema"), ("ablate", "--config"),
        ("sweep", "--config"), ("sweep", "--grid"), ("report", "--report"),
    ])
    def test_truncated_json_file(self, command, flag, pipeline, trained_run, tmp_path,
                                 capsys):
        root, data_dir, artifact = pipeline
        cfg_path, run = trained_run
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"learning_rate": [1e-3]}))
        data = ["--data", str(data_dir / "data.csv"), "--schema", str(data_dir / "schema.json")]
        scored = [*data, "--artifact", str(run / "preprocess.json"),
                  "--checkpoint", str(run / "vanilla_final.ckpt")]
        out = ["--out", str(tmp_path / "out")]
        args = {
            "generate": ["--config", str(root / "gen.json"), *out],
            "preprocess": [*data, *out],
            "pretrain": [*data, "--artifact", str(artifact), "--preset", "fraud_tabbert", *out],
            "train": ["--config", str(cfg_path), *out],
            "finetune": [*scored, *out],
            "evaluate": [*scored, *out],
            "ablate": ["--config", str(cfg_path), *out],
            "sweep": ["--config", str(cfg_path), "--grid", str(grid), *out],
            "report": ["--report", str(run / "report.json")],
        }[command]
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": ')
        args[args.index(flag) + 1] = str(bad)
        assert main([command, *args]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("command, flag, target, reason", [
        pytest.param("train", "--config", "absent", NO_FILE, id="train---config"),
        pytest.param("evaluate", "--data", "absent", NO_FILE, id="evaluate---data"),
        pytest.param("evaluate", "--artifact", "absent", NO_FILE, id="evaluate---artifact"),
        pytest.param("evaluate", "--checkpoint", "absent", NO_FILE, id="evaluate---checkpoint"),
        pytest.param("evaluate", "--out", "nodir/x.json", NO_FILE, id="evaluate---out-nodir"),
        pytest.param("evaluate", "--out", "dir", "Is a directory", id="evaluate---out-dir"),
        pytest.param("generate", "--out", "file", "File exists", id="generate---out-file"),
        pytest.param("train", "--out", "file", "File exists", id="train---out-file"),
    ])
    def test_missing_file(self, command, flag, target, reason, pipeline, trained_run,
                          tmp_path, capsys):
        root, data_dir, _ = pipeline
        cfg_path, run = trained_run
        args = {"train": ["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                "evaluate": self.evaluate_args(data_dir / "data.csv", data_dir, run,
                                               "--out", str(tmp_path / "out.json")),
                "generate": ["generate", "--config", str(root / "gen.json"),
                             "--out", str(tmp_path / "out")]}[command]
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        path = tmp_path / target
        args[args.index(flag) + 1] = str(path)
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_finetune_rejects_negative_fraction(self, pipeline, trained_run, tmp_path,
                                                capsys):
        _, data_dir, _ = pipeline
        _, run = trained_run
        args = self.evaluate_args(data_dir / "data.csv", data_dir, run)
        out = tmp_path / "ft.ckpt"
        assert main(["finetune", *args[1:], "--val-fraction", "-0.1", "--out", str(out)]) == 1
        assert "sum to less than 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("val, test, empty", [("0", "0.15", "validation"),
                                                  ("0.5", "0.49", "train")])
    def test_finetune_rejects_empty_partition(self, val, test, empty, pipeline, trained_run,
                                              tmp_path, capsys):
        # 40 entities: --val-fraction 0 leaves no validation entity, 20 + 20 leave no train one
        _, data_dir, _ = pipeline
        _, run = trained_run
        args = self.evaluate_args(data_dir / "data.csv", data_dir, run)
        out = tmp_path / "ft.ckpt"
        assert main(["finetune", *args[1:], "--val-fraction", val, "--test-fraction", test,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: entity split produced an empty {empty} partition\n"
        assert not out.exists()

    def test_pretrain_rejects_non_transformer_preset(self, pipeline, tmp_path, capsys):
        _, data_dir, artifact = pipeline
        assert main(["pretrain", "--data", str(data_dir / "data.csv"),
                     "--schema", str(data_dir / "schema.json"),
                     "--artifact", str(artifact), "--preset", "default_lightgbm",
                     "--out", str(tmp_path / "pre.ckpt")]) == 1
        assert "error: preset 'default_lightgbm'" in capsys.readouterr().err

    def test_error_exit_code(self, pipeline, capsys):
        root, data_dir, _ = pipeline
        cfg_path = root / "bad.json"
        cfg_path.write_text(json.dumps({"data": {}, "arms": []}))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(root / "bad_run")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_console_script_help(self):
        # Run the [project.scripts] entry as pip's generated wrapper does, so
        # the declared target is checked from a checkout without an install.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["tabseq"]
        module, attr = entry.split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {attr}; "
             f"sys.argv[0] = 'tabseq'; sys.exit({attr}())", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "sweep" in proc.stdout
        assert proc.stdout == subprocess.run(
            MODULE_HELP, capture_output=True, text=True).stdout

    def test_module_invocation_matches(self):
        proc = subprocess.run(MODULE_HELP, capture_output=True, text=True)
        assert proc.returncode == 0


@pytest.mark.parametrize("writer", ["save_checkpoint", "save_csv", "to_csv", "write_report"])
def test_writer_names_unwritable_path(writer, report_dir, tmp_path):
    path = tmp_path / "metrics.csv"
    path.mkdir()  # a directory where the file should go
    write = {
        "save_checkpoint": lambda: save_checkpoint(path, {"w": np.zeros(2)}, {}),
        "save_csv": lambda: save_csv(
            Dataset(PreprocessArtifact.load(report_dir[0] / "preprocess.json").schema, ()), path),
        "to_csv": lambda: TrainHistory().to_csv(path),
        "write_report": lambda: write_report(report_dir[1], tmp_path),
    }[writer]
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: Is a directory$"):
        write()


def test_commands_share_one_entity_split(tmp_path, monkeypatch):
    # 40 entities of 12 rows with the first three cut to 5: at window 10 they
    # have no window, yet `tabseq preprocess` shuffles them with the rest
    data = generate_fraud_dataset(GenConfig(entities=40, rows_per_entity=12, seed=0))
    short = set(sorted({r.entity for r in data.records})[:3])
    kept = Dataset(data.schema, tuple(r for r in data.records
                                      if r.entity not in short or r.time_index < 5))
    csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.json"
    save_csv(kept, csv_path)
    kept.schema.save(schema_path)
    expect = split_entity_names({r.entity for r in kept.records}, 0.15, 0.15, 0)
    windows = make_windows(kept, 10, 1)
    assert not short & {w.entity for w in windows}
    # the split of the windows' own entities alone disagrees with preprocess's
    assert any(not {w.entity for w in part} <= names
               for part, names in zip(split_entities(windows, 0.15, 0.15, 0), expect))

    def within_expected(splits):
        return all({w.entity for w in part} <= names for part, names in zip(splits, expect))

    cfg = base_config(seed=0, window_size=10, stride=1)
    cfg["data"] = {"csv": str(csv_path), "schema": str(schema_path)}
    assert within_expected(prepare(ExperimentConfig.from_json(cfg))[0])

    data_args = ["--data", str(csv_path), "--schema", str(schema_path), "--seed", "0"]
    artifact = tmp_path / "artifact.json"
    assert main(["preprocess", *data_args, "--bins", "4", "--out", str(artifact)]) == 0
    fitted = PreprocessArtifact.load(artifact)
    assert fitted.content_hash() == fit_preprocess(
        Dataset(kept.schema, tuple(r for r in kept.records if r.entity in expect[0])),
        bins=4).content_hash()
    common = [*data_args, "--artifact", str(artifact), "--window", "10", "--stride", "1"]
    ckpt = tmp_path / "pre.ckpt"
    assert main(["pretrain", *common, "--preset", "default_tabbert", "--hidden", "8",
                 "--heads", "2", "--epochs", "1", "--out", str(ckpt)]) == 0
    seen = []
    monkeypatch.setattr(cli, "split_entities",
                        lambda *a, **k: seen.append(split_entities(*a, **k)) or seen[-1])
    assert main(["finetune", *common, "--checkpoint", str(ckpt), "--epochs", "1",
                 "--out", str(tmp_path / "tuned.ckpt")]) == 0
    assert len(seen) == 1 and within_expected(seen[0])
