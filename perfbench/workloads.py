"""The three benchmark workloads: input generation, the timed pipeline, and
the output checks.

Every input derives from the workload seed. ``prepare`` writes the inputs
(its time is reported as ``synthgen.generate_s`` and kept out of every
end-to-end metric); ``run`` is the timed pipeline and returns its operations
with their check results, the deterministic outputs that are digested, and
the hierarchical model's test M.

``full`` is the benchmarked size. ``tiny`` runs the same code path in a few
seconds for the self-test.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time

WORKLOADS = ("quickstart", "pretrain_finetune", "score")
SCORE_FAMILIES = ("vanilla", "twin_tower", "hierarchical", "hierarchical_joint")
WINDOW = 10
BINS = 8

# README quick-start generator; its seed is replaced by the workload seed
_README_GEN = {"entities": 200, "rows_per_entity": 40, "numerical_fields": 4,
               "categorical_cardinalities": [3, 4], "fraud_rate": 0.05,
               "temporal_signal_strength": 0.9, "cross_feature_signal_strength": 0.1,
               "noise_scale": 0.1, "serial_correlation": 0.3}
_TINY = {"entities": 60, "rows_per_entity": 20}


def _gen_config(size: str, seed: int, **overrides) -> dict:
    cfg = dict(_README_GEN, seed=seed, **overrides)
    if size == "tiny":
        cfg.update(_TINY)
    return cfg


def _arm(name, family, epochs, pretrain_epochs=None):
    model = {"hidden": 16, "heads": 2, "layers": 1}
    arm = {"name": name, "family": family, "model": model,
           "train": {"epochs": epochs, "batch_size": 64}}
    if family.startswith("hierarchical"):
        model["field_layers"] = 1
        arm["train"]["mlm_probability"] = 0.15
        arm["pretrain"] = {"epochs": pretrain_epochs, "mlm_probability": 0.15}
    return arm


def _experiment(seed: int, stride: int, arms) -> dict:
    return {"data": {"csv": "data/data.csv", "schema": "data/schema.json"},
            "task": "fraud", "seed": seed, "window_size": WINDOW, "stride": stride,
            "bins": BINS, "arms": arms}


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _generate(gen: dict, out_dir: str) -> float:
    """Write ``gen`` as a generator config and run ``tabseq generate``."""
    from tabseq import cli

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "gen.json")
    _write_json(path, gen)
    t0 = time.perf_counter()
    if cli.main(["generate", "--config", path, "--out", out_dir]) != 0:
        raise RuntimeError(f"tabseq generate failed for {path}")
    return time.perf_counter() - t0


# -- output checks ------------------------------------------------------------

def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_rank_metrics(res: dict) -> str | None:
    """None when F1 parts lie in [0, 1] and Gini, capture and M in [-1, 1]."""
    for key in ("precision", "recall", "f1", "capture_at_4"):
        if not (_finite(res.get(key)) and 0.0 <= res[key] <= 1.0):
            return f"{key}={res.get(key)!r} outside [0, 1]"
    for key in ("gini", "metric_m"):
        if not (_finite(res.get(key)) and -1.0 <= res[key] <= 1.0):
            return f"{key}={res.get(key)!r} outside [-1, 1]"
    return None


def _op(name, error=None) -> dict:
    return {"name": name, "ok": error is None, "error": error}


# -- quickstart ----------------------------------------------------------------

def _quickstart_experiment(size: str, seed: int) -> dict:
    e = 1 if size == "tiny" else None
    return _experiment(seed, 5, [
        _arm("vanilla", "vanilla", e or 4),
        _arm("twin", "twin_tower", e or 4),
        _arm("hier", "hierarchical", e or 2, pretrain_epochs=e or 3),
    ])


def prepare_quickstart(size: str, seed: int, inputs: str, cache: str) -> float:
    _write_json(os.path.join(inputs, "exp.json"), _quickstart_experiment(size, seed))
    return _generate(_gen_config(size, seed), os.path.join(inputs, "data"))


def run_quickstart(size: str, seed: int, cache: str, ops: list) -> dict:
    """The README experiment through ``run_experiment``; cwd is the inputs
    directory, so the report's relative paths match a direct run."""
    from tabseq import bench

    shutil.rmtree("run", ignore_errors=True)
    cfg = bench.load_experiment_config("exp.json")
    bench.run_experiment(cfg, "run")
    t_done = time.perf_counter()
    with open(os.path.join("run", "report.json"), encoding="utf-8") as fh:
        det = json.load(fh)["deterministic"]
    for arm in cfg["arms"]:
        res = det["arms"].get(arm["name"])
        if res is None:
            ops.append(_op(arm["name"], "arm missing from report"))
            continue
        error = check_rank_metrics(res)
        if error is None and res["attn_pairs"] != res["attn_pairs_closed_form"]:
            error = (f"attn_pairs {res['attn_pairs']} != closed form "
                     f"{res['attn_pairs_closed_form']}")
        ops.append(_op(arm["name"], error))
    hier = det["arms"].get("hier", {}).get("metric_m")
    return {"t_done": t_done, "deterministic": det, "hier_metric_m": hier}


# -- pretrain_finetune -----------------------------------------------------------

def prepare_pretrain_finetune(size: str, seed: int, inputs: str, cache: str) -> float:
    gen = _gen_config(size, seed, entities=600, serial_correlation=0.5)
    return _generate(gen, os.path.join(inputs, "data"))


def run_pretrain_finetune(size: str, seed: int, cache: str, ops: list) -> dict:
    """Acceptance-criterion-7 shapes at stride 1: one MLM epoch on every
    train window, then one fine-tune seed on 5% of the labels for 5 epochs
    with validation each epoch, then scoring of the test split."""
    import numpy as np
    from tabseq.metrics import f1, rank_metrics
    from tabseq.models import ModelSpec, build_model
    from tabseq.preprocess import encode_tokens, fit_preprocess
    from tabseq.schema import Dataset, Schema, impute_missing, load_csv, make_windows
    from tabseq.training import (TrainConfig, fine_tune, predict_scores, pretrain_mlm,
                                 save_pretrained, split_entities)

    data = impute_missing(load_csv("data/data.csv", Schema.load("data/schema.json")))
    windows = make_windows(data, WINDOW, 1, "any_positive")
    train_w, val_w, test_w = split_entities(windows, 0.15, 0.15, seed)
    entities = {w.entity for w in train_w}
    art = fit_preprocess(Dataset(data.schema, tuple(r for r in data.records
                                                    if r.entity in entities)), bins=BINS)

    def ids(ws):
        return np.stack([encode_tokens(w, data.schema, art.vocab, art.quantizers).ids
                         for w in ws])

    def labels(ws):
        return np.array([w.label for w in ws], dtype=np.float64)

    train_ids, val_ids, test_ids = ids(train_w), ids(val_w), ids(test_w)
    spec = ModelSpec("hierarchical", WINDOW, data.schema.n_features, hidden=16, heads=2,
                     layers=1, field_layers=1, head="mlm")
    model, pre_hist = pretrain_mlm(
        build_model(spec, seed=seed, vocab=art.vocab), train_ids, None,
        TrainConfig(learning_rate=1e-3, batch_size=64, epochs=1, mlm_probability=0.15,
                    patience=None, seed=seed))
    save_pretrained("pretrained.ckpt", model, art, seed)
    ok = len(pre_hist.train_loss) == 1 and all(map(_finite, pre_hist.train_loss))
    ops.append(_op("pretrain", None if ok else f"MLM losses {pre_hist.train_loss}"))

    train_y, test_y = labels(train_w), labels(test_w)
    keep = np.random.default_rng(seed).permutation(len(train_y))[: int(0.05 * len(train_y))]
    epochs = 2 if size == "tiny" else 5
    tuned, hist = fine_tune(
        "pretrained.ckpt", ((train_ids[keep], None), train_y[keep]),
        ((val_ids, None), labels(val_w)),
        TrainConfig(learning_rate=3e-4, batch_size=32, epochs=epochs, patience=None,
                    seed=seed), art)
    scores = predict_scores(tuned, (test_ids, None))
    p, r, s = f1(scores >= 0.5, test_y)
    rm = rank_metrics(scores, test_y)
    test = {"precision": p, "recall": r, "f1": s, "gini": rm.gini,
            "capture_at_4": rm.capture_at_4, "metric_m": rm.metric_m}
    _write_json("scores.json", {"scores": scores.tolist(), "test": test})
    t_done = time.perf_counter()

    error = check_rank_metrics(test)
    if error is None and len(hist.epochs) != epochs:
        error = f"fine-tune ran {len(hist.epochs)} of {epochs} epochs"
    if error is None and not (len(scores) == len(test_w)
                              and np.all((scores >= 0.0) & (scores <= 1.0))):
        error = "test scores missing or outside [0, 1]"
    ops.append(_op("fine_tune", error))
    det = {"split_sizes": [len(train_w), len(val_w), len(test_w)],
           "vocab_hash": art.content_hash(), "pretrain_loss": pre_hist.train_loss,
           "labelled_windows": len(keep),
           "fine_tune": {"train_loss": hist.train_loss, "val_loss": hist.val_loss,
                         "val_metric": hist.val_metric},
           "test": test, "scores": scores.tolist()}
    return {"t_done": t_done, "deterministic": det, "hier_metric_m": rm.metric_m}


# -- score -----------------------------------------------------------------------

def _score_fixture(size: str, seed: int, cache: str) -> None:
    """Train the four fixture checkpoints (one short epoch each) once per seed."""
    done = os.path.join(cache, "fixture.done")
    if os.path.exists(done):
        return
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    _generate(_gen_config(size, seed), os.path.join(cache, "data"))
    arms = [_arm(f, f, 1, pretrain_epochs=1) for f in SCORE_FAMILIES]
    for arm in arms:
        arm["train"]["patience"] = None
    _write_json(os.path.join(cache, "exp.json"), _experiment(seed, 5, arms))
    from tabseq import cli

    cwd = os.getcwd()
    os.chdir(cache)
    try:
        if cli.main(["train", "--config", "exp.json", "--out", "run"]) != 0:
            raise RuntimeError("fixture training failed")
    finally:
        os.chdir(cwd)
    open(done, "w").close()


def prepare_score(size: str, seed: int, inputs: str, cache: str) -> float:
    _score_fixture(size, seed, cache)
    gen = _gen_config(size, seed + 100_003)  # held out: a seed the fixture never saw
    return _generate(gen, os.path.join(inputs, "heldout"))


def run_score(size: str, seed: int, cache: str, ops: list) -> dict:
    """Score the held-out CSV with each fixture checkpoint via ``tabseq evaluate``."""
    from tabseq import cli

    shutil.rmtree("scores", ignore_errors=True)
    os.makedirs("scores")
    det = {}
    for family in SCORE_FAMILIES:
        out = os.path.join("scores", f"{family}.json")
        rc = cli.main([
            "evaluate", "--data", "heldout/data.csv", "--schema", "heldout/schema.json",
            "--artifact", os.path.join(cache, "run", "preprocess.json"),
            "--checkpoint", os.path.join(cache, "run", f"{family}_final.ckpt"),
            "--window", str(WINDOW), "--stride", "1", "--out", out])
        if rc != 0:
            ops.append(_op(family, f"tabseq evaluate exited {rc}"))
            continue
        with open(out, encoding="utf-8") as fh:
            det[family] = json.load(fh)
        ops.append(_op(family, check_rank_metrics(det[family])))
    t_done = time.perf_counter()
    hier = det.get("hierarchical", {}).get("metric_m")
    return {"t_done": t_done, "deterministic": det, "hier_metric_m": hier}


# workloads whose whole set-up precedes their first model step, so a run
# that stops there measures the same setup_s as a full repetition
SETUP_FIRST = ("pretrain_finetune",)

# the operations each run attempts, in order; fail_fraction counts these
OPERATIONS = {"quickstart": ("vanilla", "twin", "hier"),
              "pretrain_finetune": ("pretrain", "fine_tune"),
              "score": SCORE_FAMILIES}
PREPARE = {"quickstart": prepare_quickstart, "pretrain_finetune": prepare_pretrain_finetune,
           "score": prepare_score}
RUN = {"quickstart": run_quickstart, "pretrain_finetune": run_pretrain_finetune,
       "score": run_score}
