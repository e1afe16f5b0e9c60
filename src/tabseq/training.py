"""Training mechanisms: direct supervised training, and decoupled masked-cell
pretraining followed by fine-tuning, plus token masking, entity-level data
splitting, and shipped hyperparameter presets.

Everything here is deterministic given (config, seed, data): batch order,
dropout masks, and token masks are all drawn from streams derived from the
run seed, and Adam updates are serial.
"""

from __future__ import annotations

import csv
import importlib.resources
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import JsonConfig, output_to
from .errors import (ConfigError, DegenerateLabels, DivergenceError, EmptyResult, RangeError,
                     ShapeError, VocabularyMismatch)
from .metrics import f1, rank_metrics, rmse, tie_fraction
from .models import HierarchicalModel, ModelSpec, build_model
from .nn import Adam, cross_entropy, mse
from .nn import tensor as T
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .preprocess import MASK, N_SPECIALS, PreprocessArtifact, encode_numeric, encode_tokens
from .schema import SequenceWindow

# task -> (window labelling rule, model head)
TASKS = {"fraud": ("any_positive", "binary"), "regression": ("last_target", "regression")}


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    batch_size: int = 64
    epochs: int = 10
    mlm_probability: float | None = None
    seed: int = 0
    patience: int | None = 5

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.optimizer != "adam":
            raise ConfigError(f"unsupported optimizer {self.optimizer!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.mlm_probability is not None and not 0.0 < self.mlm_probability < 1.0:
            raise ConfigError("MLM probability must lie in (0, 1)")


@dataclass
class TrainHistory:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    best_epoch: int | None = None  # the epoch whose state the fit restored

    def append(self, epoch, train_loss, val_loss, val_metric, seconds):
        self.epochs.append(epoch)
        self.train_loss.append(train_loss)
        self.val_loss.append(val_loss)
        self.val_metric.append(val_metric)
        self.seconds.append(seconds)

    def to_csv(self, path) -> None:
        with output_to(path), open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "val_metric", "seconds"])
            for row in zip(self.epochs, self.train_loss, self.val_loss,
                           self.val_metric, self.seconds):
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def split_entity_names(entities, val_fraction: float, test_fraction: float, seed: int):
    """Shuffle entity names and partition them into (train, val, test) sets."""
    if not (val_fraction >= 0.0 and test_fraction >= 0.0 and val_fraction + test_fraction < 1.0):
        raise ConfigError(f"val_fraction {val_fraction} and test_fraction {test_fraction} "
                          "must each be at least 0 and sum to less than 1")
    entities = sorted(entities)
    order = _rng(seed, 0xE).permutation(len(entities))
    shuffled = [entities[i] for i in order]
    n_val = int(round(val_fraction * len(entities)))
    n_test = int(round(test_fraction * len(entities)))
    val_set = set(shuffled[:n_val])
    test_set = set(shuffled[n_val : n_val + n_test])
    train_set = set(shuffled[n_val + n_test :])
    return train_set, val_set, test_set


def split_entities(windows: list[SequenceWindow], val_fraction: float,
                   test_fraction: float, seed: int, entities=None):
    """Partition windows entity-wise into train/val/test (no entity leakage) by
    the split of ``entities``, by default the windows' own. Pass every entity
    of the dataset, as ``tabseq preprocess`` splits them, so that an entity
    with fewer rows than the window still takes its place in the shuffle."""
    train_set, val_set, test_set = split_entity_names(
        {w.entity for w in windows} if entities is None else entities,
        val_fraction, test_fraction, seed
    )
    train = [w for w in windows if w.entity in train_set]
    val = [w for w in windows if w.entity in val_set]
    test = [w for w in windows if w.entity in test_set]
    return train, val, test


def require_partitions(splits) -> None:
    """Reject an entity split whose (train, validation[, test]) partitions
    include an empty one."""
    for name, part in zip(("train", "validation", "test"), splits):
        if not part:
            raise ConfigError(f"entity split produced an empty {name} partition")


def encode_inputs(windows: list[SequenceWindow], artifact: PreprocessArtifact, family: str):
    """``family``'s model inputs for equal-length windows, from one encoder call over all
    their rows: ``(features,)``, or ``(ids, raw)`` with ``raw`` only for hierarchical_joint."""
    if not windows:
        raise EmptyResult("no windows to encode")
    shape = (len(windows), len(windows[0].rows), artifact.schema.n_features)
    if any(len(w.rows) != shape[1] for w in windows):
        raise ShapeError(f"windows to encode differ in length (the first has {shape[1]} rows)")
    block = SequenceWindow("", tuple(r for w in windows for r in w.rows))
    if not family.startswith("hierarchical"):
        return (encode_numeric(block, artifact.schema, artifact.numeric).values.reshape(shape),)
    grid = encode_tokens(block, artifact.schema, artifact.vocab, artifact.quantizers,
                         family == "hierarchical_joint")
    return grid.ids.reshape(shape), None if grid.raw is None else grid.raw.reshape(shape)


def window_labels(windows: list[SequenceWindow]) -> np.ndarray:
    return np.array([w.label for w in windows], dtype=np.float64)


def mask_tokens(ids: np.ndarray, p: float, rng: np.random.Generator):
    """Independently mask non-special cells with probability p.

    Returns (masked ids, boolean mask, original ids). Cells already holding
    special tokens (PAD/MASK/UNK/CLS) are never selected.
    """
    if not 0.0 < p < 1.0:
        raise ConfigError("masking probability must lie in (0, 1)")
    eligible = ids >= N_SPECIALS
    mask = (rng.random(ids.shape) < p) & eligible
    masked = ids.copy()
    masked[mask] = MASK
    return masked, mask, ids


def index_inputs(inputs: tuple, idx) -> tuple:
    """The windows ``idx`` of every model input array; an absent input
    (``raw`` of a family without raw values) stays None."""
    return tuple(a[idx] if a is not None else None for a in inputs)


def _supervised_loss(model, out, y):
    if model.spec.head == "binary":
        return cross_entropy(out, y.astype(np.int64))
    return mse(T.reshape(out, y.shape), T.Tensor(y))


def _logits(model, inputs, batch_size: int = 512) -> list[np.ndarray]:
    """Model outputs per batch of ``batch_size`` windows, computed without a tape;
    a hierarchical model encodes each distinct row of a batch once."""
    n = len(inputs[0])
    forward = model.infer if isinstance(model, HierarchicalModel) else \
        (lambda *x: model(*x).data)
    with T.no_grad():  # a list, not a generator, so the tape is back on for the caller
        return [forward(*index_inputs(inputs, np.arange(start, min(start + batch_size, n))))
                for start in range(0, n, batch_size)]


def _scores(model, logits: np.ndarray) -> np.ndarray:
    if model.spec.head == "binary":
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e[:, 1] / e.sum(axis=1)
    return logits.reshape(-1)


def predict_scores(model, inputs) -> np.ndarray:
    """Positive-class probability (binary head) or raw prediction (regressor)."""
    batches = _logits(model, inputs)
    return np.concatenate([_scores(model, logits) for logits in batches])


def validate(model, inputs, y) -> tuple[float, float]:
    """Validation loss and metric from one forward pass over the windows.

    The loss is the window-weighted mean of the per-batch losses; the metric
    is F1 at 0.5 for a binary head and -RMSE for a regressor, so that higher
    is better for both.
    """
    batches = _logits(model, inputs)
    labels = np.split(y, np.cumsum([len(logits) for logits in batches])[:-1])
    val_loss = sum(_supervised_loss(model, T.Tensor(logits), yb).item() * len(yb)
                   for logits, yb in zip(batches, labels)) / len(y)
    scores = np.concatenate([_scores(model, logits) for logits in batches])
    if model.spec.head == "binary":
        return val_loss, f1(scores >= 0.5, y)[2]
    return val_loss, -rmse(scores, y)


def _check_divergence(losses: list[float]) -> None:
    if not np.isfinite(losses[-1]):
        raise DivergenceError(f"loss became non-finite at epoch {len(losses)}")
    if len(losses) >= 4 and all(l > 10.0 * losses[0] for l in losses[-3:]):
        raise DivergenceError("loss exceeded 10x its initial value for 3 epochs")


def _fit(model, loss_fn, n_train, eval_fn, cfg: TrainConfig):
    """Shared mini-batch loop: seeded shuffling, Adam, early stopping on the
    monitored loss, best-state restoration."""
    opt = Adam(model.trainable_parameters(), lr=cfg.learning_rate)
    history = TrainHistory()
    best_loss, best_state, since_best = np.inf, None, 0
    train_losses = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = _rng(cfg.seed, 1, epoch).permutation(n_train)
        drop_rng = _rng(cfg.seed, 2, epoch)
        batch_losses = []
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            opt.zero_grad()
            loss = loss_fn(idx, drop_rng)
            loss.backward()
            opt.step()
            batch_losses.append(loss.item())
        train_loss = float(np.mean(batch_losses))
        train_losses.append(train_loss)
        _check_divergence(train_losses)

        val_loss, val_metric = eval_fn()
        monitored = train_loss if val_loss is None else val_loss
        history.append(epoch, train_loss, np.nan if val_loss is None else val_loss,
                       np.nan if val_metric is None else val_metric,
                       time.perf_counter() - t0)
        if monitored < best_loss:
            best_loss, best_state, since_best = monitored, model.state(), 0
            history.best_epoch = epoch
        else:
            since_best += 1
            if cfg.patience is not None and since_best >= cfg.patience:
                break
    if best_state is None:
        raise DivergenceError("validation loss was never finite")
    model.load_state(best_state)
    return model, history


def train_supervised(model, train_data, val_data, cfg: TrainConfig):
    """Direct supervised training; returns (best model, history).

    ``train_data``/``val_data`` are (inputs, labels) pairs where inputs is a
    tuple of arrays matching the model family (features, or ids plus raw
    values).
    """
    train_inputs, train_y = train_data
    n_train = len(train_y)
    if n_train == 0:
        raise ConfigError("no training samples")

    def loss_fn(idx, drop_rng):
        out = model(*index_inputs(train_inputs, idx), train=True, rng=drop_rng)
        return _supervised_loss(model, out, train_y[idx])

    def eval_fn():
        if val_data is None or len(val_data[1]) == 0:
            return None, None
        return validate(model, *val_data)

    return _fit(model, loss_fn, n_train, eval_fn, cfg)


def pretrain_mlm(model: HierarchicalModel, ids: np.ndarray, raw: np.ndarray | None,
                 cfg: TrainConfig):
    """Masked-cell pretraining; monitors and early-stops on the training loss."""
    if cfg.mlm_probability is None:
        raise ConfigError("pretraining needs an MLM probability")
    n = len(ids)
    if n == 0:
        raise ConfigError("no pretraining windows")

    def loss_fn(idx, drop_rng):
        # fresh mask pattern per batch, drawn from the epoch's seeded stream
        masked, mask, targets = mask_tokens(ids[idx], cfg.mlm_probability, drop_rng)
        return model.mlm_loss(masked, targets, mask,
                              raw=raw[idx] if raw is not None else None,
                              train=True, rng=drop_rng)

    return _fit(model, loss_fn, n, lambda: (None, None), cfg)


def save_model(path, model, artifact: PreprocessArtifact, seed: int) -> None:
    """Write ``model``'s parameters and spec, tagged with ``artifact``'s
    vocabulary hash and the run seed."""
    save_checkpoint(path, model.state(), model.spec.to_json(),
                    vocab_hash=artifact.content_hash(), seed=seed)


# perfbench/workloads.py imports this name; the benchmark moves to save_model
# in its own change
save_pretrained = save_model


def restore_model(path, artifact: PreprocessArtifact, head: str | None = None,
                  seed: int = 0):
    """Rebuild the model saved at ``path`` against ``artifact``'s vocabulary.

    With ``head``, the saved encoder gets a fresh ``head`` task head,
    initialised from ``seed``; every other parameter must be in the checkpoint
    with its model shape.
    """
    header, state = load_checkpoint(path)
    if not {"vocab_hash", "model_spec"} <= header.keys():
        raise RangeError("checkpoint header needs 'vocab_hash' and 'model_spec'")
    if header["vocab_hash"] != artifact.content_hash():
        raise VocabularyMismatch(
            "checkpoint was built against a different preprocessing artifact"
        )
    spec = ModelSpec.from_json(header["model_spec"])
    if head is not None:
        spec = replace(spec, head=head)
    model = build_model(spec, seed=seed, vocab=artifact.vocab)
    if head is not None:
        state.update((k, t.data) for k, t in model.named_parameters().items()
                     if k.startswith("task_head."))
    model.load_state(state)
    return model


def fine_tune(checkpoint_path, train_data, val_data, cfg: TrainConfig,
              artifact: PreprocessArtifact, head: str = "binary"):
    """Attach a fresh task head to a pretrained encoder and train end to end."""
    model = restore_model(checkpoint_path, artifact, head=head, seed=cfg.seed)
    return train_supervised(model, train_data, val_data, cfg)


def evaluate_scores(scores: np.ndarray, y: np.ndarray, head: str) -> dict:
    """Test metrics of a model's scores: precision, recall and F1 at 0.5, the
    rank metrics (NaN when ``y`` holds one class) and ``tie_warning`` for a
    binary head; RMSE for a regressor."""
    if head != "binary":
        return {"rmse": rmse(scores, y)}
    p, r, s = f1(scores >= 0.5, y)
    out = {"precision": p, "recall": r, "f1": s}
    try:
        rm = rank_metrics(scores, y)
        out.update(gini=rm.gini, capture_at_4=rm.capture_at_4, metric_m=rm.metric_m)
    except DegenerateLabels:
        out.update(gini=np.nan, capture_at_4=np.nan, metric_m=np.nan)
    out["tie_warning"] = bool(tie_fraction(scores) > 0.001)
    return out


# -- shipped presets --------------------------------------------------------

PRESET_NAMES = (
    "fraud_tabbert",
    "fraud_twintower",
    "fraud_luna",
    "default_tabbert",
    "default_twintower",
    "default_lightgbm",
)


def load_preset(name: str) -> dict:
    """Load a shipped hyperparameter preset by name (verbatim JSON)."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    ref = importlib.resources.files("tabseq.presets").joinpath(f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def load_transformer_preset(name: str) -> dict:
    """Load a shipped preset that configures one of the transformer families."""
    preset = load_preset(name)
    if "architecture" not in preset:
        raise ConfigError(f"preset {name!r} configures {preset.get('model')!r}, "
                          "not a transformer family")
    return preset


def preset_train_config(preset: dict, **overrides) -> TrainConfig:
    """Map a preset document's optimisation fields onto a TrainConfig; no entry
    point applies its window size, stride and seed (the paper's values)."""
    return TrainConfig.from_json({
        "learning_rate": preset["learning_rate"],
        "optimizer": preset.get("optimizer", "adam").lower(),
        "batch_size": preset["batch_size"],
        "mlm_probability": preset.get("mlm_probability"),
        **overrides,
    })


def preset_model_spec(preset: dict, **overrides) -> ModelSpec:
    """Map a preset document's architecture fields onto a ModelSpec; the
    window shape and the head come from the data and the task."""
    return ModelSpec.from_json({
        "family": preset["architecture"],
        "hidden": preset["hidden_units"],
        "heads": preset["attention_heads"],
        "dropout": preset["dropout"],
        **overrides,
    })
