"""Timers and tracing probes attached to tabseq's public functions from outside.

Nothing under ``src/`` knows about these probes: ``Probe.install`` rebinds
each probed function in every ``tabseq`` module namespace that refers to it
(so ``from .metrics import f1 as f1_score`` is probed too) and wraps class
methods on the class itself.

Two levels:

* the stage clock, always on, times the pipeline stages behind the
  end-to-end metrics: set-up calls, ``pretrain_mlm``, the supervised fit
  calls, validation inside a fit, and every ``predict_scores`` call. Apart
  from scoring, only the outermost stage call is timed, so a set-up call
  made inside ``fine_tune`` counts toward training. Each probed call costs a few microseconds.
* the tracer (``trace=True``) additionally records a span (name, start,
  end, parent) at every layer boundary and the layer counters, kept in
  memory and turned into per-layer metrics when the run ends. A span's self
  time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

perf = time.perf_counter

FIT_STAGES = ("pretrain", "train")


class SetupComplete(BaseException):
    """Raised at the first model step of a set-up-only repetition; derives
    from BaseException so no handler in the program swallows it."""

# nn layer types: span name -> (module, attribute)
NN_LAYERS = {
    "nn.linear": ("tabseq.nn.layers", "Linear.__call__"),
    "nn.embedding": ("tabseq.nn.layers", "Embedding.__call__"),
    "nn.layer_norm": ("tabseq.nn.layers", "LayerNorm.__call__"),
    "nn.attention": ("tabseq.nn.layers", "MultiHeadSelfAttention.__call__"),
    "nn.feed_forward": ("tabseq.nn.layers", "FeedForward.__call__"),
    "nn.gelu": ("tabseq.nn.tensor", "gelu"),
    "nn.softmax": ("tabseq.nn.tensor", "softmax"),
    "nn.cross_entropy": ("tabseq.nn.tensor", "cross_entropy"),
}

# positional index of ``train`` in each model's __call__, counting self
_TRAIN_ARG = {"VanillaModel": 2, "TwinTowerModel": 2, "HierarchicalModel": 4}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _rebind(module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` (a function, or ``Class.method``) by a wrapper
    everywhere in the tabseq package."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, meth, make_wrapper(raw))
        return
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tabseq" or name.startswith("tabseq.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


class Probe:
    """Stage clock, plus spans and counters when ``trace`` is set."""

    def __init__(self, trace: bool, setup_only: bool = False):
        self.trace = trace
        self.setup_only = setup_only
        self.stage = defaultdict(float)  # stage -> seconds
        self.scored_windows = 0  # windows passed to predict_scores
        self.counts = defaultdict(float)  # tracer counters
        self.spans = []  # [name, start, end, parent index]
        self.first_shapes = {}  # nn span name -> replay arguments
        self.attn_mismatches = []
        self._open_spans = []
        self._outer = None  # kind of the outermost open stage call
        self._validating = False

    # -- stage clock ---------------------------------------------------------

    def _staged(self, kind, fn, args, kwargs, train):
        if kind != "predict":
            return self._stage(kind, fn, args, kwargs, train)
        t0 = perf()
        try:
            return self._stage(kind, fn, args, kwargs, train)
        finally:  # every scoring call, in a fit or not, counts toward throughput
            self.stage["score"] += perf() - t0
            self.scored_windows += len(_arg(args, kwargs, 1, "inputs")[0])

    def _stage(self, kind, fn, args, kwargs, train):
        if self._outer is None:
            if self.setup_only and kind != "setup":
                raise SetupComplete
            if kind == "forward":  # a forward outside any stage belongs to none
                return fn(*args, **kwargs)
            self._outer = kind
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stage[kind] += perf() - t0
                self._outer = None
        if (self._outer in FIT_STAGES and not self._validating
                and kind in ("predict", "forward") and not train):
            self._validating = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stage["validate"] += perf() - t0
                self._validating = False
        return fn(*args, **kwargs)

    # -- spans ---------------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, perf(), 0.0, parent])
        self._open_spans.append(len(self.spans) - 1)
        return self._open_spans[-1]

    def _close(self, idx) -> None:
        self.spans[idx][2] = perf()
        self._open_spans.pop()

    def _wrapper(self, name, kind=None, before=None, after=None, train_pos=None):
        """Build a wrapper factory: ``name`` is a span name, or a function of
        the call arguments returning one; ``kind`` a stage; ``before`` and
        ``after`` tracer hooks."""
        trace = self.trace

        def make(fn):
            @functools.wraps(fn)
            def probe(*args, **kwargs):
                train = bool(_arg(args, kwargs, train_pos, "train", False)) \
                    if train_pos is not None else False
                token = before(args, kwargs) if trace and before else None
                span = None
                if trace and name is not None:
                    span = self._open(name(args) if callable(name) else name)
                try:
                    if kind is None:
                        result = fn(*args, **kwargs)
                    else:
                        result = self._staged(kind, fn, args, kwargs, train)
                finally:
                    if span is not None:
                        self._close(span)
                if trace and after:
                    after(args, kwargs, result, token, train)
                return result

            return probe

        return make

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Attach the probes; call after ``import tabseq.cli``."""
        import tabseq.cli  # noqa: F401  (loads every probed module)

        setup = {
            "schema.load_csv": ("tabseq.schema", "load_csv", self._after_load),
            "schema.impute": ("tabseq.schema", "impute_missing", None),
            "schema.make_windows": ("tabseq.schema", "make_windows",
                                    self._count_len("schema.windows_made")),
            "training.split": ("tabseq.training", "split_entities", None),
            "preprocess.fit": ("tabseq.preprocess", "fit_preprocess", None),
            "preprocess.artifact_load": ("tabseq.preprocess", "PreprocessArtifact.load",
                                         None),
            "preprocess.encode_tokens": ("tabseq.preprocess", "encode_tokens",
                                         self._after_encode),
            "preprocess.encode_numeric": ("tabseq.preprocess", "encode_numeric",
                                          self._after_encode),
            "nn.checkpoint.load": ("tabseq.nn.checkpoint", "load_checkpoint",
                                   self._after_checkpoint),
        }
        for span, (mod, attr, after) in setup.items():
            _rebind(mod, attr, self._wrapper(span, "setup", after=after))

        _rebind("tabseq.training", "pretrain_mlm",
                self._wrapper("training.pretrain_mlm", "pretrain", after=self._after_pretrain))
        _rebind("tabseq.training", "train_supervised",
                self._wrapper("training.train_supervised", "train", after=self._after_train))
        _rebind("tabseq.training", "fine_tune", self._wrapper("training.fine_tune", "train"))
        _rebind("tabseq.training", "predict_scores",
                self._wrapper("training.predict_scores", "predict"))

        for cls in ("VanillaModel", "TwinTowerModel", "HierarchicalModel"):
            _rebind("tabseq.models", f"{cls}.__call__",
                    self._wrapper(_model_span, "forward", before=self._attn_before,
                                  after=self._after_forward(True), train_pos=_TRAIN_ARG[cls]))
        if self.trace:
            self._install_tracer()

    def _install_tracer(self) -> None:
        from tabseq.nn.tensor import Tensor

        _rebind("tabseq.models", "HierarchicalModel.mlm_loss",
                self._wrapper("models.mlm_loss", before=self._attn_before,
                              after=self._after_forward(False)))
        for span, (mod, attr) in NN_LAYERS.items():
            _rebind(mod, attr, self._wrapper(span, before=self._shape_recorder(span)))
        plain = {
            "nn.backward": ("tabseq.nn.tensor", "Tensor.backward",
                            self._count("nn.backward_calls")),
            "nn.optim.step": ("tabseq.nn.optim", "Adam.step", self._count("nn.optim.steps")),
            "nn.checkpoint.save": ("tabseq.nn.checkpoint", "save_checkpoint",
                                   self._after_checkpoint),
            "training.mask_tokens": ("tabseq.training", "mask_tokens", None),
            "metrics.rank_metrics": ("tabseq.metrics", "rank_metrics", None),
            "metrics.f1": ("tabseq.metrics", "f1", None),
            "bench.run_experiment": ("tabseq.bench", "run_experiment", None),
            "bench.write_report": ("tabseq.bench", "write_report", None),
            "cli.main": ("tabseq.cli", "main", None),
        }
        for span, (mod, attr, after) in plain.items():
            _rebind(mod, attr, self._wrapper(span, after=after))
        _rebind("tabseq.nn.tensor", "matmul", self._wrapper(None, after=self._after_matmul))

        counts = self.counts
        init = Tensor.__init__

        def counted_init(tensor, *args, **kwargs):
            counts["nn.tensors_created"] += 1
            init(tensor, *args, **kwargs)

        Tensor.__init__ = counted_init

    # -- tracer hooks (args, kwargs, result, token, train) -------------------

    def _count(self, key):
        def after(args, kwargs, result, token, train):
            self.counts[key] += 1
        return after

    def _count_len(self, key):
        def after(args, kwargs, result, token, train):
            self.counts[key] += len(result)
        return after

    def _after_load(self, args, kwargs, result, token, train):
        self.counts["schema.rows_loaded"] += len(result)
        self.counts["source_cells"] += len(result) * result.schema.n_features

    def _after_encode(self, args, kwargs, result, token, train):
        cells = result.ids if hasattr(result, "ids") else result.values
        self.counts["preprocess.windows_encoded"] += 1
        self.counts["preprocess.cells_encoded"] += cells.size

    def _after_checkpoint(self, args, kwargs, result, token, train):
        # save_checkpoint(path, ...) and load_checkpoint(path)
        self.counts["nn.checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_pretrain(self, args, kwargs, result, token, train):
        # pretrain_mlm(model, ids, raw, cfg) -> (model, history)
        self._add_epochs(len(_arg(args, kwargs, 1, "ids")), len(result[1].epochs))

    def _after_train(self, args, kwargs, result, token, train):
        # train_supervised(model, train_data, val_data, cfg) -> (model, history)
        epochs = len(result[1].epochs)
        self._add_epochs(len(_arg(args, kwargs, 1, "train_data")[1]), epochs)
        val = _arg(args, kwargs, 2, "val_data")
        if val is not None:
            self.counts["val_window_epochs"] += len(val[1]) * epochs

    def _add_epochs(self, windows, epochs):
        self.counts["training.train_windows"] += windows * epochs
        self.counts["training.epochs_run"] += epochs

    def _after_matmul(self, args, kwargs, result, token, train):
        # [..., m, k] @ [..., k, n]: 2*m*n*k per output batch element
        self.counts["nn.matmul_flop"] += 2.0 * result.data.size * args[0].shape[-1]

    def _attn_before(self, args, kwargs):
        return args[0].counter.count

    def _after_forward(self, is_call: bool):
        """Attention-pair check for a model forward (``is_call``) or an MLM
        loss; model forwards without ``train`` inside a fit are validation."""
        def after(args, kwargs, result, token, train):
            from tabseq.models import expected_attention_pairs

            model, batch = args[0], len(args[1])
            pairs = model.counter.count - token
            expected = expected_attention_pairs(model.spec, batch)
            self.counts["models.attn_pairs"] += pairs
            if pairs != expected:
                self.attn_mismatches.append(
                    f"{model.spec.family}: {pairs} attention pairs for batch {batch}, "
                    f"expected {expected}")
            if is_call and self._outer in FIT_STAGES and not train:
                self.counts["training.validate_windows_forwarded"] += batch
        return after

    def _shape_recorder(self, span):
        def before(args, kwargs):
            if span not in self.first_shapes:
                self.first_shapes[span] = _replay_args(span, args, kwargs)
        return before

    # -- results -------------------------------------------------------------

    def span_times(self):
        """(inclusive seconds, self seconds) per span name."""
        inclusive, own = defaultdict(float), defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return inclusive, own


def _model_span(args) -> str:
    model = args[0]
    return f"models.{model.spec.family}.forward"


def _replay_args(span, args, kwargs) -> dict:
    """What a layer replay needs to rebuild this call in isolation."""
    if span == "nn.linear":
        return {"x": list(args[1].shape), "w": list(args[0].weight.shape)}
    if span == "nn.embedding":
        return {"ids": list(args[1].shape), "table": list(args[0].table.shape)}
    if span == "nn.layer_norm":
        return {"x": list(args[1].shape)}
    if span == "nn.attention":
        return {"x": list(args[1].shape), "heads": args[0].heads}
    if span == "nn.feed_forward":
        return {"x": list(args[1].shape), "inner": args[0].lin1.weight.shape[1]}
    if span == "nn.softmax":
        return {"x": list(args[0].shape), "axis": _arg(args, kwargs, 1, "axis", -1)}
    return {"x": list(args[0].shape)}  # gelu, cross_entropy logits


def replay_backward(first_shapes: dict, repeats: int = 5) -> dict:
    """Median seconds of one ``backward()`` through each layer type, rebuilt
    in isolation at the first shape the workload fed it (inclusive of the
    layer's own sublayers)."""
    import numpy as np
    from tabseq.nn import layers as L
    from tabseq.nn import tensor as T

    rng = np.random.default_rng(0)
    out = {}
    for span, shp in sorted(first_shapes.items()):
        def forward():
            x = T.Tensor(rng.standard_normal(shp["x"]), requires_grad=True) \
                if span != "nn.embedding" else None
            if span == "nn.linear":
                return L.Linear(*shp["w"], rng)(x)
            if span == "nn.embedding":
                ids = rng.integers(0, shp["table"][0], size=shp["ids"])
                return L.Embedding(*shp["table"], rng)(ids)
            if span == "nn.layer_norm":
                return L.LayerNorm(shp["x"][-1])(x)
            if span == "nn.attention":
                return L.MultiHeadSelfAttention(shp["x"][-1], shp["heads"], rng)(x)
            if span == "nn.feed_forward":
                hidden = shp["x"][-1]
                return L.FeedForward(hidden, rng, mult=shp["inner"] // hidden)(x)
            if span == "nn.gelu":
                return T.gelu(x)
            if span == "nn.softmax":
                return T.softmax(x, axis=shp["axis"])
            targets = rng.integers(0, shp["x"][1], size=shp["x"][0])
            return T.cross_entropy(x, targets)

        times = []
        for _ in range(repeats):
            y = forward()
            t0 = perf()
            y.backward(np.ones_like(y.data))
            times.append(perf() - t0)
        out[span] = sorted(times)[len(times) // 2]
    return out
