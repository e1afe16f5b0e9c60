import importlib.resources
import json
import tracemalloc

import numpy as np
import pytest

from tabseq.errors import (ConfigError, DivergenceError, EmptyResult, RangeError, ShapeError,
                          VocabularyMismatch)
from tabseq.metrics import f1, rmse
from tabseq.models import FAMILIES, ModelSpec, build_model
from tabseq.nn import cross_entropy, load_checkpoint, mse, save_checkpoint
from tabseq.nn import tensor as T
from tabseq.preprocess import MASK, N_SPECIALS, UNK, encode_numeric, encode_tokens, fit_preprocess
from tabseq.schema import Dataset, impute_missing, make_windows
from tabseq import training
from tabseq.training import (
    PRESET_NAMES,
    TrainConfig,
    TrainHistory,
    TransformerPreset,
    _supervised_loss,
    encode_inputs,
    fine_tune,
    index_inputs,
    load_preset,
    load_transformer_preset,
    mask_tokens,
    predict_scores,
    pretrain_mlm,
    restore_model,
    save_model,
    split_entities,
    split_entity_names,
    train_supervised,
    validate,
    window_labels,
)


def separable_data(n=200, seed=0):
    """Binary windows separated by the mean of their first feature column."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(np.float64)
    x = rng.standard_normal((n, 2, 2)) * 0.1
    x[:, :, 0] += np.where(y == 1.0, 3.0, -3.0)[:, None]
    return (x,), y


def with_cells(d, rows, name, value):
    """``d`` with the cell of field ``name`` in each record of ``rows`` replaced by
    ``value``."""
    col = d.schema.index_of(name)
    records = list(d.records)
    for row in rows:
        rec = records[row]
        records[row] = rec._replace(values=rec.values[:col] + (value,) + rec.values[col + 1:])
    return Dataset(d.schema, records)


def token_fixture(fraud_dataset, n=5, joint=False):
    d = impute_missing(fraud_dataset)
    art = fit_preprocess(d, bins=6)
    windows = make_windows(d, n, 5)
    grids = [encode_tokens(w, d.schema, art.vocab, art.quantizers, keep_raw=joint)
             for w in windows]
    ids = np.stack([g.ids for g in grids])
    raw = np.stack([g.raw for g in grids]) if joint else None
    y = np.array([w.label for w in windows], dtype=np.float64)
    return art, ids, raw, y


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="sgd")
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(mlm_probability=1.5)

    def test_json_round_trip(self):
        cfg = TrainConfig(learning_rate=5e-5, batch_size=8, mlm_probability=0.15,
                          patience=None, seed=3)
        assert TrainConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("key", ["dropout", "window_size", "stride", "val_fraction",
                                     "test_fraction", "learnig_rate"])
    def test_unread_and_unknown_keys_rejected(self, key):
        # dropout lives in ModelSpec, windowing and splitting in the experiment
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_json({key: 0.5})
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_json({**load_transformer_preset("fraud_tabbert").train, key: 0.5})

    def test_history_csv(self, tmp_path):
        h = TrainHistory()
        h.append(1, 0.5, 0.6, 0.1, 1.25)
        h.append(2, 0.4, 0.55, 0.2, 1.5)
        path = tmp_path / "history.csv"
        h.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_metric,seconds"
        assert len(lines) == 3 and lines[1].startswith("1,0.5,")


class TestSplitEntities:
    def test_no_entity_overlap_and_sizes(self, fraud_dataset):
        windows = make_windows(impute_missing(fraud_dataset), 5, 5)
        train, val, test = split_entities(windows, 0.15, 0.15, seed=0)
        groups = [{w.entity for w in part} for part in (train, val, test)]
        assert not (groups[0] & groups[1]) and not (groups[0] & groups[2])
        assert not (groups[1] & groups[2])
        total = len(groups[0] | groups[1] | groups[2])
        assert len(groups[1]) == round(0.15 * total)
        assert len(groups[2]) == round(0.15 * total)

    def test_deterministic(self, fraud_dataset):
        windows = make_windows(impute_missing(fraud_dataset), 5, 5)
        a = split_entities(windows, 0.2, 0.2, seed=1)
        b = split_entities(windows, 0.2, 0.2, seed=1)
        assert [w.entity for w in a[0]] == [w.entity for w in b[0]]

    def test_no_windows_rejected(self):
        with pytest.raises(EmptyResult):
            split_entities([], 0.15, 0.15, seed=0)

    @pytest.mark.parametrize("val_fraction, test_fraction", [(-0.1, 0.15), (0.15, 1.2),
                                                             (0.6, 0.5)])
    def test_fractions_out_of_range_rejected(self, val_fraction, test_fraction):
        names = [f"e{i}" for i in range(200)]
        with pytest.raises(ConfigError, match="sum to less than 1"):
            split_entity_names(names, val_fraction, test_fraction, seed=0)


class TestMaskTokens:
    def test_fraction_concentrates_around_p(self):
        rng = np.random.default_rng(0)
        ids = np.full((100, 100, 100), N_SPECIALS + 1, dtype=np.int64)
        _, mask, _ = mask_tokens(ids, 0.15, rng)
        assert abs(mask.mean() - 0.15) < 0.00075  # 0.5% of p over 1e6 cells

    def test_specials_never_masked(self):
        rng = np.random.default_rng(1)
        ids = np.array([[[0, 1, 2, 3, N_SPECIALS]]] * 50)
        masked, mask, targets = mask_tokens(ids, 0.9, rng)
        assert not mask[:, :, :4].any()
        assert (targets == ids).all()
        assert (masked[mask] == MASK).all()
        assert (masked[~mask] == ids[~mask]).all()

    def test_all_pad_grid(self):
        rng = np.random.default_rng(2)
        ids = np.zeros((4, 3, 2), dtype=np.int64)
        _, mask, _ = mask_tokens(ids, 0.5, rng)
        assert not mask.any()

    def test_seeded_determinism(self):
        ids = np.full((10, 4, 3), 7, dtype=np.int64)
        a = mask_tokens(ids, 0.3, np.random.default_rng(5))[1]
        b = mask_tokens(ids, 0.3, np.random.default_rng(5))[1]
        assert (a == b).all()

    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            mask_tokens(np.zeros((1, 1, 1), dtype=np.int64), 0.0,
                        np.random.default_rng(0))


class TestEncodeInputs:
    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    def test_token_families(self, fraud_dataset, family):
        joint = family == "hierarchical_joint"
        art, ids, raw, y = token_fixture(fraud_dataset, joint=joint)
        windows = make_windows(impute_missing(fraud_dataset), 5, 5)
        got_ids, got_raw = encode_inputs(windows, art, family)
        assert np.array_equal(got_ids, ids)
        assert (got_raw is None) if not joint else np.array_equal(got_raw, raw)
        assert np.array_equal(window_labels(windows), y)

    @pytest.mark.parametrize("family", ["vanilla", "twin_tower"])
    def test_feature_families(self, fraud_dataset, family):
        d = impute_missing(fraud_dataset)
        art = fit_preprocess(d, bins=6)
        windows = make_windows(d, 5, 5)
        (x,) = encode_inputs(windows, art, family)
        assert np.array_equal(x, np.stack([encode_numeric(w, art).values
                                           for w in windows]))

    @staticmethod
    def per_window(windows, art, family):
        """The reference: one single-window encoder call per window, stacked."""
        if not family.startswith("hierarchical"):
            return (np.stack([encode_numeric(w, art).values
                              for w in windows]),)
        joint = family == "hierarchical_joint"
        grids = [encode_tokens(w, art.schema, art.vocab, art.quantizers, joint)
                 for w in windows]
        raw = np.stack([g.raw for g in grids]) if joint else None
        return np.stack([g.ids for g in grids]), raw

    @staticmethod
    def assert_bit_equal(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_split_partition_bit_equal_to_per_window_encoders(self, fraud_dataset, family):
        # one partition's windows at stride 1: entities are left out between
        # them, so their start positions do not run on one from the next
        d = impute_missing(fraud_dataset)
        art = fit_preprocess(d, bins=6)
        train_w, _, _ = split_entities(make_windows(d, 5, 1), 0.3, 0.3, 0)
        assert (np.diff([w.rows[0] for w in train_w]) > 1).any()
        self.assert_bit_equal(encode_inputs(train_w, art, family),
                              self.per_window(train_w, art, family))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_windows_of_two_datasets_rejected(self, fraud_dataset, family):
        d = impute_missing(fraud_dataset)
        art = fit_preprocess(d, bins=6)
        other = Dataset(d.schema, d.records)  # the same rows, another dataset
        windows = [make_windows(d, 5, 5)[0], make_windows(other, 5, 5)[1]]
        with pytest.raises(ShapeError, match="more than one dataset"):
            encode_inputs(windows, art, family)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("held_out", [False, True], ids=["fitted", "held_out"])
    def test_bit_equal_to_per_window_encoders(self, fraud_dataset, family, stride, held_out):
        d = impute_missing(fraud_dataset)
        entities = sorted({r.entity for r in d.records})
        fit_on = set(entities[:40]) if held_out else set(entities)
        art = fit_preprocess(Dataset(d.schema, tuple(r for r in d.records if r.entity in fit_on)),
                             bins=6)
        if held_out:  # the other 20 entities, every 7th row in a category never fitted
            d = Dataset(d.schema, tuple(r for r in d.records if r.entity not in fit_on))
            d = with_cells(d, range(0, len(d), 7), "cat_0", "c_unseen")
        windows = make_windows(d, 5, stride)
        assert len({w.entity for w in windows}) == (20 if held_out else 60)
        got = encode_inputs(windows, art, family)
        self.assert_bit_equal(got, self.per_window(windows, art, family))
        if held_out:  # the unseen category reached the encoders
            c = [f.name for f in art.schema.feature_fields].index("cat_0")
            unknown = UNK if family.startswith("hierarchical") \
                else len(art.categories["cat_0"])
            assert (got[0][..., c] == unknown).any()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("field_name", ["num_0", "cat_0"])
    def test_missing_cell_rejected(self, fraud_dataset, family, field_name):
        art = fit_preprocess(impute_missing(fraud_dataset), bins=6)
        d = with_cells(fraud_dataset, [12], field_name, None)  # not imputed
        with pytest.raises(RangeError, match=f"missing value in field '{field_name}'"):
            encode_inputs(make_windows(d, 5, 5), art, family)

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide")
    @pytest.mark.parametrize("family", ["vanilla", "twin_tower"])
    def test_non_finite_feature_rejected(self, fraud_dataset, family):
        d = impute_missing(fraud_dataset)
        art = fit_preprocess(d, bins=6)
        name = min(art.stats, key=lambda f: art.stats[f][1])
        assert art.stats[name][1] < 1.0  # so the largest float overflows
        d = with_cells(d, [12], name, float(np.finfo(np.float64).max))
        with pytest.raises(RangeError, match="feature matrix contains non-finite entries"):
            encode_inputs(make_windows(d, 5, 5), art, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_window_list_rejected(self, fraud_dataset, family):
        art = fit_preprocess(impute_missing(fraud_dataset), bins=6)
        with pytest.raises(EmptyResult, match="no windows to encode"):
            encode_inputs([], art, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unequal_window_lengths_rejected(self, fraud_dataset, family):
        # as one block, lengths 2 and 4 would reshape into three windows of 2
        d = impute_missing(fraud_dataset)
        art = fit_preprocess(d, bins=6)
        windows = [make_windows(d, 2, 2)[0], make_windows(d, 4, 4)[0]]
        with pytest.raises(ShapeError, match="differ in length"):
            encode_inputs(windows, art, family)


class TestTrainSupervised:
    def make_model(self, seed=0):
        return build_model(ModelSpec("vanilla", 2, 2, hidden=8, heads=2,
                                     layers=1), seed=seed)

    def test_separable_fixture_reaches_high_accuracy(self):
        inputs, y = separable_data()
        # the fixture really is linearly separable: a threshold on the mean
        # of the first column classifies it perfectly
        feature = inputs[0][:, :, 0].mean(axis=1)
        assert ((feature > 0) == (y == 1.0)).all()
        model = self.make_model()
        cfg = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=50,
                          patience=None, seed=0)
        model, _ = train_supervised(model, (inputs, y), None, cfg)
        acc = ((predict_scores(model, inputs) >= 0.5) == (y == 1.0)).mean()
        assert acc >= 0.99

    def test_zero_learning_rate_keeps_params(self):
        inputs, y = separable_data(60)
        model = self.make_model()
        before = model.state()
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, epochs=3,
                          patience=None, seed=0)
        model, hist = train_supervised(model, (inputs, y), None, cfg)
        after = model.state()
        assert all((before[k] == after[k]).all() for k in before)

    def test_deterministic(self):
        inputs, y = separable_data(80)
        runs = []
        for _ in range(2):
            model = self.make_model(seed=3)
            cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=4,
                              patience=None, seed=7)
            model, hist = train_supervised(model, (inputs, y), None, cfg)
            runs.append((model.state(), hist.train_loss))
        assert runs[0][1] == runs[1][1]
        assert all((runs[0][0][k] == runs[1][0][k]).all() for k in runs[0][0])

    def test_early_stopping_restores_best(self):
        inputs, y = separable_data(120, seed=1)
        val_inputs, val_y = separable_data(40, seed=2)
        model = self.make_model(seed=1)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=30,
                          patience=2, seed=1)
        model, hist = train_supervised(model, (inputs, y), (val_inputs, val_y), cfg)
        assert len(hist.epochs) <= 30
        # the returned parameters reproduce the best observed validation loss
        final_val, _ = validate(model, val_inputs, val_y)
        assert final_val == pytest.approx(min(hist.val_loss), abs=1e-9)

    def test_best_epoch_row_is_the_restored_model(self):
        # validation targets at 0.3x the training targets: the loss falls,
        # then rises, so the best epoch is neither the first nor the last
        inputs, _ = separable_data(120, seed=1)
        val_inputs, _ = separable_data(40, seed=2)
        y = inputs[0][:, :, 0].mean(axis=1)
        val_y = 0.3 * val_inputs[0][:, :, 0].mean(axis=1)
        model = build_model(ModelSpec("vanilla", 2, 2, hidden=8, heads=2, layers=1,
                                      head="regression"), seed=1)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=8, patience=None, seed=1)
        model, hist = train_supervised(model, (inputs, y), (val_inputs, val_y), cfg)
        assert 1 < hist.best_epoch < 8
        assert hist.best_epoch == 1 + int(np.argmin(hist.val_loss))
        row = hist.best_epoch - 1
        assert validate(model, val_inputs, val_y) == (hist.val_loss[row], hist.val_metric[row])

    def test_never_finite_validation_loss_raises(self):
        # no epoch is better than infinity, so there is no state to restore
        inputs, y = separable_data(40)
        (val_x,), val_y = separable_data(10, seed=3)
        val_x[0, 0, 0] = np.nan
        cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=2, patience=None, seed=0)
        with pytest.raises(DivergenceError, match="never finite"):
            train_supervised(self.make_model(), (inputs, y), ((val_x,), val_y), cfg)

    def test_divergence_detected(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((64, 2, 2))
        y = rng.standard_normal(64) * 1e3
        model = build_model(ModelSpec("vanilla", 2, 2, hidden=8, heads=2,
                                      layers=1, head="regression"), seed=0)
        cfg = TrainConfig(learning_rate=1e3, batch_size=64, epochs=30,
                          patience=None, seed=0)
        with pytest.raises(DivergenceError):
            train_supervised(model, ((x,), y), None, cfg)


class TestSinglePassValidation:
    @staticmethod
    def two_pass_reference(model, inputs, y):
        """Loss from one taped forward over every window, metric from a second
        pass through predict_scores."""
        out = model(inputs[0])
        if model.spec.head == "binary":
            val_loss = cross_entropy(out, y.astype(np.int64)).item()
        else:
            val_loss = mse(T.reshape(out, y.shape), T.Tensor(y)).item()
        scores = predict_scores(model, inputs)
        if model.spec.head == "binary":
            return val_loss, f1(scores >= 0.5, y)[2]
        return val_loss, -rmse(scores, y)

    @pytest.mark.parametrize("head", ["binary", "regression"])
    def test_history_equals_two_pass_reference(self, head):
        inputs, y = separable_data(100, seed=4)
        val_inputs, val_y = separable_data(700, seed=5)  # three scoring blocks of validation
        if head == "regression":
            y, val_y = inputs[0][:, :, 0].mean(axis=1), val_inputs[0][:, :, 0].mean(axis=1)
        model = build_model(ModelSpec("vanilla", 2, 2, hidden=8, heads=2, layers=1,
                                      head=head), seed=2)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=32, epochs=1, patience=None, seed=2)
        model, hist = train_supervised(model, (inputs, y), (val_inputs, val_y), cfg)
        val_loss, val_metric = self.two_pass_reference(model, val_inputs, val_y)
        assert hist.val_loss == [val_loss] and hist.val_metric == [val_metric]


def stride_one_inputs(fraud_dataset, family):
    """``family``'s inputs and labels for the windows of 5 rows at stride 1,
    with a model to score them: every inner row sits in 5 windows."""
    d = impute_missing(fraud_dataset)
    art = fit_preprocess(d, bins=6)
    windows = make_windows(d, 5, 1)
    spec = ModelSpec(family, 5, d.schema.n_features, hidden=8, heads=2, layers=1,
                     dropout=0.2)
    model = build_model(spec, seed=3, vocab=art.vocab)
    return model, encode_inputs(windows, art, family), window_labels(windows)


class TestHierarchicalScoring:
    """``predict_scores`` and ``validate`` encode each distinct row of a
    hierarchical block once; both must equal per-window forwards."""

    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    def test_equal_per_window_forward(self, fraud_dataset, family):
        model, inputs, y = stride_one_inputs(fraud_dataset, family)
        assert len(y) > 512
        starts = range(0, len(y), 512)
        with T.no_grad():
            batches = [model(*index_inputs(inputs, np.arange(s, min(s + 512, len(y))))).data
                       for s in starts]
        logits = np.concatenate(batches)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        scores = e[:, 1] / e.sum(axis=1)
        assert np.array_equal(predict_scores(model, inputs), scores)
        val_loss = cross_entropy(T.Tensor(logits), y.astype(np.int64)).item()
        assert validate(model, inputs, y) == (val_loss, f1(scores >= 0.5, y)[2])


class TestScoringBlocks:
    """Scoring runs in blocks of windows. At block sizes that keep BLAS on the
    same kernels, multiples of 64 here, no output depends on the block size."""

    BLOCKS = (64, 128, 512, 1 << 20)

    @staticmethod
    def lone_tail_inputs(fraud_dataset, family):
        # 1537 = 6 * 256 + 1 windows: every block size tried leaves one window over
        model, inputs, y = stride_one_inputs(fraud_dataset, family)
        return model, index_inputs(inputs, slice(0, 1537)), y[:1537]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_scores_bit_equal_at_every_block_size(self, fraud_dataset, family, monkeypatch):
        model, inputs, _ = self.lone_tail_inputs(fraud_dataset, family)
        expected = predict_scores(model, inputs)
        for block in self.BLOCKS:
            monkeypatch.setattr(training, "_SCORE_BLOCK", block)
            assert np.array_equal(predict_scores(model, inputs), expected), block

    @pytest.mark.parametrize("family", FAMILIES)
    def test_validation_loss_is_one_loss_over_every_window(self, fraud_dataset, family,
                                                           monkeypatch):
        model, inputs, y = self.lone_tail_inputs(fraud_dataset, family)
        with T.no_grad():
            out = model(*inputs)
        expected = _supervised_loss(model, out, y).item()
        assert validate(model, inputs, y)[0] == expected
        for block in self.BLOCKS:
            monkeypatch.setattr(training, "_SCORE_BLOCK", block)
            assert validate(model, inputs, y)[0] == expected, block


class TestPretrainFineTune:
    def test_mlm_loss_decreases(self, fraud_dataset):
        art, ids, _, _ = token_fixture(fraud_dataset)
        spec = ModelSpec("hierarchical", ids.shape[1], ids.shape[2], hidden=8,
                         heads=2, layers=1, field_layers=1, head="mlm")
        model = build_model(spec, seed=0, vocab=art.vocab)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=3,
                          mlm_probability=0.15, patience=None, seed=0)
        model, hist = pretrain_mlm(model, ids, None, cfg)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_steps_do_not_stack_tapes(self, fraud_dataset):
        # Four steps peak where one does: each step's tape is freed by its
        # backward, before the next step's forward runs.
        art, ids, _, _ = token_fixture(fraud_dataset, n=10)
        spec = ModelSpec("hierarchical", 10, ids.shape[2], hidden=16, heads=2, layers=1,
                         head="mlm")
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=1,
                          mlm_probability=0.15, patience=None, seed=0)
        peaks = []
        for n in (64, 256):
            model = build_model(spec, seed=0, vocab=art.vocab)
            tracemalloc.start()
            try:
                pretrain_mlm(model, ids[:n], None, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_higher_masking_higher_final_loss(self, fraud_dataset):
        art, ids, _, _ = token_fixture(fraud_dataset)
        finals = {}
        for p in (0.15, 0.9):
            spec = ModelSpec("hierarchical", ids.shape[1], ids.shape[2],
                             hidden=8, heads=2, layers=1, head="mlm")
            model = build_model(spec, seed=0, vocab=art.vocab)
            cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=3,
                              mlm_probability=p, patience=None, seed=0)
            _, hist = pretrain_mlm(model, ids, None, cfg)
            finals[p] = hist.train_loss[-1]
        assert finals[0.9] > finals[0.15]

    def test_fine_tune_round_trip(self, tmp_path, fraud_dataset):
        art, ids, _, y = token_fixture(fraud_dataset)
        spec = ModelSpec("hierarchical", ids.shape[1], ids.shape[2], hidden=8,
                         heads=2, layers=1, head="mlm")
        model = build_model(spec, seed=0, vocab=art.vocab)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=1,
                          mlm_probability=0.15, patience=None, seed=0)
        model, _ = pretrain_mlm(model, ids, None, cfg)
        ckpt = tmp_path / "pre.ckpt"
        save_model(ckpt, model, art, seed=0)

        ft_cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=1, seed=0)
        tuned, hist = fine_tune(ckpt, ((ids, None), y), None, ft_cfg, art)
        assert tuned.spec.head == "binary"
        assert len(hist.epochs) == 1
        # encoder weights were carried over from the checkpoint
        assert (tuned.embed.table.data.shape == model.embed.table.data.shape)

    def test_restored_model_scores_bit_identically(self, tmp_path, fraud_dataset):
        art, ids, _, y = token_fixture(fraud_dataset)
        spec = ModelSpec("hierarchical", ids.shape[1], ids.shape[2], hidden=8,
                         heads=2, layers=1)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=1, seed=0)
        model, _ = train_supervised(build_model(spec, seed=0, vocab=art.vocab),
                                    ((ids, None), y), None, cfg)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, model, art, seed=0)
        restored = restore_model(ckpt, art)
        assert np.array_equal(predict_scores(restored, (ids, None)),
                              predict_scores(model, (ids, None)))

    def test_fine_tune_vocab_mismatch(self, tmp_path, fraud_dataset):
        art, ids, _, y = token_fixture(fraud_dataset)
        spec = ModelSpec("hierarchical", ids.shape[1], ids.shape[2], hidden=8,
                         heads=2, layers=1, head="mlm")
        model = build_model(spec, seed=0, vocab=art.vocab)
        ckpt = tmp_path / "pre.ckpt"
        save_model(ckpt, model, art, seed=0)
        other = fit_preprocess(impute_missing(fraud_dataset), bins=3)
        with pytest.raises(VocabularyMismatch):
            fine_tune(ckpt, ((ids, None), y), None, TrainConfig(epochs=1), other)


    @pytest.mark.parametrize("key", ["vocab_hash", "model_spec"])
    def test_restore_needs_header_key(self, key, tmp_path, fraud_dataset):
        art, ids, _, _ = token_fixture(fraud_dataset)
        spec = ModelSpec("vanilla", 5, ids.shape[2], hidden=8, heads=2, layers=1)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, build_model(spec, seed=0), art, seed=0)
        line, blob = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        del header[key]
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(RangeError, match=key):
            restore_model(ckpt, art)

    def test_restore_rejects_unknown_tensor(self, tmp_path, fraud_dataset):
        art, ids, _, _ = token_fixture(fraud_dataset)
        spec = ModelSpec("vanilla", 5, ids.shape[2], hidden=8, heads=2, layers=1)
        ckpt = tmp_path / "model.ckpt"
        save_model(ckpt, build_model(spec, seed=0), art, seed=0)
        header, state = load_checkpoint(ckpt)
        state["stray.weight"] = np.zeros((2, 3))
        save_checkpoint(ckpt, state, header["model_spec"], vocab_hash=header["vocab_hash"])
        with pytest.raises(ShapeError, match="stray.weight"):
            restore_model(ckpt, art)

    @pytest.mark.parametrize("fault", ["missing", "reshaped"])
    def test_fine_tune_checks_encoder_state(self, fault, tmp_path, fraud_dataset):
        # every encoder parameter must come from the checkpoint, with its shape
        art, ids, _, y = token_fixture(fraud_dataset)
        spec = ModelSpec("hierarchical", ids.shape[1], ids.shape[2], hidden=8,
                         heads=2, layers=1, head="mlm")
        ckpt = tmp_path / "pre.ckpt"
        save_model(ckpt, build_model(spec, seed=0, vocab=art.vocab), art, seed=0)
        header, state = load_checkpoint(ckpt)
        if fault == "missing":
            del state["field_pos"]
        else:
            state["field_pos"] = state["field_pos"].T
        save_checkpoint(ckpt, state, header["model_spec"], vocab_hash=header["vocab_hash"])
        with pytest.raises(ShapeError, match="field_pos"):
            fine_tune(ckpt, ((ids, None), y), None, TrainConfig(epochs=1), art)


class TestPresets:
    # Appendix hyperparameter tables, one tuple per shipped preset document
    EXPECTED = {
        "fraud_tabbert": dict(architecture="hierarchical", learning_rate=5e-5,
                              optimizer="Adam", dropout=0.1, attention_heads=12,
                              hidden_units=768, window_size=10, stride=5,
                              batch_size=8, mlm_probability=0.15),
        "fraud_twintower": dict(architecture="twin_tower", learning_rate=4.35e-5,
                                optimizer="Adam", dropout=0.134,
                                attention_heads=8, hidden_units=256,
                                window_size=10, stride=1, batch_size=256,
                                mlm_probability=None),
        "fraud_luna": dict(architecture="hierarchical_joint", learning_rate=5e-5,
                           optimizer="Adam", dropout=0.1, attention_heads=12,
                           hidden_units=768, window_size=10, stride=10,
                           batch_size=8, mlm_probability=0.15),
        "default_tabbert": dict(architecture="hierarchical", learning_rate=0.01,
                                optimizer="Adam", dropout=0.1,
                                attention_heads=12, seed=9, hidden_units=768,
                                window_size=12, batch_size=16,
                                mlm_probability=0.15),
        "default_twintower": dict(architecture="twin_tower", learning_rate=1e-4,
                                  optimizer="Adam", dropout=0.1,
                                  attention_heads=12, seed=42, hidden_units=512,
                                  window_size=12, batch_size=512,
                                  mlm_probability=None),
        "default_lightgbm": dict(model="lightgbm", num_leaves=100,
                                 min_data_in_leaf=2, num_boost_round=2000,
                                 early_stopping_rounds=50, learning_rate=0.01,
                                 seed=42, max_depth=-1),
    }

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_values_round_trip_exactly(self, name):
        preset = load_preset(name)
        assert preset["name"] == name
        for key, value in self.EXPECTED[name].items():
            assert preset[key] == value, (name, key)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("nope")

    def test_names_are_the_shipped_files(self):
        shipped = importlib.resources.files("tabseq.presets").iterdir()
        assert sorted(PRESET_NAMES) == sorted(p.name.removesuffix(".json") for p in shipped
                                              if p.name.endswith(".json"))

    def test_preset_to_train_config(self):
        cfg = TrainConfig.from_json(load_transformer_preset("fraud_tabbert").train)
        assert cfg.learning_rate == 5e-5
        assert cfg.batch_size == 8
        assert cfg.mlm_probability == 0.15

    @staticmethod
    def parse(monkeypatch, edit) -> TransformerPreset:
        """``load_transformer_preset("fraud_tabbert")`` of its document after ``edit``."""
        doc = load_preset("fraud_tabbert")
        edit(doc)
        monkeypatch.setattr(training, "load_preset", lambda name: doc)
        return load_transformer_preset("fraud_tabbert")

    def test_misspelt_architecture_key_rejected(self, monkeypatch):
        with pytest.raises(ConfigError, match=r"^preset 'fraud_tabbert': unknown key "
                                              r"'hiden_units'$"):
            self.parse(monkeypatch, lambda d: d.update(hiden_units=d.pop("hidden_units")))
        with pytest.raises(ConfigError, match=r"^preset 'fraud_tabbert': missing key "
                                              r"'hidden_units'$"):
            self.parse(monkeypatch, lambda d: d.pop("hidden_units"))

    def test_misspelt_optimisation_key_rejected(self, monkeypatch):
        # read with defaults, these came back as mlm_probability=None, optimizer='adam'
        with pytest.raises(ConfigError, match=r"^preset 'fraud_tabbert': unknown key "
                                              r"'mlm_probabilty'$"):
            self.parse(monkeypatch, lambda d: d.update(mlm_probabilty=d.pop("mlm_probability")))
        for key in ("mlm_probability", "optimizer"):
            with pytest.raises(ConfigError, match=rf"^preset 'fraud_tabbert': missing key "
                                                  rf"'{key}'$"):
                self.parse(monkeypatch, lambda d: d.pop(key))

    @pytest.mark.parametrize("key", ["hidden_units", "window_size"])
    def test_wrongly_typed_key_rejected(self, key, monkeypatch):
        with pytest.raises(ConfigError, match=rf"^preset 'fraud_tabbert'\.{key} must be int"):
            self.parse(monkeypatch, lambda d: d.update({key: str(d[key])}))

    @pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "default_lightgbm"])
    def test_transformer_presets_map(self, name):
        doc, preset = load_preset(name), load_transformer_preset(name)
        # every shipped transformer preset carries every key the mappings read
        spec = ModelSpec.from_json({**preset.model, "n": 10, "m": 4, "hidden": 16, "heads": 2})
        assert (spec.family, spec.dropout) == (doc["architecture"], doc["dropout"])
        assert TrainConfig.from_json(preset.train).mlm_probability == doc["mlm_probability"]

    def test_preset_overrides(self):
        cfg = TrainConfig.from_json({**load_transformer_preset("fraud_twintower").train,
                                     "epochs": 2, "seed": 5})
        assert cfg.epochs == 2 and cfg.seed == 5
        assert cfg.learning_rate == 4.35e-5 and cfg.batch_size == 256
