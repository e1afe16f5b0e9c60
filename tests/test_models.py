import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import grad_check
from tabseq.errors import ConfigError, RangeError, ShapeError
from tabseq.models import HierarchicalModel, ModelSpec, build_model, expected_attention_pairs
from tabseq.nn import Tensor
from tabseq.nn import tensor as T
from tabseq.preprocess import N_SPECIALS, FieldTokens, Vocabulary
from tabseq.schema import FieldKind
from tabseq.training import TrainConfig, train_supervised

TOL = 1e-4


def small_vocab():
    """Two categorical fields (3 and 2 entries) and one numerical (4 bins)."""
    start = N_SPECIALS
    fields = []
    for name, kind, entries in [
        ("cat_a", FieldKind.CATEGORICAL, ("x", "y", "z")),
        ("num_a", FieldKind.NUMERICAL, ("bin_0", "bin_1", "bin_2", "bin_3")),
        ("cat_b", FieldKind.CATEGORICAL, ("p", "q")),
    ]:
        fields.append(FieldTokens(name, kind, start, entries))
        start += len(entries)
    return Vocabulary(tuple(fields))


def random_ids(vocab, batch, n, rng):
    ids = np.zeros((batch, n, len(vocab.fields)), dtype=np.int64)
    for j, ft in enumerate(vocab.fields):
        ids[:, :, j] = rng.integers(ft.start, ft.start + ft.size, (batch, n))
    return ids


def stride_one_windows(vocab, n_rows, n, rng):
    """Windows of ``n`` rows at stride 1 over ``n_rows`` distinct rows of one
    entity, with raw values: an inner row sits in ``n`` windows."""
    combos = np.array(list(itertools.product(*(range(ft.start, ft.start + ft.size)
                                               for ft in vocab.fields))))
    rows = combos[rng.permutation(len(combos))[:n_rows]]
    raw = rng.standard_normal(rows.shape)
    idx = np.lib.stride_tricks.sliding_window_view(np.arange(n_rows), n)
    return rows[idx], raw[idx]


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelSpec("bogus", 4, 3)
        with pytest.raises(ConfigError):
            ModelSpec("vanilla", 4, 3, hidden=10, heads=4)
        with pytest.raises(ConfigError):
            ModelSpec("vanilla", 4, 3, head="mlm")
        with pytest.raises(ConfigError):
            ModelSpec("vanilla", 0, 3)

    def test_json_round_trip(self):
        spec = ModelSpec("twin_tower", 6, 4, hidden=16, heads=2, dropout=0.1)
        assert ModelSpec.from_json(spec.to_json()) == spec

    def test_tower_mask_only_on_twin_tower(self):
        assert ModelSpec("twin_tower", 4, 3, tower_mask="time").tower_mask == "time"
        assert ModelSpec("vanilla", 4, 3).tower_mask == "both"
        with pytest.raises(ConfigError, match="twin_tower"):
            ModelSpec("vanilla", 4, 3, tower_mask="time")

    def test_spec_without_tower_mask_loads_with_both(self):
        doc = ModelSpec("twin_tower", 6, 4).to_json()
        del doc["tower_mask"]  # as written before the field existed
        assert ModelSpec.from_json(doc).tower_mask == "both"

    def test_unknown_key_is_config_error(self):
        doc = dict(ModelSpec("vanilla", 4, 3).to_json(), widht=8)
        with pytest.raises(ConfigError, match="widht"):
            ModelSpec.from_json(doc)


class TestAttentionAccounting:
    def fixture_inputs(self, spec, rng):
        if spec.family.startswith("hierarchical"):
            vocab = small_vocab()
            model = build_model(spec, seed=0, vocab=vocab)
            return model, (random_ids(vocab, 2, spec.n, rng),)
        model = build_model(spec, seed=0)
        return model, (rng.standard_normal((2, spec.n, spec.m)),)

    @pytest.mark.parametrize("family", ["vanilla", "twin_tower", "hierarchical"])
    @pytest.mark.parametrize("n,layers", [(1, 1), (4, 2), (7, 3)])
    def test_measured_equals_closed_form(self, family, n, layers):
        rng = np.random.default_rng(0)
        m = 3
        field = {"field_layers": 2} if family.startswith("hierarchical") else {}
        spec = ModelSpec(family, n, m, hidden=8, heads=2, layers=layers, **field)
        model, inputs = self.fixture_inputs(spec, rng)
        if family.startswith("hierarchical"):
            model(inputs[0])
        else:
            model(inputs[0])
        assert model.counter.count == expected_attention_pairs(spec, 2)

    def test_closed_forms(self):
        v = ModelSpec("vanilla", 5, 3, hidden=8, heads=2, layers=2)
        assert expected_attention_pairs(v, 4) == 4 * 2 * 2 * 25
        t = ModelSpec("twin_tower", 5, 3, hidden=8, heads=2, layers=2)
        assert expected_attention_pairs(t, 4) == 4 * 2 * 2 * (25 + 9)
        for mask, kept in (("time", 25), ("feature", 9)):
            t = ModelSpec("twin_tower", 5, 3, hidden=8, heads=2, layers=2, tower_mask=mask)
            assert expected_attention_pairs(t, 4) == 4 * 2 * 2 * kept
        h = ModelSpec("hierarchical", 5, 3, hidden=8, heads=2, layers=2, field_layers=1)
        assert expected_attention_pairs(h, 4) == 4 * 2 * (1 * 5 * 9 + 2 * 25)
        assert expected_attention_pairs(h, 4, rows=7) == 2 * (1 * 7 * 9 + 4 * 2 * 25)

    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    def test_infer_counts_distinct_rows(self, family):
        rng = np.random.default_rng(1)
        spec = ModelSpec(family, 4, 3, hidden=8, heads=2, layers=2, field_layers=2)
        model = build_model(spec, seed=0, vocab=small_vocab())
        ids, raw = stride_one_windows(small_vocab(), 9, 4, rng)
        model.infer(ids, raw)
        assert model.counter.count == expected_attention_pairs(spec, len(ids), rows=9)

    def test_log_log_slopes(self):
        # each family's time/sequence attention stage scales as N^2; the
        # feature stages are held out since they do not depend on N
        ns = np.array([4, 8, 16, 32])
        m = 6
        heads, layers = 2, 1

        def stage_counts(n):
            v = expected_attention_pairs(ModelSpec("vanilla", int(n), m,
                                                   hidden=8, heads=heads,
                                                   layers=layers), 1)
            t = expected_attention_pairs(ModelSpec("twin_tower", int(n), m,
                                                   hidden=8, heads=heads,
                                                   layers=layers), 1)
            h = expected_attention_pairs(ModelSpec("hierarchical", int(n), m,
                                                   hidden=8, heads=heads,
                                                   layers=layers,
                                                   field_layers=1), 1)
            feature_stage = heads * layers * m * m  # twin tower's M^2 stage
            field_stage = heads * 1 * int(n) * m * m  # hierarchical stage 1
            return [v, t - feature_stage, h - field_stage]

        counts = np.array([stage_counts(n) for n in ns])
        for col in range(3):
            slope = np.polyfit(np.log(ns), np.log(counts[:, col]), 1)[0]
            assert abs(slope - 2.0) < 0.05

        # the hierarchical field stage scales as M^2 at fixed N
        ms = np.array([3, 6, 12])
        field = [expected_attention_pairs(
            ModelSpec("hierarchical", 4, int(mm), hidden=8, heads=heads,
                      layers=layers, field_layers=1), 1)
            - heads * layers * 16 for mm in ms]
        slope = np.polyfit(np.log(ms), np.log(field), 1)[0]
        assert abs(slope - 2.0) < 1e-9


class TestVanilla:
    def test_output_shape_and_shape_error(self):
        rng = np.random.default_rng(1)
        model = build_model(ModelSpec("vanilla", 4, 3, hidden=8, heads=2), seed=0)
        out = model(rng.standard_normal((5, 4, 3)))
        assert out.shape == (5, 2)
        with pytest.raises(ShapeError):
            model(rng.standard_normal((5, 4, 4)))

    def test_single_row_window(self):
        model = build_model(ModelSpec("vanilla", 1, 3, hidden=8, heads=2), seed=0)
        out = model(np.random.default_rng(2).standard_normal((2, 1, 3)))
        assert np.all(np.isfinite(out.data))

    def test_feature_permutation_symmetry(self):
        # permuting feature columns together with projection rows is a no-op
        rng = np.random.default_rng(3)
        model = build_model(ModelSpec("vanilla", 4, 5, hidden=8, heads=2), seed=0)
        x = rng.standard_normal((3, 4, 5))
        base = model(x).data
        perm = rng.permutation(5)
        model.proj.weight.data = model.proj.weight.data[perm]
        out = model(x[:, :, perm]).data
        assert np.max(np.abs(out - base)) < 1e-12

    def test_row_permutation_sensitivity(self):
        rng = np.random.default_rng(4)
        model = build_model(ModelSpec("vanilla", 5, 3, hidden=8, heads=2), seed=0)
        x = rng.standard_normal((2, 5, 3))
        assert not np.allclose(model(x).data, model(x[:, ::-1]).data)

    def test_train_forward_applies_dropout(self):
        spec = ModelSpec("vanilla", 4, 3, hidden=8, heads=2, layers=1, dropout=0.5)
        model = build_model(spec, seed=0)
        x = np.random.default_rng(5).standard_normal((5, 4, 3))
        trained = model(x, train=True, rng=np.random.default_rng(1)).data
        assert not np.allclose(trained, model(x).data)

    def test_train_forward_without_rng_refused(self):
        spec = ModelSpec("vanilla", 4, 3, hidden=8, heads=2, layers=1, dropout=0.5)
        model = build_model(spec, seed=0)
        with pytest.raises(RangeError):
            model(np.random.default_rng(5).standard_normal((5, 4, 3)), train=True)


class TestTwinTower:
    def make(self, mask="both"):
        spec = ModelSpec("twin_tower", 4, 3, hidden=8, heads=2, layers=1, tower_mask=mask)
        return build_model(spec, seed=0)

    def test_gate_linearity(self):
        rng = np.random.default_rng(5)
        model = self.make()
        model.gate_w1.data = rng.standard_normal(8)
        model.gate_w2.data = rng.standard_normal(8)
        model.head = lambda z: z  # the forward then returns the gating channel
        x = rng.standard_normal((3, 4, 3))
        o1 = model.time_tower(Tensor(x), None, 0.0, None).data
        o2 = model.feature_tower(Tensor(np.swapaxes(x, 1, 2)), None, 0.0, None).data
        expect = model.gate_w1.data * o1 + model.gate_w2.data * o2
        assert np.array_equal(model(x).data, expect)

    def test_zero_w2_is_time_tower_only(self):
        rng = np.random.default_rng(6)
        model = self.make()
        model.gate_w2.data = np.zeros(8)
        x = rng.standard_normal((2, 4, 3))
        o1 = model.time_tower(Tensor(x), model.counter, 0.0, None)
        expect = model.head(model.gate_w1 * o1).data
        assert np.max(np.abs(model(x).data - expect)) < 1e-12

    def test_tower_mask_zeroes_contribution(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 4, 3))
        time_only = self.make("time")
        feature_only = self.make("feature")
        both = self.make("both")
        o1 = both.time_tower(Tensor(x), both.counter, 0.0, None)
        o2 = both.feature_tower(Tensor(np.swapaxes(x, 1, 2)), both.counter, 0.0, None)
        assert np.array_equal(time_only(x).data, both.head(both.gate_w1 * o1).data)
        assert np.array_equal(feature_only(x).data, both.head(both.gate_w2 * o2).data)

    def test_masked_tower_keeps_initial_parameters(self):
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((24, 4, 3)), (rng.random(24) < 0.5).astype(np.float64)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, epochs=2, patience=None, seed=0)
        for mask, tower, gate in (("time", "feature_tower", "gate_w2"),
                                  ("feature", "time_tower", "gate_w1")):
            model = self.make(mask)
            initial = model.state()
            model, _ = train_supervised(model, ((x,), y), ((x,), y), cfg)
            trained = model.state()
            masked = [k for k in initial if k.startswith(f"{tower}.") or k == gate]
            assert masked and all(trained[k].tobytes() == initial[k].tobytes() for k in masked)
            assert any(trained[k].tobytes() != initial[k].tobytes() for k in initial
                       if k not in masked)
            # the masked tower is still built: the parameter count matches mask "both"
            assert len(model.parameters()) == len(self.make().parameters())

    def test_unknown_mask_rejected(self):
        with pytest.raises(ConfigError):
            self.make("sideways")

    def test_row_permutation_sensitivity(self):
        rng = np.random.default_rng(8)
        model = self.make()
        x = rng.standard_normal((2, 4, 3))
        assert not np.allclose(model(x).data, model(x[:, ::-1]).data)


class TestHierarchical:
    def make(self, family="hierarchical", n=3, **kw):
        vocab = small_vocab()
        spec = ModelSpec(family, n, 3, hidden=8, heads=2, layers=1,
                         field_layers=1, **kw)
        return build_model(spec, seed=0, vocab=vocab), vocab

    def test_requires_vocab(self):
        with pytest.raises(ConfigError):
            build_model(ModelSpec("hierarchical", 3, 3, hidden=8, heads=2), seed=0)

    def test_vocab_width_checked(self):
        with pytest.raises(ShapeError):
            build_model(ModelSpec("hierarchical", 3, 5, hidden=8, heads=2),
                        seed=0, vocab=small_vocab())

    def test_cls_forward_shape(self):
        model, vocab = self.make()
        ids = random_ids(vocab, 4, 3, np.random.default_rng(9))
        assert model(ids).shape == (4, 2)

    def test_degenerate_single_cell(self):
        vocab = Vocabulary((FieldTokens("f", FieldKind.CATEGORICAL, N_SPECIALS,
                                        ("a", "b")),))
        spec = ModelSpec("hierarchical", 1, 1, hidden=8, heads=2, layers=1, head="mlm")
        model = build_model(spec, seed=0, vocab=vocab)
        ids = np.full((2, 1, 1), N_SPECIALS, dtype=np.int64)
        masked = np.full((2, 1, 1), 1, dtype=np.int64)  # MASK token
        mask = np.ones((2, 1, 1), dtype=bool)
        loss = model.mlm_loss(masked, ids, mask)
        assert np.isfinite(loss.item())

    def test_empty_mask_gives_zero_loss(self):
        model, vocab = self.make(head="mlm")
        ids = random_ids(vocab, 2, 3, np.random.default_rng(10))
        loss = model.mlm_loss(ids, ids, np.zeros(ids.shape, dtype=bool))
        assert loss.item() == 0.0

    def test_mlm_head_ranges_per_field(self):
        model, vocab = self.make(head="mlm")
        for head, ft in zip(model.mlm_heads, vocab.fields):
            assert head.weight.shape == (8, ft.size)

    def test_target_outside_field_range_rejected(self):
        model, vocab = self.make(head="mlm")
        ids = random_ids(vocab, 1, 3, np.random.default_rng(11))
        bad = ids.copy()
        bad[0, 0, 0] = vocab.fields[1].start  # wrong field's token
        mask = np.zeros(ids.shape, dtype=bool)
        mask[0, 0, 0] = True
        with pytest.raises(ShapeError):
            model.mlm_loss(ids, bad, mask)

    def test_row_permutation_sensitivity(self):
        model, vocab = self.make()
        ids = random_ids(vocab, 2, 3, np.random.default_rng(12))
        assert not np.allclose(model(ids).data, model(ids[:, ::-1]).data)


class TestJointLoss:
    def make(self, mlm_lambda=1.0):
        vocab = small_vocab()
        spec = ModelSpec("hierarchical_joint", 3, 3, hidden=8, heads=2, layers=1,
                         field_layers=1, head="mlm", mlm_lambda=mlm_lambda)
        return build_model(spec, seed=0, vocab=vocab), vocab

    def fixture(self, seed=13):
        model, vocab = self.make()
        rng = np.random.default_rng(seed)
        ids = random_ids(vocab, 2, 3, rng)
        raw = rng.standard_normal(ids.shape)
        mask = rng.random(ids.shape) < 0.4
        masked = ids.copy()
        masked[mask] = 1
        return model, ids, raw, mask, masked

    def test_requires_raw(self):
        model, ids, raw, mask, masked = self.fixture()
        with pytest.raises(ShapeError):
            model.mlm_loss(masked, ids, mask, raw=None)

    def test_loss_linear_in_lambda(self):
        # loss(lambda) = CE + lambda * MSE, so three lambdas pin both terms
        model1, ids, raw, mask, masked = self.fixture()
        losses = {}
        for lam in (0.0, 1.0, 2.0):
            model, _ = self.make(mlm_lambda=lam)
            model.load_state(model1.state())
            losses[lam] = model.mlm_loss(masked, ids, mask, raw=raw).item()
        mse_term = losses[2.0] - losses[1.0]
        assert mse_term > 0.0
        assert losses[0.0] == pytest.approx(losses[1.0] - mse_term, abs=1e-10)

    def test_no_numeric_cells_masked_is_ce_alone(self):
        model, ids, raw, mask, _ = self.fixture()
        cat_mask = mask.copy()
        cat_mask[:, :, 1] = False
        masked = ids.copy()
        masked[cat_mask] = 1
        with_lam = model.mlm_loss(masked, ids, cat_mask, raw=raw).item()
        model0, _ = self.make(mlm_lambda=0.0)
        model0.load_state(model.state())
        without = model0.mlm_loss(masked, ids, cat_mask, raw=raw).item()
        assert with_lam == pytest.approx(without, abs=1e-12)

    def test_masked_numeric_cells_use_mask_embedding(self):
        # changing the raw value of a masked numeric cell must not change
        # the encoder input (the cell keeps the MASK embedding)
        model, ids, raw, mask, masked = self.fixture()
        mask = np.zeros(ids.shape, dtype=bool)
        mask[0, 0, 1] = True
        masked = ids.copy()
        masked[mask] = 1
        _, rows_a = model.encode(masked, raw=raw, mask=mask)
        raw2 = raw.copy()
        raw2[0, 0, 1] = 99.0
        _, rows_b = model.encode(masked, raw=raw2, mask=mask)
        assert np.max(np.abs(rows_a.data - rows_b.data)) == 0.0


def reps_cell_embeddings(model, ids, raw, mask):
    """The joint cell selection before it became a constant array: ``sel`` on
    the tape."""
    emb = model.embed(ids)
    if not model.joint:
        return emb
    value = Tensor(raw[..., None]) * model.value_w + model.value_b
    use_value = np.zeros(ids.shape, dtype=bool)
    use_value[..., [j for j, ft in enumerate(model.vocab.fields)
                    if ft.kind is FieldKind.NUMERICAL]] = True
    use_value &= ~mask
    sel = Tensor(use_value[..., None].astype(emb.data.dtype))
    return emb * (1.0 - sel) + value * sel


def reps_mlm_loss(model, ids, targets, mask, raw=None, train=False, rng=None):
    """The MLM loss that built the [B, N, M, H] sum ``reps`` and gathered each
    field's masked cells from it, kept as the oracle of the one-gather loss."""
    with mock.patch.object(HierarchicalModel, "_cell_embeddings", reps_cell_embeddings):
        cells, rows = model.encode(ids, raw=raw if model.joint else None,
                                   mask=mask, train=train, rng=rng)
    reps = cells + T.reshape(rows, (rows.shape[0], rows.shape[1], 1, rows.shape[2]))
    ce_terms, mse_terms = [], []
    for j, ft in enumerate(model.vocab.fields):
        rows_j, cols_j = np.nonzero(mask[:, :, j])
        if len(rows_j) == 0:
            continue
        out = model.mlm_heads[j](T.take(reps, (rows_j, cols_j, np.full(len(rows_j), j))))
        if model.joint and ft.kind is FieldKind.NUMERICAL:
            target = raw[rows_j, cols_j, j]
            mse_terms.append((T.mse(T.reshape(out, (len(rows_j),)), Tensor(target)),
                              len(rows_j)))
        else:
            local = targets[rows_j, cols_j, j] - ft.start
            ce_terms.append((T.cross_entropy(out, local), len(rows_j)))

    def weighted_mean(terms):
        total = sum(count for _, count in terms)
        loss = Tensor(0.0)
        for term, count in terms:
            loss = loss + term * (count / total)
        return loss

    loss = weighted_mean(ce_terms)
    if mse_terms:
        loss = loss + model.spec.mlm_lambda * weighted_mean(mse_terms)
    return loss


class TestMlmGather:
    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_loss_and_gradients_equal_reps_oracle(self, family, dropout):
        last = small_vocab().fields[-1]
        vocab = Vocabulary((*small_vocab().fields, FieldTokens(
            "cat_c", FieldKind.CATEGORICAL, last.start + last.size, ("u", "v"))))
        spec = ModelSpec(family, 4, 4, hidden=8, heads=2, layers=1, head="mlm",
                         dropout=dropout, mlm_lambda=0.7 if family.endswith("joint") else 1.0)
        model = build_model(spec, seed=3, vocab=vocab)
        rng = np.random.default_rng(31)
        ids = random_ids(vocab, 5, 4, rng)
        raw = rng.standard_normal(ids.shape)
        mask = rng.random(ids.shape) < 0.5
        mask[:, :, 3] = False  # a field with no masked cell
        mask[:, :2, :3] = True  # rows whose gradient sums three masked fields
        masked = np.where(mask, 1, ids)
        results = []
        for loss_fn in (reps_mlm_loss, HierarchicalModel.mlm_loss):
            for p in model.parameters():
                p.grad = None
            loss = loss_fn(model, masked, ids, mask, raw=raw, train=dropout > 0,
                           rng=np.random.default_rng(32))
            loss.backward()
            results.append((loss.data, [p.grad for p in model.parameters()]))
        (want, want_grads), (got, got_grads) = results
        assert np.array_equal(got, want)
        assert any(g is None for g in want_grads)  # the unmasked field's head
        for g, w in zip(got_grads, want_grads):
            assert (g is None) == (w is None)
            assert g is None or np.array_equal(g, w)


class TestNoGradForward:
    @pytest.mark.parametrize("family", ["vanilla", "twin_tower", "hierarchical",
                                        "hierarchical_joint"])
    def test_logits_equal_taped_forward(self, family):
        rng = np.random.default_rng(30)
        spec = ModelSpec(family, 4, 3, hidden=8, heads=2, layers=1, dropout=0.2)
        if family.startswith("hierarchical"):
            model = build_model(spec, seed=6, vocab=small_vocab())
            ids = random_ids(small_vocab(), 5, 4, rng)
            raw = rng.standard_normal(ids.shape)  # read by the joint family only
            forward = lambda: model(ids, raw=raw)
        else:
            model = build_model(spec, seed=6)
            x = rng.standard_normal((5, 4, 3))
            forward = lambda: model(x)
        taped = forward()
        with T.no_grad():
            free = forward()
        assert taped._parents
        assert free._parents == () and free._backward_fn is None
        assert np.array_equal(free.data, taped.data)


class TestInfer:
    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    def test_equals_per_window_forward(self, family):
        rng = np.random.default_rng(8)
        spec = ModelSpec(family, 4, 3, hidden=8, heads=2, layers=1, dropout=0.2)
        model = build_model(spec, seed=6, vocab=small_vocab())
        ids, raw = stride_one_windows(small_vocab(), 12, 4, rng)
        with T.no_grad():
            expected = model(ids, raw=raw).data
        assert np.array_equal(model.infer(ids, raw), expected)

    @pytest.mark.parametrize("family, distinct", [("hierarchical", 4),
                                                  ("hierarchical_joint", 8)])
    def test_joint_keys_rows_on_raw_values(self, family, distinct):
        # two windows with equal ids and different raw values: one set of rows
        # for the token family, two for the joint family
        rng = np.random.default_rng(9)
        spec = ModelSpec(family, 4, 3, hidden=8, heads=2, layers=1)
        model = build_model(spec, seed=6, vocab=small_vocab())
        ids = np.repeat(stride_one_windows(small_vocab(), 4, 4, rng)[0], 2, axis=0)
        raw = rng.standard_normal(ids.shape)
        with T.no_grad():
            expected = model(ids, raw=raw).data
        model.counter.reset()
        got = model.infer(ids, raw)
        assert np.array_equal(got, expected)
        assert np.array_equal(got[0], got[1]) == (family == "hierarchical")
        assert model.counter.count == expected_attention_pairs(spec, 2, rows=distinct)


@st.composite
def repeated_row_grids(draw, vocab, n):
    """An (ids, raw) window grid [b, n, M] drawn from a few pooled rows, so
    that rows repeat within and across windows; raw values include 0.0 and
    -0.0, and pooled rows may share their ids and differ in raw values only."""
    pool_ids = draw(st.lists(st.tuples(*(st.integers(ft.start, ft.start + ft.size - 1)
                                         for ft in vocab.fields)), min_size=1, max_size=3))
    values = st.sampled_from([0.0, -0.0, 1.5, -2.25])
    pool = draw(st.lists(st.tuples(st.sampled_from(pool_ids),
                                   st.tuples(*(values for _ in vocab.fields))),
                         min_size=1, max_size=6))
    b = draw(st.integers(1, 5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=b * n, max_size=b * n))
    ids = np.array([pool[i][0] for i in picks], dtype=np.int64).reshape(b, n, -1)
    raw = np.array([pool[i][1] for i in picks], dtype=np.float64).reshape(b, n, -1)
    return ids, raw


class TestInferRowKey:
    @pytest.mark.parametrize("family", ["hierarchical", "hierarchical_joint"])
    @given(grid=repeated_row_grids(small_vocab(), 4))
    @settings(max_examples=60, deadline=None)
    def test_equals_forward_and_counts_distinct_rows(self, family, grid):
        ids, raw = grid
        spec = ModelSpec(family, 4, 3, hidden=8, heads=2, layers=1)
        model = build_model(spec, seed=6, vocab=small_vocab())
        with T.no_grad():
            expected = model(ids, raw=raw).data
        model.counter.reset()
        assert np.array_equal(model.infer(ids, raw), expected)
        # the oracle key: a row's ids, and for the joint family the bits of its raw values
        key = ids.reshape(-1, 3)
        if family == "hierarchical_joint":
            key = np.concatenate([key, raw.reshape(-1, 3).view(np.int64)], axis=1)
        distinct = len(np.unique(key, axis=0))
        assert model.counter.count == expected_attention_pairs(spec, len(ids), rows=distinct)

    @pytest.mark.parametrize("family, distinct", [("hierarchical", 1),
                                                  ("hierarchical_joint", 2)])
    def test_signed_zeros_are_distinct_joint_rows(self, family, distinct):
        spec = ModelSpec(family, 4, 3, hidden=8, heads=2, layers=1)
        model = build_model(spec, seed=6, vocab=small_vocab())
        ids = np.tile(random_ids(small_vocab(), 1, 1, np.random.default_rng(10)), (2, 4, 1))
        raw = np.zeros(ids.shape)
        raw[1] = -0.0
        with T.no_grad():
            expected = model(ids, raw=raw).data
        model.counter.reset()
        assert np.array_equal(model.infer(ids, raw), expected)
        assert model.counter.count == expected_attention_pairs(spec, 2, rows=distinct)


class TestEndToEndGradients:
    """All four families' training losses against finite differences."""

    def test_vanilla_loss(self):
        rng = np.random.default_rng(20)
        model = build_model(ModelSpec("vanilla", 4, 3, hidden=8, heads=2,
                                      layers=1), seed=1)
        x = rng.standard_normal((3, 4, 3))
        y = np.array([0, 1, 1])
        from tabseq.nn.tensor import cross_entropy

        f = lambda: cross_entropy(model(x), y)
        assert grad_check(f, model.parameters(), max_coords=6) < TOL

    def test_twin_tower_loss(self):
        rng = np.random.default_rng(21)
        model = build_model(ModelSpec("twin_tower", 4, 3, hidden=8, heads=2,
                                      layers=1), seed=2)
        x = rng.standard_normal((2, 4, 3))
        y = np.array([1, 0])
        from tabseq.nn.tensor import cross_entropy

        f = lambda: cross_entropy(model(x), y)
        assert grad_check(f, model.parameters(), max_coords=6) < TOL

    def test_hierarchical_mlm_loss(self):
        vocab = small_vocab()
        model = build_model(ModelSpec("hierarchical", 3, 3, hidden=8, heads=2,
                                      layers=1, head="mlm"), seed=3, vocab=vocab)
        rng = np.random.default_rng(22)
        ids = random_ids(vocab, 2, 3, rng)
        mask = rng.random(ids.shape) < 0.4
        mask[0, 0, 0] = True  # guarantee a non-empty mask
        masked = ids.copy()
        masked[mask] = 1
        f = lambda: model.mlm_loss(masked, ids, mask)
        assert grad_check(f, model.parameters(), max_coords=6) < TOL

    def test_joint_loss(self):
        vocab = small_vocab()
        model = build_model(ModelSpec("hierarchical_joint", 3, 3, hidden=8,
                                      heads=2, layers=1, head="mlm"),
                            seed=4, vocab=vocab)
        rng = np.random.default_rng(23)
        ids = random_ids(vocab, 2, 3, rng)
        raw = rng.standard_normal(ids.shape)
        mask = rng.random(ids.shape) < 0.4
        mask[0, 0, 1] = True
        mask[0, 0, 0] = True
        masked = ids.copy()
        masked[mask] = 1
        f = lambda: model.mlm_loss(masked, ids, mask, raw=raw)
        assert grad_check(f, model.parameters(), max_coords=6) < TOL

    def test_regression_head_loss(self):
        rng = np.random.default_rng(24)
        model = build_model(ModelSpec("vanilla", 4, 3, hidden=8, heads=2,
                                      layers=1, head="regression"), seed=5)
        x = rng.standard_normal((3, 4, 3))
        y = rng.standard_normal((3, 1))
        from tabseq.nn.tensor import mse

        f = lambda: mse(model(x), T_tensor(y))
        assert grad_check(f, model.parameters(), max_coords=6) < TOL


def T_tensor(a):
    return Tensor(a)
