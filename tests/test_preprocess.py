import bisect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, small_schema
from tabseq.config import write_json
from tabseq.errors import FieldKindError, RangeError, SchemaMismatch, ShapeError
from tabseq.preprocess import (
    CLS,
    MASK,
    N_SPECIALS,
    PAD,
    STD_FLOOR,
    UNK,
    FieldTokens,
    PreprocessArtifact,
    Vocabulary,
    encode_numeric,
    encode_tokens,
    fit_preprocess,
    fit_quantizer,
)
from tabseq.schema import (
    MISSING_CATEGORY,
    Dataset,
    FieldKind,
    FieldSpec,
    Record,
    Schema,
    impute_missing,
    make_windows,
)


# Per-cell references for the oracle tests: the bin and token lookups that
# encode_tokens performs for a whole window, written for one cell, and the
# inverse token lookup.
def apply_quantizer(edges, v):
    """Bin id of v under half-open bins (-inf, e1], (e1, e2], ..., (e_{B-1}, inf)."""
    if not np.isfinite(v):
        raise RangeError(f"cannot quantize non-finite value {v!r}")
    return int(np.searchsorted(np.asarray(edges, dtype=np.float64), v, side="left"))


def encode_cell(vocab, field_name, value):
    """Token of a category, or of a bin id for a numerical field."""
    (ft,) = [f for f in vocab.fields if f.name == field_name]
    if ft.kind is FieldKind.CATEGORICAL:
        return vocab.category_tokens[field_name].get(value, UNK)
    return ft.start + int(value)


def decode_token(vocab, token):
    """Inverse lookup: token id -> (field name, category string or bin id)."""
    for ft in vocab.fields:
        if ft.start <= token < ft.start + ft.size:
            local = token - ft.start
            if ft.kind is FieldKind.CATEGORICAL:
                return ft.name, ft.entries[local]
            return ft.name, local
    raise RangeError(f"token {token} is special or out of range")


def amounts_dataset(values, channels=None):
    channels = channels or ["A"] * len(values)
    return make_dataset(
        [("e1", t, 0, float(v), c) for t, (v, c) in enumerate(zip(values, channels))]
    )


class TestQuantizer:
    def test_midpoint_edges(self):
        assert fit_quantizer(amounts_dataset([1, 2, 3, 4]), "amount", 2) == (2.5,)

    def test_edges_against_quantile_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(200)
        edges = fit_quantizer(amounts_dataset(values), "amount", 8)
        oracle = np.quantile(values, np.arange(1, 8) / 8, method="averaged_inverted_cdf")
        assert np.allclose(edges, oracle)

    def test_single_bin(self):
        assert fit_quantizer(amounts_dataset([1, 2, 3]), "amount", 1) == ()

    def test_constant_values_collapse(self):
        assert fit_quantizer(amounts_dataset([7, 7, 7, 7]), "amount", 3) == ()

    def test_categorical_field_rejected(self):
        with pytest.raises(FieldKindError):
            fit_quantizer(amounts_dataset([1, 2]), "channel", 2)

    def test_apply_boundary_rule(self):
        assert apply_quantizer((2.5,), 3.0) == 1
        assert apply_quantizer((2.5,), 2.5) == 0

    def test_apply_out_of_range_clamps(self):
        assert apply_quantizer((10.0, 20.0), -999.0) == 0
        assert apply_quantizer((10.0, 20.0), 999.0) == 2

    def test_apply_non_finite_rejected(self):
        with pytest.raises(RangeError):
            apply_quantizer((0.0,), float("nan"))

    def test_equal_frequency_split(self):
        # distinct values, bin count dividing the sample size: equal bin loads
        rng = np.random.default_rng(5)
        values = rng.permutation(np.arange(64, dtype=np.float64))
        edges = fit_quantizer(amounts_dataset(values), "amount", 8)
        bins = [apply_quantizer(edges, v) for v in values]
        assert np.bincount(bins, minlength=8).tolist() == [8] * 8

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=60, unique=True),
           st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_apply_monotone(self, values, bins):
        edges = fit_quantizer(amounts_dataset(values), "amount", bins)
        probe = sorted(values) + [min(values) - 1, max(values) + 1]
        got = [apply_quantizer(edges, v) for v in sorted(probe)]
        assert got == sorted(got)
        assert all(0 <= b < len(edges) + 1 for b in got)


class TestVocabulary:
    def make_artifact(self):
        d = amounts_dataset([1, 2, 3, 4, 5, 6, 7, 8],
                            ["A", "B", "C", "A", "B", "C", "A", "B"])
        return d, fit_preprocess(d, bins=4)

    def test_specials(self):
        assert (PAD, MASK, UNK, CLS) == (0, 1, 2, 3)

    def test_size_by_construction(self):
        # 4 specials + (3 categories + missing) + 4 bins = 12
        _, art = self.make_artifact()
        assert art.vocab.size == 12

    def test_ranges_dense_and_disjoint(self):
        _, art = self.make_artifact()
        seen = set()
        next_start = N_SPECIALS
        for ft in art.vocab.fields:
            assert ft.start == next_start
            ids = set(range(ft.start, ft.start + ft.size))
            assert not ids & seen
            seen |= ids
            next_start = ft.start + ft.size

    def test_unseen_category_is_unk(self):
        _, art = self.make_artifact()
        assert encode_cell(art.vocab, "channel", "ZZZ") == UNK

    def test_missing_category_has_token(self):
        _, art = self.make_artifact()
        tok = encode_cell(art.vocab, "channel", MISSING_CATEGORY)
        assert tok >= N_SPECIALS

    def test_encode_decode_bijection(self):
        _, art = self.make_artifact()
        for ft in art.vocab.fields:
            for local, entry in enumerate(ft.entries):
                if ft.kind.value == "categorical":
                    tok = encode_cell(art.vocab, ft.name, entry)
                    assert decode_token(art.vocab, tok) == (ft.name, entry)
                else:
                    tok = encode_cell(art.vocab, ft.name, local)
                    assert decode_token(art.vocab, tok) == (ft.name, local)

    def test_decode_special_rejected(self):
        _, art = self.make_artifact()
        with pytest.raises(RangeError):
            decode_token(art.vocab, MASK)


class TestEncodeTokens:
    def setup_method(self):
        self.d = amounts_dataset([1, 2, 3, 4, 5, 6], ["A", "B", "A", "B", "A", "B"])
        self.art = fit_preprocess(self.d, bins=3)
        self.window = make_windows(self.d, 3, 1)[0]

    def test_shape_and_validity(self):
        g = encode_tokens(self.window, self.d.schema, self.art.vocab, self.art.quantizers)
        assert g.ids.shape == (3, 2)
        assert (g.ids >= N_SPECIALS).all()

    def test_stable_token_for_known_category(self):
        g1 = encode_tokens(self.window, self.d.schema, self.art.vocab, self.art.quantizers)
        g2 = encode_tokens(self.window, self.d.schema, self.art.vocab, self.art.quantizers)
        assert (g1.ids == g2.ids).all()

    def test_keep_raw(self):
        g = encode_tokens(self.window, self.d.schema, self.art.vocab,
                          self.art.quantizers, keep_raw=True)
        assert g.raw is not None
        rows = self.d.records
        assert g.raw[:, 0].tolist() == [rows[i].values[3] for i in self.window.rows]

    def test_schema_mismatch_rejected(self):
        other = make_dataset([("e1", 0, 0, 1.0, "A")],
                             schema=small_schema(nullable=True))
        window = make_windows(other, 1, 1)[0]
        from tabseq.preprocess import FieldTokens, Vocabulary
        from tabseq.schema import FieldKind

        wrong = Vocabulary((FieldTokens("other", FieldKind.CATEGORICAL, 4, ("x",)),))
        with pytest.raises(ShapeError):
            encode_tokens(window, other.schema, wrong, {})

    def test_vocabulary_in_another_field_order_rejected(self):
        # the models read a vocabulary's fields by column position, so the
        # schema's feature fields in another order would be misread
        reordered = Vocabulary(tuple(reversed(self.art.vocab.fields)))
        assert set(reordered.field_names) == set(self.d.schema.feature_names)
        with pytest.raises(ShapeError, match="in order"):
            encode_tokens(self.window, self.d.schema, reordered, self.art.quantizers)


class TestEncodeNumeric:
    def test_standardization(self):
        d = amounts_dataset([8, 10, 12])  # mean 10, std sqrt(8/3)
        art = fit_preprocess(d)
        mean, std = art.stats["amount"]
        w = make_windows(d, 3, 1)[0]
        fm = encode_numeric(w, art)
        assert fm.values[:, 0] == pytest.approx([(v - mean) / std for v in (8, 10, 12)])

    def test_constant_field_floors_std(self):
        d = amounts_dataset([5, 5, 5])
        art = fit_preprocess(d)
        w = make_windows(d, 3, 1)[0]
        fm = encode_numeric(w, art)
        assert (fm.values[:, 0] == 0.0).all()

    def test_label_encoding(self):
        d = amounts_dataset([1, 2, 3], ["C", "A", "B"])
        art = fit_preprocess(d)
        w = make_windows(d, 3, 1)[0]
        fm = encode_numeric(w, art)
        # categories sorted: A=0, B=1, C=2
        assert fm.values[:, 1].tolist() == [2.0, 0.0, 1.0]

    def test_unseen_category_reserved_integer(self):
        d = amounts_dataset([1, 2], ["A", "B"])
        art = fit_preprocess(d)
        w2 = make_windows(amounts_dataset([1, 2], ["A", "ZZZ"]), 2, 1)[0]
        fm = encode_numeric(w2, art)
        assert fm.values[1, 1] == len(art.categories["channel"])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_output_always_finite(self, values):
        d = amounts_dataset(values)
        art = fit_preprocess(d)
        w = make_windows(d, len(values), 1)[0]
        fm = encode_numeric(w, art)
        assert np.all(np.isfinite(fm.values))


@pytest.mark.parametrize("kinds", [(FieldKind.NUMERICAL, FieldKind.CATEGORICAL),
                                   (FieldKind.NUMERICAL, FieldKind.NUMERICAL)])
def test_encoders_reject_another_schemas_dataset(fraud_dataset, kinds):
    # the same data under a schema with two feature fields swapped: an encoder
    # given the artifact's schema would read each field from the other's column
    d = impute_missing(fraud_dataset)
    art = fit_preprocess(d, bins=4)
    fields = list(d.schema.fields)
    i = next(k for k, f in enumerate(fields) if f in d.schema.feature_fields
             and f.kind is kinds[0])
    j = next(k for k, f in enumerate(fields) if f in d.schema.feature_fields
             and f.kind is kinds[1] and k != i)
    order = list(range(len(fields)))
    order[i], order[j] = j, i
    swapped = Dataset.from_columns(replace(d.schema, fields=tuple(fields[k] for k in order)),
                                   d.entities, d.entity, d.time_index,
                                   tuple(d.columns[k] for k in order))
    w = make_windows(swapped, 5, 5)[0]
    with pytest.raises(SchemaMismatch):
        encode_numeric(w, art)
    with pytest.raises(SchemaMismatch):
        encode_tokens(w, art.schema, art.vocab, art.quantizers)


class TestArtifact:
    def test_json_round_trip_and_hash(self, fraud_dataset):
        art = fit_preprocess(impute_missing(fraud_dataset), bins=8)
        doc = art.to_json()
        back = PreprocessArtifact.from_json(doc)
        assert back.to_json() == doc
        assert back.content_hash() == art.content_hash()

    def test_save_load(self, tmp_path, fraud_dataset):
        art = fit_preprocess(impute_missing(fraud_dataset), bins=8)
        path = tmp_path / "artifact.json"
        art.save(path)
        assert PreprocessArtifact.load(path).content_hash() == art.content_hash()

    def test_hash_sensitive_to_edges(self, fraud_dataset):
        d = impute_missing(fraud_dataset)
        assert fit_preprocess(d, bins=8).content_hash() != fit_preprocess(d, bins=4).content_hash()

    def test_unsupported_version_rejected(self, fraud_dataset):
        art = fit_preprocess(impute_missing(fraud_dataset), bins=4)
        doc = art.to_json()
        doc["version"] = 99
        with pytest.raises(RangeError):
            PreprocessArtifact.from_json(doc)

    def test_document_holds_only_the_facts(self, fraud_dataset):
        doc = fit_preprocess(impute_missing(fraud_dataset), bins=4).to_json()
        assert sorted(doc) == ["categories", "edges", "schema", "stats", "version"]
        assert doc["version"] == 2
        assert sorted(doc["edges"]) == sorted(doc["stats"]) == ["num_0", "num_1", "num_2",
                                                                "num_3"]
        assert sorted(doc["categories"]) == ["cat_0", "cat_1"]

    def test_derived_parts_built_once(self, fraud_dataset):
        # Column.lookup caches by the table's identity, so a table rebuilt on
        # each access would grow that cache on every encoder call
        art = fit_preprocess(impute_missing(fraud_dataset), bins=4)
        assert art.vocab is art.vocab and art.quantizers is art.quantizers
        assert art.vocab.category_tokens is art.vocab.category_tokens
        assert art.vocab.field_names is art.vocab.field_names
        assert art.schema.feature_names is art.schema.feature_names

    # each edit makes a document that states a fact twice, leaves one out, or
    # breaks a check; the version-1 keys are among them
    REJECTED = {
        "version 1": lambda d: d.update(version=1),
        "unknown key": lambda d: d.update(bins=4),
        "version-1 vocabulary": lambda d: d.update(vocabulary=[]),
        "version-1 label tables": lambda d: d.update(numeric={"label_tables": {}}),
        "missing key": lambda d: d.pop("stats"),
        "table not an object": lambda d: d.update(edges=[]),
        "extra stats field": lambda d: d["stats"].update(cat_0=[0.0, 1.0]),
        "missing edges field": lambda d: d["edges"].pop("num_0"),
        "categories of a numerical field": lambda d: d["categories"].update(
            num_0=[MISSING_CATEGORY]),
        "non-finite edge": lambda d: d["edges"]["num_0"].append(float("inf")),
        "decreasing edges": lambda d: d["edges"]["num_0"].reverse(),
        "repeated edge": lambda d: d["edges"]["num_0"].append(d["edges"]["num_0"][-1]),
        "integer edge": lambda d: d["edges"]["num_0"].append(10**6),
        "non-finite mean": lambda d: d["stats"]["num_0"].__setitem__(0, float("nan")),
        "std below the floor": lambda d: d["stats"]["num_0"].__setitem__(1, STD_FLOOR / 2),
        "three stats": lambda d: d["stats"]["num_0"].append(1.0),
        "repeated category": lambda d: d["categories"]["cat_0"].insert(
            0, d["categories"]["cat_0"][0]),
        "missing category not last": lambda d: d["categories"]["cat_0"].reverse(),
        "non-string category": lambda d: d["categories"]["cat_0"].insert(0, 1),
        "schema key left out": lambda d: d["schema"]["fields"][0].pop("nullable"),
    }

    @pytest.mark.parametrize("edit", REJECTED.values(), ids=REJECTED.keys())
    def test_malformed_document_rejected(self, fraud_dataset, edit):
        art = fit_preprocess(impute_missing(fraud_dataset), bins=4)
        doc = json.loads(json.dumps(art.to_json()))
        assert PreprocessArtifact.from_json(doc).to_json() == art.to_json()
        edit(doc)
        with pytest.raises(RangeError):
            PreprocessArtifact.from_json(doc)

    def test_fit_rejects_non_finite_value(self):
        with pytest.raises(RangeError, match="cannot quantize non-finite value inf"):
            fit_preprocess(amounts_dataset([1.0, 2.0, float("inf")]))

    def test_load_names_the_file(self, tmp_path, fraud_dataset):
        doc = fit_preprocess(impute_missing(fraud_dataset), bins=4).to_json()
        path = tmp_path / "old.json"
        write_json(path, {**doc, "version": 1})
        with pytest.raises(RangeError) as info:
            PreprocessArtifact.load(path)
        assert str(info.value) == (f"{path}: unsupported artifact version 1; re-run "
                                   "`tabseq preprocess` to refit it")


# Reference encoders written per cell, without the code under test: bin ids by
# bisect on the edges, tokens by position in the field's entries.
ORACLE_SCHEMA = Schema(
    fields=(
        FieldSpec("entity_id", FieldKind.CATEGORICAL),
        FieldSpec("time_idx", FieldKind.NUMERICAL),
        FieldSpec("x", FieldKind.NUMERICAL),
        FieldSpec("c", FieldKind.CATEGORICAL),
        FieldSpec("y", FieldKind.NUMERICAL),
        FieldSpec("d", FieldKind.CATEGORICAL),
    ),
    entity_key="entity_id",
    time_key="time_idx",
)
KNOWN = {"c": ("a", "b", "c"), "d": ("p", "q")}


def oracle_artifact(edges, stats):
    """An artifact of hand-picked facts for ORACLE_SCHEMA; its derived vocabulary
    must be the one built here by hand."""
    categories = {name: KNOWN[name] + (MISSING_CATEGORY,) for name in KNOWN}
    art = PreprocessArtifact(ORACLE_SCHEMA, {name: tuple(e) for name, e in edges.items()},
                             stats, categories)
    tables, start = [], N_SPECIALS
    for spec in ORACLE_SCHEMA.feature_fields:
        entries = categories[spec.name] if spec.name in categories \
            else tuple(f"bin_{i}" for i in range(len(edges[spec.name]) + 1))
        tables.append(FieldTokens(spec.name, spec.kind, start, entries))
        start += len(entries)
    assert art.vocab == Vocabulary(tuple(tables))
    return art


def oracle_window(rows):
    """rows: one {field: value} dict per time step."""
    records = tuple(
        Record(("e", float(t)) + tuple(r[f.name] for f in ORACLE_SCHEMA.fields[2:]), "e", t)
        for t, r in enumerate(rows))
    return make_windows(Dataset(ORACLE_SCHEMA, records), len(rows), 1, "none")[0]


@st.composite
def oracle_cases(draw):
    edges = {name: sorted(draw(st.lists(st.floats(-1e3, 1e3), max_size=6, unique=True)))
             for name in ("x", "y")}
    stats = {name: (draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-3, 1e3)))
             for name in ("x", "y")}

    def numeric(name):
        on_edge = [st.sampled_from(edges[name])] if edges[name] else []
        return st.one_of(st.floats(-2e3, 2e3), *on_edge)

    def category(name):
        return st.sampled_from(KNOWN[name] + (MISSING_CATEGORY, "unseen"))

    row = st.fixed_dictionaries({"x": numeric("x"), "c": category("c"),
                                 "y": numeric("y"), "d": category("d")})
    return edges, stats, draw(st.lists(row, min_size=1, max_size=6)), draw(st.booleans())


class TestEncoderOracle:
    @given(oracle_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_cell_reference(self, case):
        edges, stats, rows, keep_raw = case
        art = oracle_artifact(edges, stats)
        quantizers, vocab = art.quantizers, art.vocab
        w = oracle_window(rows)
        starts = {ft.name: ft.start for ft in vocab.fields}
        entries = {ft.name: ft.entries for ft in vocab.fields}
        feats = [f.name for f in ORACLE_SCHEMA.feature_fields]

        def token(name, v):
            if name in KNOWN:
                return starts[name] + entries[name].index(v) if v in entries[name] else UNK
            return starts[name] + bisect.bisect_left(edges[name], v)

        def feature(name, v):
            if name in KNOWN:
                labels = KNOWN[name] + (MISSING_CATEGORY,)
                return labels.index(v) if v in labels else len(labels)
            mean, std = stats[name]
            return (v - mean) / std

        want_ids = np.array([[token(f, r[f]) for f in feats] for r in rows])
        want_raw = np.array([[0.0 if f in KNOWN else r[f] for f in feats] for r in rows])
        want_x = np.array([[feature(f, r[f]) for f in feats] for r in rows])

        g = encode_tokens(w, ORACLE_SCHEMA, vocab, quantizers, keep_raw=keep_raw)
        assert np.array_equal(g.ids, want_ids)
        assert np.array_equal(g.raw, want_raw) if keep_raw else g.raw is None
        assert np.array_equal(encode_numeric(w, art).values, want_x)
        for f in feats:  # the per-cell helpers read the same tables
            for r in rows:
                cell = r[f] if f in KNOWN else apply_quantizer(quantizers[f], r[f])
                assert encode_cell(vocab, f, cell) == token(f, r[f])

    def encode_both(self, row):
        art = oracle_artifact({"x": [0.0], "y": []}, {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        good = {"x": 1.0, "c": "a", "y": 2.0, "d": "p"}
        w = oracle_window([good, {**good, **row}])
        yield lambda: encode_tokens(w, ORACLE_SCHEMA, art.vocab, art.quantizers)
        yield lambda: encode_numeric(w, art)

    @pytest.mark.parametrize("field_name", ["x", "c"])
    def test_missing_cell_rejected(self, field_name):
        for encode in self.encode_both({field_name: None}):
            with pytest.raises(RangeError,
                               match=f"missing value in field '{field_name}'; impute first"):
                encode()

    def test_non_finite_value_rejected(self):
        tokens, numeric = self.encode_both({"y": float("inf")})
        with pytest.raises(RangeError, match="cannot quantize non-finite value inf"):
            tokens()
        with pytest.raises(RangeError, match="feature matrix contains non-finite entries"):
            numeric()
