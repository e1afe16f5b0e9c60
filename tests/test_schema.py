import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, small_schema
from tabseq.errors import EmptyResult, ParseError, SchemaMismatch
from tabseq.schema import (
    MISSING_CATEGORY,
    Dataset,
    FieldKind,
    FieldSpec,
    Record,
    Schema,
    impute_missing,
    load_csv,
    make_windows,
    save_csv,
)


class TestSchema:
    def test_feature_fields_exclude_keys(self):
        s = small_schema()
        assert [f.name for f in s.feature_fields] == ["amount", "channel"]
        assert s.n_features == 2

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema(
                (FieldSpec("a", FieldKind.CATEGORICAL), FieldSpec("a", FieldKind.NUMERICAL),
                 FieldSpec("t", FieldKind.NUMERICAL)),
                entity_key="a", time_key="t",
            )

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema((FieldSpec("a", FieldKind.NUMERICAL),), entity_key="nope", time_key="a")

    def test_schema_json_round_trip(self, tmp_path):
        s = small_schema(nullable=True)
        path = tmp_path / "schema.json"
        s.save(path)
        assert Schema.load(path) == s


class TestDataset:
    def test_unsorted_records_rejected(self):
        s = small_schema()
        recs = (
            Record(("e1", 1.0, 0.0, 2.0, "A"), "e1", 1),
            Record(("e1", 0.0, 0.0, 1.0, "A"), "e1", 0),
        )
        with pytest.raises(SchemaMismatch):
            Dataset(s, recs)

    def test_duplicate_keys_rejected(self):
        s = small_schema()
        recs = (
            Record(("e1", 0.0, 0.0, 1.0, "A"), "e1", 0),
            Record(("e1", 0.0, 0.0, 2.0, "A"), "e1", 0),
        )
        with pytest.raises(SchemaMismatch):
            Dataset(s, recs)

    def test_wrong_width_rejected(self):
        s = small_schema()
        with pytest.raises(SchemaMismatch):
            Dataset(s, (Record(("e1", 0.0, 0.0), "e1", 0),))


class TestLoadCsv:
    def test_basic_parse_sorted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "entity_id,time_idx,label,amount,channel\n"
            "e2,0,0,5.0,A\n"
            "e1,1,1,2.5,B\n"
            "e1,0,0,1.0,A\n"
        )
        d = load_csv(path, small_schema())
        assert len(d) == 3
        assert [(r.entity, r.time_index) for r in d.records] == [("e1", 0), ("e1", 1), ("e2", 0)]
        assert d.records[1].values[3] == 2.5

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "entity_id,time_idx,label,amount,channel\ne1,0,0,,A\n"
        )
        d = load_csv(path, small_schema(nullable=True))
        assert d.records[0].values[3] is None

    def test_missing_in_non_nullable_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("entity_id,time_idx,label,amount,channel\ne1,0,0,,A\n")
        with pytest.raises(ParseError):
            load_csv(path, small_schema(nullable=False))

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("entity_id,time_idx,label,amt,channel\ne1,0,0,1,A\n")
        with pytest.raises(SchemaMismatch):
            load_csv(path, small_schema())

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "entity_id,time_idx,label,amount,channel\n"
            "e1,0,0,1.0,A\n"
            "e1,1,0,abc,A\n"
        )
        with pytest.raises(ParseError) as exc:
            load_csv(path, small_schema())
        assert exc.value.row == 3

    def test_infinite_time_index_reports_row(self, tmp_path):
        # a categorical time key skips the numeric cell check
        schema = Schema((FieldSpec("e", FieldKind.CATEGORICAL),
                         FieldSpec("t", FieldKind.CATEGORICAL),
                         FieldSpec("x", FieldKind.NUMERICAL)), entity_key="e", time_key="t")
        path = tmp_path / "d.csv"
        path.write_text("e,t,x\ne1,inf,1.0\n")
        with pytest.raises(ParseError, match="row 2: non-integer time index 'inf'"):
            load_csv(path, schema)

    def test_fractional_time_index_reports_row(self, tmp_path):
        # truncated, 1.5 and 1.9 would be one (e1, 1) key that the file does not hold
        path = tmp_path / "d.csv"
        path.write_text("entity_id,time_idx,label,amount,channel\n"
                        "e1,0.0,0,1.0,A\ne1,3.0,0,1.0,A\ne1,1e3,0,1.0,A\n"
                        "e1,1.5,0,2.0,B\ne1,1.9,0,3.0,B\n")
        with pytest.raises(ParseError, match="row 5: non-integer time index '1.5'"):
            load_csv(path, small_schema())
        path.write_text(path.read_text().rsplit("e1,1.5", 1)[0])
        assert [r.time_index for r in load_csv(path, small_schema()).records] == [0, 3, 1000]

    def test_save_load_round_trip(self, tmp_path):
        d = make_dataset([
            ("e1", 0, 0, 1.25, "A"),
            ("e1", 1, 1, None, "B"),
            ("e2", 0, 0, -3.5, None),
        ])
        path = tmp_path / "round.csv"
        save_csv(d, path)
        d2 = load_csv(path, d.schema)
        assert d2.records == d.records


class TestImputeMissing:
    def test_zero_policy(self):
        d = make_dataset([("e1", 0, 0, None, None)])
        out = impute_missing(d)
        assert out.records[0].values[3] == 0.0
        assert out.records[0].values[4] == MISSING_CATEGORY

    def test_idempotent(self):
        d = make_dataset([("e1", 0, 0, None, "A"), ("e1", 1, 1, 2.0, None)])
        once = impute_missing(d)
        assert impute_missing(once).records == once.records

    def test_complete_records_unchanged(self):
        d = make_dataset([("e1", 0, 0, 1.0, "A")])
        assert impute_missing(d).records == d.records


class TestMakeWindows:
    def _entity(self, n_rows, labels=None):
        labels = labels or [0] * n_rows
        return make_dataset([("e1", t, labels[t], float(t), "A") for t in range(n_rows)])

    def test_offsets(self):
        d = self._entity(24)
        ws = make_windows(d, 10, 5)
        assert len(ws) == 3
        rows = d.records
        assert [rows[w.rows[0]].time_index for w in ws] == [0, 5, 10]

    def test_any_positive_rule(self):
        labels = [0] * 24
        labels[7] = 1
        ws = make_windows(self._entity(24, labels), 10, 5)
        assert [w.label for w in ws] == [1, 1, 0]

    def test_all_zero_window(self):
        ws = make_windows(self._entity(10), 10, 5)
        assert ws[0].label == 0

    def test_last_target_rule(self):
        d = make_dataset([("e1", t, t * 0.5, 1.0, "A") for t in range(5)])
        ws = make_windows(d, 3, 1, rule="last_target")
        assert [w.label for w in ws] == [1.0, 1.5, 2.0]

    def test_none_rule_without_label_key(self):
        s = Schema(
            (FieldSpec("e", FieldKind.CATEGORICAL), FieldSpec("t", FieldKind.NUMERICAL),
             FieldSpec("x", FieldKind.NUMERICAL)),
            entity_key="e", time_key="t",
        )
        d = Dataset(s, tuple(Record(("e1", float(t), 1.0), "e1", t) for t in range(4)))
        ws = make_windows(d, 2, 1, rule="none")
        assert len(ws) == 3 and all(w.label is None for w in ws)

    def test_short_entity_raises_empty(self):
        with pytest.raises(EmptyResult):
            make_windows(self._entity(5), 10, 5)

    def test_windows_never_span_entities(self):
        rows = [("e1", t, 0, 1.0, "A") for t in range(6)]
        rows += [("e2", t, 0, 1.0, "A") for t in range(6)]
        d = make_dataset(rows)
        ws = make_windows(d, 4, 1)
        rows = d.records
        for w in ws:
            assert len({rows[i].entity for i in w.rows}) == 1
            times = [rows[i].time_index for i in w.rows]
            assert times == list(range(times[0], times[0] + 4))

    @given(t=st.integers(1, 40), n=st.integers(1, 12), stride=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_window_count_formula(self, t, n, stride):
        d = self._entity(t)
        if t < n:
            with pytest.raises(EmptyResult):
                make_windows(d, n, stride)
        else:
            ws = make_windows(d, n, stride)
            assert len(ws) == math.floor((t - n) / stride) + 1

    @given(labels=st.lists(st.integers(0, 1), min_size=6, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_binary_label_is_or_of_rows(self, labels):
        d = self._entity(len(labels), labels)
        rows = d.records
        for w in make_windows(d, 4, 2):
            t0 = rows[w.rows[0]].time_index
            assert w.label == int(any(labels[t0:t0 + 4]))
