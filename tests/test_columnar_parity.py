"""The columnar data path against the per-row code it replaced.

The oracle below is the per-row loader, imputation, windowing, fitting and
encoding that ``schema.py`` and ``preprocess.py`` ran on tuples of ``Record``s
before the dataset became columns. It differs in two rules only: a time index
outside the 64-bit range is an error, because the columns hold it as int64;
and a time index that is not a whole number is an error, where the per-row
code truncated it (``1.5`` and ``1.9`` both became 1).
"""

import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabseq.schema
from test_loader_fuzz import CSV_FILE, CSV_SCHEMA, mutated_bytes
from tabseq.errors import EmptyResult, ParseError, RangeError, SchemaMismatch
from tabseq.preprocess import STD_FLOOR, UNK, fit_preprocess
from tabseq.schema import (MISSING_CATEGORY, Dataset, FieldKind, FieldSpec, Record, Schema,
                           impute_missing, load_csv, make_windows)
from tabseq.training import encode_inputs, train_rows, window_labels

FAMILIES = ("vanilla", "hierarchical", "hierarchical_joint")

# -- the per-row oracle -----------------------------------------------------------


def oracle_cell(text, spec, row_no):
    if text == "":
        return None
    if spec.kind is FieldKind.NUMERICAL:
        try:
            v = float(text)
        except ValueError:
            raise ParseError(f"non-numeric value {text!r} in field {spec.name!r}", row=row_no)
        if not math.isfinite(v):
            raise ParseError(f"non-finite value {text!r} in field {spec.name!r}", row=row_no)
        return v
    return text


def oracle_load(path, schema):
    """Records sorted by (entity, time_index), or the loader's exception."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaMismatch("empty CSV file")
            declared = [f.name for f in schema.fields]
            if sorted(header) != sorted(declared):
                unknown = set(header) - set(declared)
                absent = set(declared) - set(header)
                raise SchemaMismatch(
                    f"header mismatch: unknown columns {sorted(unknown)}, missing columns {sorted(absent)}"
                )
            col_of = {name: header.index(name) for name in declared}
            records = []
            for row_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
                values = []
                for spec in schema.fields:
                    v = oracle_cell(row[col_of[spec.name]], spec, row_no)
                    if v is None and not spec.nullable:
                        raise ParseError(f"missing value in non-nullable field {spec.name!r}",
                                         row=row_no)
                    values.append(v)
                text = row[col_of[schema.time_key]]
                try:
                    value = float(text)
                    time_index = int(value)
                except (ValueError, OverflowError):
                    raise ParseError(f"non-integer time index {text!r}", row=row_no)
                if time_index != value:  # the second new rule
                    raise ParseError(f"non-integer time index {text!r}", row=row_no)
                if not -2**63 <= time_index < 2**63:  # the first new rule
                    raise ParseError(f"time index {text!r} is outside the 64-bit range",
                                     row=row_no)
                records.append(Record(tuple(values), row[col_of[schema.entity_key]], time_index))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV file is not UTF-8 text: {exc.reason}") from None
    records.sort(key=lambda r: (r.entity, r.time_index))
    seen = set()
    for rec in records:
        key = (rec.entity, rec.time_index)
        if key in seen:
            raise SchemaMismatch(f"duplicate (entity, time_index) pair {key}")
        seen.add(key)
    return tuple(records)


def oracle_impute(schema, records):
    return tuple(
        Record(tuple((0.0 if spec.kind is FieldKind.NUMERICAL else MISSING_CATEGORY)
                     if v is None else v for v, spec in zip(rec.values, schema.fields)),
               rec.entity, rec.time_index)
        for rec in records)


def oracle_windows(schema, records, n, stride, rule):
    """(entity, label, rows) per window."""
    label_i = schema.index_of(schema.label_key) if schema.label_key else None
    groups = {}
    for rec in records:
        groups.setdefault(rec.entity, []).append(rec)
    windows = []
    for entity, recs in groups.items():
        for start in range(0, len(recs) - n + 1, stride):
            rows = tuple(recs[start:start + n])
            if rule == "any_positive":
                label = int(any(r.values[label_i] == 1.0 for r in rows))
            elif rule == "last_target":
                label = float(rows[-1].values[label_i])
            else:
                label = None
            windows.append((entity, label, rows))
    if not windows:
        raise EmptyResult(f"no entity has at least {n} records")
    return windows


def oracle_fit(schema, records, bins):
    """Per feature field: quantizer edges, vocabulary entries, or (mean, std)."""
    fitted = {}
    for spec in schema.feature_fields:
        col = schema.index_of(spec.name)
        present = [r.values[col] for r in records if r.values[col] is not None]
        if spec.kind is FieldKind.CATEGORICAL:
            fitted[spec.name] = tuple(sorted(set(present) - {MISSING_CATEGORY})) \
                + (MISSING_CATEGORY,)
            continue
        values = np.array(present, dtype=np.float64)
        edges, stats = (), (0.0, STD_FLOOR)
        if values.size:
            b = min(bins, len(np.unique(values)))
            if b > 1:
                qs = np.quantile(values, np.arange(1, b) / b, method="averaged_inverted_cdf")
                edges = tuple(sorted(set(float(e) for e in qs)))
            stats = (float(values.mean()), max(float(values.std()), STD_FLOOR))
        fitted[spec.name] = (edges, stats)
    return fitted


def oracle_encode(schema, rows, art, family):
    """One window block of records encoded cell by cell, as the row encoders did."""
    feats = schema.feature_fields
    cells = list(zip(*(r.values for r in rows)))
    cells = [cells[c] for c in schema.feature_columns]
    for spec, col in zip(feats, cells):
        if None in col:
            raise RangeError(f"missing value in field {spec.name!r}; impute first")
    n, m = len(rows), len(feats)
    if not family.startswith("hierarchical"):
        x, stats = [], []
        for spec, col in zip(feats, cells):
            if spec.kind is FieldKind.NUMERICAL:
                x.append(col)
                stats.append(art.stats[spec.name])
            else:
                labels = art.categories[spec.name]
                x.append([labels.index(c) if c in labels else len(labels) for c in col])
                stats.append((0.0, 1.0))
        mean, std = np.array(stats, dtype=np.float64).T
        x = np.array(x, dtype=np.float64).reshape(m, n)
        return (np.divide(x.T - mean, std, order="C"),)
    tokens, raw = [], np.zeros((n, m), dtype=np.float64)
    starts = {ft.name: ft.start for ft in art.vocab.fields}
    for j, (spec, col) in enumerate(zip(feats, cells)):
        if spec.kind is FieldKind.NUMERICAL:
            v = np.array(col, dtype=np.float64)
            tokens.append(np.searchsorted(art.edges[spec.name], v, side="left")
                          + starts[spec.name])
            raw[:, j] = v
        else:
            table = art.vocab.category_tokens[spec.name]
            tokens.append([table.get(c, UNK) for c in col])
    ids = np.array(tokens, dtype=np.int64).reshape(m, n).T.copy()
    return ids, raw if family == "hierarchical_joint" else None


# -- generated CSVs -----------------------------------------------------------------

CATEGORIES = ["a", "b", "c d", "x,y", 'q"', "é", MISSING_CATEGORY, "0"]


@st.composite
def csv_cases(draw):
    """(schema, CSV text): unique keys and no missing cell in a non-nullable field."""
    kinds = draw(st.lists(st.sampled_from(list(FieldKind)), min_size=1, max_size=4))
    nullable = [draw(st.booleans()) for _ in kinds]
    features = tuple(FieldSpec(f"f{i}", kind, null)
                     for i, (kind, null) in enumerate(zip(kinds, nullable)))
    schema = Schema((FieldSpec("ent", FieldKind.CATEGORICAL),
                     FieldSpec("t", FieldKind.NUMERICAL),
                     FieldSpec("y", FieldKind.NUMERICAL, nullable=draw(st.booleans())),
                     *features), entity_key="ent", time_key="t", label_key="y")
    keys = draw(st.lists(st.tuples(st.sampled_from(["e1", "e2", "e10", "E", "é"]),
                                   st.integers(-3, 12)),
                         max_size=30, unique=True))
    number = st.one_of(st.floats(-1e6, 1e6, width=64).map(repr),
                       st.integers(-5, 5).map(str), st.sampled_from(["1e3", " 2.5", "-0.0"]))

    def cell(spec):
        if spec.name == "y":
            choice = st.sampled_from(["0", "1", "1.0", "0.5"])
        elif spec.kind is FieldKind.NUMERICAL:
            choice = number
        else:
            choice = st.sampled_from(CATEGORIES)
        return st.just("") | choice if spec.nullable else choice

    rows = [[entity, str(t) if draw(st.booleans()) else f"{t}.0",
             *(draw(cell(spec)) for spec in schema.fields[2:])] for entity, t in keys]
    order = draw(st.permutations(range(len(schema.fields))))
    header = [schema.fields[i].name for i in order]
    lines = [header, *([row[i] for i in order] for row in draw(st.permutations(rows)))]
    return schema, lines


def write_csv(path, lines):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(lines)


def blocks_of(rows):
    """``load_csv`` converting ``rows`` rows at a time, so that small files span blocks."""
    return mock.patch.object(tabseq.schema, "CSV_BLOCK_ROWS", rows)


def outcome(fn, *args):
    """``fn``'s result, or its exception's type, message and row."""
    try:
        return fn(*args)
    except (ParseError, SchemaMismatch, EmptyResult, RangeError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


def same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype and g.shape == w.shape and g.flags.c_contiguous
            assert np.array_equal(g, w)


@given(csv_cases(), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from(["any_positive", "last_target", "none"]), st.integers(1, 5),
       st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_columnar_path_matches_per_row_oracle(tmp_path_factory, case, n, stride, rule, bins,
                                              block):
    schema, lines = case
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    write_csv(path, lines)
    want = oracle_load(path, schema)
    with blocks_of(block):
        data = load_csv(path, schema)
    assert data.records == want
    assert all(type(v) in (float, str, type(None)) for r in data.records for v in r.values)

    data, want = impute_missing(data), oracle_impute(schema, want)
    assert data.records == want
    expected = outcome(oracle_windows, schema, want, n, stride, rule)
    windows = outcome(make_windows, data, n, stride, rule)
    if isinstance(expected, tuple):
        assert windows == expected
        return
    rows = data.records
    assert [(w.entity, w.label, tuple(rows[i] for i in w.rows)) for w in windows] == expected

    fit_on = train_rows(data, 0.25, 0.25, 0)  # leaves categories and bins unseen
    entities = set(fit_on.entities)
    assert fit_on.records == tuple(r for r in want if r.entity in entities)
    art = fit_preprocess(fit_on, bins=bins)
    entries = {ft.name: ft.entries for ft in art.vocab.fields}
    for name, fitted in oracle_fit(schema, fit_on.records, bins).items():
        if isinstance(fitted[0], str):
            assert entries[name] == fitted
        else:
            assert (art.edges[name], art.stats[name]) == fitted
    rows = tuple(r for _, _, block in expected for r in block)
    shape = (len(windows), n, schema.n_features)
    assert np.array_equal(window_labels(windows),
                          np.array([label for _, label, _ in expected], dtype=np.float64),
                          equal_nan=True)
    for family in FAMILIES:
        got = encode_inputs(windows, art, family)
        want_arrays = oracle_encode(schema, rows, art, family)
        same_arrays(got, [None if a is None else a.reshape(shape) for a in want_arrays])


@given(csv_cases().flatmap(lambda case: st.tuples(
    st.just(case[0]),
    mutated_bytes("\r\n".join(",".join(f'"{c}"' if set(c) & set(',"\n') else c
                                       for c in row) for row in case[1]).encode()))),
    st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_mutated_generated_csv_matches_oracle(tmp_path_factory, case, block):
    schema, csv_bytes = case
    path = tmp_path_factory.getbasetemp() / "mutated-generated.csv"
    path.write_bytes(csv_bytes)
    want = outcome(oracle_load, path, schema)
    with blocks_of(block):
        got = outcome(load_csv, path, schema)
    assert (got.records if isinstance(got, Dataset) else got) == want


@given(mutated_bytes(CSV_FILE), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_mutated_csv_matches_oracle(tmp_path_factory, csv_bytes, block):
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(csv_bytes)
    want = outcome(oracle_load, path, CSV_SCHEMA)
    with blocks_of(block):
        got = outcome(load_csv, path, CSV_SCHEMA)
    assert (got.records if isinstance(got, Dataset) else got) == want


def test_time_index_outside_int64_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("entity_id,time_idx,label,amount,channel\ne1,0,0,1.0,A\ne1,1e19,0,2.0,B\n")
    with pytest.raises(ParseError, match="row 3: time index '1e19' is outside the 64-bit range"):
        load_csv(path, CSV_SCHEMA)


@pytest.mark.parametrize("time_index", [1.5, 2**63, "1"])
def test_record_time_index_must_be_int64(time_index):
    # the columns hold time indices as int64; a float would be truncated
    with pytest.raises(SchemaMismatch, match="time indices must be 64-bit integers"):
        Dataset(CSV_SCHEMA, (Record(("e1", 0.0, 0.0, 1.0, "A"), "e1", 0),
                             Record(("e1", 1.0, 0.0, 1.0, "A"), "e1", time_index)))


def test_valid_csv_never_reaches_the_row_parser(tmp_path, monkeypatch):
    # missing cells and an unsorted file are column work; only a failed check
    # may fall back to parsing row by row
    def refuse(*args):
        raise AssertionError("the row parser ran on a valid CSV")

    monkeypatch.setattr(tabseq.schema, "_report_bad_row", refuse)
    monkeypatch.setattr(tabseq.schema, "CSV_BLOCK_ROWS", 2)
    path = tmp_path / "d.csv"
    path.write_text("entity_id,time_idx,label,amount,channel\n"
                    "e2,0,0,,A\ne1,1,1,2.5,\ne1,0,0,1.0,B\n")
    d = load_csv(path, CSV_SCHEMA)
    assert [r.values for r in d.records] == [("e1", 0.0, 0.0, 1.0, "B"),
                                             ("e1", 1.0, 1.0, 2.5, None),
                                             ("e2", 0.0, 0.0, None, "A")]
