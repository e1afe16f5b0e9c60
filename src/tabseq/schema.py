"""Column schema, columnar datasets, imputation, and window construction.

A ``Dataset`` holds its rows column by column, sorted by (entity, time index):

* ``entities`` is the sorted tuple of distinct entity names and ``entity``
  each row's int64 code into it; ``time_index`` is int64;
* ``columns`` holds one ``Column`` per schema field, in field order: float64
  values for a numerical field, or int64 codes into the field's sorted
  distinct strings for a categorical one, each with a mask of its missing
  cells.

``Dataset.records`` builds ``Record``s of plain Python values from the
columns on each read: ``str`` for categorical cells, ``float`` for numerical
cells, and ``None`` for missing cells. ``Record``s are how hand-built rows
enter a ``Dataset``; the dataset keeps only its columns. A ``SequenceWindow``
refers to its rows by position in its dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import JsonConfig, output_to, read_json, write_json
from .errors import EmptyResult, FieldKindError, ParseError, RangeError, SchemaMismatch

MISSING_CATEGORY = "__MISSING__"
CSV_BLOCK_ROWS = 4096  # rows load_csv holds as text at once


class FieldKind(str, Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class FieldSpec(JsonConfig):
    name: str
    kind: FieldKind
    nullable: bool = False


@dataclass(frozen=True)
class Schema(JsonConfig):
    """Ordered field declarations plus the entity/time/label key roles."""

    fields: tuple[FieldSpec, ...]
    entity_key: str
    time_key: str
    label_key: str | None = None

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate field names in schema")
        for key in (self.entity_key, self.time_key):
            if key not in names:
                raise SchemaMismatch(f"key field {key!r} not declared in schema")
        if self.label_key is not None and self.label_key not in names:
            raise SchemaMismatch(f"label field {self.label_key!r} not declared in schema")
        if not self.feature_fields:
            raise SchemaMismatch("schema declares no feature fields")

    @property
    def key_names(self) -> set[str]:
        keys = {self.entity_key, self.time_key}
        if self.label_key is not None:
            keys.add(self.label_key)
        return keys

    @cached_property
    def feature_fields(self) -> tuple[FieldSpec, ...]:
        """Non-key fields, in declaration order; their count is the row width M."""
        return tuple(f for f in self.fields if f.name not in self.key_names)

    @cached_property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.feature_fields)

    @cached_property
    def feature_columns(self) -> tuple[int, ...]:
        """Record position of each feature field."""
        return tuple(self.index_of(f.name) for f in self.feature_fields)

    @property
    def n_features(self) -> int:
        return len(self.feature_fields)

    @cached_property
    def _column_of(self) -> dict[str, int]:
        return {f.name: i for i, f in enumerate(self.fields)}

    def index_of(self, name: str) -> int:
        try:
            return self._column_of[name]
        except KeyError:
            raise SchemaMismatch(f"unknown field {name!r}") from None

    def field_by_name(self, name: str) -> FieldSpec:
        return self.fields[self.index_of(name)]

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_json(read_json(path))


class Record(NamedTuple):
    """One row: values aligned to schema field order."""

    values: tuple
    entity: str
    time_index: int


@dataclass(frozen=True, eq=False)
class Column:
    """One field's cells: float64 ``data`` for a numerical field, or int64 codes
    into the sorted distinct strings ``categories`` for a categorical one.
    ``missing`` masks the missing cells, which hold 0.0 or code -1; it is None
    when no cell is missing. ``finite`` says every numerical cell is finite."""

    data: np.ndarray
    categories: tuple[str, ...] | None = None
    missing: np.ndarray | None = None
    finite: bool = field(init=False)
    _lookups: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "finite", self.categories is not None
                           or bool(np.isfinite(self.data).all()))

    def take(self, rows) -> "Column":
        missing = None if self.missing is None else self.missing[rows]
        return Column(self.data[rows], self.categories,
                      missing if missing is not None and missing.any() else None)

    def lookup(self, table: dict, default: int) -> np.ndarray:
        """Each category's entry in ``table`` (``default`` when absent), looked up
        once per table, as an array that the codes index."""
        key = (id(table), default)
        if key not in self._lookups:  # the entry holds the table, so its id stays unique
            self._lookups[key] = table, np.array([table.get(c, default) for c in self.categories],
                                                 dtype=np.int64)
        return self._lookups[key][1]

    def values(self) -> list:
        """The cells as Python values: ``float`` or ``str``, and ``None`` where missing."""
        if self.categories is not None:
            return list(map((*self.categories, None).__getitem__, self.data.tolist()))
        cells = self.data.tolist()
        if self.missing is not None:
            for i in np.flatnonzero(self.missing).tolist():
                cells[i] = None
        return cells


def _factorize(cells, empty=None) -> tuple[tuple, np.ndarray]:
    """The sorted distinct ``cells`` other than ``empty``, and each cell's int64
    code into them (-1 for ``empty``)."""
    names = sorted(set(cells) - {empty})
    where = dict(zip(names, range(len(names))))
    where[empty] = -1
    return tuple(names), np.fromiter(map(where.__getitem__, cells), np.int64, len(cells))


def _column(cells, kind: FieldKind, empty) -> Column:
    """The column of ``cells`` (CSV text or Python values), where ``empty`` marks a
    missing cell; a numerical cell that ``float`` rejects raises ValueError."""
    missing = np.array([c == empty for c in cells], dtype=bool) if empty in cells else None
    if kind is FieldKind.CATEGORICAL:
        categories, codes = _factorize(cells, empty)
        return Column(codes, categories, missing)
    if missing is not None:
        cells = [0.0 if m else c for c, m in zip(cells, missing.tolist())]
    return Column(np.fromiter(map(float, cells), np.float64, len(cells)), None, missing)


class Dataset:
    """Rows of one schema, stored column-wise and sorted by unique (entity,
    time index) keys; the module docstring describes the columns."""

    def __init__(self, schema: Schema, records=()):
        records = tuple(records)
        values, names, times = zip(*records) if records else ((), (), ())
        entities, entity = _factorize(names)
        time_index = np.array(times) if records else np.zeros(0, dtype=np.int64)
        if time_index.dtype != np.int64:
            raise SchemaMismatch("record time indices must be 64-bit integers")
        if set(map(len, values)) - {len(schema.fields)} or not _keys_increase(entity, time_index):
            _check_records(schema, records)
        cells = list(zip(*values)) or [()] * len(schema.fields)
        self._assign(schema, entities, entity, time_index,
                     tuple(_column(c, spec.kind, None) for c, spec in zip(cells, schema.fields)))

    @classmethod
    def from_columns(cls, schema: Schema, entities: tuple[str, ...], entity: np.ndarray,
                     time_index: np.ndarray, columns: tuple[Column, ...]) -> "Dataset":
        """A dataset of columns already sorted by unique (entity, time index) keys."""
        d = cls.__new__(cls)
        d._assign(schema, entities, entity, time_index, columns)
        return d

    def _assign(self, schema, entities, entity, time_index, columns) -> None:
        self.schema = schema
        self.entities = entities  # sorted distinct entity names
        self.entity = entity  # each row's code into entities
        self.time_index = time_index
        self.columns = columns  # one per schema field

    def __len__(self) -> int:
        return len(self.time_index)

    @property
    def records(self) -> tuple[Record, ...]:
        """The rows as Records of plain Python values, built on each read."""
        entities = map(self.entities.__getitem__, self.entity.tolist())
        rows = zip(zip(*(c.values() for c in self.columns)), entities, self.time_index.tolist())
        return tuple(map(Record._make, rows))

    def take(self, rows) -> "Dataset":
        """The rows at ``rows``, a mask or ascending positions."""
        present, entity = np.unique(self.entity[rows], return_inverse=True)
        return Dataset.from_columns(self.schema, tuple(map(self.entities.__getitem__,
                                                           present.tolist())),
                                    entity, self.time_index[rows],
                                    tuple(c.take(rows) for c in self.columns))


def _keys_increase(entity: np.ndarray, time_index: np.ndarray) -> bool:
    """Whether the (entity code, time index) keys strictly increase row by row."""
    de, dt = np.diff(entity), np.diff(time_index)
    return bool(np.all((de > 0) | ((de == 0) & (dt > 0))))


def _check_records(schema: Schema, records) -> None:
    """Raise for the first record of the wrong width, with a duplicate key, or
    out of (entity, time_index) order."""
    n = len(schema.fields)
    seen = set()
    prev = None
    for rec in records:
        if len(rec.values) != n:
            raise SchemaMismatch(
                f"record for entity {rec.entity!r} has {len(rec.values)} values, expected {n}"
            )
        key = (rec.entity, rec.time_index)
        if key in seen:
            raise SchemaMismatch(f"duplicate (entity, time_index) pair {key}")
        seen.add(key)
        if prev is not None and key < prev:
            raise SchemaMismatch("records not sorted by (entity, time_index)")
        prev = key


@dataclass(frozen=True, slots=True)
class SequenceWindow:
    """N consecutive rows of one entity of ``dataset`` plus an optional window
    label; ``rows`` holds their positions, a ``range`` or an int64 array."""

    entity: str
    dataset: Dataset
    rows: range | np.ndarray
    label: float | int | None = None

    @property
    def positions(self):
        """The rows as a numpy index: a slice for a range, else the array."""
        r = self.rows
        return slice(r.start, r.stop, r.step) if isinstance(r, range) else r


def _parse_cell(text: str, spec: FieldSpec, row_no: int):
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


def _report_bad_row(rows, header, schema: Schema, first_row: int) -> None:
    """Parse ``rows``, numbered from ``first_row``, cell by cell and raise the
    ParseError of the first bad row; ``load_csv`` calls this only when a column
    check fails."""
    col_of = {name: header.index(name) for name in header}
    time_i = col_of[schema.time_key]
    for row_no, row in enumerate(rows, start=first_row):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
        for spec in schema.fields:
            if _parse_cell(row[col_of[spec.name]], spec, row_no) is None and not spec.nullable:
                raise ParseError(f"missing value in non-nullable field {spec.name!r}", row=row_no)
        try:
            time_index = float(row[time_i])
            if time_index != int(time_index):
                raise ValueError
        except (ValueError, OverflowError):
            raise ParseError(f"non-integer time index {row[time_i]!r}", row=row_no)
        if not -2**63 <= time_index < 2**63:
            raise ParseError(f"time index {row[time_i]!r} is outside the 64-bit range",
                             row=row_no)


def _csv_column(cells, spec: FieldSpec) -> Column:
    """``spec``'s column of CSV text; ValueError for a cell the row parser rejects."""
    if not spec.nullable and "" in cells:
        raise ValueError(f"missing value in field {spec.name!r}")
    col = _column(cells, spec.kind, "")
    if not col.finite:
        raise ValueError(f"non-finite value in field {spec.name!r}")
    return col


def _csv_block(rows, header, schema: Schema, first_row: int):
    """One block of CSV rows as columns: one per field, the entity names as a
    categorical column, and the time indices."""
    try:
        if any(len(row) != len(header) for row in rows):
            raise ValueError("row width")
        cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
        t = np.fromiter(map(float, cells[schema.time_key]), np.float64, len(rows))
        if not np.all((t >= -2.0**63) & (t < 2.0**63) & (t == np.trunc(t))):  # NaN, inf too
            raise ValueError("time index not a whole number in the 64-bit range")
        entities, entity = _factorize(cells[schema.entity_key])
        return ([_csv_column(cells[spec.name], spec) for spec in schema.fields],
                Column(entity, entities), t.astype(np.int64))
    except ValueError:
        _report_bad_row(rows, header, schema, first_row)
        raise


def _joined(parts: list[Column]) -> Column:
    """One column from its parts over the blocks of a CSV."""
    missing = None
    if any(p.missing is not None for p in parts):
        missing = np.concatenate([np.zeros(len(p.data), bool) if p.missing is None
                                  else p.missing for p in parts])
    if parts[0].categories is None:
        return Column(np.concatenate([p.data for p in parts]), None, missing)
    categories = tuple(sorted(set().union(*(p.categories for p in parts))))
    where = dict(zip(categories, range(len(categories))))
    # each part's codes renumbered; code -1, a missing cell, reads the last entry
    codes = [np.array([*map(where.__getitem__, p.categories), -1])[p.data] for p in parts]
    return Column(np.concatenate(codes), categories, missing)


def load_csv(path, schema: Schema) -> Dataset:
    """Parse a header-first CSV into a Dataset sorted by (entity, time_index).

    Empty cells become missing values; missing cells in non-nullable fields
    are rejected. A file that cannot be read is a ``ParseError`` naming it.
    Each block of rows is converted column by column; when a column check
    fails, the block is parsed row by row to report the first bad row.
    """
    blocks, rows, first_row = [], [], 2
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
            for row in reader:
                rows.append(row)
                if len(rows) == CSV_BLOCK_ROWS:
                    blocks.append(_csv_block(rows, header, schema, first_row))
                    rows, first_row = [], first_row + len(rows)
            blocks.append(_csv_block(rows, header, schema, first_row))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        if rows:  # a bad row read before the undecodable text is the first error
            _report_bad_row(rows, header, schema, first_row)
        raise ParseError(f"CSV file is not UTF-8 text: {exc.reason}") from None

    fields, entity_parts, times = zip(*blocks)
    columns = [_joined(parts) for parts in zip(*fields)]
    entity_column = _joined(entity_parts)
    entities, entity = entity_column.categories, entity_column.data
    time_index = np.concatenate(times)

    order = np.lexsort((time_index, entity))
    entity, time_index = entity[order], time_index[order]
    repeated = np.flatnonzero((np.diff(entity) == 0) & (np.diff(time_index) == 0))
    if repeated.size:
        i = repeated[0]
        key = (entities[entity[i]], int(time_index[i]))
        raise SchemaMismatch(f"duplicate (entity, time_index) pair {key}")
    return Dataset.from_columns(schema, entities, entity, time_index,
                                tuple(c.take(order) for c in columns))


def save_csv(d: Dataset, path) -> None:
    """Write a dataset in the same header-first CSV format load_csv reads."""
    with output_to(path), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in d.schema.fields])
        columns = (["" if v is None else (repr(v) if isinstance(v, float) else v)
                    for v in c.values()] for c in d.columns)
        writer.writerows(zip(*columns))


def _impute(col: Column) -> Column:
    if col.missing is None:
        return col
    if col.categories is None:
        return Column(col.data)  # a missing numerical cell holds 0.0 already
    categories = tuple(sorted({*col.categories, MISSING_CATEGORY}))
    where = {c: i for i, c in enumerate(categories)}
    # code -1, a missing cell, reads the last entry
    recode = np.array([where[c] for c in (*col.categories, MISSING_CATEGORY)], dtype=np.int64)
    return Column(recode[col.data], categories)


def impute_missing(d: Dataset) -> Dataset:
    """Replace missing cells: numerical -> 0.0, categorical -> MISSING_CATEGORY."""
    return Dataset.from_columns(d.schema, d.entities, d.entity, d.time_index,
                                tuple(map(_impute, d.columns)))


def make_windows(
    d: Dataset, n: int, stride: int, rule: str = "any_positive"
) -> list[SequenceWindow]:
    """Slice each entity's history into windows of n contiguous rows.

    rule "any_positive": binary window label, 1 iff any row label is 1.
    rule "last_target": regression label, the last row's target value.
    rule "none": unlabeled windows (for pretraining corpora).
    """
    if n < 1 or stride < 1:
        raise RangeError("window length and stride must be >= 1")
    if rule not in ("any_positive", "last_target", "none"):
        raise RangeError(f"unknown label rule {rule!r}")
    if rule != "none" and d.schema.label_key is None:
        raise SchemaMismatch(f"label rule {rule!r} needs a schema label_key")

    first = np.flatnonzero(np.diff(d.entity, prepend=-1))  # each entity's first row
    length = np.diff(first, append=len(d))
    count = np.maximum((length - n) // stride + 1, 0)
    if not count.any():
        raise EmptyResult(f"no entity has at least {n} records")
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    starts = np.repeat(first, count) + stride * offset

    labels = [None] * len(starts)
    if rule != "none":
        label = d.columns[d.schema.index_of(d.schema.label_key)]
        if label.categories is not None:
            raise FieldKindError(f"label field {d.schema.label_key!r} is not numerical")
        if rule == "any_positive":  # a missing cell holds 0.0, so it is not positive
            positives = np.concatenate(([0], np.cumsum(label.data == 1.0)))
            labels = (positives[starts + n] > positives[starts]).astype(np.int64).tolist()
        else:
            last = starts + n - 1
            if label.missing is not None and label.missing[last].any():
                raise RangeError(f"missing value in label field {d.schema.label_key!r}; "
                                 "impute first")
            labels = label.data[last].tolist()
    entities = map(d.entities.__getitem__, d.entity[starts].tolist())
    return [SequenceWindow(entity, d, range(s, s + n), y)
            for entity, s, y in zip(entities, starts.tolist(), labels)]
