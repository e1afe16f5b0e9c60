"""Column schema, dataset representation, imputation, and window construction.

Values are plain Python objects: ``str`` for categorical cells, ``float``
for numerical cells, and ``None`` for missing cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .config import JsonConfig, output_to, read_json, write_json
from .errors import EmptyResult, ParseError, RangeError, SchemaMismatch

MISSING_CATEGORY = "__MISSING__"


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
    def feature_names(self) -> frozenset[str]:
        return frozenset(f.name for f in self.feature_fields)

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


@dataclass(frozen=True)
class Record:
    """One row: values aligned to schema field order."""

    values: tuple
    entity: str
    time_index: int


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    records: tuple[Record, ...] = field(default=())

    def __post_init__(self):
        n = len(self.schema.fields)
        seen = set()
        prev = None
        for rec in self.records:
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

    def __len__(self) -> int:
        return len(self.records)

    def by_entity(self) -> dict[str, list[Record]]:
        groups: dict[str, list[Record]] = {}
        for rec in self.records:
            groups.setdefault(rec.entity, []).append(rec)
        return groups


@dataclass(frozen=True)
class SequenceWindow:
    """N consecutive rows of one entity plus an optional window label."""

    entity: str
    rows: tuple[Record, ...]
    label: float | int | None = None


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


def load_csv(path, schema: Schema) -> Dataset:
    """Parse a header-first CSV into a Dataset sorted by (entity, time_index).

    Empty cells become missing values; missing cells in non-nullable fields
    are rejected. A file that cannot be read is a ``ParseError`` naming it.
    """
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
            ent_i = col_of[schema.entity_key]
            time_i = col_of[schema.time_key]

            records = []
            for row_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} cells, got {len(row)}", row=row_no)
                values = []
                for spec in schema.fields:
                    cell = row[col_of[spec.name]]
                    v = _parse_cell(cell, spec, row_no)
                    if v is None and not spec.nullable:
                        raise ParseError(f"missing value in non-nullable field {spec.name!r}", row=row_no)
                    values.append(v)
                entity = row[ent_i]
                try:
                    time_index = int(float(row[time_i]))
                except (ValueError, OverflowError):
                    raise ParseError(f"non-integer time index {row[time_i]!r}", row=row_no)
                records.append(Record(tuple(values), entity, time_index))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"CSV file is not UTF-8 text: {exc.reason}") from None

    records.sort(key=lambda r: (r.entity, r.time_index))
    return Dataset(schema, tuple(records))


def save_csv(d: Dataset, path) -> None:
    """Write a dataset in the same header-first CSV format load_csv reads."""
    with output_to(path), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in d.schema.fields])
        for rec in d.records:
            writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else v)
                             for v in rec.values])


def impute_missing(d: Dataset) -> Dataset:
    """Replace missing cells: numerical -> 0.0, categorical -> MISSING_CATEGORY."""
    out = []
    for rec in d.records:
        if all(v is not None for v in rec.values):
            out.append(rec)
            continue
        values = tuple(
            (0.0 if spec.kind is FieldKind.NUMERICAL else MISSING_CATEGORY)
            if v is None
            else v
            for v, spec in zip(rec.values, d.schema.fields)
        )
        out.append(Record(values, rec.entity, rec.time_index))
    return Dataset(d.schema, tuple(out))


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
    label_i = d.schema.index_of(d.schema.label_key) if d.schema.label_key else None

    windows = []
    for entity, recs in d.by_entity().items():
        t = len(recs)
        for start in range(0, t - n + 1, stride):
            rows = tuple(recs[start : start + n])
            if rule == "any_positive":
                label = int(any(r.values[label_i] == 1.0 for r in rows))
            elif rule == "last_target":
                label = float(rows[-1].values[label_i])
            else:
                label = None
            windows.append(SequenceWindow(entity, rows, label))
    if not windows:
        raise EmptyResult(f"no entity has at least {n} records")
    return windows
