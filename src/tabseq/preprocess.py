"""Input-handling strategies for mixed categorical/numerical rows.

Two encodings of a window are produced here:

* ``TokenGrid`` -- every cell mapped to an integer token (numerical fields
  quantized into equal-frequency bins first), for MLM-style models;
* ``FeatureMatrix`` -- every cell a float (numerical fields standardized,
  categorical fields label-encoded), for direct supervised models.

Token ids are field-aware: each field owns a disjoint, dense id range after
the four global specials (PAD=0, MASK=1, UNK=2, CLS=3).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import read_json, write_json
from .errors import FieldKindError, RangeError, SchemaMismatch, ShapeError
from .schema import MISSING_CATEGORY, Column, Dataset, FieldKind, Schema, SequenceWindow

PAD, MASK, UNK, CLS = 0, 1, 2, 3
N_SPECIALS = 4

STD_FLOOR = 1e-8
ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class Quantizer:
    """Equal-frequency binning of one numerical field."""

    field: str
    edges: tuple[float, ...]
    bins: int

    def __post_init__(self):
        if self.bins < 1:
            raise RangeError("bin count must be >= 1")
        if list(self.edges) != sorted(set(self.edges)):
            raise RangeError("edges must be strictly increasing")
        if len(self.edges) != self.bins - 1:
            raise RangeError("edge count must be bins - 1")

    @cached_property
    def edge_array(self) -> np.ndarray:
        return np.array(self.edges, dtype=np.float64)


def fit_quantizer(d: Dataset, field_name: str, bins: int) -> Quantizer:
    """Fit equal-frequency bin edges at quantiles j/bins, j = 1..bins-1.

    Quantiles use the averaged-inverted-CDF convention (midpoint between
    order statistics when the quantile position is integral). Duplicate
    edges are collapsed, so the effective bin count may be smaller than
    requested; it is also capped at the number of distinct observed values.
    """
    spec = d.schema.field_by_name(field_name)
    if spec.kind is not FieldKind.NUMERICAL:
        raise FieldKindError(f"field {field_name!r} is not numerical")
    if bins < 1:
        raise RangeError("bin count must be >= 1")
    values = _present(d.columns[d.schema.index_of(field_name)])
    if values.size == 0:
        return Quantizer(field_name, (), 1)
    b = min(bins, len(np.unique(values)))
    if b <= 1:
        return Quantizer(field_name, (), 1)
    qs = np.arange(1, b) / b
    edges = np.quantile(values, qs, method="averaged_inverted_cdf")
    edges = sorted(set(float(e) for e in edges))
    return Quantizer(field_name, tuple(edges), len(edges) + 1)


def _present(col: Column) -> np.ndarray:
    """The column's cells that are not missing, in row order."""
    return col.data if col.missing is None else col.data[~col.missing]


def _check_quantizable(v: np.ndarray) -> None:
    finite = np.isfinite(v)
    if not finite.all():
        raise RangeError(f"cannot quantize non-finite value {float(v[~finite][0])!r}")


@dataclass(frozen=True)
class FieldTokens:
    """One field's slice of the global token id space."""

    name: str
    kind: FieldKind
    start: int
    # categorical: category string per local id; numerical: one entry per bin
    entries: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Vocabulary:
    """Field-aware token tables with globally reserved specials."""

    fields: tuple[FieldTokens, ...]

    @property
    def size(self) -> int:
        return N_SPECIALS + sum(f.size for f in self.fields)

    @cached_property
    def _by_name(self) -> dict[str, FieldTokens]:
        return {f.name: f for f in self.fields}

    @cached_property
    def field_names(self) -> frozenset[str]:
        return frozenset(self._by_name)

    @cached_property
    def category_tokens(self) -> dict[str, dict[str, int]]:
        """Per categorical field, {category: token}; absent categories encode as UNK."""
        tables = {}
        for ft in self.fields:
            if ft.kind is FieldKind.CATEGORICAL:
                table = tables[ft.name] = {}
                for i, entry in enumerate(ft.entries):
                    table.setdefault(entry, ft.start + i)  # first position, as entries.index
        return tables

    def field_tokens(self, name: str) -> FieldTokens:
        try:
            return self._by_name[name]
        except KeyError:
            raise ShapeError(f"field {name!r} not in vocabulary") from None


def build_vocabulary(d: Dataset, quantizers: dict[str, Quantizer]) -> Vocabulary:
    """Assign dense, disjoint token ranges to every feature field.

    Categorical fields contribute their observed categories (sorted) plus the
    reserved missing category; numerical fields contribute one token per bin.
    Unseen categories at encode time fall back to the global UNK special.
    """
    tables = []
    next_id = N_SPECIALS
    for spec in d.schema.feature_fields:
        if spec.kind is FieldKind.CATEGORICAL:
            col = d.columns[d.schema.index_of(spec.name)]
            observed = [col.categories[i] for i in np.unique(_present(col)).tolist()]
            entries = tuple(c for c in observed if c != MISSING_CATEGORY) + (MISSING_CATEGORY,)
        else:
            if spec.name not in quantizers:
                raise FieldKindError(f"no quantizer supplied for numerical field {spec.name!r}")
            q = quantizers[spec.name]
            entries = tuple(f"bin_{i}" for i in range(q.bins))
        tables.append(FieldTokens(spec.name, spec.kind, next_id, entries))
        next_id += len(entries)
    return Vocabulary(tuple(tables))


@dataclass(frozen=True)
class TokenGrid:
    """N x M integer token ids for one window.

    ``raw`` optionally carries the unquantized numerical values (used by the
    joint categorical/numerical training variant).
    """

    ids: np.ndarray
    raw: np.ndarray | None = None

    def __post_init__(self):
        if self.raw is not None and self.raw.shape != self.ids.shape:
            raise ShapeError("raw value shape must match id grid shape")


@dataclass(frozen=True)
class FeatureMatrix:
    """N x M floats for one window (standardized / label-encoded)."""

    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise RangeError("feature matrix contains non-finite entries")


def _feature_cells(w: SequenceWindow, schema: Schema) -> list[tuple[Column, np.ndarray]]:
    """Each feature field's column and its cells at the window's rows; rejects a
    schema other than the window's dataset's, and a missing cell."""
    if schema is not w.dataset.schema and schema != w.dataset.schema:
        raise SchemaMismatch("encoder schema is not the schema of the window's dataset")
    at = w.positions
    cells = []
    for spec, c in zip(schema.feature_fields, schema.feature_columns):
        col = w.dataset.columns[c]
        if col.missing is not None and col.missing[at].any():
            raise RangeError(f"missing value in field {spec.name!r}; impute first")
        cells.append((col, col.data[at]))
    return cells


def encode_tokens(
    w: SequenceWindow,
    schema: Schema,
    vocab: Vocabulary,
    quantizers: dict[str, Quantizer],
    keep_raw: bool = False,
) -> TokenGrid:
    """Map every cell of a window to its token id: one ``searchsorted`` per
    numerical field, one lookup per category of a categorical field.

    Missing cells in any field are reported before non-finite values.
    """
    feats = schema.feature_fields
    if schema.feature_names != vocab.field_names:
        raise ShapeError("window schema does not match vocabulary fields")
    cells = _feature_cells(w, schema)
    for spec, (col, x) in zip(feats, cells):
        if spec.kind is FieldKind.NUMERICAL and not col.finite:
            _check_quantizable(x)
    ids = np.empty((len(w.rows), len(feats)), dtype=np.int64)
    raw = np.zeros(ids.shape, dtype=np.float64) if keep_raw else None
    for j, (spec, (col, x)) in enumerate(zip(feats, cells)):
        if spec.kind is FieldKind.NUMERICAL:
            bins = quantizers[spec.name].edge_array.searchsorted(x, side="left")
            ids[:, j] = bins + vocab.field_tokens(spec.name).start
            if raw is not None:
                raw[:, j] = x
        else:
            ids[:, j] = col.lookup(vocab.category_tokens[spec.name], UNK)[x]
    return TokenGrid(ids, raw)


@dataclass(frozen=True)
class NumericEncoder:
    """Per-field statistics for the direct numeric encoding.

    Numerical fields carry frozen (mean, std) standardization statistics;
    categorical fields carry a category -> integer label table with a
    reserved integer for unseen categories.
    """

    stats: dict = field(default_factory=dict)  # field -> (mean, std)
    label_tables: dict = field(default_factory=dict)  # field -> {category: int}

    def unknown_label(self, field_name: str) -> int:
        return len(self.label_tables[field_name])


def fit_numeric_encoder(d: Dataset, vocab: Vocabulary) -> NumericEncoder:
    """Fit standardization stats on a (training) dataset; each categorical
    field labels its vocabulary entries by position."""
    stats = {}
    tables = {}
    for spec in d.schema.feature_fields:
        if spec.kind is FieldKind.NUMERICAL:
            vals = _present(d.columns[d.schema.index_of(spec.name)])
            if vals.size == 0:
                stats[spec.name] = (0.0, STD_FLOOR)
            else:
                stats[spec.name] = (float(vals.mean()), max(float(vals.std()), STD_FLOOR))
        else:
            entries = vocab.field_tokens(spec.name).entries
            tables[spec.name] = {c: i for i, c in enumerate(entries)}
    return NumericEncoder(stats, tables)


def encode_numeric(w: SequenceWindow, schema: Schema, enc: NumericEncoder) -> FeatureMatrix:
    """Standardize numerical cells and label-encode categorical cells: one
    lookup per category, then ``(v - mean) / std`` over the whole window."""
    feats = schema.feature_fields
    x = np.empty((len(w.rows), len(feats)), dtype=np.float64)
    stats = []
    for j, (spec, (col, cells)) in enumerate(zip(feats, _feature_cells(w, schema))):
        if spec.kind is FieldKind.NUMERICAL:
            x[:, j] = cells
            stats.append(enc.stats[spec.name])
        else:
            table = enc.label_tables[spec.name]
            x[:, j] = col.lookup(table, enc.unknown_label(spec.name))[cells]
            stats.append((0.0, 1.0))  # (label - 0.0) / 1.0 is the label, exactly
    mean, std = np.array(stats, dtype=np.float64).T
    return FeatureMatrix(np.divide(x - mean, std, order="C"))


@dataclass(frozen=True)
class PreprocessArtifact:
    """The full encoding state shared by pretraining and fine-tuning runs."""

    schema: Schema
    quantizers: dict[str, Quantizer]
    vocab: Vocabulary
    numeric: NumericEncoder

    def to_json(self) -> dict:
        return {
            "version": ARTIFACT_VERSION,
            "schema": self.schema.to_json(),
            "quantizers": {
                name: {"edges": list(q.edges), "bins": q.bins}
                for name, q in sorted(self.quantizers.items())
            },
            "vocabulary": [
                {
                    "name": ft.name,
                    "kind": ft.kind.value,
                    "start": ft.start,
                    "entries": list(ft.entries),
                }
                for ft in self.vocab.fields
            ],
            "numeric": {
                "stats": {k: list(v) for k, v in sorted(self.numeric.stats.items())},
                "label_tables": {
                    k: dict(sorted(v.items(), key=lambda kv: kv[1]))
                    for k, v in sorted(self.numeric.label_tables.items())
                },
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PreprocessArtifact":
        try:
            if doc.get("version") != ARTIFACT_VERSION:
                raise RangeError(f"unsupported artifact version {doc.get('version')!r}")
            schema = Schema.from_json(doc["schema"])
            quantizers = {
                name: Quantizer(name, tuple(q["edges"]), q["bins"])
                for name, q in doc["quantizers"].items()
            }
            vocab = Vocabulary(
                tuple(
                    FieldTokens(f["name"], FieldKind(f["kind"]), f["start"], tuple(f["entries"]))
                    for f in doc["vocabulary"]
                )
            )
            numeric = NumericEncoder(
                {k: tuple(v) for k, v in doc["numeric"]["stats"].items()},
                {k: dict(v) for k, v in doc["numeric"]["label_tables"].items()},
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise RangeError(f"malformed artifact document: {exc}") from exc
        return cls(schema, quantizers, vocab, numeric)

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON form; ties checkpoints to encodings."""
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "PreprocessArtifact":
        return cls.from_json(read_json(path))


def fit_preprocess(d: Dataset, bins: int = 32) -> PreprocessArtifact:
    """Fit quantizers, vocabulary, and numeric encoder on a training dataset."""
    quantizers = {
        spec.name: fit_quantizer(d, spec.name, bins)
        for spec in d.schema.feature_fields
        if spec.kind is FieldKind.NUMERICAL
    }
    vocab = build_vocabulary(d, quantizers)
    numeric = fit_numeric_encoder(d, vocab)
    return PreprocessArtifact(d.schema, quantizers, vocab, numeric)
