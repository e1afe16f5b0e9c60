"""Input-handling strategies for mixed categorical/numerical rows.

Two encodings of a window are produced here:

* ``TokenGrid`` -- every cell mapped to an integer token (numerical fields
  quantized into equal-frequency bins first), for MLM-style models;
* ``FeatureMatrix`` -- every cell a float (numerical fields standardized,
  categorical fields label-encoded), for direct supervised models.

Both read the facts a ``PreprocessArtifact`` fits once. Token ids are
field-aware: each field owns a disjoint, dense id range after the four global
specials (PAD=0, MASK=1, UNK=2, CLS=3), and a category's label is its position
in its field's range.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import read_json, write_json
from .errors import FieldKindError, RangeError, SchemaMismatch, ShapeError, TabseqError
from .schema import MISSING_CATEGORY, Column, Dataset, FieldKind, Schema, SequenceWindow

PAD, MASK, UNK, CLS = 0, 1, 2, 3
N_SPECIALS = 4

STD_FLOOR = 1e-8
ARTIFACT_VERSION = 2
ARTIFACT_KEYS = ("version", "schema", "edges", "stats", "categories")


def fit_quantizer(d: Dataset, field_name: str, bins: int) -> tuple[float, ...]:
    """Fit equal-frequency bin edges at quantiles j/bins, j = 1..bins-1; a
    value's bin is the number of edges below it, one of ``len(edges) + 1``.

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
    _check_quantizable(values)
    b = min(bins, len(np.unique(values)))
    edges = np.quantile(values, np.arange(1, b) / b, method="averaged_inverted_cdf") \
        if b > 1 else ()
    return tuple(sorted(set(map(float, edges))))


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
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @cached_property
    def category_tokens(self) -> dict[str, dict[str, int]]:
        """Per categorical field, {category: token}; absent categories encode as UNK."""
        return {ft.name: {c: ft.start + i for i, c in enumerate(ft.entries)}
                for ft in self.fields if ft.kind is FieldKind.CATEGORICAL}


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
    quantizers: dict[str, np.ndarray],
    keep_raw: bool = False,
) -> TokenGrid:
    """Map every cell of a window to its token id: one ``searchsorted`` of the
    field's bin edges per numerical field, one lookup per category of a
    categorical field.

    Missing cells in any field are reported before non-finite values.
    """
    feats = schema.feature_fields
    if schema.feature_names != vocab.field_names:
        raise ShapeError("vocabulary fields are not the schema's feature fields in order")
    cells = _feature_cells(w, schema)
    for spec, (col, x) in zip(feats, cells):
        if spec.kind is FieldKind.NUMERICAL and not col.finite:
            _check_quantizable(x)
    ids = np.empty((len(w.rows), len(feats)), dtype=np.int64)
    raw = np.zeros(ids.shape, dtype=np.float64) if keep_raw else None
    for j, (spec, ft, (col, x)) in enumerate(zip(feats, vocab.fields, cells)):
        if spec.kind is FieldKind.NUMERICAL:
            ids[:, j] = quantizers[spec.name].searchsorted(x, side="left") + ft.start
            if raw is not None:
                raw[:, j] = x
        else:
            ids[:, j] = col.lookup(vocab.category_tokens[spec.name], UNK)[x]
    return TokenGrid(ids, raw)


def encode_numeric(w: SequenceWindow, artifact: PreprocessArtifact) -> FeatureMatrix:
    """Standardize numerical cells with the artifact's ``(mean, std)`` and label a
    categorical cell by its category's position in the field's token range (the
    range's size for an unseen category): one lookup per category, then
    ``(v - mean) / std`` over the whole window."""
    vocab = artifact.vocab
    x = np.empty((len(w.rows), len(vocab.fields)), dtype=np.float64)
    stats = []
    for j, (ft, (col, cells)) in enumerate(zip(vocab.fields, _feature_cells(w, artifact.schema))):
        if ft.kind is FieldKind.NUMERICAL:
            x[:, j] = cells
            stats.append(artifact.stats[ft.name])
        else:
            tokens = col.lookup(vocab.category_tokens[ft.name], ft.start + ft.size)
            x[:, j] = (tokens - ft.start)[cells]  # one label per category, then gathered
            stats.append((0.0, 1.0))  # (label - 0.0) / 1.0 is the label, exactly
    mean, std = np.array(stats, dtype=np.float64).T
    return FeatureMatrix(np.divide(x - mean, std, order="C"))


@dataclass(frozen=True)
class PreprocessArtifact:
    """The encoding state shared by pretraining and fine-tuning runs: the schema
    and each feature field's fitted facts, held once. A numerical field has bin
    ``edges`` and ``(mean, std)`` ``stats``, a categorical field ``categories``
    with the missing category last. Only the vocabulary and the edges as arrays
    are derived from these, once per artifact."""

    schema: Schema
    edges: dict[str, tuple[float, ...]]
    stats: dict[str, tuple[float, float]]
    categories: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for table, kind in (("edges", FieldKind.NUMERICAL), ("stats", FieldKind.NUMERICAL),
                            ("categories", FieldKind.CATEGORICAL)):
            want = sorted(f.name for f in self.schema.feature_fields if f.kind is kind)
            if sorted(getattr(self, table)) != want:
                raise RangeError(f"{table} must cover the {kind.value} feature fields "
                                 f"{want}, not {sorted(getattr(self, table))}")
        for name, e in self.edges.items():
            if not (np.isfinite(e).all() and (np.diff(e) > 0).all()):
                raise RangeError(f"edges of field {name!r} must be finite and strictly increasing")
        for name, s in self.stats.items():
            if not (len(s) == 2 and np.isfinite(s).all() and s[1] >= STD_FLOOR):
                raise RangeError(f"stats of field {name!r} must be finite, std >= {STD_FLOOR}")
        for name, c in self.categories.items():
            if len(set(c)) != len(c) or c[-1:] != (MISSING_CATEGORY,):
                raise RangeError(f"categories of field {name!r} must be distinct and end "
                                 f"with {MISSING_CATEGORY!r}")

    @cached_property
    def quantizers(self) -> dict[str, np.ndarray]:
        """Each numerical field's bin edges as a float64 array to ``searchsorted``."""
        return {name: np.array(e, dtype=np.float64) for name, e in self.edges.items()}

    @cached_property
    def vocab(self) -> Vocabulary:
        """Dense, disjoint token ranges in feature-field order: a categorical
        field's categories, or one token per bin of a numerical field. Unseen
        categories at encode time fall back to the global UNK special."""
        fields, start = [], N_SPECIALS
        for spec in self.schema.feature_fields:
            if spec.kind is FieldKind.CATEGORICAL:
                entries = self.categories[spec.name]
            else:
                entries = tuple(f"bin_{i}" for i in range(len(self.edges[spec.name]) + 1))
            fields.append(FieldTokens(spec.name, spec.kind, start, entries))
            start += len(entries)
        return Vocabulary(tuple(fields))

    def to_json(self) -> dict:
        return {"version": ARTIFACT_VERSION, "schema": self.schema.to_json(),
                **{key: {name: list(v) for name, v in getattr(self, key).items()}
                   for key in ("edges", "stats", "categories")}}

    @classmethod
    def from_json(cls, doc) -> "PreprocessArtifact":
        """The artifact of a version-2 document; a document that ``to_json``
        would not write back unchanged raises ``RangeError``."""
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != ARTIFACT_VERSION:
            raise RangeError(f"unsupported artifact version {version!r}")
        if set(doc) != set(ARTIFACT_KEYS):
            raise RangeError(f"artifact keys must be {list(ARTIFACT_KEYS)}, not {list(doc)}")
        schema = Schema.from_json(doc["schema"])
        if _canonical(schema.to_json()) != _canonical(doc["schema"]):
            raise RangeError("the artifact's schema must give every key of every field")
        return cls(schema, _table(doc, "edges", float), _table(doc, "stats", float),
                   _table(doc, "categories", str))

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON form; ties checkpoints to encodings."""
        return hashlib.sha256(_canonical(self.to_json()).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "PreprocessArtifact":
        doc = read_json(path)
        try:
            return cls.from_json(doc)
        except TabseqError as exc:
            raise type(exc)(f"{path}: {exc}; re-run `tabseq preprocess` to refit it") from None


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _table(doc: dict, key: str, item: type) -> dict[str, tuple]:
    """``doc[key]``, an object of arrays of ``item``, as {field: tuple}."""
    table = doc[key]
    if not (isinstance(table, dict) and all(isinstance(v, list) and all(
            isinstance(x, item) for x in v) for v in table.values())):
        raise RangeError(f"artifact {key} must map fields to arrays of {item.__name__}")
    return {name: tuple(v) for name, v in table.items()}


def fit_preprocess(d: Dataset, bins: int = 32) -> PreprocessArtifact:
    """Fit each feature field's facts on a training dataset: a numerical field's
    bin edges and standardization stats, a categorical field's observed
    categories (sorted) followed by the missing category."""
    edges, stats, categories = {}, {}, {}
    for spec in d.schema.feature_fields:
        col = d.columns[d.schema.index_of(spec.name)]
        values = _present(col)
        if spec.kind is FieldKind.NUMERICAL:
            edges[spec.name] = fit_quantizer(d, spec.name, bins)
            stats[spec.name] = (float(values.mean()), max(float(values.std()), STD_FLOOR)) \
                if values.size else (0.0, STD_FLOOR)
        else:
            observed = [col.categories[i] for i in np.unique(values).tolist()]
            categories[spec.name] = tuple(c for c in observed if c != MISSING_CATEGORY) \
                + (MISSING_CATEGORY,)
    return PreprocessArtifact(d.schema, edges, stats, categories)
