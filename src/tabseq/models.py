"""The four model families, built on the shared differentiable substrate.

* ``vanilla`` -- one encoder attending across the N time steps of a window,
  each row linearly projected from its M features.
* ``twin_tower`` -- a time tower (as in vanilla) in parallel with a feature
  tower attending across the M attribute channels; pooled tower outputs are
  combined by a learned per-channel gate w1*O1 + w2*O2. A tower masked out by
  ``tower_mask`` is built but not run: it keeps its initial parameters and
  adds no attention pairs.
* ``hierarchical`` -- token-grid input; a field encoder shared across rows
  attends over the M tokens of each row, its mean-pooled row embeddings feed
  a sequence encoder over the N rows. Supports MLM pretraining with
  per-field output heads and a pooled classification/regression mode.
* ``hierarchical_joint`` -- same skeleton, but numerical cells keep their
  raw values (embedded by a per-column value projection) and masked-cell
  reconstruction uses cross-entropy for categorical plus mean-squared error
  for numerical cells.

Every attention block reports its query-key pair count, so the measured
complexity of each family can be compared against its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, ShapeError
from .nn import layers as L
from .nn import tensor as T
from .nn.layers import AttentionCounter, Module
from .nn.tensor import Tensor
from .preprocess import Vocabulary
from .schema import FieldKind

FAMILIES = ("vanilla", "twin_tower", "hierarchical", "hierarchical_joint")
HEADS = ("binary", "regression", "mlm")
TOWER_MASKS = ("both", "time", "feature")


@dataclass(frozen=True)
class ModelSpec(JsonConfig):
    family: str
    n: int
    m: int
    hidden: int = 32
    heads: int = 4
    layers: int = 2  # encoder depth; sequence stage for hierarchical models
    field_layers: int = 1  # field-stage depth for hierarchical models
    dropout: float = 0.0
    head: str = "binary"
    mlm_lambda: float = 1.0  # weight of the numerical term in the joint loss
    tower_mask: str = "both"  # twin_tower only: which towers feed the gate

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        if self.n < 1 or self.m < 1:
            raise ConfigError("window length and width must be >= 1")
        if self.hidden < 1 or self.heads < 1:
            raise ConfigError("hidden units and attention heads must be >= 1")
        if self.hidden % self.heads != 0:
            raise ConfigError("hidden units must be divisible by attention heads")
        if self.head == "mlm" and not self.family.startswith("hierarchical"):
            raise ConfigError("MLM head requires a hierarchical family")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.tower_mask not in TOWER_MASKS:
            raise ConfigError(f"unknown tower mask {self.tower_mask!r}")
        if self.tower_mask != "both" and self.family != "twin_tower":
            raise ConfigError(f"tower mask {self.tower_mask!r} needs the twin_tower family, "
                              f"not {self.family!r}")
        if self.field_layers != 1 and not self.family.startswith("hierarchical"):
            raise ConfigError(f"field_layers {self.field_layers} needs a hierarchical family, "
                              f"not {self.family!r}")
        if self.mlm_lambda != 1.0 and self.family != "hierarchical_joint":
            raise ConfigError(f"mlm_lambda {self.mlm_lambda} needs the hierarchical_joint "
                              f"family, not {self.family!r}")


def expected_attention_pairs(spec: ModelSpec, batch: int, rows: int | None = None) -> int:
    """Closed-form query-key pair count for one forward pass over ``batch``
    windows. A twin tower counts only the towers its mask keeps. A hierarchical
    field encoder runs over ``rows`` rows: every row of every window
    (``batch * n``) by default, the distinct rows under ``infer``."""
    n, m, h = spec.n, spec.m, spec.heads
    if spec.family == "vanilla":
        return batch * h * spec.layers * n * n
    if spec.family == "twin_tower":
        kept = {"both": n * n + m * m, "time": n * n, "feature": m * m}[spec.tower_mask]
        return batch * h * spec.layers * kept
    rows = batch * n if rows is None else rows
    return h * (spec.field_layers * rows * m * m + spec.layers * batch * n * n)


def _head_width(head: str) -> int:
    return 2 if head == "binary" else 1


class _Tower(Module):
    """One encoder over a chosen sequence axis with its own projection."""

    def __init__(self, positions: int, channels: int, hidden: int, heads: int,
                 layers: int, rng: np.random.Generator):
        self.proj = L.Linear(channels, hidden, rng)
        self.pos = Tensor(rng.standard_normal((positions, hidden)) * 0.02, requires_grad=True)
        self.encoder = L.Encoder(hidden, heads, layers, rng)

    def __call__(self, x: Tensor, counter, dropout, rng) -> Tensor:
        h = self.proj(x) + self.pos
        h = self.encoder(h, counter, dropout, rng)
        return T.tmean(h, axis=1)  # pooled tower output


class VanillaModel(_Tower):
    """A time tower over the N rows of a window, then a task head."""

    def __init__(self, spec: ModelSpec, seed: int):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.counter = AttentionCounter()
        super().__init__(spec.n, spec.m, spec.hidden, spec.heads, spec.layers, rng)
        self.head = L.TaskHead(spec.hidden, _head_width(spec.head), rng)

    def __call__(self, x: np.ndarray, train: bool = False, rng=None) -> Tensor:
        if x.ndim != 3 or x.shape[1:] != (self.spec.n, self.spec.m):
            raise ShapeError(f"expected [batch, {self.spec.n}, {self.spec.m}], got {x.shape}")
        p = self.spec.dropout if train else 0.0
        return self.head(super().__call__(Tensor(x), self.counter, p, rng))


class TwinTowerModel(Module):
    """Time tower over N rows and feature tower over M channels, gated."""

    def __init__(self, spec: ModelSpec, seed: int):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.counter = AttentionCounter()
        self.time_tower = _Tower(spec.n, spec.m, spec.hidden, spec.heads, spec.layers, rng)
        self.feature_tower = _Tower(spec.m, spec.n, spec.hidden, spec.heads, spec.layers, rng)
        self.gate_w1 = Tensor(np.ones(spec.hidden), requires_grad=True)
        self.gate_w2 = Tensor(np.ones(spec.hidden), requires_grad=True)
        self.head = L.TaskHead(spec.hidden, _head_width(spec.head), rng)

    def __call__(self, x: np.ndarray, train: bool = False, rng=None) -> Tensor:
        """The head over the gating channel w1*O1 + w2*O2, summed over the
        towers ``tower_mask`` keeps; a masked tower is not run."""
        if x.ndim != 3 or x.shape[1:] != (self.spec.n, self.spec.m):
            raise ShapeError(f"expected [batch, {self.spec.n}, {self.spec.m}], got {x.shape}")
        p = self.spec.dropout if train else 0.0
        gated = []
        if self.spec.tower_mask != "feature":
            gated.append(self.gate_w1 * self.time_tower(Tensor(x), self.counter, p, rng))
        if self.spec.tower_mask != "time":
            o2 = self.feature_tower(Tensor(np.swapaxes(x, 1, 2)), self.counter, p, rng)
            gated.append(self.gate_w2 * o2)
        return self.head(sum(gated[1:], gated[0]))


class HierarchicalModel(Module):
    """Field encoder within rows, sequence encoder across rows.

    The joint variant embeds numerical cells from their raw values through a
    per-column value projection instead of bin tokens.
    """

    def __init__(self, spec: ModelSpec, vocab: Vocabulary, seed: int):
        if len(vocab.fields) != spec.m:
            raise ShapeError(f"vocabulary has {len(vocab.fields)} fields, spec.m={spec.m}")
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.vocab = vocab
        self.joint = spec.family == "hierarchical_joint"
        self.numeric = np.array([ft.kind is FieldKind.NUMERICAL for ft in vocab.fields])
        self.counter = AttentionCounter()
        self.embed = L.Embedding(vocab.size, spec.hidden, rng)
        self.field_pos = Tensor(rng.standard_normal((spec.m, spec.hidden)) * 0.02,
                                requires_grad=True)
        self.row_pos = Tensor(rng.standard_normal((spec.n, spec.hidden)) * 0.02,
                              requires_grad=True)
        self.field_encoder = L.Encoder(spec.hidden, spec.heads, spec.field_layers, rng)
        self.seq_encoder = L.Encoder(spec.hidden, spec.heads, spec.layers, rng)
        self.mlm_heads = [L.Linear(spec.hidden, 1 if self.joint and numeric else ft.size, rng)
                          for ft, numeric in zip(vocab.fields, self.numeric)]
        self.task_head = L.TaskHead(spec.hidden, _head_width(
            spec.head if spec.head != "mlm" else "binary"), rng)
        if self.joint:
            self.value_w = Tensor(rng.standard_normal((spec.m, spec.hidden)) * 0.1,
                                  requires_grad=True)
            self.value_b = Tensor(np.zeros((spec.m, spec.hidden)), requires_grad=True)

    def _cell_embeddings(self, ids, raw, mask) -> Tensor:
        emb = self.embed(ids)  # [R, M, H]
        if not self.joint:
            return emb
        if raw is None:
            raise ShapeError("joint family needs raw numerical values alongside token ids")
        # numerical cells: raw value projection, except masked cells which
        # keep the MASK token embedding
        value = Tensor(raw[..., None]) * self.value_w + self.value_b  # [R, M, H]
        sel = (self.numeric & ~mask)[..., None]
        return emb * (1.0 - sel) + value * sel

    def _check_grid(self, ids) -> None:
        if ids.ndim != 3 or ids.shape[1:] != (self.spec.n, self.spec.m):
            raise ShapeError(
                f"expected id grid [batch, {self.spec.n}, {self.spec.m}], got {ids.shape}"
            )

    def _field_states(self, ids, raw, mask, p, rng) -> Tensor:
        """Field-encoder outputs [R, M, H] for rows given as [R, M] arrays."""
        h = self._cell_embeddings(ids, raw, mask) + self.field_pos
        return self.field_encoder(h, self.counter, p, rng)

    def encode(self, ids, raw=None, mask=None, train=False, rng=None):
        """Returns (cell representations [B,N,M,H], row representations [B,N,H])."""
        self._check_grid(ids)
        if mask is None:
            mask = np.zeros(ids.shape, dtype=bool)
        b, n, m = ids.shape
        p = self.spec.dropout if train else 0.0
        h = self._field_states(ids.reshape(b * n, m),
                               None if raw is None else raw.reshape(b * n, m),
                               mask.reshape(b * n, m), p, rng)
        cells = T.reshape(h, (b, n, m, self.spec.hidden))
        rows = T.tmean(cells, axis=2) + self.row_pos
        rows = self.seq_encoder(rows, self.counter, p, rng)
        return cells, rows

    def __call__(self, ids, raw=None, mask=None, train=False, rng=None) -> Tensor:
        """Pooled-sequence (CLS-style) forward for classification/regression."""
        _, rows = self.encode(ids, raw, mask, train, rng)
        return self.task_head(T.tmean(rows, axis=1))

    def infer(self, ids, raw=None) -> np.ndarray:
        """The logits of ``self(ids, raw)``, computed without a tape and with the
        field encoder run once per distinct row of the batch: a row's pooled
        embedding depends on that row alone, and with overlapping windows a row
        appears in up to N of them. The joint family keys rows on their ids
        and the bits of their raw values. The distinct rows come from one
        ``lexsort`` of the key's columns: sorted neighbours that differ start a
        new row."""
        self._check_grid(ids)
        b, n, m = ids.shape
        flat_ids = ids.reshape(b * n, m)
        flat_raw = None if raw is None or not self.joint else raw.reshape(b * n, m)
        key = flat_ids if flat_raw is None else \
            np.concatenate([flat_ids, flat_raw.view(np.int64)], axis=1)
        order = np.lexsort(key.T)
        ranked = key[order]
        starts = np.ones(len(key), dtype=bool)
        np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
        first = order[starts]
        inverse = np.empty(len(key), dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        with T.no_grad():
            cells = self._field_states(flat_ids[first],
                                       None if flat_raw is None else flat_raw[first],
                                       np.zeros((len(first), m), dtype=bool), 0.0, None)
            pooled = T.tmean(cells, axis=1).data[inverse]
            rows = Tensor(pooled.reshape(b, n, self.spec.hidden)) + self.row_pos
            rows = self.seq_encoder(rows, self.counter, 0.0, None)
            return self.task_head(T.tmean(rows, axis=1)).data

    def mlm_loss(self, ids, targets, mask, raw=None, train=False, rng=None) -> Tensor:
        """Reconstruction loss over masked cells.

        ``ids`` already has masked cells replaced by the MASK token;
        ``targets`` holds the original token ids (and ``raw`` the original
        values, used as regression targets by the joint variant). Masked
        categorical cells contribute mean cross-entropy over each field's
        token range; for the joint variant masked numerical cells add
        mlm_lambda times their mean squared reconstruction error.
        """
        cells, rows = self.encode(ids, raw=raw if self.joint else None,
                                  mask=mask, train=train, rng=rng)
        # every masked cell once, field-major: each field's cells keep row order
        field, b, t = np.nonzero(np.moveaxis(mask, 2, 0))
        picked = T.take(cells, (b, t, field)) + T.take(rows, (b, t))

        ce_terms, mse_terms = [], []  # (loss term, masked cells) per field
        for j in np.unique(field):
            ft, at = self.vocab.fields[j], np.flatnonzero(field == j)
            out = self.mlm_heads[j](T.take(picked, (at,)))
            if self.joint and self.numeric[j]:
                target = raw[b[at], t[at], j]
                mse_terms.append((T.mse(T.reshape(out, (len(at),)), Tensor(target)), len(at)))
            else:
                local = targets[b[at], t[at], j] - ft.start
                if local.min() < 0 or local.max() >= ft.size:
                    raise ShapeError(f"target token outside field range for {ft.name!r}")
                ce_terms.append((T.cross_entropy(out, local), len(at)))

        loss = _weighted_mean(ce_terms)
        if mse_terms:
            loss = loss + self.spec.mlm_lambda * _weighted_mean(mse_terms)
        return loss


def _weighted_mean(terms) -> Tensor:
    """``Tensor(0.0) + Σ term·(count/total)`` over the ``(term, count)`` pairs, in
    order; no pair gives ``Tensor(0.0)``."""
    total = sum(count for _, count in terms)
    return sum((term * (count / total) for term, count in terms), Tensor(0.0))


def build_model(spec: ModelSpec, seed: int, vocab: Vocabulary | None = None):
    if spec.family == "vanilla":
        return VanillaModel(spec, seed)
    if spec.family == "twin_tower":
        return TwinTowerModel(spec, seed)
    if vocab is None:
        raise ConfigError(f"family {spec.family!r} requires a vocabulary")
    return HierarchicalModel(spec, vocab, seed)
