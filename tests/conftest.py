"""Shared fixtures: small hand-built datasets and generated corpora, and
JSON document strategies."""

import copy

import numpy as np
import pytest
from hypothesis import strategies as st

from tabseq.schema import Dataset, FieldKind, FieldSpec, Record, Schema
from tabseq.synthgen import GenConfig, generate_fraud_dataset


def small_schema(nullable=False):
    return Schema(
        fields=(
            FieldSpec("entity_id", FieldKind.CATEGORICAL),
            FieldSpec("time_idx", FieldKind.NUMERICAL),
            FieldSpec("label", FieldKind.NUMERICAL),
            FieldSpec("amount", FieldKind.NUMERICAL, nullable=nullable),
            FieldSpec("channel", FieldKind.CATEGORICAL, nullable=nullable),
        ),
        entity_key="entity_id",
        time_key="time_idx",
        label_key="label",
    )


def make_dataset(rows, schema=None):
    """rows: list of (entity, t, label, amount, channel) tuples."""
    schema = schema or small_schema(nullable=True)
    records = tuple(
        Record((e, float(t), float(lab) if lab is not None else None, amt, ch), e, t)
        for e, t, lab, amt, ch in sorted(rows)
    )
    return Dataset(schema, records)


@pytest.fixture(scope="session")
def fraud_dataset():
    cfg = GenConfig(entities=60, rows_per_entity=30, numerical_fields=4,
                    categorical_cardinalities=(3, 4), fraud_rate=0.05, seed=11)
    return generate_fraud_dataset(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# -- JSON document strategies for the loader fuzz tests -----------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-2, 2, allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(["vanilla", "hierarchical", "fraud_tabbert",
                                              "smote", "duplicate", "time", "numerical"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three nested entries replaced by any JSON value,
    deleted, or joined by an extra entry."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["replace", "delete", "add"]))
            if action == "replace":
                node[key] = draw(json_values)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.text(max_size=4))] = draw(json_values)
            else:
                node.append(draw(json_values))
            break
    return doc
