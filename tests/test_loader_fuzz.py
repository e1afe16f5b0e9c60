"""Malformed schema, preprocessing-artifact and checkpoint documents and CSV
files raise a ``TabseqError`` subclass, never a raw exception."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values, mutated, small_schema
from tabseq.errors import TabseqError
from tabseq.nn.checkpoint import load_checkpoint, save_checkpoint
from tabseq.preprocess import PreprocessArtifact, fit_preprocess
from tabseq.schema import Schema, impute_missing, load_csv
from tabseq.synthgen import GenConfig, generate_fraud_dataset

SCHEMA_DOC = small_schema(nullable=True).to_json()
CSV_SCHEMA = small_schema(nullable=True)
CSV_FILE = (b"entity_id,time_idx,label,amount,channel\n"
            b"e1,0,0.0,1.25,A\ne1,1,1.0,,B\ne2,0,0.0,-3.5,\n")
ARTIFACT_DOC = json.loads(json.dumps(fit_preprocess(impute_missing(generate_fraud_dataset(
    GenConfig(entities=3, rows_per_entity=4, numerical_fields=1,
              categorical_cardinalities=(2,), seed=1))), bins=2).to_json()))


def _parses_or_tabseq_error(load, doc):
    try:
        load(doc)
    except TabseqError:
        pass


@given(mutated(SCHEMA_DOC) | json_values)
@settings(max_examples=300, deadline=None)
def test_schema_document(doc):
    _parses_or_tabseq_error(Schema.from_json, doc)


@given(mutated(ARTIFACT_DOC) | json_values)
@settings(max_examples=300, deadline=None)
def test_artifact_document(doc):
    # a document that loads is the one its artifact writes: nothing in it is ignored
    try:
        art = PreprocessArtifact.from_json(doc)
    except TabseqError:
        return
    assert json.loads(json.dumps(art.to_json())) == doc


@pytest.fixture(scope="module")
def checkpoint_header(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(3), "s": np.array(1.0)},
                    {"family": "vanilla"}, vocab_hash="0" * 64, seed=1)
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_checkpoint_file(checkpoint_header, tmp_path_factory, data):
    header = data.draw(mutated(checkpoint_header) | json_values)
    line = data.draw(st.just(json.dumps(header).encode()) | st.binary(max_size=16))
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(line + b"\n" + data.draw(st.binary(max_size=40)))
    _parses_or_tabseq_error(load_checkpoint, path)


@st.composite
def mutated_bytes(draw, data: bytes):
    """``data`` with one to three short spans replaced by a few bytes: any
    bytes, or ones the CSV format or a numeric cell gives meaning to."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 6)))
        insert = draw(st.binary(max_size=4) | st.sampled_from(
            [b"", b",", b"\n", b"\r", b'"', b"inf", b"nan", b"1e400", b"\xff", b"\xc3"]))
        data = data[:start] + insert + data[end:]
    return data


@given(mutated_bytes(CSV_FILE))
@settings(max_examples=300, deadline=None)
def test_csv_file(tmp_path_factory, csv_bytes):
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_bytes(csv_bytes)
    _parses_or_tabseq_error(lambda p: load_csv(p, CSV_SCHEMA), path)
