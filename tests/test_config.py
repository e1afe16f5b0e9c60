"""Typed configs: the shared JSON parser, the experiment config, and the
README's quick-start documents."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import json_values, mutated, small_schema
from tabseq.bench import ArmConfig, ExperimentConfig
from tabseq.errors import ConfigError, TabseqError
from tabseq.models import ModelSpec
from tabseq.synthgen import GenConfig
from tabseq.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_heredoc(name: str):
    """The JSON document the README quick start writes with ``cat > name``."""
    match = re.search(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)\nEOF\n",
                      README.read_text(encoding="utf-8"), re.S)
    assert match, f"README quick start has no {name} heredoc"
    return json.loads(match.group(1))


def test_readme_quick_start_documents_parse():
    gen = GenConfig.from_json(readme_heredoc("gen.json"))
    assert gen.seed == 7
    exp = ExperimentConfig.from_json(readme_heredoc("exp.json"))
    assert [arm.name for arm in exp.arms] == ["vanilla", "twin", "hier"]
    assert exp.arms[2].pretrain.epochs == 3


class TestTypedFields:
    @pytest.mark.parametrize("cls, doc, key", [
        (TrainConfig, {"epochs": 2.5}, "epochs"),
        (TrainConfig, {"batch_size": True}, "batch_size"),
        (TrainConfig, {"learning_rate": "0.1"}, "learning_rate"),
        (TrainConfig, {"learning_rate": False}, "learning_rate"),
        (TrainConfig, {"epochs": None}, "epochs"),
        (ModelSpec, {"family": "vanilla", "n": 4, "m": 3, "hidden": "16"}, "hidden"),
        (ModelSpec, {"family": 1, "n": 4, "m": 3}, "family"),
        (GenConfig, {"categorical_cardinalities": 3}, "categorical_cardinalities"),
        (GenConfig, {"categorical_cardinalities": [3, 2.5]}, r"categorical_cardinalities\[1\]"),
        (ArmConfig, {"name": "a", "family": "vanilla", "model": []}, "model"),
    ])
    def test_wrong_type_is_config_error(self, cls, doc, key):
        with pytest.raises(ConfigError, match=key):
            cls.from_json(doc)

    def test_int_fits_float_and_none_fits_optional(self):
        cfg = TrainConfig.from_json({"learning_rate": 1, "patience": None,
                                     "mlm_probability": None})
        assert cfg.learning_rate == 1 and cfg.patience is None
        assert GenConfig.from_json({"categorical_cardinalities": [2, 3]}) == \
            GenConfig(categorical_cardinalities=(2, 3))

    def test_missing_key_and_non_object(self):
        with pytest.raises(ConfigError, match="missing key 'm'"):
            ModelSpec.from_json({"family": "vanilla", "n": 4})
        with pytest.raises(ConfigError, match="JSON object"):
            TrainConfig.from_json([])

    def test_round_trip(self):
        doc = readme_heredoc("exp.json")
        exp = ExperimentConfig.from_json(doc)
        assert ExperimentConfig.from_json(exp.to_json()) == exp

    @pytest.mark.parametrize("config", [
        small_schema(nullable=True),
        GenConfig(categorical_cardinalities=(2, 3), seed=7),
        ModelSpec("hierarchical", n=4, m=3, hidden=8, heads=2, head="mlm"),
        TrainConfig(mlm_probability=0.2, patience=None),
        ExperimentConfig.from_json(readme_heredoc("exp.json")),
    ], ids=lambda c: type(c).__name__)
    def test_to_json_is_the_document_from_json_reads(self, config):
        # lists, not tuples, and enum values, not members: what JSON gives back
        doc = config.to_json()
        assert doc == json.loads(json.dumps(doc))
        assert type(config).from_json(doc) == config

    @pytest.mark.parametrize("cls, doc, match", [
        (GenConfig, {"seed": -1}, "seed must be >= 0"),
        (TrainConfig, {"seed": -1}, "seed must be >= 0"),
        (TrainConfig, {"batch_size": 0}, "batch size must be >= 1"),
        (TrainConfig, {"batch_size": -32}, "batch size must be >= 1"),
        (ExperimentConfig, {**readme_heredoc("exp.json"), "seed": -1}, "seed must be >= 0"),
    ])
    def test_negative_seed_and_empty_batch_rejected(self, cls, doc, match):
        with pytest.raises(ConfigError, match=match):
            cls.from_json(doc)


def _experiment_docs():
    readme = readme_heredoc("exp.json")
    return mutated(readme) | json_values | st.fixed_dictionaries(
        {"data": st.just(readme["data"])},
        optional={"arms": st.lists(mutated(readme["arms"][2]), max_size=3),
                  **{key: json_values for key in ("task", "seed", "window_size", "bins")}})


@given(_experiment_docs())
@settings(max_examples=300, deadline=None)
def test_experiment_config_parses_or_raises_config_error(doc):
    try:
        ExperimentConfig.from_json(doc)
    except TabseqError:
        pass
