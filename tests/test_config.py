import json
from pathlib import Path

import pytest

from ocrdrift.config import (
    ConfigError,
    ExperimentConfig,
    LanguageSource,
    ModelSpec,
    NoiseConfig,
    load_config,
)
from ocrdrift.corpus import CorpusFormat, Language
from ocrdrift.embeddings import Model, RateProfile, TrainConfig


def load(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_config(path)


class TestDefaults:
    def test_minimal_entries_take_the_dataclass_defaults(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        config = load(tmp_path, {
            "out_dir": "out",
            "languages": [{"language": "other", "path": str(corpus)}],
            "models": [{"model": "ppmi"}],
            "noise": {"levels": [0.1]},
        })
        assert config == ExperimentConfig(
            out_dir=Path("out"),
            languages=(LanguageSource(language=Language.parse("other"), path=corpus),),
            models=(ModelSpec(label="ppmi", train=TrainConfig(Model.PPMI)),),
            noise=NoiseConfig(levels=(0.1,)),
        )

    def test_empty_config_takes_the_dataclass_defaults(self, tmp_path):
        assert load(tmp_path, {"out_dir": "out"}) == ExperimentConfig(out_dir=Path("out"))

    def test_given_values_are_converted(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        config = load(tmp_path, {
            "out_dir": "out",
            "seed": "4",
            "runs": 2,
            "confidence": "0.9",
            "languages": [{"language": "other", "path": str(corpus), "format": "paired"}],
            "models": [{"model": "sgns", "rate_profile": "slow", "dim": "16", "batch_size": 64},
                       {"model": "cbow", "learning_rate": "0.002", "min_count": "2"},
                       {"model": "cbow", "name": "cbow-null", "rate_profile": "fast", "learning_rate": None}],
            "noise": {"levels": [0.1], "weights": {"deletion": "0.5", "substitution": 0.4},
                      "doc_chars": "300"},
        })
        assert (config.seed, config.runs, config.confidence) == (4, 2, 0.9)
        assert config.languages[0].format is CorpusFormat.PAIRED_FILES
        sgns, cbow, cbow_null = config.models
        assert (sgns.label, sgns.train.dim, sgns.train.batch_size) == ("sgns-slow", 16, 64)
        assert sgns.train.rate_profile is RateProfile.SLOW
        assert (cbow.label, cbow.train.learning_rate, cbow.min_count) == ("cbow", 0.002, 2)
        assert cbow_null.train.learning_rate is None
        spec = config.noise.spec
        assert (spec.deletion_weight, spec.substitution_weight, spec.insertion_weight) == (0.5, 0.4, 0.1)
        assert config.noise.doc_chars == 300


def sgns(**fields):
    return {"model": "sgns", "rate_profile": "fast", **fields}


# each entry: config fields, then texts the error must hold (the model
# label or the entry, and the key or the value)
BAD_VALUES = {
    **{f"{key}={value}": ({"models": [sgns(**{key: value})]}, "'sgns-fast'", key)
       for key, value in [("dim", 0), ("window", 0), ("epochs", 0), ("negative_samples", 0),
                          ("batch_size", 0), ("batch_size", -1), ("min_count", 0),
                          ("learning_rate", "abc"), ("learning_rate", -1)]},
    "glove rate": ({"models": [{"model": "glove", "learning_rate": 0.5}]}, "'glove'", "learning_rate"),
    "ppmi rate": ({"models": [{"model": "ppmi", "learning_rate": 0.5}]}, "'ppmi'", "learning_rate"),
    "weights sum": ({"noise": {"levels": [0.1], "weights": {"deletion": 0.5}}}, "noise", "weights"),
    "level 0.95": ({"noise": {"levels": [0.1, 0.95]}}, "noise level 0.95"),
    "doc_chars 0": ({"noise": {"levels": [0.1], "doc_chars": 0}}, "noise", "doc_chars"),
    "alphabet with padding": ({"noise": {"levels": [0.1], "alphabet": "ab@"}}, "noise section", "'@'"),
    "n_grid of 1981 points": ({"n_grid": {"start": 0.01, "step": 0.0005}}, "n_grid", "1981"),
    "n_grid list of 1001 points": ({"n_grid": [0.5] * 1001}, "n_grid", "1001"),
    "unknown top-level key": ({"epoch": 50}, "'epoch'", "config"),
    "unknown language key": ({"languages": [{"language": "other", "path": "c", "formt": "paired"}]},
                             "'formt'", "languages[0]"),
    "unknown model key": ({"models": [sgns(epoch=50)]}, "'epoch'", "'sgns-fast'"),
    "unknown noise key": ({"noise": {"levels": [0.1], "level": 0.2}}, "'level'", "noise section"),
    "unknown weight": ({"noise": {"levels": [0.1], "weights": {"subst": 1.0}}}, "'subst'", "noise weights"),
    "unknown n_grid key": ({"n_grid": {"start": 0.1, "end": 0.5}}, "'end'", "n_grid"),
}


@pytest.mark.parametrize("fields, named", [(v[0], v[1:]) for v in BAD_VALUES.values()], ids=list(BAD_VALUES))
def test_bad_value_is_a_config_error_naming_it(tmp_path, fields, named):
    with pytest.raises(ConfigError) as info:
        load(tmp_path, {"out_dir": "out", **fields})
    for text in named:
        assert text in str(info.value)


@pytest.mark.parametrize("step", [1e-12, 5e-324])
def test_n_grid_with_a_tiny_step_fails_before_building_it(tmp_path, step):
    # about 1e12 points (or an infinite count): building them first would
    # exhaust memory, so the count alone must be rejected
    with pytest.raises(ConfigError, match="n_grid"):
        load(tmp_path, {"out_dir": "out", "n_grid": {"step": step}})
