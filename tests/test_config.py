import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocrdrift.config import (
    MAX_RESAMPLES,
    ConfigError,
    ExperimentConfig,
    LanguageSource,
    ModelSpec,
    NoiseConfig,
    load_config,
)
from ocrdrift.corpus import CorpusFormat
from ocrdrift.embeddings import Model, TrainConfig


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
            languages=(LanguageSource(language="other", path=corpus),),
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
        assert sgns.train.learning_rate == 1e-4
        assert (cbow.label, cbow.train.learning_rate, cbow.min_count) == ("cbow", 0.002, 2)
        # a null learning_rate leaves the profile's rate
        assert (cbow_null.label, cbow_null.train.learning_rate) == ("cbow-null", 1e-3)
        spec = config.noise.spec
        assert (spec.deletion_weight, spec.substitution_weight, spec.insertion_weight) == (0.5, 0.4, 0.1)
        assert config.noise.doc_chars == 300

    def test_language_names_are_lower_case_with_codes_spelled_out(self, tmp_path):
        config = load(tmp_path, {"out_dir": "out", "languages": [
            {"language": " NL ", "path": str(tmp_path)}, {"language": "Other", "path": str(tmp_path)}]})
        assert [src.language for src in config.languages] == ["dutch", "other"]
        assert config.for_language("Dutch") == config.for_language("nl") == config.languages[:1]
        with pytest.raises(ConfigError, match="duplicate language 'dutch'"):
            load(tmp_path, {"out_dir": "out", "languages": [
                {"language": "nl", "path": str(tmp_path)}, {"language": "dutch", "path": str(tmp_path)}]})


def sgns(**fields):
    return {"model": "sgns", "rate_profile": "fast", **fields}


# each entry: config fields, then texts the error must hold (the model
# label or the entry, and the key or the value)
BAD_VALUES = {
    **{f"{key}={value}": ({"models": [sgns(**{key: value})]}, "'sgns-fast'", key)
       for key, value in [("dim", 0), ("window", 0), ("epochs", 0), ("negative_samples", 0),
                          ("batch_size", 0), ("batch_size", -1), ("min_count", 0),
                          ("learning_rate", "abc"), ("learning_rate", -1),
                          ("dim", 2.5), ("window", True), ("min_count", 2.5)]},
    "unknown rate_profile": ({"models": [sgns(rate_profile="medium")]}, "'sgns-medium'", "rate_profile"),
    "rate_profile and learning_rate": ({"models": [sgns(learning_rate=0.001)]}, "'sgns-fast'",
                                       "rate_profile", "learning_rate"),
    "glove rate": ({"models": [{"model": "glove", "learning_rate": 0.5}]}, "'glove'", "learning_rate"),
    "ppmi rate": ({"models": [{"model": "ppmi", "learning_rate": 0.5}]}, "'ppmi'", "learning_rate"),
    "weights sum": ({"noise": {"levels": [0.1], "weights": {"deletion": 0.5}}}, "noise", "weights"),
    # NaN fails neither the sign check nor the sum check
    "weight NaN": ({"noise": {"levels": [0.1], "weights": {"substitution": float("nan"), "deletion": 0.1,
                                                          "insertion": 0.1}}},
                   "noise", "substitution_weight", "nan"),
    "weight inf": ({"noise": {"levels": [0.1], "weights": {"insertion": float("inf")}}},
                   "noise", "insertion_weight", "inf"),
    "weight -inf": ({"noise": {"levels": [0.1], "weights": {"deletion": float("-inf")}}},
                    "noise", "deletion_weight", "-inf"),
    "level 0.95": ({"noise": {"levels": [0.1, 0.95]}}, "noise level 0.95"),
    # both would write cer010, the second over the first
    "levels sharing a directory": ({"noise": {"levels": [0.2, 0.1, 0.104]}}, "0.1 and 0.104", "cer010"),
    "level repeated": ({"noise": {"levels": [0.1, 0.1]}}, "0.1 and 0.1", "cer010"),
    "doc_chars 0": ({"noise": {"levels": [0.1], "doc_chars": 0}}, "noise", "doc_chars"),
    "alphabet with padding": ({"noise": {"levels": [0.1], "alphabet": "ab@"}}, "noise section", "'@'"),
    "n_grid of 1981 points": ({"n_grid": {"start": 0.01, "step": 0.0005}}, "n_grid", "1981"),
    "n_grid list of 1001 points": ({"n_grid": [0.5] * 1001}, "n_grid", "1001"),
    "n_grid unsorted": ({"n_grid": [0.5, 0.1, 0.3]}, "n_grid", "strictly increasing"),
    "n_grid repeated": ({"n_grid": [0.1, 0.2, 0.2]}, "n_grid", "strictly increasing"),
    # both points round to 0.5 at 10 decimals
    "n_grid range repeated": ({"n_grid": {"start": 0.5, "stop": 0.5000000000001, "step": 1e-13}},
                              "n_grid", "strictly increasing"),
    # 101 points from 0.01 in steps of 0.00994 end at 1.004
    "n_grid range past 1": ({"n_grid": {"step": 0.00994}}, "n_grid", "(0, 1]"),
    "seed -1": ({"seed": -1}, "seed", "-1"),
    # JSON reads 1e400 as infinity
    "seed 1e400": ({"seed": float("inf")}, "seed", "inf"),
    "runs 2.7": ({"runs": 2.7}, "runs", "2.7"),
    "runs true": ({"runs": True}, "runs", "True"),
    "bootstrap_resamples 1e400": ({"bootstrap_resamples": float("inf")}, "bootstrap_resamples"),
    "synthetic_chars 1.5": ({"noise": {"levels": [0.1], "synthetic_chars": 1.5}}, "noise", "synthetic_chars"),
    "doc_chars true": ({"noise": {"levels": [0.1], "doc_chars": True}}, "noise", "doc_chars"),
    "confidence 10**400": ({"confidence": 10 ** 400}, "confidence"),
    "bootstrap_resamples 0": ({"bootstrap_resamples": 0}, "bootstrap_resamples"),
    "bootstrap_resamples 10001": ({"bootstrap_resamples": 10_001}, "bootstrap_resamples", "10001"),
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


def test_resamples_up_to_the_cap_are_accepted(tmp_path):
    config = load(tmp_path, {"out_dir": "out", "bootstrap_resamples": MAX_RESAMPLES})
    assert config.bootstrap_resamples == MAX_RESAMPLES == 10_000


@pytest.mark.parametrize("step", [1e-12, 5e-324])
def test_n_grid_with_a_tiny_step_fails_before_building_it(tmp_path, step):
    # about 1e12 points (or an infinite count): building them first would
    # exhaust memory, so the count alone must be rejected
    with pytest.raises(ConfigError, match="n_grid"):
        load(tmp_path, {"out_dir": "out", "n_grid": {"step": step}})


def test_non_utf8_config_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"out_dir": "out"}')
    with pytest.raises(ConfigError, match=r"bad\.json: config is not UTF-8 text"):
        load_config(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
KNOWN_KEYS = (
    [(None, key) for key in ("out_dir", "seed", "runs", "n_grid", "bootstrap_resamples",
                             "confidence", "languages", "models", "noise")]
    + [("models", key) for key in ("model", "name", "dim", "window", "epochs", "negative_samples",
                                   "batch_size", "rate_profile", "learning_rate", "min_count",
                                   "ocr_path", "gt_path")]
    + [("languages", key) for key in ("language", "path", "format")]
    + [("noise", key) for key in ("levels", "weights", "alphabet", "source_text", "synthetic_chars",
                                  "doc_chars", "out_name")]
    + [("n_grid", key) for key in ("start", "stop", "step")]
)


@pytest.mark.parametrize("where", KNOWN_KEYS, ids=lambda where: ".".join(filter(None, where)))
@settings(max_examples=50)
@given(value=JSON_VALUES)
# JSON reads 1e400 as infinity; 10**400 is too large for a float
@example(value=float("inf"))
@example(value=10 ** 400)
def test_any_json_value_under_a_known_key_loads_or_is_a_config_error(tmp_path_factory, where, value):
    root = tmp_path_factory.getbasetemp()
    payload = {
        "out_dir": "out",
        "languages": [{"language": "other", "path": str(root), "format": "paired"}],
        "models": [sgns()],
        "noise": {"levels": [0.1]},
        "n_grid": {"start": 0.1},
    }
    section, key = where
    entry = payload if section is None else payload[section]
    if isinstance(entry, list):
        entry = entry[0]
    entry[key] = value
    path = root / "fuzz.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        load_config(path)
    except ConfigError:
        pass
