import json
from pathlib import Path

from ocrdrift.config import (
    ExperimentConfig,
    LanguageSource,
    ModelSpec,
    NoiseConfig,
    load_config,
)
from ocrdrift.corpus import CorpusFormat, Language
from ocrdrift.embeddings import Model, RateProfile


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
            models=(ModelSpec(model=Model.PPMI, label="ppmi"),),
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
            "models": [{"model": "sgns", "rate_profile": "slow", "dim": "16", "batch_size": 64}],
            "noise": {"levels": [0.1], "weights": {"deletion": "0.5"}, "doc_chars": "300"},
        })
        assert (config.seed, config.runs, config.confidence) == (4, 2, 0.9)
        assert config.languages[0].format is CorpusFormat.PAIRED_FILES
        spec = config.models[0]
        assert (spec.label, spec.dim, spec.batch_size) == ("sgns-slow", 16, 64)
        assert spec.rate_profile is RateProfile.SLOW
        assert (config.noise.deletion_weight, config.noise.substitution_weight) == (0.5, 0.8)
        assert config.noise.doc_chars == 300
