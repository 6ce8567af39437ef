"""Declarative experiment configuration loaded from a single JSON file."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import CorpusFormat, Language
from .embeddings import Model, RateProfile


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


class MissingArtifactError(Exception):
    """A command needs an artifact an earlier command has not produced."""


@dataclass(frozen=True)
class LanguageSource:
    language: Language
    path: Path
    format: CorpusFormat = CorpusFormat.ICDAR


@dataclass(frozen=True)
class ModelSpec:
    model: Model
    label: str
    dim: int = 100
    window: int = 5
    epochs: int = 5
    negative_samples: int = 5
    min_count: int = 5
    batch_size: int = 8192
    rate_profile: RateProfile | None = None
    learning_rate: float | None = None
    ocr_path: Path | None = None
    gt_path: Path | None = None


@dataclass(frozen=True)
class NoiseConfig:
    levels: tuple[float, ...]
    substitution_weight: float = 0.8
    deletion_weight: float = 0.1
    insertion_weight: float = 0.1
    alphabet: str = "abcdefghijklmnopqrstuvwxyz"
    source_text: Path | None = None
    synthetic_chars: int = 200_000
    doc_chars: int = 2000
    out_name: str = "synthetic"


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: Path
    seed: int = 0
    runs: int = 3
    n_grid: tuple[float, ...] = ()
    bootstrap_resamples: int = 1000
    confidence: float = 0.95
    languages: tuple[LanguageSource, ...] = ()
    models: tuple[ModelSpec, ...] = ()
    noise: NoiseConfig | None = None

    def for_language(self, code: str | None) -> tuple[LanguageSource, ...]:
        if code is None:
            return self.languages
        wanted = Language.parse(code)
        chosen = tuple(src for src in self.languages if src.language == wanted)
        if not chosen:
            raise ConfigError(f"language {code!r} is not in the configuration")
        return chosen


def _default_label(payload: dict) -> str:
    name = payload["model"].lower()
    profile = payload.get("rate_profile")
    return f"{name}-{profile}" if profile else name


def _present(payload: dict, **converters) -> dict:
    """Each key named in `converters` that `payload` holds, converted; a
    missing key is left out, so the dataclass field supplies its default."""
    return {key: convert(payload[key]) for key, convert in converters.items() if key in payload}


def _as_given(value):
    return value


def _rate_profile(value) -> RateProfile | None:
    return RateProfile(value) if value else None


def _parse_model(payload: dict) -> ModelSpec:
    if "model" not in payload:
        raise ConfigError("model entry without a 'model' field")
    try:
        model = Model(payload["model"].lower())
    except ValueError:
        raise ConfigError(f"unknown model {payload['model']!r}") from None
    spec = ModelSpec(
        model=model,
        label=payload.get("name", _default_label(payload)),
        **_present(payload, dim=int, window=int, epochs=int, negative_samples=int, min_count=int,
                   batch_size=int, rate_profile=_rate_profile, learning_rate=_as_given,
                   ocr_path=Path, gt_path=Path),
    )
    if model in (Model.SGNS, Model.CBOW) and spec.rate_profile is None and spec.learning_rate is None:
        raise ConfigError(f"model {spec.label!r} needs a rate_profile or learning_rate")
    if model in (Model.PPMI, Model.GLOVE) and spec.rate_profile is not None:
        raise ConfigError(f"model {spec.label!r} takes no rate profile")
    if model is Model.EXTERNAL and (spec.ocr_path is None or spec.gt_path is None):
        raise ConfigError(f"external model {spec.label!r} needs ocr_path and gt_path")
    return spec


def _parse_n_grid(payload) -> tuple[float, ...]:
    if payload is None:
        return ()
    if isinstance(payload, dict):
        start = float(payload.get("start", 0.01))
        stop = float(payload.get("stop", 1.0))
        step = float(payload.get("step", 0.01))
        if step <= 0 or not 0 < start <= stop <= 1:
            raise ConfigError("n_grid must satisfy 0 < start <= stop <= 1 with step > 0")
        count = int(round((stop - start) / step)) + 1
        return tuple(round(start + i * step, 10) for i in range(count))
    grid = tuple(float(v) for v in payload)
    if not grid or any(not 0 < v <= 1 for v in grid):
        raise ConfigError("n_grid fractions must lie in (0, 1]")
    return grid


def _parse_noise(payload: dict | None) -> NoiseConfig | None:
    if payload is None:
        return None
    if "levels" not in payload or not payload["levels"]:
        raise ConfigError("noise section needs a non-empty 'levels' list")
    weights = _present(payload.get("weights", {}), substitution=float, deletion=float, insertion=float)
    return NoiseConfig(
        levels=tuple(float(v) for v in payload["levels"]),
        **{f"{kind}_weight": weight for kind, weight in weights.items()},
        **_present(payload, alphabet=_as_given, source_text=Path, synthetic_chars=int,
                   doc_chars=int, out_name=_as_given),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if "out_dir" not in payload:
        raise ConfigError("config needs an 'out_dir'")

    languages = []
    for entry in payload.get("languages", []):
        if "path" not in entry or "language" not in entry:
            raise ConfigError("each language entry needs 'language' and 'path'")
        try:
            fmt = _present(entry, format=CorpusFormat)
        except ValueError:
            raise ConfigError(f"unknown corpus format {entry['format']!r}") from None
        languages.append(
            LanguageSource(language=Language.parse(entry["language"]), path=Path(entry["path"]), **fmt)
        )

    config = ExperimentConfig(
        out_dir=Path(payload["out_dir"]),
        n_grid=_parse_n_grid(payload.get("n_grid")),
        languages=tuple(languages),
        models=tuple(_parse_model(m) for m in payload.get("models", [])),
        noise=_parse_noise(payload.get("noise")),
        **_present(payload, seed=int, runs=int, bootstrap_resamples=int, confidence=float),
    )
    return validate_config(config)


def _check_file_name(kind: str, name) -> None:
    # the name becomes a file or directory name under out_dir
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{kind} {name!r} is not usable as a file name")


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.runs < 1:
        raise ConfigError("runs must be >= 1")
    if not 0 < config.confidence < 1:
        raise ConfigError("confidence must be in (0, 1)")
    if config.bootstrap_resamples < 1:
        raise ConfigError("bootstrap_resamples must be >= 1")
    seen = set()
    for spec in config.models:
        _check_file_name("model label", spec.label)
        if spec.label in seen:
            raise ConfigError(f"duplicate model label {spec.label!r}")
        seen.add(spec.label)
    seen = set()
    for src in config.languages:
        _check_file_name("language name", src.language.name)
        if src.language in seen:
            raise ConfigError(f"duplicate language {src.language.name!r}")
        seen.add(src.language)
        if not src.path.is_dir():
            raise ConfigError(f"corpus path does not exist: {src.path}")
    for spec in config.models:
        for p in (spec.ocr_path, spec.gt_path):
            if p is not None and not p.is_file():
                raise ConfigError(f"embedding file does not exist: {p}")
    if config.noise is not None:
        noise = config.noise
        _check_file_name("noise out_name", noise.out_name)
        if noise.source_text is not None and not noise.source_text.is_file():
            raise ConfigError(f"noise source text does not exist: {noise.source_text}")
        for level in noise.levels:
            if not 0 <= level <= 0.9:
                raise ConfigError(f"noise level {level} outside [0, 0.9]")
    return config


def apply_overrides(
    config: ExperimentConfig,
    out_dir: str | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """Command-line flags win over config file fields."""
    changes = {}
    if out_dir is not None:
        changes["out_dir"] = Path(out_dir)
    if seed is not None:
        changes["seed"] = seed
    return replace(config, **changes) if changes else config
