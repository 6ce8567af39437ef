"""Declarative experiment configuration loaded from a single JSON file."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import CorpusFormat, Language
from .embeddings import Model, RateProfile, TrainConfig
from .noise import NoiseSpec
from .overlap import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES


MAX_GRID_POINTS = 1000  # ten times the default grid


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
    """A configured model: its training parameters (seed 0, which each run
    replaces), its vocabulary cut-off, and an external model's files."""

    label: str
    train: TrainConfig
    min_count: int = 5
    ocr_path: Path | None = None
    gt_path: Path | None = None


@dataclass(frozen=True)
class NoiseConfig:
    """The `noise` command's levels and clean source. `spec` is the template
    every level's spec is made from (target_cer 0 and seed 0, which each
    level replaces)."""

    levels: tuple[float, ...]
    spec: NoiseSpec = NoiseSpec(target_cer=0.0)
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
    bootstrap_resamples: int = DEFAULT_RESAMPLES
    confidence: float = DEFAULT_CONFIDENCE
    languages: tuple[LanguageSource, ...] = ()
    models: tuple[ModelSpec, ...] = ()
    noise: NoiseConfig | None = None

    def for_language(self, code: str | None) -> tuple[LanguageSource, ...]:
        if not self.languages:
            raise ConfigError("the configuration lists no languages")
        if code is None:
            return self.languages
        wanted = Language.parse(code)
        chosen = tuple(src for src in self.languages if src.language == wanted)
        if not chosen:
            raise ConfigError(f"language {code!r} is not in the configuration")
        return chosen


def _fields(payload, where: str, **converters) -> dict:
    """Each key of `payload`, converted by its converter; a missing key is
    left out, so the dataclass field supplies its default. A key without a
    converter is an error."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in payload:
        if key not in converters:
            raise ConfigError(f"unknown key {key!r} in {where}")
    fields = {}
    for key, convert in converters.items():
        if key in payload:
            try:
                fields[key] = convert(payload[key])
            except (AttributeError, TypeError, ValueError):
                raise ConfigError(f"{where}: invalid {key} {payload[key]!r}") from None
    return fields


def _as_given(value):
    return value


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _rate_profile(value) -> RateProfile | None:
    return RateProfile(value) if value else None


def _learning_rate(value) -> float | None:
    return None if value is None else float(value)


_TRAIN_FIELDS = dict(dim=int, window=int, epochs=int, negative_samples=int, batch_size=int,
                     rate_profile=_rate_profile, learning_rate=_learning_rate)
_SPEC_FIELDS = dict(min_count=int, ocr_path=Path, gt_path=Path)


def _parse_model(payload) -> ModelSpec:
    if not isinstance(payload, dict) or "model" not in payload:
        raise ConfigError("model entry without a 'model' field")
    try:
        model = Model(str(payload["model"]).lower())
    except ValueError:
        raise ConfigError(f"unknown model {payload['model']!r}") from None
    profile = payload.get("rate_profile")
    label = payload.get("name", f"{model.value}-{profile}" if profile else model.value)
    where = f"model {label!r}"
    fields = _fields(payload, where, model=_as_given, name=_as_given, **_TRAIN_FIELDS, **_SPEC_FIELDS)
    train = TrainConfig(model, **{k: v for k, v in fields.items() if k in _TRAIN_FIELDS})
    spec = ModelSpec(label, train, **{k: v for k, v in fields.items() if k in _SPEC_FIELDS})
    has_rate = train.rate_profile is not None or train.learning_rate is not None
    if model in (Model.SGNS, Model.CBOW) and not has_rate:
        raise ConfigError(f"{where} needs a rate_profile or learning_rate")
    if model in (Model.PPMI, Model.GLOVE) and has_rate:
        raise ConfigError(f"{where} takes no rate_profile or learning_rate")
    if model is Model.EXTERNAL and (spec.ocr_path is None or spec.gt_path is None):
        raise ConfigError(f"external {where} needs ocr_path and gt_path")
    try:
        train.validated()
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if spec.min_count < 1:
        raise ConfigError(f"{where}: min_count must be >= 1")
    return spec


def _parse_languages(entries) -> tuple[LanguageSource, ...]:
    sources = []
    for index, entry in enumerate(entries):
        fields = _fields(entry, f"languages[{index}]", language=Language.parse, path=Path, format=CorpusFormat)
        if "path" not in fields or "language" not in fields:
            raise ConfigError("each language entry needs 'language' and 'path'")
        sources.append(LanguageSource(**fields))
    return tuple(sources)


def _parse_n_grid(payload) -> tuple[float, ...]:
    if payload is None:
        return ()
    if isinstance(payload, dict):
        bounds = {"start": 0.01, "stop": 1.0, "step": 0.01,
                  **_fields(payload, "n_grid", start=float, stop=float, step=float)}
        start, stop, step = bounds["start"], bounds["stop"], bounds["step"]
        if step <= 0 or not 0 < start <= stop <= 1:
            raise ConfigError("n_grid must satisfy 0 < start <= stop <= 1 with step > 0")
        steps = (stop - start) / step
        # true exactly when round(steps) + 1 > MAX_GRID_POINTS, and also for
        # an infinite steps (a subnormal step), which round() cannot take
        if steps >= MAX_GRID_POINTS - 0.5:
            raise ConfigError(f"n_grid has {steps + 1:.0f} points; at most {MAX_GRID_POINTS} are allowed")
        return tuple(round(start + i * step, 10) for i in range(int(round(steps)) + 1))
    if len(payload) > MAX_GRID_POINTS:
        raise ConfigError(f"n_grid has {len(payload)} points; at most {MAX_GRID_POINTS} are allowed")
    grid = _floats(payload)
    if not grid or any(not 0 < v <= 1 for v in grid):
        raise ConfigError("n_grid fractions must lie in (0, 1]")
    return grid


def _noise_weights(payload) -> dict[str, float]:
    weights = _fields(payload, "the noise weights", substitution=float, deletion=float, insertion=float)
    return {f"{kind}_weight": weight for kind, weight in weights.items()}


def _parse_noise(payload) -> NoiseConfig | None:
    """The noise section. Its spec template goes through NoiseSpec's own
    checks, and so does each level."""
    if payload is None:
        return None
    fields = _fields(payload, "the noise section", levels=_floats, weights=_noise_weights,
                     alphabet=_as_given, source_text=Path, synthetic_chars=int, doc_chars=int,
                     out_name=_as_given)
    levels = fields.pop("levels", ())
    if not levels:
        raise ConfigError("noise section needs a non-empty 'levels' list")
    template = fields.pop("weights", {})
    if "alphabet" in fields:
        template["alphabet"] = fields.pop("alphabet")
    try:
        spec = NoiseSpec(target_cer=0.0, **template)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"the noise section: {exc}") from None
    for level in levels:
        try:
            replace(spec, target_cer=level)
        except ValueError as exc:
            raise ConfigError(f"noise level {level}: {exc}") from None
    return NoiseConfig(levels=levels, spec=spec, **fields)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a configuration file: every rule on its
    values is checked here, before any command touches a file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    fields = _fields(
        payload, "the config", out_dir=Path, seed=int, runs=int, n_grid=_parse_n_grid,
        bootstrap_resamples=int, confidence=float, languages=_parse_languages,
        models=lambda entries: tuple(_parse_model(m) for m in entries), noise=_parse_noise,
    )
    if "out_dir" not in fields:
        raise ConfigError("config needs an 'out_dir'")
    return validate_config(ExperimentConfig(**fields))


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
        if noise.synthetic_chars < 1 or noise.doc_chars < 1:
            raise ConfigError("noise synthetic_chars and doc_chars must be >= 1")
        if noise.source_text is not None and not noise.source_text.is_file():
            raise ConfigError(f"noise source text does not exist: {noise.source_text}")
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
