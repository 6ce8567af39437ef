"""The benchmark's workloads: seeded inputs, the CLI commands run on them,
and the checks on what the commands wrote.

Why these two (sizes and measured layer shares are in NOTES.md):

- desk-train: the ROADMAP Baseline corpus's vocabulary and topic shape
  at a quarter of its length. The training layers (word2vec, util,
  glove) do most of the work; overlap ranks only a ~560-word intersection.
- wide-eval: a larger vocabulary, so the intersection is three times
  desk-train's and evaluation (ranking, bootstrap, run pooling, text
  embedding import) does most of the work; word2vec does none.

Documents are long (3600-6000 characters) so that each setup creates
few files: file creation time on the development machine swung tenfold
in stretches of seconds, and with thousands of files that swing set the
timings.

`setup` writes a workload's inputs (corpus files and config JSON) under
`inputs`; the commands write under `out`. It calls ocrdrift through
module attributes so the traced run can wrap them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from checks import Check, curve_checks, error_rate_check, oracle_check

LANGUAGE = "other"
CONFIG = "experiment.json"
GRID_POINTS = 100  # the default fraction grid, 0.01 .. 1.00
ORACLE_FRACTIONS = (0.01, 0.05, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    main_command: str
    commands: tuple[str, ...]  # each run with --config CONFIG
    sizes: dict
    smoke_sizes: dict
    oracle_model: str | None = None  # a single-run model the oracle recomputes


def setup(inputs: Path, out: Path, seed: int, sizes: dict) -> None:
    """Write the aligned corpus and the experiment config under `inputs`."""
    from ocrdrift import corpus, noise, synthetic

    documents = synthetic.synthetic_documents(seed=seed, **sizes["documents"])
    aligned = synthetic.noisy_corpus(documents, noise.NoiseSpec(target_cer=sizes["cer"], seed=seed))
    corpus.save_paired_files(aligned, inputs / "corpus")
    config = {
        "out_dir": str(out),
        "seed": seed,
        "runs": sizes["runs"],
        "bootstrap_resamples": sizes["resamples"],
        "languages": [{"language": LANGUAGE, "path": str(inputs / "corpus"), "format": "paired"}],
        "models": sizes["models"],
    }
    (inputs / CONFIG).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def check_outputs(workload: Workload, out: Path, sizes: dict) -> tuple[list[Check], list[Path]]:
    """Checks on one repetition's outputs, and the files whose hashes must repeat."""
    curves = [out / LANGUAGE / "curves" / f"{model['name']}.csv" for model in sizes["models"]]
    checks = [check for path in curves for check in curve_checks(path, GRID_POINTS)]
    if "error-rates" in workload.commands:
        checks.append(error_rate_check(out / LANGUAGE / "error_rates.json", sizes["cer"]))
    return checks, curves


def oracle(workload: Workload, out: Path) -> Check | None:
    if workload.oracle_model is None:
        return None
    return oracle_check(out / LANGUAGE, workload.oracle_model, ORACLE_FRACTIONS)


def _models(dim: int, epochs: int, min_count: int, names: tuple[str, ...]) -> list[dict]:
    specs = {
        "ppmi": {"name": "ppmi", "model": "ppmi"},
        "sgns": {"name": "sgns", "model": "sgns", "rate_profile": "fast"},
        "cbow": {"name": "cbow", "model": "cbow", "rate_profile": "fast"},
        "glove": {"name": "glove", "model": "glove"},
    }
    shape = {"dim": dim, "epochs": epochs, "window": 5, "min_count": min_count, "batch_size": 16384}
    return [{**specs[name], **shape} for name in names]


_DESK_DOCUMENTS = dict(n_types=600, n_topics=30, doc_chars=3600, topic_affinity=0.75, min_len=2, max_len=4)
_WIDE_DOCUMENTS = dict(n_types=8000, n_topics=40, doc_chars=6000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train",
            main_command="train",
            commands=("error-rates", "train", "evaluate"),
            oracle_model="sgns",
            sizes=dict(documents=dict(total_chars=260_000, **_DESK_DOCUMENTS), cer=0.1, runs=1,
                       resamples=300, models=_models(48, 2, 5, ("ppmi", "sgns", "cbow", "glove"))),
            smoke_sizes=dict(documents=dict(total_chars=40_000, **_DESK_DOCUMENTS), cer=0.1, runs=1,
                             resamples=20, models=_models(8, 1, 5, ("ppmi", "sgns", "cbow", "glove"))),
        ),
        Workload(
            name="wide-eval",
            main_command="evaluate",
            commands=("train", "evaluate"),
            sizes=dict(documents=dict(total_chars=400_000, **_WIDE_DOCUMENTS), cer=0.05, runs=2,
                       resamples=200, models=_models(100, 1, 3, ("ppmi", "glove"))),
            smoke_sizes=dict(documents=dict(total_chars=40_000, **_WIDE_DOCUMENTS), cer=0.05, runs=2,
                             resamples=20, models=_models(8, 1, 3, ("ppmi", "glove"))),
        ),
    )
}
