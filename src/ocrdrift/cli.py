"""Command-line entry point: config-driven experiment orchestration.

Subcommands:
    stats        corpus statistics tables (CSV/JSON)
    error-rates  per-document CER/WER, summaries, and histogram CSVs
    noise        write synthetic aligned corpora at requested error rates
    train        train every configured model on both corpus versions
    evaluate     overlap curves per model, run-averaged, with SVG plots
    report       regenerate SVG plots from existing curve CSVs

Exit codes: 0 success, 1 internal error, 2 input/config error, 3 missing
dependency artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import multiprocessing
import os
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import NamedTuple

from . import util
from .config import (
    ConfigError,
    ExperimentConfig,
    MissingArtifactError,
    ModelSpec,
    apply_overrides,
    level_directory,
    load_config,
)
from .cooccur import Weighting, count_cooccurrences
from .corpus import Corpus, CorpusError, Version, compute_stats, load_corpus, save_paired_files
from .embeddings import EmbeddingMatrix, Model, load_embeddings, read_embedding_words, save_embeddings
from .glove import train_glove
from .noise import corpus_error_rates, histogram
from .overlap import (
    evaluate_pair,
    overlap_curve,
    read_curve_csv,
    write_curve_csv,
    write_curve_json,
)
from .ppmi import train_ppmi
from .preprocess import TokenizedCorpus, intersect_words, preprocess_corpus
from .svg import CurveSeries, render_overlap_svg
from .synthetic import noisy_corpus, synthetic_documents
from .word2vec import train_cbow, train_sgns

log = logging.getLogger(__name__)

_VERSIONS = (Version.OCR, Version.GROUND_TRUTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocrdrift",
        description="Measure how OCR noise shifts word embedding spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes --lang and --seed only when it reads them
    for name, help_text, takes_lang, takes_seed in [
        ("stats", "corpus statistics tables", True, False),
        ("error-rates", "character/word error rates and histograms", True, False),
        ("noise", "write synthetic aligned corpora at configured error rates", False, True),
        ("train", "train configured models on both corpus versions", True, True),
        ("evaluate", "compute overlap curves and render plots", True, True),
        ("report", "regenerate plots from existing curve CSVs", True, False),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(lang=None, seed=None)
        cmd.add_argument("--config", required=True, help="experiment config JSON")
        if takes_lang:
            cmd.add_argument("--lang", help="restrict to one configured language")
        cmd.add_argument("--out", default=None, help="override the configured output directory")
        if takes_seed:
            cmd.add_argument("--seed", type=int, help="override the base seed")
    return parser


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------

def cmd_stats(config: ExperimentConfig, lang: str | None) -> int:
    sources = config.for_language(lang)
    out = config.out_dir
    rows = []
    for src in sources:
        corpus = load_corpus(src.path, src.format)
        stats = compute_stats(corpus, Version.GROUND_TRUTH)
        rows.append((src.language, stats))
        report = corpus.report
        util.write_json(out / f"ingestion_{src.language}.json", {
            "root": report.root,
            "format": report.format,
            "loaded": report.loaded,
            "skipped": [{"file": f, "reason": r} for f, r in report.skipped],
        })
    util.write_csv(
        out / "stats.csv",
        ["language", "total_docs", "aligned_docs", "aligned_pct",
         "split_docs", "avg_chars", "min_chars", "max_chars", "total_chars"],
        ([name, s.total_docs, s.aligned_docs,
          f"{100.0 * s.aligned_docs / s.total_docs:.1f}",
          s.split_docs, f"{s.avg_chars:.2f}", s.min_chars, s.max_chars, s.total_chars]
         for name, s in rows),
    )
    util.write_json(out / "stats.json", [{"language": name, **dataclasses.asdict(s)} for name, s in rows])
    for name, s in rows:
        print(
            f"{name}: {s.total_docs} docs, {s.aligned_docs} aligned, "
            f"{s.split_docs} split, avg {s.avg_chars:.0f} chars, total {s.total_chars}"
        )
    return 0


# ----------------------------------------------------------------------
# error-rates
# ----------------------------------------------------------------------

def cmd_error_rates(config: ExperimentConfig, lang: str | None) -> int:
    sources = config.for_language(lang)
    for src in sources:
        corpus = load_corpus(src.path, src.format)
        report = corpus_error_rates(corpus)
        out = config.out_dir / src.language
        util.write_csv(out / "error_rates.csv", ["doc_id", "cer", "wer"],
                       ([doc_id, f"{cer:.6f}", f"{wer:.6f}"] for doc_id, cer, wer in report.per_document))
        util.write_json(out / "error_rates.json", {
            "documents": len(report.per_document),
            "excluded": report.excluded_docs,
            "mean_cer": report.language_mean_cer,
            "mean_wer": report.language_mean_wer,
            "skipped": [{"doc": d, "reason": r} for d, r in report.skipped],
        })
        for name, column in (("cer", 1), ("wer", 2)):
            counts, edges = histogram([row[column] for row in report.per_document])
            util.write_csv(out / f"{name}_hist.csv", ["bin_low", "bin_high", "count"],
                           ([f"{low:.6f}", f"{high:.6f}", int(count)]
                            for low, high, count in zip(edges[:-1], edges[1:], counts)))
        print(
            f"{src.language}: mean CER {report.language_mean_cer:.3f}, "
            f"mean WER {report.language_mean_wer:.3f} "
            f"({len(report.per_document)} docs, {report.excluded_docs} excluded)"
        )
    return 0


# ----------------------------------------------------------------------
# noise
# ----------------------------------------------------------------------

def _clean_documents(config: ExperimentConfig) -> list[str]:
    noise = config.noise
    if noise.source_text is not None:
        text = noise.source_text.read_text(encoding="utf-8")
        return [
            text[i:i + noise.doc_chars]
            for i in range(0, len(text), noise.doc_chars)
        ]
    return synthetic_documents(noise.synthetic_chars, seed=config.seed, doc_chars=noise.doc_chars)


def _remove_stale_pairs(level_dir: Path, corpus: Corpus) -> None:
    """Delete the `<id>.ocr.txt`/`<id>.gt.txt` files of ids that `corpus`
    lacks, which an earlier run left, so that `level_dir` loads as the
    corpus the manifest describes."""
    kept = {doc.id + suffix for doc in corpus.documents for suffix in (".ocr.txt", ".gt.txt")}
    for pattern in ("*.ocr.txt", "*.gt.txt"):
        for path in level_dir.rglob(pattern):
            if path.relative_to(level_dir).as_posix() not in kept:
                path.unlink()


def cmd_noise(config: ExperimentConfig, lang: str | None) -> int:
    if config.noise is None:
        raise ConfigError("the noise command needs a 'noise' section in the config")
    documents = _clean_documents(config)
    base = config.out_dir / "noise" / config.noise.out_name
    manifest = []
    for index, level in enumerate(config.noise.levels):
        spec = dataclasses.replace(config.noise.spec, target_cer=level, seed=config.seed + index)
        corpus = noisy_corpus(documents, spec)
        level_dir = base / level_directory(level)
        save_paired_files(corpus, level_dir)
        _remove_stale_pairs(level_dir, corpus)
        report = corpus_error_rates(corpus)
        manifest.append(
            {
                "target_cer": level,
                "seed": spec.seed,
                "directory": str(level_dir),
                "documents": len(corpus),
                "measured_cer": report.language_mean_cer,
                "measured_wer": report.language_mean_wer,
            }
        )
        print(f"cer {level:.2f}: wrote {len(corpus)} docs, measured {report.language_mean_cer:.4f}")
    util.write_json(base / "manifest.json", manifest)
    return 0


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

def _train_one(spec: ModelSpec, tokenized: TokenizedCorpus, seed: int) -> EmbeddingMatrix:
    train_config = dataclasses.replace(spec.train, seed=seed)
    model = train_config.model
    if model is Model.SGNS:
        return train_sgns(tokenized, train_config)
    if model is Model.CBOW:
        return train_cbow(tokenized, train_config)
    if model is Model.GLOVE:
        matrix = count_cooccurrences(tokenized, train_config.window, Weighting.HARMONIC)
        return train_glove(matrix, train_config)
    if model is Model.PPMI:
        matrix = count_cooccurrences(tokenized, train_config.window, Weighting.FLAT)
        return train_ppmi(matrix)
    raise ConfigError(f"model {spec.label!r} cannot be trained locally")


class _TrainJob(NamedTuple):
    """One (model, version, run) to train; `out` is its language's output directory."""

    language: str
    spec: ModelSpec
    version: Version
    run: int
    seed: int
    tokenized: TokenizedCorpus
    out: Path

    @property
    def stem(self) -> str:
        return f"{self.spec.label}_{self.version.value}_run{self.run}"


def _train_and_save(job: _TrainJob) -> dict:
    """Train one job and write its embedding file; returns its manifest entry."""
    started = time.perf_counter()
    emb = _train_one(job.spec, job.tokenized, job.seed)
    wall = time.perf_counter() - started
    emb_path = save_embeddings(emb, job.out / "embeddings" / job.stem)
    return {
        "model": job.spec.label,
        "version": job.version.value,
        "run": job.run,
        "seed": job.seed,
        "embedding_path": str(emb_path.relative_to(job.out)),
        "train_wall_seconds": round(wall, 3),
    }


# The job list of the pool a training worker belongs to. Only the workers
# set it (pool initializer); a forked worker inherits the list, corpora
# included, so a task is sent as its index alone.
_worker_jobs: list[_TrainJob] = []


def _init_worker(jobs: list[_TrainJob], parent: int) -> None:
    global _worker_jobs
    _worker_jobs = jobs
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this worker once `parent` is gone. A parent killed outright
    cannot shut its pool down, and its workers would wait on their task
    queue for ever."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _run_job(index: int) -> dict:
    return _train_and_save(_worker_jobs[index])


def _train_in_workers(jobs: list[_TrainJob]) -> None:
    """Run every job in one pool of worker processes, one per usable CPU,
    and write each language's manifest once all of its jobs are in.

    Each job is a pure function of its corpus and seed, so the files are
    the same whatever the worker count. Workers print nothing; progress
    lines and manifests come from here, in job order. A job's exception
    cancels the jobs not yet started and is raised here; a worker killed
    by a signal raises BrokenProcessPool.

    Each worker holds one job at a time: its corpus and matrices plus a
    working set that README bounds per job, with V the vocabulary size.
    Co-occurrence counting (PPMI, GloVe) over P entries into N cells in
    S (document, distance) slices holds at most 28·P + 12·N + 8·V + 512·S
    bytes. An SGNS or CBOW batch of b examples, k negatives and s input
    slots adds at most 36·b·(k + 1 + s) + 8·b·dim +
    util.GATHER_BYTES·(k + 3)/(k + 1) + 8·u·dim bytes,
    u = min(b·max(k + 1, s), V), with int32 ids throughout. A GloVe
    batch of n cells adds at most 128·n + 8·V + 2·util.GATHER_BYTES +
    16·u·dim bytes, u = min(n, V), its two GATHER_BYTES work arrays
    included; they are taken once per job, not per batch. Besides its
    batches, a GloVe job holds 36 bytes per nonzero cell: the COO counts,
    float64 log counts and weights, and the int32 epoch order.
    """
    # fork: workers inherit the imported modules and the corpora instead
    # of importing and unpickling them. It is safe here because a fork-based
    # pool starts every worker before its own manager thread, and OpenBLAS
    # stops its threads before a fork and starts them again when next used.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    pool = ProcessPoolExecutor(
        min(len(jobs), util.usable_cpus()),
        mp_context=context,
        initializer=_init_worker,
        initargs=(jobs, os.getpid()),
    )
    try:
        futures = [pool.submit(_run_job, index) for index in range(len(jobs))]
        entries = []
        for index, (job, future) in enumerate(zip(jobs, futures)):
            entries.append(future.result())
            print(f"{job.language}/{job.stem}: trained in {entries[-1]['train_wall_seconds']:.1f}s")
            if index + 1 == len(jobs) or jobs[index + 1].language != job.language:
                util.write_json(job.out / "manifest.json", {"language": job.language, "entries": entries})
                entries = []
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_train(config: ExperimentConfig, lang: str | None) -> int:
    sources = config.for_language(lang)
    trainable = [m for m in config.models if m.train.model is not Model.EXTERNAL]
    if not trainable:
        raise ConfigError("no trainable models configured")
    import scipy.sparse  # noqa: F401  (forked workers share it; before the corpora it trains faster)
    jobs = []
    for src in sources:
        corpus = load_corpus(src.path, src.format)
        out = config.out_dir / src.language
        (out / "embeddings").mkdir(parents=True, exist_ok=True)

        tokenized_cache: dict[tuple[Version, int], TokenizedCorpus] = {}
        for spec in trainable:
            for version in _VERSIONS:
                key = (version, spec.min_count)
                if key not in tokenized_cache:
                    tokenized_cache[key] = preprocess_corpus(corpus, version, spec.min_count)
                for run in range(config.runs_of(spec)):
                    jobs.append(_TrainJob(src.language, spec, version, run,
                                          config.seed + run, tokenized_cache[key], out))
    # embedding files are overwritten one by one: an old manifest left in
    # place by a failed run would list a mix of old and new files
    for src in sources:
        (config.out_dir / src.language / "manifest.json").unlink(missing_ok=True)
    # one pool for every language: no language waits for another's slowest job
    _train_in_workers(jobs)
    return 0


# ----------------------------------------------------------------------
# evaluate / report
# ----------------------------------------------------------------------

_MANIFEST_KEYS = {"model": str, "version": str, "run": int, "embedding_path": str}


def _manifest_paths(manifest_path: Path, out: Path) -> dict[tuple, Path]:
    """The embedding file of each (label, version, run) that a manifest
    lists. A manifest that is not UTF-8 JSON, or not an object with an
    `entries` list, or an entry without one of _MANIFEST_KEYS of its type
    or whose `embedding_path` is absolute or has a `..` part, and so may
    name a file outside `out`, is a MissingArtifactError."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise MissingArtifactError(f"{manifest_path}: not a JSON manifest: {exc}") from None
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise MissingArtifactError(f"{manifest_path}: not an object with an 'entries' list")
    trained = {}
    for index, entry in enumerate(entries):
        for key, kind in _MANIFEST_KEYS.items():
            if not isinstance(entry, dict) or key not in entry:
                raise MissingArtifactError(f"{manifest_path}: entry {index} has no {key!r}")
            # exactly: a JSON true is a Python int too
            if type(entry[key]) is not kind:
                raise MissingArtifactError(f"{manifest_path}: entry {index}'s {key} is not a {kind.__name__}")
        relative = Path(entry["embedding_path"])
        if relative.is_absolute() or ".." in relative.parts:
            raise MissingArtifactError(
                f"{manifest_path}: entry {index}'s embedding_path {entry['embedding_path']!r} is not inside {out}")
        trained[(entry["model"], entry["version"], entry["run"])] = out / relative
    return trained


def _evaluation_plan(config: ExperimentConfig, out: Path) -> list[tuple[str, list[tuple[Path, Path]]]]:
    """Each configured label, in sorted order, with the (OCR, ground-truth)
    embedding files of each of its runs. Trained files are looked up in
    `out`'s manifest by (label, version, run); an external model's are its
    configured files. Every file is checked to exist before any is read."""
    if not config.models:
        raise ConfigError("no models configured")
    # a manifest is only required when this config trains models;
    # purely external comparisons evaluate imported vectors directly
    trained = {}
    if any(spec.train.model is not Model.EXTERNAL for spec in config.models):
        manifest_path = out / "manifest.json"
        if not manifest_path.is_file():
            raise MissingArtifactError(
                f"no embedding manifest at {manifest_path}; run the train command first"
            )
        trained = _manifest_paths(manifest_path, out)

    def trained_path(label: str, version: Version, run: int) -> Path:
        if (label, version.value, run) not in trained:
            name = "OCR" if version is Version.OCR else "ground-truth"
            raise MissingArtifactError(f"missing {name} embedding for {label} run {run}")
        return trained[(label, version.value, run)]

    plan = []
    for spec in sorted(config.models, key=lambda spec: spec.label):
        if spec.train.model is Model.EXTERNAL:
            pairs = [(spec.ocr_path, spec.gt_path)]
        else:
            pairs = [tuple(trained_path(spec.label, version, run) for version in _VERSIONS)
                     for run in range(config.runs_of(spec))]
        for path in (path for pair in pairs for path in pair):
            if not path.is_file():
                raise MissingArtifactError(f"embedding file missing: {path}")
        plan.append((spec.label, pairs))
    return plan


def cmd_evaluate(config: ExperimentConfig, lang: str | None) -> int:
    """Overlap curves of every configured model, per language.

    The pairs are `_evaluation_plan`'s: the configured labels' runs,
    whatever else the manifest lists. Reading order: first the word list
    of every planned file, one file at a time, to form the shared
    vocabulary; then, per label and run, the OCR and ground-truth
    embeddings of that one pair, freed once `evaluate_pair` has ranked it
    into a count table; then one `overlap_curve` per label. Peak memory
    is the larger of two phases, whatever the number of models:
    - ranking a pair: the two largest embeddings as loaded, plus
      `evaluate_pair`'s stated budget, plus the count tables of the runs
      done so far (4 bytes per grid point and shared word each);
    - making a label's curve: every run's table plus `overlap_curve`'s
      stated budget, whose draw chunks are capped at BOOTSTRAP_CHUNK.
    Last, `_render_figure` draws the figure from the curve CSVs, as
    `report` does.

    A missing manifest entry or file is found before anything is
    ranked. A bad value that only a full load finds still exits 2
    naming the file, but only when its pair is reached: the curves of
    labels finished before it stay written, each atomically.
    """
    sources = config.for_language(lang)
    for src in sources:
        out = config.out_dir / src.language
        plan = _evaluation_plan(config, out)
        first, *rest = (path for _, pairs in plan for pair in pairs for path in pair)
        intersection = read_embedding_words(first)
        for path in rest:
            intersection = intersect_words([intersection, read_embedding_words(path)])

        curves_dir = out / "curves"
        for label, pairs in plan:
            # each pair lives only as its call's arguments: it is freed
            # before the next pair is loaded
            tables = [
                evaluate_pair(load_embeddings(ocr), load_embeddings(gt), intersection, config.n_grid)
                for ocr, gt in pairs
            ]
            curve = overlap_curve(tables, config.n_grid, config.confidence, config.bootstrap_resamples, config.seed)
            write_curve_csv(curve, curves_dir / f"{label}.csv")
            write_curve_json(
                curve,
                curves_dir / f"{label}.json",
                metadata={
                    "language": src.language,
                    "model": label,
                    "runs": len(tables),
                    "seed": config.seed,
                    "intersection_size": curve.intersection_size,
                },
            )
            print(
                f"{src.language}/{label}: overlap {curve.means[0]:.3f} at N={curve.n_values[0]:g} "
                f"({curve.runs_averaged} runs, |V|={curve.intersection_size})"
            )
            # the next label's pairs are evaluated without this label's tables
            del tables, curve
        _render_figure(config, src.language)
    return 0


def _render_figure(config: ExperimentConfig, language: str) -> Path:
    """Draw `<language>/overlap.svg` from the curve CSVs of the configured
    labels, in evaluate's sorted order, and return its path; a CSV of a
    label no longer configured is not plotted."""
    out = config.out_dir / language
    series = []
    for label in sorted(spec.label for spec in config.models):
        path = out / "curves" / f"{label}.csv"
        if not path.is_file():
            raise MissingArtifactError(
                f"no curve CSV for {label!r} at {path}; run the evaluate command first"
            )
        n, _, mean, lo, hi = read_curve_csv(path)
        series.append(CurveSeries(label=label, n=n, mean=mean, ci_low=lo, ci_high=hi))
    render_overlap_svg(series, out / "overlap.svg", title=f"Neighbor overlap ({language})")
    return out / "overlap.svg"


def cmd_report(config: ExperimentConfig, lang: str | None) -> int:
    for src in config.for_language(lang):
        print(f"{src.language}: rendered {_render_figure(config, src.language)}")
    return 0


# ----------------------------------------------------------------------

_COMMANDS = {
    "stats": cmd_stats,
    "error-rates": cmd_error_rates,
    "noise": cmd_noise,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        config = apply_overrides(config, args.out, args.seed)
        return _COMMANDS[args.command](config, args.lang)
    except (ConfigError, CorpusError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"error: a training worker died: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
