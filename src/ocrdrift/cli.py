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
import csv
import dataclasses
import io
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

import numpy as np

from . import util
from .config import (
    ConfigError,
    ExperimentConfig,
    MissingArtifactError,
    ModelSpec,
    apply_overrides,
    load_config,
)
from .cooccur import Weighting, count_cooccurrences
from .corpus import Corpus, CorpusError, Version, compute_stats, load_corpus, save_paired_files
from .embeddings import (
    EmbeddingMatrix,
    Model,
    export_embeddings,
    import_embeddings,
    load_sparse_embeddings,
    read_embedding_words,
    save_sparse_embeddings,
)
from .glove import train_glove
from .noise import (
    corpus_error_rates,
    write_error_report_csv,
    write_error_report_json,
    write_histogram_csv,
)
from .overlap import (
    average_runs,
    default_n_grid,
    evaluate_pair,
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
    for name, help_text in [
        ("stats", "corpus statistics tables"),
        ("error-rates", "character/word error rates and histograms"),
        ("noise", "write synthetic aligned corpora at configured error rates"),
        ("train", "train configured models on both corpus versions"),
        ("evaluate", "compute overlap curves and render plots"),
        ("report", "regenerate plots from existing curve CSVs"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config JSON")
        cmd.add_argument("--lang", default=None, help="restrict to one configured language")
        cmd.add_argument("--out", default=None, help="override the configured output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the base seed")
    return parser


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------

def cmd_stats(config: ExperimentConfig, lang: str | None) -> int:
    sources = config.for_language(lang)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for src in sources:
        corpus = load_corpus(src.path, src.format, src.language)
        stats = compute_stats(corpus, Version.GROUND_TRUTH)
        rows.append((src.language.name, stats))
        if corpus.report is not None:
            corpus.report.to_json(out / f"ingestion_{src.language.name}.json")
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(
        ["language", "total_docs", "aligned_docs", "aligned_pct",
         "split_docs", "avg_chars", "min_chars", "max_chars", "total_chars"]
    )
    for name, s in rows:
        writer.writerow(
            [name, s.total_docs, s.aligned_docs,
             f"{100.0 * s.aligned_docs / s.total_docs:.1f}",
             s.split_docs, f"{s.avg_chars:.2f}", s.min_chars, s.max_chars, s.total_chars]
        )
    util.write_atomically(out / "stats.csv", table.getvalue())
    payload = [{"language": name, **dataclasses.asdict(s)} for name, s in rows]
    util.write_atomically(out / "stats.json", json.dumps(payload, indent=2) + "\n")
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
        corpus = load_corpus(src.path, src.format, src.language)
        report = corpus_error_rates(corpus)
        out = config.out_dir / src.language.name
        out.mkdir(parents=True, exist_ok=True)
        write_error_report_csv(report, out / "error_rates.csv")
        write_error_report_json(report, out / "error_rates.json")
        write_histogram_csv(report.cer_histogram, out / "cer_hist.csv")
        write_histogram_csv(report.wer_histogram, out / "wer_hist.csv")
        print(
            f"{src.language.name}: mean CER {report.language_mean_cer:.3f}, "
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
    base.mkdir(parents=True, exist_ok=True)
    manifest = []
    for index, level in enumerate(config.noise.levels):
        spec = dataclasses.replace(config.noise.spec, target_cer=level, seed=config.seed + index)
        corpus = noisy_corpus(documents, spec)
        level_dir = base / f"cer{int(round(level * 100)):03d}"
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
    util.write_atomically(base / "manifest.json", json.dumps(manifest, indent=2) + "\n")
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
    if emb.is_dense:
        emb_path = job.out / "embeddings" / f"{job.stem}.txt"
        export_embeddings(emb, emb_path)
    else:
        emb_path = job.out / "embeddings" / f"{job.stem}.npz"
        save_sparse_embeddings(emb, emb_path)
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
    Co-occurrence counting (PPMI, GloVe) over P entries in S (document,
    distance) slices holds at most 50·P + 8·V + 512·S bytes. An SGNS or CBOW batch of b examples, k negatives
    and s input slots adds at most 64·b·(k + 1 + s) + 8·b·dim +
    util.GATHER_BYTES + 8·u·dim bytes, u = min(b·max(k + 1, s), V). A
    GloVe batch of n cells adds at most 128·n + 8·V +
    2·util.GATHER_BYTES + 32·u·dim bytes, u = min(n, V).
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
                manifest = {"language": job.language, "entries": entries}
                util.write_atomically(job.out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
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
        corpus = load_corpus(src.path, src.format, src.language)
        out = config.out_dir / src.language.name
        (out / "embeddings").mkdir(parents=True, exist_ok=True)

        tokenized_cache: dict[tuple[Version, int], TokenizedCorpus] = {}
        for spec in trainable:
            # PPMI has no stochastic state: one run covers it
            runs = 1 if spec.train.model is Model.PPMI else config.runs
            for version in _VERSIONS:
                key = (version, spec.min_count)
                if key not in tokenized_cache:
                    tokenized_cache[key] = preprocess_corpus(corpus, version, spec.min_count)
                for run in range(runs):
                    jobs.append(_TrainJob(src.language.name, spec, version, run,
                                          config.seed + run, tokenized_cache[key], out))
    # embedding files are overwritten one by one: an old manifest left in
    # place by a failed run would list a mix of old and new files
    for src in sources:
        (config.out_dir / src.language.name / "manifest.json").unlink(missing_ok=True)
    # one pool for every language: no language waits for another's slowest job
    _train_in_workers(jobs)
    return 0


# ----------------------------------------------------------------------
# evaluate / report
# ----------------------------------------------------------------------

def _load_embedding(path: Path) -> EmbeddingMatrix:
    if path.suffix == ".npz":
        return load_sparse_embeddings(path)
    return import_embeddings(path)


def _embedding_paths(config: ExperimentConfig, out: Path) -> dict[tuple[str, str, int], Path]:
    """Every embedding file of one language's evaluation, keyed by (label,
    version, run). Each file must exist and each OCR or ground-truth
    entry must have its partner of the same label and run; no embedding
    is read before all of them are checked."""
    paths: dict[tuple[str, str, int], Path] = {}
    # a manifest is only required when this config trains models;
    # purely external comparisons evaluate imported vectors directly
    if any(spec.train.model is not Model.EXTERNAL for spec in config.models):
        manifest_path = out / "manifest.json"
        if not manifest_path.is_file():
            raise MissingArtifactError(
                f"no embedding manifest at {manifest_path}; run the train command first"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in manifest["entries"]:
            emb_path = out / entry["embedding_path"]
            if not emb_path.is_file():
                raise MissingArtifactError(f"embedding file missing: {emb_path}")
            paths[(entry["model"], entry["version"], entry["run"])] = emb_path
    for spec in config.models:
        if spec.train.model is Model.EXTERNAL:
            paths[(spec.label, Version.OCR.value, 0)] = spec.ocr_path
            paths[(spec.label, Version.GROUND_TRUTH.value, 0)] = spec.gt_path
    if not paths:
        raise MissingArtifactError("manifest lists no embeddings")
    ocr, gt = Version.OCR.value, Version.GROUND_TRUTH.value
    for label, version, run in sorted(paths):
        if version == ocr and (label, gt, run) not in paths:
            raise MissingArtifactError(f"missing ground-truth embedding for {label} run {run}")
        if version == gt and (label, ocr, run) not in paths:
            raise MissingArtifactError(f"missing OCR embedding for {label} run {run}")
    return paths


def cmd_evaluate(config: ExperimentConfig, lang: str | None) -> int:
    """Overlap curves of every configured model, per language.

    Reading order: first the word list of every embedding file, one file
    at a time, to form the shared vocabulary; then, per label and run,
    the OCR and ground-truth embeddings of that one pair, which are freed
    once its curve is computed. Peak memory is the larger of two phases,
    whatever the number of models:
    - evaluating a pair: the two largest embeddings as loaded, plus
      `evaluate_pair`'s stated budget, plus the curves of the runs done
      so far, each its count table (4 bytes per grid point and shared
      word) and under 256 bytes more per grid point;
    - pooling a label's runs (`average_runs`): every run's count table,
      their pooled copy, and the resampling of the pooled table, whose
      draw chunks are capped at `overlap.BOOTSTRAP_CHUNK` values.

    Missing files and unpaired entries are found before anything is
    ranked. A bad value that only a full load finds still exits 2
    naming the file, but only when its pair is reached: the curves of
    labels finished before it stay written, each atomically.
    """
    sources = config.for_language(lang)
    n_grid = config.n_grid or default_n_grid()
    for src in sources:
        out = config.out_dir / src.language.name
        paths = _embedding_paths(config, out)
        first, *rest = paths.values()
        intersection = read_embedding_words(first)
        for path in rest:
            intersection = intersect_words([intersection, read_embedding_words(path)])

        curves_dir = out / "curves"
        curves_dir.mkdir(parents=True, exist_ok=True)
        series = []
        labels = sorted({label for label, _, _ in paths})
        for label in labels:
            runs = sorted(
                run for lbl, version, run in paths
                if lbl == label and version == Version.OCR.value
            )
            per_run = []
            for run in runs:
                # the pair lives only as this call's arguments: it is freed
                # before the next pair is loaded
                per_run.append(
                    evaluate_pair(
                        _load_embedding(paths[(label, Version.OCR.value, run)]),
                        _load_embedding(paths[(label, Version.GROUND_TRUTH.value, run)]),
                        intersection,
                        n_grid,
                        confidence=config.confidence,
                        resamples=config.bootstrap_resamples,
                        seed=config.seed,
                    )
                )
            curve = average_runs(per_run)
            write_curve_csv(curve, curves_dir / f"{label}.csv")
            write_curve_json(
                curve,
                curves_dir / f"{label}.json",
                metadata={
                    "language": src.language.name,
                    "model": label,
                    "runs": len(per_run),
                    "seed": config.seed,
                    "intersection_size": curve.intersection_size,
                },
            )
            series.append(
                CurveSeries(
                    label=label,
                    n=np.array(curve.n_values),
                    mean=curve.means,
                    ci_low=curve.ci_low,
                    ci_high=curve.ci_high,
                )
            )
            print(
                f"{src.language.name}/{label}: overlap {curve.means[0]:.3f} at N={curve.n_values[0]:g} "
                f"({curve.runs_averaged} runs, |V|={curve.intersection_size})"
            )
            # the next label's pairs are evaluated without this label's tables
            del per_run, curve
        render_overlap_svg(series, out / "overlap.svg", title=f"Neighbor overlap ({src.language.name})")
    return 0


def cmd_report(config: ExperimentConfig, lang: str | None) -> int:
    sources = config.for_language(lang)
    for src in sources:
        out = config.out_dir / src.language.name
        curves_dir = out / "curves"
        csv_paths = sorted(curves_dir.glob("*.csv")) if curves_dir.is_dir() else []
        if not csv_paths:
            raise MissingArtifactError(
                f"no curve CSVs under {curves_dir}; run the evaluate command first"
            )
        series = []
        for path in csv_paths:
            n, _, mean, lo, hi = read_curve_csv(path)
            series.append(CurveSeries(label=path.stem, n=n, mean=mean, ci_low=lo, ci_high=hi))
        render_overlap_svg(series, out / "overlap.svg", title=f"Neighbor overlap ({src.language.name})")
        print(f"{src.language.name}: rendered {out / 'overlap.svg'}")
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
