"""Layer spans for the traced benchmark run.

A span is recorded by wrapping one of ocrdrift's public functions where
its callers look it up (the `from .x import f` binding in the calling
module), so no file of the package changes. Spans stay in memory as
`[name, start, end, parent, run_id, counts, counter_s]` lists and are
written out once, when the traced process ends.

A wrapped name that the package no longer has is reported as absent and
skipped, so the trace keeps working while the code under it changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _file_bytes(key):
    return lambda a, r: {"bytes": os.path.getsize(a[key])}


def _rows(key):
    return lambda a, r: {"rows": len(a[key])}


def _loaded(a, corpus):
    size = sum(len(d.ocr_aligned.encode()) + len(d.gt_aligned.encode()) for d in corpus.documents)
    return {"docs": len(corpus.documents), "bytes": size}


def _saved(a, r):
    return {"files": 2 * len(a["corpus"].documents)}


def _corrupted(a, pair):
    ocr, gt = (np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32) for s in pair)
    return {"chars": int(np.count_nonzero(ocr != gt))}


# (span name, module, attribute, counter over (bound arguments, result)).
# The same span name may wrap several lookups of one function; only one of
# them runs in any given call path, so nothing is counted twice.
WRAPS = [
    ("corpus.load", "ocrdrift.cli", "load_corpus", _loaded),
    ("corpus.save", "ocrdrift.corpus", "save_paired_files", _saved),
    ("preprocess", "ocrdrift.cli", "preprocess_corpus",
     lambda a, r: {"tokens": sum(len(d) for d in r.documents), "vocab": len(r.vocabulary)}),
    ("cooccur", "ocrdrift.cli", "count_cooccurrences", lambda a, r: {"nnz": int(r.counts.nnz)}),
    ("ppmi", "ocrdrift.cli", "train_ppmi", None),
    ("word2vec.sgns", "ocrdrift.cli", "train_sgns", None),
    ("word2vec.sgns_step", "ocrdrift.word2vec", "sgns_batch_step", _rows("centers")),
    ("word2vec.cbow", "ocrdrift.cli", "train_cbow", None),
    ("word2vec.cbow_step", "ocrdrift.word2vec", "cbow_batch_step", _rows("centers")),
    ("util.segment", "ocrdrift.word2vec", "scatter_add", _rows("rows")),
    ("util.segment", "ocrdrift.word2vec", "segment_weighted_sums", _rows("rows")),
    ("util.segment", "ocrdrift.glove", "segment_sums", _rows("rows")),
    ("glove", "ocrdrift.cli", "train_glove",
     lambda a, r: {"cells": int(a["matrix"].counts.nnz) * a["config"].epochs}),
    ("embeddings.export", "ocrdrift.cli", "export_embeddings", _file_bytes("path")),
    ("embeddings.import", "ocrdrift.cli", "import_embeddings", _file_bytes("path")),
    ("embeddings.save_sparse", "ocrdrift.cli", "save_sparse_embeddings", _file_bytes("path")),
    ("embeddings.load_sparse", "ocrdrift.cli", "load_sparse_embeddings", _file_bytes("path")),
    ("overlap.evaluate_pair", "ocrdrift.cli", "evaluate_pair",
     lambda a, r: {"intersection": len(a["intersection"])}),
    ("overlap.bootstrap", "ocrdrift.overlap", "bootstrap_ci",
     lambda a, r: {"draws": a["resamples"] * len(a["per_word_overlaps"])}),
    ("overlap.average_runs", "ocrdrift.cli", "average_runs", None),
    ("overlap.write", "ocrdrift.cli", "write_curve_csv", None),
    ("overlap.write", "ocrdrift.cli", "write_curve_json", None),
    ("svg.render", "ocrdrift.cli", "render_overlap_svg", None),
    ("noise.error_rates", "ocrdrift.cli", "corpus_error_rates", None),
    ("noise.wer", "ocrdrift.noise", "word_error_rate", None),
    ("noise.cer", "ocrdrift.noise", "character_error_rate", None),
    ("noise.inject", "ocrdrift.synthetic", "inject_noise", _corrupted),
    ("synthetic.documents", "ocrdrift.synthetic", "synthetic_documents", None),
    ("synthetic.noisy_corpus", "ocrdrift.synthetic", "noisy_corpus", None),
]

# the CLI commands the workloads run
COMMANDS = ("error-rates", "train", "evaluate")


def command_span(command: str) -> str:
    return "cli." + command.replace("-", "_")


class Tracer:
    """Installs the span wrappers, keeps the spans, and restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, module_name, attr, counter in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = counter(bound.arguments, result)
                except Exception:
                    # a renamed parameter, field or file: the call succeeded, so
                    # the span stays and only its count is absent
                    if f"{name}:counts" not in self.absent:
                        self.absent.append(f"{name}:counts")
                # counting time is charged to no layer's self time
                span[6] = time.perf_counter() - span[2]
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "absent": self.absent}), encoding="utf-8"
        )


class Summary:
    """Per-name totals over span lists, each list from one process."""

    def __init__(self, span_lists):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.peaks = defaultdict(lambda: defaultdict(float))
        for spans in span_lists:
            charged = [0.0] * len(spans)
            for name, start, end, parent, _, _, counter_s in spans:
                if parent >= 0:
                    charged[parent] += end - start + counter_s
            for (name, start, end, _, _, counts, _), children in zip(spans, charged):
                self.total[name] += end - start
                self.self_time[name] += end - start - children
                self.calls[name] += 1
                for key, value in (counts or {}).items():
                    self.counts[name][key] += value
                    self.peaks[name][key] = max(self.peaks[name][key], value)

    def rate(self, name: str, key: str, time_name: str) -> float:
        busy = self.total[time_name]
        return self.counts[name][key] / busy if busy > 0 else 0.0


# Each helper gives (span names the metric reads, span names whose counts
# it reads, value from one Summary).

def _total(span):
    return (span,), (), lambda s: s.total[span]


def _self(span):
    return (span,), (), lambda s: s.self_time[span]


def _calls(span):
    return (span,), (), lambda s: s.calls[span]


def _count(span, key):
    return (span,), (span,), lambda s: s.counts[span][key]


def _peak(span, key):
    return (span,), (span,), lambda s: s.peaks[span][key]


def _rate(span, key, busy_span):
    return (span, busy_span), (span,), lambda s: s.rate(span, key, busy_span)


def _bytes(*spans):
    return spans, spans, lambda s: sum(s.counts[span]["bytes"] for span in spans)


# per-layer metric -> (unit, spans read, spans whose counts are read, value)
LAYER_METRICS = {
    "word2vec.sgns_s": ("s", *_total("word2vec.sgns")),
    "word2vec.sgns_step_s": ("s", *_total("word2vec.sgns_step")),
    "word2vec.sgns_self_s": ("s", *_self("word2vec.sgns")),
    "word2vec.sgns_pairs_per_s": ("1/s", *_rate("word2vec.sgns_step", "rows", "word2vec.sgns")),
    "word2vec.cbow_s": ("s", *_total("word2vec.cbow")),
    "word2vec.cbow_step_s": ("s", *_total("word2vec.cbow_step")),
    "word2vec.cbow_positions_per_s": ("1/s", *_rate("word2vec.cbow_step", "rows", "word2vec.cbow")),
    "util.segment_s": ("s", *_total("util.segment")),
    "util.segment_calls": ("count", *_calls("util.segment")),
    "util.rows_grouped": ("count", *_count("util.segment", "rows")),
    "glove.s": ("s", *_total("glove")),
    "glove.cells_per_s": ("1/s", *_rate("glove", "cells", "glove")),
    "preprocess.s": ("s", *_total("preprocess")),
    "preprocess.tokens": ("count", *_count("preprocess", "tokens")),
    "preprocess.vocab_size": ("count", *_peak("preprocess", "vocab")),
    "cooccur.s": ("s", *_total("cooccur")),
    "cooccur.nnz": ("count", *_count("cooccur", "nnz")),
    "ppmi.s": ("s", *_total("ppmi")),
    "embeddings.export_s": ("s", *_total("embeddings.export")),
    "embeddings.import_s": ("s", *_total("embeddings.import")),
    "embeddings.save_sparse_s": ("s", *_total("embeddings.save_sparse")),
    "embeddings.load_sparse_s": ("s", *_total("embeddings.load_sparse")),
    "embeddings.bytes_written": ("bytes", *_bytes("embeddings.export", "embeddings.save_sparse")),
    "embeddings.bytes_read": ("bytes", *_bytes("embeddings.import", "embeddings.load_sparse")),
    "overlap.evaluate_pair_s": ("s", *_total("overlap.evaluate_pair")),
    "overlap.rank_s": ("s", *_self("overlap.evaluate_pair")),
    "overlap.bootstrap_s": ("s", *_total("overlap.bootstrap")),
    "overlap.bootstrap_calls": ("count", *_calls("overlap.bootstrap")),
    "overlap.bootstrap_draws": ("count", *_count("overlap.bootstrap", "draws")),
    "overlap.average_runs_s": ("s", *_total("overlap.average_runs")),
    "overlap.intersection_size": ("count", *_peak("overlap.evaluate_pair", "intersection")),
    "overlap.write_s": ("s", *_total("overlap.write")),
    "svg.render_s": ("s", *_total("svg.render")),
    "corpus.load_s": ("s", *_total("corpus.load")),
    "corpus.docs_loaded": ("count", *_count("corpus.load", "docs")),
    "corpus.bytes_read": ("bytes", *_count("corpus.load", "bytes")),
    "corpus.save_s": ("s", *_total("corpus.save")),
    "corpus.files_written": ("count", *_count("corpus.save", "files")),
    "noise.error_rates_s": ("s", *_total("noise.error_rates")),
    "noise.wer_s": ("s", *_total("noise.wer")),
    "noise.cer_s": ("s", *_total("noise.cer")),
    "noise.inject_s": ("s", *_total("noise.inject")),
    "noise.chars_corrupted": ("count", *_count("noise.inject", "chars")),
    "synthetic.documents_s": ("s", *_total("synthetic.documents")),
    "synthetic.noisy_corpus_s": ("s", *_total("synthetic.noisy_corpus")),
}
for _command in COMMANDS:
    LAYER_METRICS[command_span(_command) + "_self_s"] = ("s", *_self(command_span(_command)))


def absent_metrics(absent: list[str]) -> list[str]:
    """Metrics reading a span none of whose lookups could be wrapped, or
    the counts of a span whose counter failed (listed as `<span>:counts`)."""
    wrapped = {name for name, module, attr, _ in WRAPS if f"{module}.{attr}" not in absent}
    wrapped.update(command_span(c) for c in COMMANDS)
    uncounted = {a.removesuffix(":counts") for a in absent if a.endswith(":counts")}
    return [
        m for m, (_, spans, counted, _) in LAYER_METRICS.items()
        if not wrapped.issuperset(spans) or uncounted.intersection(counted)
    ]


def layer_values(summary: Summary) -> dict[str, float]:
    return {metric: float(value(summary)) for metric, (_, _, _, value) in LAYER_METRICS.items()}
