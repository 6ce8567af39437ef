"""Neighbor overlap between two embedding spaces over a shared vocabulary.

For every word in the vocabulary intersection, each space ranks all other
intersection words by cosine similarity (exact, no approximation). The
overlap at k is the fraction of the two top-k neighbor sets that agree;
curves sweep k over fractions of the intersection size, with percentile
bootstrap confidence intervals over the per-word scores.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .embeddings import EmbeddingMatrix
from .preprocess import VocabIntersection

DEFAULT_CONFIDENCE = 0.95
DEFAULT_RESAMPLES = 1000


def default_n_grid() -> tuple[float, ...]:
    """Neighborhood fractions 0.01, 0.02, ..., 1.00."""
    return tuple(i / 100 for i in range(1, 101))


def k_for_fraction(n: float, intersection_size: int) -> int:
    """Neighborhood size for fraction n: floor(n * size), at least 1,
    and at most size - 1 so the word itself never counts."""
    if not 0.0 < n <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {n}")
    if intersection_size < 2:
        raise ValueError("intersection must hold at least two words")
    k = max(1, math.floor(n * intersection_size + 1e-9))
    return min(k, intersection_size - 1)


def _intersection_words(intersection: VocabIntersection | Iterable[str]) -> tuple[str, ...]:
    if isinstance(intersection, VocabIntersection):
        return intersection.words
    return tuple(intersection)


def _normalized_rows(
    emb: EmbeddingMatrix, words: Sequence[str]
) -> tuple[np.ndarray | sp.csr_matrix, np.ndarray]:
    """Unit-normalized intersection rows plus a mask of zero vectors."""
    rows = []
    for w in words:
        if w not in emb.word_to_row:
            raise KeyError(f"intersection word {w!r} has no vector in this embedding")
        rows.append(emb.word_to_row[w])
    sub = emb.vectors[np.array(rows, dtype=np.int64)]
    if isinstance(sub, np.ndarray):
        norms = np.linalg.norm(sub, axis=1)
        zero = norms == 0.0
        safe = np.where(zero, 1.0, norms)
        return sub / safe[:, None], zero
    sq = np.asarray(sub.multiply(sub).sum(axis=1)).ravel()
    norms = np.sqrt(sq)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return sp.diags(1.0 / safe) @ sub, zero


def _order_block(
    normalized: np.ndarray | sp.csr_matrix,
    zero_mask: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Similarity orderings for query words [start, stop).

    Row q lists all candidate indices by descending cosine, ties broken by
    candidate index (the words are alphabetical, so ties resolve
    alphabetically). Zero vectors score -1 against everything; the query
    itself is forced to the final position.
    """
    block = normalized[start:stop]
    sims = block @ normalized.T
    if not isinstance(sims, np.ndarray):
        sims = sims.toarray()
    sims[:, zero_mask] = -1.0
    sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
    return np.argsort(-sims, axis=1, kind="stable")


def _rank_block(
    normalized: np.ndarray | sp.csr_matrix,
    zero_mask: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """0-based rank of every candidate for query words [start, stop)."""
    order = _order_block(normalized, zero_mask, start, stop)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(order.shape[1]), order.shape), axis=1)
    return ranks


@dataclass(frozen=True)
class NeighborSet:
    """All other intersection words, closest first, for one query word.

    Ids index into the intersection word list shared by the spaces under
    comparison; the query word itself is excluded.
    """

    word: int
    neighbors: np.ndarray

    def top(self, k: int) -> np.ndarray:
        return self.neighbors[:k]


def neighbor_sets(
    emb: EmbeddingMatrix,
    intersection: VocabIntersection | Iterable[str],
    block_size: int = 1024,
) -> list[NeighborSet]:
    """Exact cosine neighbor ranking of every intersection word."""
    words = _intersection_words(intersection)
    if len(words) < 2:
        raise ValueError("intersection must hold at least two words")
    normalized, zero = _normalized_rows(emb, words)
    out: list[NeighborSet] = []
    size = len(words)
    for start in range(0, size, block_size):
        stop = min(start + block_size, size)
        # the query itself always occupies the final position; drop it
        order = _order_block(normalized, zero, start, stop)[:, :-1]
        for i in range(stop - start):
            out.append(NeighborSet(word=start + i, neighbors=order[i].astype(np.int32)))
    return out


def overlap_at_k(r_ocr: NeighborSet, r_truth: NeighborSet, k: int) -> float:
    """|top-k of one space  intersected with  top-k of the other| / k."""
    size = len(r_ocr.neighbors)
    if len(r_truth.neighbors) != size:
        raise ValueError("neighbor sets come from different intersections")
    if not 1 <= k <= size:
        raise ValueError(f"k must be in [1, {size}], got {k}")
    shared = np.intersect1d(r_ocr.neighbors[:k], r_truth.neighbors[:k], assume_unique=True)
    return len(shared) / k


def bootstrap_ci(
    per_word_overlaps: Sequence[float] | np.ndarray,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int | tuple = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of per-word scores.

    Words are resampled with replacement `resamples` times; the interval
    is the central `confidence` mass of the resampled means. Deterministic
    for a given seed.
    """
    values = np.asarray(per_word_overlaps, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    n = values.size
    means = np.empty(resamples, dtype=np.float64)
    chunk = max(1, 4_000_000 // n)
    done = 0
    while done < resamples:
        take = min(chunk, resamples - done)
        idx = rng.integers(0, n, size=(take, n))
        means[done:done + take] = values[idx].mean(axis=1)
        done += take
    low = float(np.percentile(means, (1.0 - confidence) / 2.0 * 100.0))
    high = float(np.percentile(means, (1.0 + confidence) / 2.0 * 100.0))
    return low, high


def _bootstrap_bands(
    per_word: np.ndarray, confidence: float, resamples: int, seed_prefix: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """bootstrap_ci per grid row, seeded (*seed_prefix, row index)."""
    low = np.empty(len(per_word))
    high = np.empty(len(per_word))
    for gi in range(len(per_word)):
        low[gi], high[gi] = bootstrap_ci(per_word[gi], confidence, resamples, (*seed_prefix, gi))
    return low, high


@dataclass(frozen=True)
class OverlapCurve:
    """Mean overlap with confidence band per neighborhood fraction.

    `per_word` holds the raw per-word overlap scores (one row per
    fraction, columns pooled over words and averaged runs), which is what
    run averaging re-bootstraps.
    """

    n_values: tuple[float, ...]
    k_values: tuple[int, ...]
    means: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    intersection_size: int
    per_word: np.ndarray
    runs_averaged: int = 1
    confidence: float = DEFAULT_CONFIDENCE
    resamples: int = DEFAULT_RESAMPLES
    seed: int = 0


def evaluate_pair(
    emb_ocr: EmbeddingMatrix,
    emb_truth: EmbeddingMatrix,
    intersection: VocabIntersection | Iterable[str],
    n_grid: Sequence[float] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    block_size: int = 1024,
) -> OverlapCurve:
    """Overlap curve between two spaces over their shared vocabulary.

    Works in query blocks so the two full rank tables are never held at
    once: a candidate is in both top-k sets exactly when the larger of its
    two ranks is at most k, so per-word overlaps for the whole fraction
    grid come from one sorted pass over the combined ranks.
    """
    words = _intersection_words(intersection)
    size = len(words)
    if size < 2:
        raise ValueError("intersection must hold at least two words")
    grid = tuple(n_grid) if n_grid is not None else default_n_grid()
    ks = np.array([k_for_fraction(n, size) for n in grid], dtype=np.int64)

    norm_a, zero_a = _normalized_rows(emb_ocr, words)
    norm_b, zero_b = _normalized_rows(emb_truth, words)

    per_word = np.empty((len(grid), size), dtype=np.float64)
    for start in range(0, size, block_size):
        stop = min(start + block_size, size)
        ranks_a = _rank_block(norm_a, zero_a, start, stop)
        ranks_b = _rank_block(norm_b, zero_b, start, stop)
        combined = np.maximum(ranks_a, ranks_b) + 1
        combined.sort(axis=1)
        for i in range(stop - start):
            shared = np.searchsorted(combined[i], ks, side="right")
            per_word[:, start + i] = shared / ks

    means = per_word.mean(axis=1)
    low, high = _bootstrap_bands(per_word, confidence, resamples, (seed,))
    return OverlapCurve(
        n_values=grid,
        k_values=tuple(int(k) for k in ks),
        means=means,
        ci_low=low,
        ci_high=high,
        intersection_size=size,
        per_word=per_word,
        runs_averaged=1,
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )


def average_runs(curves: Sequence[OverlapCurve]) -> OverlapCurve:
    """Pointwise mean across runs, re-bootstrapping pooled per-word scores."""
    if not curves:
        raise ValueError("no curves to average")
    head = curves[0]
    for c in curves[1:]:
        if c.n_values != head.n_values or c.k_values != head.k_values:
            raise ValueError("curves evaluated on different fraction grids")
        if c.intersection_size != head.intersection_size:
            raise ValueError("curves evaluated on different intersections")
    if len(curves) == 1:
        return head
    pooled = np.concatenate([c.per_word for c in curves], axis=1)
    means = np.mean([c.means for c in curves], axis=0)
    # the extra stream component keeps pooled draws distinct from the
    # single-run draws at the same grid point
    low, high = _bootstrap_bands(pooled, head.confidence, head.resamples, (head.seed, 1))
    return replace(
        head,
        means=means,
        ci_low=low,
        ci_high=high,
        per_word=pooled,
        runs_averaged=sum(c.runs_averaged for c in curves),
    )


def write_curve_csv(curve: OverlapCurve, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "k", "mean", "ci_low", "ci_high"])
        for n, k, m, lo, hi in zip(
            curve.n_values, curve.k_values, curve.means, curve.ci_low, curve.ci_high
        ):
            writer.writerow([f"{n:g}", k, f"{m:.9g}", f"{lo:.9g}", f"{hi:.9g}"])


def write_curve_json(curve: OverlapCurve, path: str | Path, metadata: dict | None = None) -> None:
    payload = {
        "metadata": dict(metadata or {}),
        "runs_averaged": curve.runs_averaged,
        "intersection_size": curve.intersection_size,
        "confidence": curve.confidence,
        "resamples": curve.resamples,
        "bootstrap_unit": "per-word overlaps pooled across runs",
        "points": [
            {"N": n, "k": k, "mean": m, "ci_low": lo, "ci_high": hi}
            for n, k, m, lo, hi in zip(
                curve.n_values,
                curve.k_values,
                curve.means.tolist(),
                curve.ci_low.tolist(),
                curve.ci_high.tolist(),
            )
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_curve_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(N, k, mean, ci_low, ci_high) arrays from a curve CSV."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["N", "k", "mean", "ci_low", "ci_high"]:
            raise ValueError(f"{path}: not an overlap curve CSV")
        rows = [(float(n), int(k), float(m), float(lo), float(hi)) for n, k, m, lo, hi in reader]
    if not rows:
        raise ValueError(f"{path}: empty curve")
    cols = list(zip(*rows))
    return (
        np.array(cols[0]),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2]),
        np.array(cols[3]),
        np.array(cols[4]),
    )
