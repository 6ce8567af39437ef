"""Neighbor overlap between two embedding spaces over a shared vocabulary.

For every word in the vocabulary intersection, each space ranks all other
intersection words by cosine similarity (exact, no approximation). The
overlap at k is the fraction of the two top-k neighbor sets that agree;
curves sweep k over fractions of the intersection size, with percentile
bootstrap confidence intervals over the per-word scores. Curves keep each
word's shared-neighbor count as an integer, so every mean and resampled
mean is an exact integer sum divided once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import util
from .embeddings import EmbeddingMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_CONFIDENCE = 0.95
DEFAULT_RESAMPLES = 1000
# Ranking works in blocks of query rows; each (rows, intersection) array
# of a block takes at most this many bytes, so ranking memory stays
# bounded whatever the vocabulary size.
BLOCK_BYTES = 1 << 20
# Resampling draws its column indices in chunks of at most this many
# 8-byte values, so its memory does not grow with the pooled width of a
# run-averaged curve. The draw stream and the exact integer sums do not
# depend on the chunking, so the band does not either.
BOOTSTRAP_CHUNK = 1 << 20


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


def _normalized_rows(
    emb: EmbeddingMatrix, words: Sequence[str]
) -> tuple[np.ndarray | sp.csr_matrix, np.ndarray]:
    """Unit-normalized intersection rows plus a mask of zero vectors.

    A NaN or infinite value would make the ranking meaningless, so it is
    an error that names the word.
    """
    rows = []
    for w in words:
        if w not in emb.word_to_row:
            raise KeyError(f"intersection word {w!r} has no vector in this embedding")
        rows.append(emb.word_to_row[w])
    sub = emb.vectors[np.array(rows, dtype=np.int64)]
    if isinstance(sub, np.ndarray):
        bad_rows = np.flatnonzero(~np.isfinite(sub).all(axis=1))
        norms = np.linalg.norm(sub, axis=1)
    else:
        bad_rows = np.searchsorted(sub.indptr, np.flatnonzero(~np.isfinite(sub.data)), side="right") - 1
        norms = np.sqrt(np.asarray(sub.multiply(sub).sum(axis=1)).ravel())
    if bad_rows.size:
        raise ValueError(f"intersection word {words[bad_rows[0]]!r} has a non-finite vector value")
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    if isinstance(sub, np.ndarray):
        return sub / safe[:, None], zero
    import scipy.sparse as sp  # only sparse rows need it: dense evaluations never load scipy
    return sp.diags(1.0 / safe) @ sub, zero


def _block_rows(*widths: int) -> int:
    """Query rows per block: a (rows, width) array of 8-byte values fits
    in BLOCK_BYTES for each width given (the intersection size, and each
    space's vector width, since a sparse query block is densified)."""
    return max(1, BLOCK_BYTES // (8 * max(widths)))


def _similarities(
    normalized: np.ndarray | sp.csr_matrix,
    zero_mask: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Cosines of query words [start, stop) against every candidate.

    Zero vectors score -1 against everything; the query itself scores
    -inf, so it sorts to the final position.
    """
    if isinstance(normalized, np.ndarray):
        sims = normalized[start:stop] @ normalized.T
    else:
        # the product is nearly dense, so the sparse rows times a dense
        # query block take about half the time of a sparse-by-sparse
        # product; both add the same nonzero terms in the same order
        sims = np.ascontiguousarray((normalized @ normalized[start:stop].toarray().T).T)
    sims[:, zero_mask] = -1.0
    sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
    return sims


def _descending_order(sims: np.ndarray) -> np.ndarray:
    """Candidate indices per row by descending similarity, ties broken by
    index: exactly `np.argsort(-sims, axis=1, kind="stable")` for
    similarities below 2.0 (cosines, and -inf).

    The words are alphabetical, so ties resolve alphabetically. One value
    sort of int64 keys does the argsort's work, because a value sort is
    much faster than an argsort. A key is the bits of `2.0 - sims` in
    float64: that is positive, so integer order is value order, and -0.0
    and 0.0 give one key. The candidate index replaces the low
    ceil(log2(size)) bits, so keys of distinct cosines can share their
    high bits; each row holding such a run is re-sorted by (run, -cosine,
    index).
    """
    size = sims.shape[1]
    mask = (1 << (size - 1).bit_length()) - 1
    keys = np.subtract(2.0, sims, dtype=np.float64).view(np.int64)
    keys &= ~mask
    keys |= np.arange(size)
    keys.sort(axis=1)
    # same_high[q, j]: sorted keys j and j + 1 share their high bits
    same_high = keys[:, 1:] <= keys[:, :-1] | mask
    order = np.bitwise_and(keys, mask, out=keys)
    if same_high.any():
        # cosines in key order, gathered through flat indices
        offsets = np.arange(0, sims.size, size)[:, None]
        order += offsets
        ranked = sims.reshape(-1).take(order)
        order -= offsets
        distinct = same_high & (ranked[:, 1:] != ranked[:, :-1])
        for q in np.flatnonzero(distinct.any(axis=1)):
            # within a run, the order is ascending index already
            runs = np.concatenate(([0], np.cumsum(~same_high[q])))
            order[q] = order[q, np.lexsort((-ranked[q], runs))]
    return order


def _bootstrap_bands(
    shared: np.ndarray, ks: np.ndarray, confidence: float, resamples: int, seed: int | tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Percentile bootstrap band for the mean of every row of
    `shared / ks[:, None]`, given the integer counts `shared`.

    One resample set serves every row (Efron & Tibshirani 1993): each
    resample draws the columns with replacement once, as counts, and all
    rows' resampled sums come from one product with those counts, so the
    band is coherent across the grid. Every operand and partial sum of
    that product is an integer below 2**53, so the sums are exact in any
    order on any BLAS.
    """
    if shared.shape[1] == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    n = shared.shape[1]
    if n * int(shared.max()) >= 2**53:
        raise ValueError("resampled sums would not be exact in float64")
    rng = np.random.default_rng(seed)
    table = shared.T.astype(np.float64)
    means = np.empty((resamples, len(shared)), dtype=np.float64)
    chunk = max(1, BOOTSTRAP_CHUNK // n)
    for done in range(0, resamples, chunk):
        take = min(chunk, resamples - done)
        idx = rng.integers(0, n, size=(take, n))
        # offset each resample's draws into its own row of counts
        idx += np.arange(0, take * n, n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=take * n).reshape(take, n)
        del idx
        means[done:done + take] = counts.astype(np.float64) @ table / (n * ks)
        del counts  # not held while the next chunk is drawn
    low, high = np.percentile(
        means, [(1.0 - confidence) / 2.0 * 100.0, (1.0 + confidence) / 2.0 * 100.0], axis=0
    )
    return low, high


@dataclass(frozen=True)
class OverlapCurve:
    """Mean overlap with confidence band per neighborhood fraction.

    `shared` holds each word's count of shared neighbors, an int32 table
    with one row per fraction and columns pooled over words and averaged
    runs; a word's overlap is its count over the row's `k_values` entry.
    Run averaging re-bootstraps this table.
    """

    n_values: tuple[float, ...]
    k_values: tuple[int, ...]
    means: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    intersection_size: int
    shared: np.ndarray
    runs_averaged: int = 1
    confidence: float = DEFAULT_CONFIDENCE
    resamples: int = DEFAULT_RESAMPLES
    seed: int = 0


def evaluate_pair(
    emb_ocr: EmbeddingMatrix,
    emb_truth: EmbeddingMatrix,
    intersection: Sequence[str],
    n_grid: Sequence[float] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> OverlapCurve:
    """Overlap curve between two spaces over their shared vocabulary.

    Works in query blocks sized by BLOCK_BYTES, so the two full rank
    tables are never held at once: a candidate is in both top-k sets
    exactly when the larger of its two ranks is at most k, so per-word
    overlaps for the whole fraction grid come from one cumulative count
    of the combined ranks.

    Blocks are ranked by a pool of min(blocks, usable CPUs) threads.
    Each block writes only its own columns of the score table, and block
    bounds do not depend on the thread count, so the curve does not
    either.

    Memory budget: besides the inputs it holds the shared-neighbor count
    table the returned curve keeps, len(n_grid) * size 4-byte values (a
    config allows at most 1,000 grid points), and the larger of two
    phases, since the normalized rows are freed before resampling starts:
    - ranking: two normalized copies of each space's intersection rows
      and at most five block arrays of at most BLOCK_BYTES each per
      ranking thread;
    - resampling: an 8-byte copy of the table, at most two bootstrap
      chunks of min(BOOTSTRAP_CHUNK, resamples * size) 8-byte values,
      and the resamples * len(n_grid) table of resampled means with at
      most two more of its size (a chunk's product, or np.percentile's
      copy; a config allows at most 10,000 resamples).
    """
    size = len(intersection)
    if size < 2:
        raise ValueError("intersection must hold at least two words")
    seen: set[str] = set()
    for w in intersection:
        # a repeated word would be its own neighbor and inflate the curve
        if w in seen:
            raise ValueError(f"intersection word {w!r} appears more than once")
        seen.add(w)
    grid = tuple(n_grid) if n_grid is not None else default_n_grid()
    ks = np.array([k_for_fraction(n, size) for n in grid], dtype=np.int64)

    norm_a, zero_a = _normalized_rows(emb_ocr, intersection)
    norm_b, zero_b = _normalized_rows(emb_truth, intersection)

    shared = np.empty((len(grid), size), dtype=np.int32)
    positions = np.arange(size)
    block_rows = _block_rows(size, norm_a.shape[1], norm_b.shape[1])

    def rank_block(start: int) -> None:
        stop = min(start + block_rows, size)
        rows = stop - start
        offsets = np.arange(0, rows * size, size)[:, None]
        # ground-truth ranks, scattered through flat indices; put()
        # repeats the positions for every row
        order = _descending_order(_similarities(norm_b, zero_b, start, stop))
        order += offsets
        ranks_b = np.empty(rows * size, dtype=np.int64)
        np.put(ranks_b, order, positions)
        del order
        order = _descending_order(_similarities(norm_a, zero_a, start, stop))
        order += offsets
        # combined[q, p]: the larger of the OCR rank p and the ground-truth
        # rank of the candidate at OCR position p
        combined = ranks_b.take(order)
        del order, ranks_b
        np.maximum(combined, positions, out=combined)
        # below[q, k - 1]: candidates whose larger 0-based rank is below k
        combined += offsets
        below = np.bincount(combined.ravel(), minlength=rows * size).reshape(rows, size)
        np.cumsum(below, axis=1, out=below)
        shared[:, start:stop] = below[:, ks - 1].T

    starts = range(0, size, block_rows)
    # numpy and scipy release the GIL while ranking, so threads rank
    # blocks side by side (BLAS adds none: see __init__.py)
    with ThreadPoolExecutor(min(len(starts), util.usable_cpus())) as pool:
        # list() re-raises the first block's exception
        list(pool.map(rank_block, starts))
    del norm_a, norm_b, zero_a, zero_b  # not held while resampling

    means = shared.sum(axis=1, dtype=np.int64) / (size * ks)
    low, high = _bootstrap_bands(shared, ks, confidence, resamples, (seed,))
    return OverlapCurve(
        n_values=grid,
        k_values=tuple(int(k) for k in ks),
        means=means,
        ci_low=low,
        ci_high=high,
        intersection_size=size,
        shared=shared,
        runs_averaged=1,
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )


def average_runs(curves: Sequence[OverlapCurve]) -> OverlapCurve:
    """Pointwise mean across runs, re-bootstrapping pooled per-word counts."""
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
    ks = np.array(head.k_values, dtype=np.int64)
    pooled = np.concatenate([c.shared for c in curves], axis=1)
    means = pooled.sum(axis=1, dtype=np.int64) / (pooled.shape[1] * ks)
    # the extra stream component keeps the pooled resample set distinct
    # from the single-run one
    low, high = _bootstrap_bands(pooled, ks, head.confidence, head.resamples, (head.seed, 1))
    return replace(
        head,
        means=means,
        ci_low=low,
        ci_high=high,
        shared=pooled,
        runs_averaged=sum(c.runs_averaged for c in curves),
    )


def write_curve_csv(curve: OverlapCurve, path: str | Path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["N", "k", "mean", "ci_low", "ci_high"])
    for n, k, m, lo, hi in zip(
        curve.n_values, curve.k_values, curve.means, curve.ci_low, curve.ci_high
    ):
        writer.writerow([f"{n:g}", k, f"{m:.9g}", f"{lo:.9g}", f"{hi:.9g}"])
    util.write_atomically(path, text.getvalue())


def write_curve_json(curve: OverlapCurve, path: str | Path, metadata: dict | None = None) -> None:
    payload = {
        "metadata": dict(metadata or {}),
        "runs_averaged": curve.runs_averaged,
        "intersection_size": curve.intersection_size,
        "confidence": curve.confidence,
        "resamples": curve.resamples,
        "bootstrap_unit": "per-word overlaps pooled across runs; one resample set shared across the grid",
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
    util.write_atomically(path, json.dumps(payload, indent=2) + "\n")


def read_curve_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(N, k, mean, ci_low, ci_high) arrays from a curve CSV."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["N", "k", "mean", "ci_low", "ci_high"]:
            raise ValueError(f"{path}: not an overlap curve CSV")
        rows = []
        for row in reader:
            if len(row) != 5:
                raise ValueError(
                    f"{path}: expected 5 fields, got {len(row)} at line {reader.line_num}"
                )
            n, k, m, lo, hi = row
            try:
                rows.append((float(n), int(k), float(m), float(lo), float(hi)))
            except ValueError:
                raise ValueError(f"{path}: non-numeric value at line {reader.line_num}") from None
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
