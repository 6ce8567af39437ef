"""Small numeric, process and file helpers shared across modules."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# the most bytes of gathered rows a training step holds per matrix
GATHER_BYTES = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def write_atomically(path: str | Path, text: str) -> None:
    """Write `text` through a temporary file in the same directory, so that
    `path` holds either its old content or all of the new text; a failed
    write leaves no temporary file behind."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        partial.write_text(text, encoding="utf-8", newline="")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """Numerically stable logistic function (single exponential)."""
    x = np.asarray(x)
    z = np.exp(-np.abs(x))
    t = 1.0 / (1.0 + z)
    return np.where(x >= 0, t, z * t)


def log_sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """log(sigmoid(x)) without overflow for large negative x."""
    x = np.asarray(x, dtype=np.float64)
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def _group_csr(rows: np.ndarray, n_cols: int, data: np.ndarray, cols: np.ndarray):
    """CSR matrix whose row g selects the entries with the g-th distinct
    value of `rows`; returns (unique_rows, matrix)."""
    import scipy.sparse as sp
    keys = rows
    if len(rows) and 0 <= rows.min() and rows.max() < 1 << 16:
        # numpy's stable sort of 16-bit keys is a radix sort; a stable
        # sort has exactly one result, so the grouping is unchanged
        keys = rows.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    sorted_rows = rows[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[:1] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    indptr = np.append(starts, len(order)).astype(np.int64)
    matrix = sp.csr_matrix(
        (data[order], cols[order], indptr), shape=(len(starts), n_cols)
    )
    return sorted_rows[starts], matrix


def segment_weighted_sums(
    rows: np.ndarray,
    weights: np.ndarray,
    cols: np.ndarray,
    source: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct row r: sum of weights[i] * source[cols[i]] over rows==r.

    Computes grouped rank-one accumulations without materializing the
    (len(rows), dim) outer-product array.
    """
    unique, matrix = _group_csr(rows, source.shape[0], weights, cols)
    return unique, matrix @ source


def seeded_matrix(
    rows: int,
    dim: int,
    seed: int,
    stream: int,
    low: float,
    high: float,
) -> np.ndarray:
    """Uniform random (rows, dim) matrix, reproducible from (seed, stream)."""
    rng = np.random.default_rng((seed, stream))
    return rng.uniform(low, high, (rows, dim))
