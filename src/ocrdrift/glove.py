"""Embeddings fit by weighted least squares to log co-occurrence counts."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import util
from .cooccur import CooccurrenceMatrix, Weighting
from .embeddings import EmbeddingMatrix, Model, TrainConfig
from .util import seeded_matrix, segment_weighted_sums

log = logging.getLogger(__name__)

X_MAX = 100.0
ALPHA = 0.75
ADAGRAD_RATE = 0.05

_W_STREAM = 3
_C_STREAM = 4
_BW_STREAM = 5
_BC_STREAM = 6


@dataclass
class _Params:
    W: np.ndarray
    Cw: np.ndarray
    bw: np.ndarray
    bc: np.ndarray


def cell_weight(x: np.ndarray) -> np.ndarray:
    """(x / X_MAX)^ALPHA, capped at 1 above X_MAX."""
    return np.minimum((np.asarray(x, dtype=np.float64) / X_MAX) ** ALPHA, 1.0)


def glove_objective(
    matrix: CooccurrenceMatrix,
    W: np.ndarray,
    Cw: np.ndarray,
    bw: np.ndarray,
    bc: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """sum over nonzero cells of f(x) * (w.c + b_w + b_c - ln x)^2.

    Holds O(nnz) vectors and one util.GATHER_BYTES chunk of each matrix
    (or gathers into `work`, as `_cell_dots` does), not the (nnz, dim)
    rows of every cell.
    """
    coo = matrix.counts.tocoo()
    diff = _cell_dots(W, Cw, coo.row, coo.col, work) + bw[coo.row] + bc[coo.col] - np.log(coo.data)
    return float((cell_weight(coo.data) * diff**2).sum())


def _work_arrays(rows: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two flat float64 arrays, each room for one chunk of gathered rows:
    min(rows, util.GATHER_BYTES // (8 dim)) rows of dim values, at least one."""
    size = max(1, min(rows, util.GATHER_BYTES // (8 * dim))) * dim
    return np.empty(size), np.empty(size)


def _take_rows(source: np.ndarray, rows: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """source[rows], written into the front of the flat `buffer`. Mode
    "clip" leaves in-range rows alone and, unlike "raise", writes straight
    into `out` instead of into a temporary copy of it."""
    out = buffer[:len(rows) * source[0].size].reshape((len(rows),) + source.shape[1:])
    return np.take(source, rows, axis=0, out=out, mode="clip")


def _cell_dots(
    W: np.ndarray,
    Cw: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """W[rows[n]] . Cw[cols[n]] for every n, gathering as many rows of each
    matrix at a time as one of the flat `work` arrays holds (by default
    two of at most util.GATHER_BYTES, taken for this call)."""
    if work is None:
        work = _work_arrays(len(rows), W.shape[1])
    chunk = len(work[0]) // W.shape[1]
    dots = np.empty(len(rows))
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        dots[part] = np.einsum("nd,nd->n", _take_rows(W, rows[part], work[0]),
                               _take_rows(Cw, cols[part], work[1]))
    return dots


def train_glove(
    matrix: CooccurrenceMatrix,
    config: TrainConfig,
    objective_log: list[float] | None = None,
) -> EmbeddingMatrix:
    """Adaptive per-coordinate gradient descent over the nonzero cells.

    Requires a distance-weighted (harmonic) co-occurrence matrix. The
    returned vectors are the sum of the word and context matrices. When a
    list is passed as objective_log, the full objective evaluated after
    each epoch is appended to it.
    """
    if config.model is not Model.GLOVE:
        raise ValueError(f"config.model must be GLOVE, got {config.model}")
    config.validated()
    if matrix.weighting is not Weighting.HARMONIC:
        raise ValueError("GloVe expects a harmonic-weighted co-occurrence matrix")
    coo = matrix.counts.tocoo()
    if coo.nnz == 0:
        raise ValueError("co-occurrence matrix has no nonzero cells")

    words = matrix.vocabulary.words
    dim = config.dim
    bound = 0.5 / dim
    p = _Params(
        W=seeded_matrix(len(words), dim, config.seed, _W_STREAM, -bound, bound),
        Cw=seeded_matrix(len(words), dim, config.seed, _C_STREAM, -bound, bound),
        bw=seeded_matrix(len(words), 1, config.seed, _BW_STREAM, -bound, bound).ravel(),
        bc=seeded_matrix(len(words), 1, config.seed, _BC_STREAM, -bound, bound).ravel(),
    )
    # near-zero accumulator init: the first step per coordinate has
    # magnitude close to ADAGRAD_RATE, later steps shrink as usual
    acc = _Params(
        W=np.full_like(p.W, 1e-8),
        Cw=np.full_like(p.Cw, 1e-8),
        bw=np.full_like(p.bw, 1e-8),
        bc=np.full_like(p.bc, 1e-8),
    )

    # the COO's own int32 ids and an int32 epoch order, as in word2vec:
    # grouping and bincount give the same results for any integer dtype
    rows, cols = coo.row, coo.col
    log_counts = np.log(coo.data)
    weights = cell_weight(coo.data)
    rng = np.random.default_rng(config.seed)
    # every batch gathers into the same two arrays, so it reuses their pages
    work = _work_arrays(config.batch_size, dim)

    for epoch in range(config.epochs):
        order = rng.permutation(coo.nnz).astype(np.int32)
        for start in range(0, coo.nnz, config.batch_size):
            sel = order[start:start + config.batch_size]
            _glove_batch_step(p, acc, rows.take(sel), cols.take(sel),
                              log_counts.take(sel), weights.take(sel), work)
        if objective_log is not None:
            objective_log.append(glove_objective(matrix, p.W, p.Cw, p.bw, p.bc, work))
        log.debug("glove epoch %d/%d done", epoch + 1, config.epochs)

    return EmbeddingMatrix(words=words, vectors=p.W + p.Cw, model=Model.GLOVE)


def _glove_batch_step(
    p: _Params,
    acc: _Params,
    rows: np.ndarray,
    cols: np.ndarray,
    log_counts: np.ndarray,
    weights: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> None:
    """One AdaGrad step on a batch of nonzero cells (rows[n], cols[n]).

    The cell dot products are taken from rows gathered one chunk at a
    time into `work`, two flat arrays of whole rows (`_work_arrays`), in
    which the AdaGrad updates also run. Each vector gradient is a grouped
    sum of coefficient-weighted rows read in place from the other matrix,
    and both are summed before either matrix moves. So the step holds no
    (n, dim) array, only O(n) vectors, the per-row sums and one
    vocabulary-length bias sum at a time besides `work`.
    """
    dots = _cell_dots(p.W, p.Cw, rows, cols, work)
    coef = 2.0 * weights * (dots + p.bw.take(rows) + p.bc.take(cols) - log_counts)
    words, word_sums = segment_weighted_sums(rows, coef, cols, p.Cw)
    contexts, context_sums = segment_weighted_sums(cols, coef, rows, p.W)
    _adagrad_update(p.W, acc.W, words, word_sums, work)
    _adagrad_update(p.Cw, acc.Cw, contexts, context_sums, work)
    # bincount adds each word's terms in index order from zero, the order
    # of a grouped sum, so the bias sums keep their bits
    n_words = len(p.bw)
    _adagrad_update(p.bw, acc.bw, words, np.bincount(rows, coef, n_words)[words], work)
    _adagrad_update(p.bc, acc.bc, contexts, np.bincount(cols, coef, n_words)[contexts], work)


def _adagrad_update(
    params: np.ndarray,
    acc: np.ndarray,
    unique: np.ndarray,
    sums: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> None:
    """One adaptive step on the distinct rows `unique`, from their summed
    gradients `sums` (which it overwrites).

    The rows are taken as many at a time as fit the two flat `work`
    arrays, which hold every gather and temporary; each value goes
    through the operations of `params[unique] -= sums` and friends, so it
    keeps its bits.
    """
    step = len(work[0]) // sums[0].size
    for start in range(0, len(unique), step):
        rows, grads = unique[start:start + step], sums[start:start + step]
        squared = _take_rows(acc, rows, work[0])
        squared += np.multiply(grads, grads, out=work[1][:grads.size].reshape(grads.shape))
        acc[rows] = squared
        grads *= ADAGRAD_RATE
        grads /= np.sqrt(squared, out=squared)
        moved = _take_rows(params, rows, work[1])
        moved -= grads
        params[rows] = moved
