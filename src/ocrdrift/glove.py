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
) -> float:
    """sum over nonzero cells of f(x) * (w.c + b_w + b_c - ln x)^2.

    Holds O(nnz) vectors and one util.GATHER_BYTES chunk of each matrix, not
    the (nnz, dim) rows of every cell.
    """
    coo = matrix.counts.tocoo()
    diff = _cell_dots(W, Cw, coo.row, coo.col) + bw[coo.row] + bc[coo.col] - np.log(coo.data)
    return float((cell_weight(coo.data) * diff**2).sum())


def _cell_dots(W: np.ndarray, Cw: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """W[rows[n]] . Cw[cols[n]] for every n, gathering at most
    util.GATHER_BYTES of rows from each matrix at a time."""
    chunk = max(1, util.GATHER_BYTES // (W.itemsize * W.shape[1]))
    dots = np.empty(len(rows))
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        dots[part] = np.einsum("nd,nd->n", W.take(rows[part], axis=0), Cw.take(cols[part], axis=0))
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

    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    log_counts = np.log(coo.data)
    weights = cell_weight(coo.data)
    rng = np.random.default_rng(config.seed)

    for epoch in range(config.epochs):
        order = rng.permutation(coo.nnz)
        for start in range(0, coo.nnz, config.batch_size):
            sel = order[start:start + config.batch_size]
            _glove_batch_step(p, acc, rows.take(sel), cols.take(sel),
                              log_counts.take(sel), weights.take(sel))
        if objective_log is not None:
            objective_log.append(glove_objective(matrix, p.W, p.Cw, p.bw, p.bc))
        log.debug("glove epoch %d/%d done", epoch + 1, config.epochs)

    return EmbeddingMatrix(words=words, vectors=p.W + p.Cw, model=Model.GLOVE)


def _glove_batch_step(
    p: _Params,
    acc: _Params,
    rows: np.ndarray,
    cols: np.ndarray,
    log_counts: np.ndarray,
    weights: np.ndarray,
) -> None:
    """One AdaGrad step on a batch of nonzero cells (rows[n], cols[n]).

    The cell dot products are taken from gathered rows, at most
    util.GATHER_BYTES of each matrix at a time. Each vector gradient is a
    grouped sum of coefficient-weighted rows read in place from the other
    matrix, and both are summed before either matrix moves. So the step
    holds no (n, dim) array, only O(n) vectors, two gathered chunks, the
    per-row sums and one vocabulary-length bias sum at a time.
    """
    dots = _cell_dots(p.W, p.Cw, rows, cols)
    coef = 2.0 * weights * (dots + p.bw.take(rows) + p.bc.take(cols) - log_counts)
    words, word_sums = segment_weighted_sums(rows, coef, cols, p.Cw)
    contexts, context_sums = segment_weighted_sums(cols, coef, rows, p.W)
    _adagrad_update(p.W, acc.W, words, word_sums)
    _adagrad_update(p.Cw, acc.Cw, contexts, context_sums)
    # bincount adds each word's terms in index order from zero, the order
    # of a grouped sum, so the bias sums keep their bits
    n_words = len(p.bw)
    _adagrad_update(p.bw, acc.bw, words, np.bincount(rows, coef, n_words)[words])
    _adagrad_update(p.bc, acc.bc, contexts, np.bincount(cols, coef, n_words)[contexts])


def _adagrad_update(params: np.ndarray, acc: np.ndarray, unique: np.ndarray, sums: np.ndarray) -> None:
    """One adaptive step on the distinct rows `unique`, from their summed
    gradients `sums` (which it overwrites)."""
    squared = acc.take(unique, axis=0)
    squared += sums * sums
    acc[unique] = squared
    sums *= ADAGRAD_RATE
    sums /= np.sqrt(squared, out=squared)
    params[unique] -= sums
