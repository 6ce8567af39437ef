"""Sparse word vectors from positively-clamped pointwise mutual information."""

from __future__ import annotations

import logging

import numpy as np

from .cooccur import CooccurrenceMatrix
from .embeddings import EmbeddingMatrix, Model

log = logging.getLogger(__name__)


def train_ppmi(matrix: CooccurrenceMatrix) -> EmbeddingMatrix:
    """Re-weight co-occurrence counts into sparse association vectors.

    Each cell becomes max(log2(count * total / (row_sum * col_sum)), 0):
    how much more often the pair co-occurs than independence predicts, in
    bits, with negative evidence discarded. Cells with zero counts stay
    exactly zero, so rows remain sparse and serve directly as word vectors.
    """
    import scipy.sparse as sp
    total = matrix.total
    if total <= 0:
        raise ValueError("co-occurrence matrix has no mass")
    counts = matrix.counts.tocoo()
    sums = matrix.row_sums
    values = np.log2(counts.data * total / (sums[counts.row] * sums[counts.col]))
    np.maximum(values, 0.0, out=values)
    ppmi = sp.csr_matrix(
        (values, (counts.row, counts.col)), shape=counts.shape, dtype=np.float64
    )
    ppmi.eliminate_zeros()

    occupied = np.diff(ppmi.indptr) > 0
    empty = int(np.count_nonzero(~occupied))
    if empty:
        log.warning("%d of %d words have all-zero association rows", empty, matrix.size)

    return EmbeddingMatrix(words=matrix.vocabulary.words, vectors=ppmi, model=Model.PPMI)
