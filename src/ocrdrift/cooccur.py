"""Windowed word-context co-occurrence counts over a tokenized corpus."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .preprocess import TokenizedCorpus, Vocabulary, window_pairs


class Weighting(Enum):
    FLAT = "flat"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class CooccurrenceMatrix:
    """Sparse symmetric counts of words seen within a window of each other.

    counts[w, c] accumulates one unit (flat) or 1/distance (harmonic) for
    every corpus position where word w has word c at that distance on
    either side, never across document boundaries.
    """

    counts: sp.csr_matrix
    window_size: int
    weighting: Weighting
    vocabulary: Vocabulary

    @property
    def row_sums(self) -> np.ndarray:
        return np.asarray(self.counts.sum(axis=1)).ravel()

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def count_cooccurrences(
    corpus: TokenizedCorpus,
    window_size: int = 5,
    weighting: Weighting = Weighting.FLAT,
) -> CooccurrenceMatrix:
    import scipy.sparse as sp
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    if not any(len(doc) for doc in corpus.documents):
        raise ValueError("cannot count co-occurrences of an empty corpus")
    vocab_size = len(corpus.vocabulary)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for _, distance, left, right in window_pairs(corpus.documents, window_size):
        left = left.astype(np.int64)
        right = right.astype(np.int64)
        w = 1.0 if weighting is Weighting.FLAT else 1.0 / distance
        # each ordered pair is counted once per direction
        rows += (left, right)
        cols += (right, left)
        weights.append(np.full(2 * len(left), w))

    if not rows:
        raise ValueError("no token pairs inside the window (documents too short)")
    matrix = sp.coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(vocab_size, vocab_size),
    ).tocsr()
    matrix.sum_duplicates()
    return CooccurrenceMatrix(
        counts=matrix,
        window_size=window_size,
        weighting=weighting,
        vocabulary=corpus.vocabulary,
    )

