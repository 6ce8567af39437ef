"""Windowed word-context co-occurrence counts over a tokenized corpus."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .preprocess import TokenizedCorpus, Vocabulary, window_pairs

if TYPE_CHECKING:
    import scipy.sparse as sp


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

    # each ordered pair is counted once per direction: 2 entries per pair
    entries = 2 * sum(len(left) for _, _, left, _ in window_pairs(corpus.documents, window_size))
    if not entries:
        raise ValueError("no token pairs inside the window (documents too short)")
    rows = np.empty(entries, dtype=np.int32)
    cols = np.empty(entries, dtype=np.int32)
    weights = np.empty(entries)
    end = 0
    for _, distance, left, right in window_pairs(corpus.documents, window_size):
        n = len(left)
        rows[end:end + n], rows[end + n:end + 2 * n] = left, right
        cols[end:end + n], cols[end + n:end + 2 * n] = right, left
        weights[end:end + 2 * n] = 1.0 if weighting is Weighting.FLAT else 1.0 / distance
        end += 2 * n
    # scipy keeps the int32 indices as they are; tocsr sums the duplicates
    matrix = sp.coo_matrix((weights, (rows, cols)), shape=(vocab_size, vocab_size)).tocsr()
    return CooccurrenceMatrix(counts=matrix, weighting=weighting, vocabulary=corpus.vocabulary)

