"""The training hot path against its simple reference implementations.

Grouping sorts small ids as uint16 (numpy's radix sort) and negative
sampling resolves most draws through a guide table. Both must give exactly
what an int64 stable argsort and a binary search on every draw give, so
trained vectors stay byte-identical. The skip-gram pairs, the CBOW context
table and the co-occurrence counts all come from one window enumerator and
must equal what a window loop of their own gives.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ocrdrift import util, word2vec
from ocrdrift.cooccur import Weighting, count_cooccurrences
from ocrdrift.embeddings import Model, RateProfile, TrainConfig
from ocrdrift.glove import train_glove
from ocrdrift.preprocess import TokenizedCorpus, Vocabulary, build_vocabulary, encode_documents
from ocrdrift.synthetic import synthetic_documents
from ocrdrift.util import _group_csr
from ocrdrift.word2vec import (
    NEGATIVE_POWER,
    _context_table,
    _draw_negatives,
    _negative_table,
    _skipgram_pairs,
    train_cbow,
    train_sgns,
)


def reference_group_csr(rows, n_cols, data, cols):
    order = np.argsort(rows.astype(np.int64), kind="stable")
    sorted_rows = rows[order]
    # the slice drops the leading True when there are no rows at all
    starts = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1]][: len(order)])
    indptr = np.append(starts, len(order)).astype(np.int64)
    matrix = sp.csr_matrix((data[order], cols[order], indptr), shape=(len(starts), n_cols))
    return sorted_rows[starts], matrix


def reference_draw_negatives(rng, table, shape):
    return np.searchsorted(table.cdf, rng.random(shape), side="right").astype(np.int32)


class FixedDraws:
    """Stands in for a Generator whose random() returns preset values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, shape):
        return self.values.reshape(shape)


def assert_same_grouping(rows, n_cols, data, cols):
    unique, matrix = _group_csr(rows, n_cols, data, cols)
    ref_unique, ref_matrix = reference_group_csr(rows, n_cols, data, cols)
    assert unique.dtype == ref_unique.dtype
    np.testing.assert_array_equal(unique, ref_unique)
    assert matrix.shape == ref_matrix.shape
    np.testing.assert_array_equal(matrix.indptr, ref_matrix.indptr)
    np.testing.assert_array_equal(matrix.indices, ref_matrix.indices)
    np.testing.assert_array_equal(matrix.data, ref_matrix.data)


class TestGroupCsr:
    @pytest.mark.parametrize("low,high", [(0, 40), (65_500, 65_536), (65_530, 65_540), (65_536, 70_000)])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_int64_stable_argsort(self, low, high, dtype):
        rng = np.random.default_rng(low)
        n = 5_000
        rows = rng.integers(low, high, n).astype(dtype)
        data = rng.normal(size=n)
        cols = rng.integers(0, 300, n)
        assert_same_grouping(rows, 300, data, cols)

    def test_ids_on_the_uint16_boundary(self):
        rows = np.array([65_535, 0, 65_535, 65_534, 0, 65_535], dtype=np.int32)
        assert_same_grouping(rows, 6, np.arange(6.0), np.arange(6))

    def test_empty_input(self):
        rows = np.empty(0, dtype=np.int32)
        assert_same_grouping(rows, 4, np.empty(0), np.empty(0, dtype=np.int64))
        assert _group_csr(rows, 4, np.empty(0), np.empty(0, dtype=np.int64))[1].shape == (0, 4)
        unique, sums = util.segment_weighted_sums(rows, np.empty(0), np.empty(0, dtype=np.int64),
                                                  np.ones((4, 3)))
        assert len(unique) == 0 and sums.shape == (0, 3)


FREQUENCIES = {
    "flat": np.full(50, 7),
    "zipf": 100_000 // np.arange(1, 3_001),
    "v1": np.array([5]),
    "v2": np.array([1, 1_000]),
    "v_above_2_16": np.random.default_rng(0).zipf(1.5, 70_000).clip(max=10**6),
}


def crafted_draws(table):
    """Values on bucket edges, on CDF values and next to both, all in [0, 1)."""
    size = len(table.guide)
    edges = np.unique(np.r_[np.arange(0, size, 97), size - 1]) / size
    points = np.r_[edges, table.cdf]
    values = np.r_[points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)]
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


class TestNegativeSampling:
    @pytest.mark.parametrize("name", FREQUENCIES)
    def test_matches_searchsorted_on_seeded_draws(self, name):
        table = _negative_table(FREQUENCIES[name])
        for seed in range(20):
            drawn = _draw_negatives(np.random.default_rng(seed), table, (257, 5))
            expected = reference_draw_negatives(np.random.default_rng(seed), table, (257, 5))
            assert drawn.dtype == np.int32
            np.testing.assert_array_equal(drawn, expected)

    @pytest.mark.parametrize("name", FREQUENCIES)
    def test_matches_searchsorted_on_crafted_draws(self, name):
        table = _negative_table(FREQUENCIES[name])
        u = crafted_draws(table)
        drawn = _draw_negatives(FixedDraws(u), table, u.shape)
        np.testing.assert_array_equal(drawn, np.searchsorted(table.cdf, u, side="right"))

    @pytest.mark.parametrize("name", FREQUENCIES)
    def test_table_size(self, name):
        size = len(_negative_table(FREQUENCIES[name]).guide)
        assert size & (size - 1) == 0
        assert size >= max(1 << 16, 4 * len(FREQUENCIES[name]))

    def test_draw_just_below_one_stays_in_vocabulary(self):
        frequencies = np.array([24, 26, 38])
        weights = frequencies.astype(np.float64) ** NEGATIVE_POWER
        # the raw cumulative sum of this vector ends one ulp below 1
        assert np.cumsum(weights / weights.sum())[-1] < 1.0
        table = _negative_table(frequencies)
        drawn = _draw_negatives(FixedDraws(np.full(12, np.nextafter(1.0, 0.0))), table, (4, 3))
        assert np.all(drawn < len(frequencies))


def _corpus():
    docs = [d.split() for d in synthetic_documents(20_000, seed=4, n_types=120, n_topics=6,
                                                   doc_chars=500)]
    vocab = build_vocabulary(docs, min_count=1)
    return encode_documents(docs, vocab)


def _train(model):
    corpus = _corpus()
    config = TrainConfig(model=model, dim=16, epochs=2, seed=9,
                         rate_profile=RateProfile.SLOW, batch_size=512)
    if model is Model.SGNS:
        return train_sgns(corpus, config).vectors
    if model is Model.CBOW:
        return train_cbow(corpus, config).vectors
    return train_glove(count_cooccurrences(corpus, 4, Weighting.HARMONIC), config).vectors


@pytest.mark.parametrize("model", [Model.SGNS, Model.CBOW, Model.GLOVE])
def test_training_matches_reference_paths(monkeypatch, model):
    fast = _train(model)
    monkeypatch.setattr(util, "_group_csr", reference_group_csr)
    monkeypatch.setattr(word2vec, "_draw_negatives", reference_draw_negatives)
    reference = _train(model)
    assert np.array_equal(fast, reference)


# ----------------------------------------------------------------------
# window enumeration: each consumer against its own window loop
# ----------------------------------------------------------------------

def reference_skipgram_pairs(documents, window):
    centers, contexts = [], []
    for doc in documents:
        n = len(doc)
        if n < 2:
            continue
        for distance in range(1, min(window, n - 1) + 1):
            left = doc[:-distance]
            right = doc[distance:]
            centers.append(left)
            contexts.append(right)
            centers.append(right)
            contexts.append(left)
    if not centers:
        raise ValueError("corpus has no token pairs inside the window")
    return np.concatenate(centers).astype(np.int32), np.concatenate(contexts).astype(np.int32)


def reference_context_table(documents, window):
    offsets = [s for s in range(-window, window + 1) if s != 0]
    center_parts, table_parts = [], []
    for doc in documents:
        n = len(doc)
        if n < 2:
            continue
        table = np.full((n, len(offsets)), -1, dtype=np.int32)
        for slot, s in enumerate(offsets):
            if abs(s) >= n:
                continue
            if s < 0:
                table[-s:, slot] = doc[: n + s]
            else:
                table[: n - s, slot] = doc[s:]
        center_parts.append(doc.astype(np.int32))
        table_parts.append(table)
    if not center_parts:
        raise ValueError("corpus has no token pairs inside the window")
    table = np.concatenate(table_parts, axis=0)
    return np.concatenate(center_parts), table, table >= 0


def reference_cooccurrences(corpus, window_size, weighting):
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    if not any(len(doc) for doc in corpus.documents):
        raise ValueError("cannot count co-occurrences of an empty corpus")
    size = len(corpus.vocabulary)
    rows, cols, weights = [], [], []
    for doc in corpus.documents:
        n = len(doc)
        if n < 2:
            continue
        for distance in range(1, min(window_size, n - 1) + 1):
            left = doc[:-distance].astype(np.int64)
            right = doc[distance:].astype(np.int64)
            w = 1.0 if weighting is Weighting.FLAT else 1.0 / distance
            rows.append(left)
            cols.append(right)
            rows.append(right)
            cols.append(left)
            weights.append(np.full(2 * len(left), w))
    if not rows:
        raise ValueError("no token pairs inside the window (documents too short)")
    matrix = sp.coo_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    ).tocsr()
    matrix.sum_duplicates()
    return matrix


VOCAB_SIZE = 15
VOCAB = Vocabulary(word_to_id={f"w{i}": i for i in range(VOCAB_SIZE)},
                   frequencies=np.arange(VOCAB_SIZE, 0, -1), min_count=1)


def random_documents(seed):
    """0-6 documents of 0-9 tokens, so empty and one-token documents are common."""
    rng = np.random.default_rng(seed)
    return tuple(
        rng.integers(0, VOCAB_SIZE, int(rng.integers(0, 10))).astype(np.int32)
        for _ in range(int(rng.integers(0, 7)))
    )


def outcome(fn, *args):
    """The returned arrays, or the ValueError's message."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return str(exc)
    return result if isinstance(result, tuple) else (result.indptr, result.indices, result.data)


def assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def assert_consumers_match(docs, window):
    assert_same_outcome(outcome(_skipgram_pairs, docs, window),
                        outcome(reference_skipgram_pairs, docs, window))
    assert_same_outcome(outcome(_context_table, docs, window),
                        outcome(reference_context_table, docs, window))
    corpus = TokenizedCorpus(documents=docs, vocabulary=VOCAB)
    for weighting in Weighting:
        assert_same_outcome(
            outcome(lambda *a: count_cooccurrences(*a).counts, corpus, window, weighting),
            outcome(reference_cooccurrences, corpus, window, weighting),
        )


FIXED_CORPORA = {
    "empty": (),
    "all_short": (np.array([], dtype=np.int32), np.array([3], dtype=np.int32)),
    "two_tokens": (np.array([1, 2], dtype=np.int32),),
    "mixed": (np.array([4], dtype=np.int32), np.arange(7, dtype=np.int32),
              np.array([], dtype=np.int32), np.array([9, 9, 1], dtype=np.int32)),
}


class TestWindowEnumeration:
    @pytest.mark.parametrize("window", [1, 2, 6, 7, 50])
    @pytest.mark.parametrize("name", FIXED_CORPORA)
    def test_fixed_corpora(self, name, window):
        assert_consumers_match(FIXED_CORPORA[name], window)

    def test_random_corpora(self):
        raised = 0
        for seed in range(300):
            docs, window = random_documents(seed), 1 + seed % 11
            assert_consumers_match(docs, window)
            raised += isinstance(outcome(_skipgram_pairs, docs, window), str)
        # both the error path and the array path are exercised
        assert 0 < raised < 300
