"""The training hot path against its simple reference implementations.

Grouping sorts small ids as uint16 (numpy's radix sort) and negative
sampling resolves most draws through a guide table. Both must give exactly
what an int64 stable argsort and a binary search on every draw give, so
trained vectors stay byte-identical.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ocrdrift import util, word2vec
from ocrdrift.cooccur import Weighting, count_cooccurrences
from ocrdrift.embeddings import Model, RateProfile, TrainConfig
from ocrdrift.glove import train_glove
from ocrdrift.preprocess import build_vocabulary, encode_documents
from ocrdrift.synthetic import synthetic_documents
from ocrdrift.util import _group_csr
from ocrdrift.word2vec import NEGATIVE_POWER, _draw_negatives, _negative_table, train_cbow, train_sgns


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
