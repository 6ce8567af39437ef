import numpy as np
import pytest
import scipy.sparse as sp

from ocrdrift.cooccur import CooccurrenceMatrix, Weighting, count_cooccurrences
from ocrdrift.ppmi import train_ppmi
from ocrdrift.preprocess import build_vocabulary, encode_documents


def tokenized(docs):
    vocab = build_vocabulary(docs, min_count=1)
    return encode_documents(docs, vocab)


def dense_ppmi_oracle(counts: np.ndarray) -> np.ndarray:
    """Direct dense evaluation: log2 of joint over product of marginals,
    clamped at zero, with empty cells staying zero."""
    total = counts.sum()
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    out = np.zeros_like(counts, dtype=np.float64)
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j] > 0:
                pmi = np.log2((counts[i, j] * total) / (row[i] * col[j]))
                out[i, j] = max(pmi, 0.0)
    return out


def matrix_from_dense(dense: np.ndarray) -> CooccurrenceMatrix:
    vocab = build_vocabulary([[f"w{i}" for i in range(dense.shape[0])]], min_count=1)
    return CooccurrenceMatrix(
        counts=sp.csr_matrix(dense.astype(np.float64)),
        weighting=Weighting.FLAT,
        vocabulary=vocab,
    )


class TestPpmiValues:
    def test_independent_pair_scores_zero(self):
        # equal counts everywhere: joint = product of marginals
        m = matrix_from_dense(np.full((2, 2), 3.0))
        emb = train_ppmi(m)
        assert emb.vectors.nnz == 0

    def test_alternating_corpus_matches_dense_oracle(self):
        tc = tokenized([["a", "b", "a", "b", "a", "b"]])
        m = count_cooccurrences(tc, 1, Weighting.FLAT)
        emb = train_ppmi(m)
        oracle = dense_ppmi_oracle(m.counts.toarray())
        np.testing.assert_allclose(emb.vectors.toarray(), oracle, atol=1e-12)

    def test_negative_association_clamped_and_dropped(self):
        # diagonal-heavy counts make off-diagonal pairs under-represented
        dense = np.array([[10.0, 1.0], [1.0, 10.0]])
        emb = train_ppmi(matrix_from_dense(dense))
        out = emb.vectors.toarray()
        assert out[0, 1] == 0.0
        assert out[0, 0] > 0.0
        stored = emb.vectors
        assert stored.nnz == 2  # clamped zeros are not stored

    @pytest.mark.parametrize("seed", range(5))
    def test_random_corpus_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(15)]
        docs = [
            [words[i] for i in rng.integers(0, 15, size=rng.integers(2, 80))]
            for _ in range(6)
        ]
        m = count_cooccurrences(tokenized(docs), int(rng.integers(1, 5)), Weighting.FLAT)
        emb = train_ppmi(m)
        oracle = dense_ppmi_oracle(m.counts.toarray())
        assert np.abs(emb.vectors.toarray() - oracle).max() < 1e-10

    def test_scaling_counts_leaves_ppmi_unchanged(self):
        tc = tokenized([["a", "b", "c", "a", "c", "b", "a"]])
        m = count_cooccurrences(tc, 2, Weighting.FLAT)
        scaled = CooccurrenceMatrix(
            counts=m.counts * 7.0,
            weighting=m.weighting,
            vocabulary=m.vocabulary,
        )
        a = train_ppmi(m).vectors.toarray()
        b = train_ppmi(scaled).vectors.toarray()
        assert np.abs(a - b).max() < 1e-10

    def test_all_values_nonnegative(self):
        rng = np.random.default_rng(3)
        dense = rng.integers(0, 9, size=(10, 10)).astype(float)
        dense = dense + dense.T
        emb = train_ppmi(matrix_from_dense(dense))
        assert emb.vectors.data.size == 0 or emb.vectors.data.min() >= 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            train_ppmi(matrix_from_dense(np.zeros((3, 3))))

    def test_all_zero_rows_reported(self, caplog):
        with caplog.at_level("WARNING"):
            train_ppmi(matrix_from_dense(np.full((2, 2), 3.0)))
        assert any("all-zero" in rec.message for rec in caplog.records)

    def test_rows_cover_vocabulary(self):
        tc = tokenized([["a", "b", "c", "a"]])
        emb = train_ppmi(count_cooccurrences(tc, 2, Weighting.FLAT))
        assert emb.vectors.shape[0] == len(tc.vocabulary)
        assert emb.words == tc.vocabulary.words
