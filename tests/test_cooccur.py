import numpy as np
import pytest

from ocrdrift.cooccur import Weighting, count_cooccurrences
from ocrdrift.preprocess import build_vocabulary, encode_documents


def tokenized(docs, min_count=1):
    vocab = build_vocabulary(docs, min_count=min_count)
    return encode_documents(docs, vocab)


def cell(matrix, w, c):
    vocab = matrix.vocabulary
    return matrix.counts[vocab.word_to_id[w], vocab.word_to_id[c]]


def dense_oracle(docs_ids, vocab_size, window, weighting):
    """Per-position enumeration of every (token, neighbor) pair."""
    out = np.zeros((vocab_size, vocab_size))
    for doc in docs_ids:
        n = len(doc)
        for i in range(n):
            for j in range(max(0, i - window), min(n, i + window + 1)):
                if j == i:
                    continue
                w = 1.0 if weighting is Weighting.FLAT else 1.0 / abs(i - j)
                out[doc[i], doc[j]] += w
    return out


class TestCounting:
    def test_adjacent_pair_flat(self):
        m = count_cooccurrences(tokenized([["a", "b"]]), 1, Weighting.FLAT)
        assert cell(m, "a", "b") == 1
        assert cell(m, "b", "a") == 1
        assert m.total == 2

    def test_three_tokens_window_two_flat(self):
        m = count_cooccurrences(tokenized([["a", "b", "a"]]), 2, Weighting.FLAT)
        assert cell(m, "a", "b") == 2
        assert cell(m, "b", "a") == 2
        assert cell(m, "a", "a") == 2
        # the total is the sum of the cells: windows clip at the
        # document edges, so position 1 has no distance-2 neighbors
        assert m.total == 6

    def test_distance_two_harmonic_weight(self):
        m = count_cooccurrences(tokenized([["a", "b", "c"]]), 2, Weighting.HARMONIC)
        assert cell(m, "a", "c") == 0.5

    def test_single_token_documents_yield_no_pairs(self):
        with pytest.raises(ValueError, match="window"):
            count_cooccurrences(tokenized([["a"], ["b"]]), 5, Weighting.FLAT)

    def test_windows_do_not_cross_documents(self):
        joined = count_cooccurrences(tokenized([["a", "b", "c", "d"]]), 3, Weighting.FLAT)
        split = count_cooccurrences(tokenized([["a", "b"], ["c", "d"]]), 3, Weighting.FLAT)
        assert cell(split, "a", "c") == 0
        assert cell(joined, "a", "c") == 1

    def test_empty_corpus_is_error(self):
        tc = tokenized([["a", "b"]])
        empty = type(tc)(documents=(), vocabulary=tc.vocabulary)
        with pytest.raises(ValueError):
            count_cooccurrences(empty, 2, Weighting.FLAT)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            count_cooccurrences(tokenized([["a", "b"]]), 0, Weighting.FLAT)


class TestMatrixProperties:
    @pytest.mark.parametrize("weighting", [Weighting.FLAT, Weighting.HARMONIC])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_oracle(self, seed, weighting):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(12)]
        docs = [
            [words[i] for i in rng.integers(0, 12, size=rng.integers(2, 60))]
            for _ in range(rng.integers(1, 12))
        ]
        tc = tokenized(docs)
        window = int(rng.integers(1, 6))
        m = count_cooccurrences(tc, window, weighting)
        oracle = dense_oracle(tc.documents, len(tc.vocabulary), window, weighting)
        np.testing.assert_allclose(m.counts.toarray(), oracle, atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(8)]
        docs = [[words[i] for i in rng.integers(0, 8, size=40)]]
        m = count_cooccurrences(tokenized(docs), 4, Weighting.HARMONIC)
        dense = m.counts.toarray()
        np.testing.assert_allclose(dense, dense.T)

    def test_document_permutation_invariance(self):
        docs = [["a", "b", "c"], ["b", "c"], ["a", "a", "b"]]
        m1 = count_cooccurrences(tokenized(docs), 2, Weighting.FLAT)
        m2 = count_cooccurrences(tokenized(docs[::-1]), 2, Weighting.FLAT)
        np.testing.assert_array_equal(m1.counts.toarray(), m2.counts.toarray())

    def test_doubled_corpus_doubles_counts(self):
        docs = [["a", "b", "c", "a"], ["c", "b"]]
        m1 = count_cooccurrences(tokenized(docs), 2, Weighting.FLAT)
        m2 = count_cooccurrences(tokenized(docs + docs), 2, Weighting.FLAT)
        np.testing.assert_allclose(m2.counts.toarray(), 2 * m1.counts.toarray())

    def test_row_sums_consistent(self):
        docs = [["a", "b", "c", "a", "b"]]
        m = count_cooccurrences(tokenized(docs), 2, Weighting.HARMONIC)
        np.testing.assert_allclose(m.row_sums, m.counts.toarray().sum(axis=1))
        assert m.total == pytest.approx(m.counts.toarray().sum())

