import numpy as np
import pytest
import scipy.sparse as sp

from ocrdrift.cooccur import CooccurrenceMatrix, Weighting, count_cooccurrences
from ocrdrift.embeddings import Model, TrainConfig
from ocrdrift.glove import X_MAX, cell_weight, glove_objective, train_glove
from ocrdrift.preprocess import build_vocabulary, encode_documents
from ocrdrift.synthetic import synthetic_documents


def tokenized(docs):
    vocab = build_vocabulary(docs, min_count=1)
    return encode_documents(docs, vocab)


def harmonic_matrix(docs, window=3):
    return count_cooccurrences(tokenized(docs), window, Weighting.HARMONIC)


def config(**kwargs):
    defaults = dict(model=Model.GLOVE, dim=8, epochs=50, seed=0, batch_size=64)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestCellWeight:
    def test_cap_at_x_max(self):
        assert cell_weight(X_MAX) == 1.0
        assert cell_weight(X_MAX * 10) == 1.0

    def test_monotone_below_cap(self):
        xs = np.linspace(0.1, X_MAX, 50)
        w = cell_weight(xs)
        assert np.all(np.diff(w) > 0)
        assert np.all(w <= 1.0)


class TestObjective:
    def test_symmetric_under_role_swap(self):
        m = harmonic_matrix([["a", "b", "c", "a", "b"] * 4])
        rng = np.random.default_rng(0)
        n = m.size
        W, Cw = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        bw, bc = rng.normal(size=n), rng.normal(size=n)
        # the count matrix is symmetric, so swapping word/context roles
        # leaves the objective unchanged
        assert glove_objective(m, W, Cw, bw, bc) == pytest.approx(
            glove_objective(m, Cw, W, bc, bw)
        )


class TestTraining:
    def test_single_cell_system_solvable(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        counts = sp.csr_matrix(np.array([[0.0, 4.0], [0.0, 0.0]]))
        m = CooccurrenceMatrix(counts=counts, window_size=1,
                               weighting=Weighting.HARMONIC, vocabulary=vocab)
        log = []
        train_glove(m, config(epochs=500), objective_log=log)
        assert log[-1] < 1e-6

    def test_loss_non_increasing_on_synthetic_corpus(self):
        docs = synthetic_documents(6_000, seed=5, n_types=50, n_topics=5, doc_chars=600)
        m = harmonic_matrix([d.split() for d in docs], window=4)
        log = []
        train_glove(m, config(epochs=30, batch_size=256), objective_log=log)
        diffs = np.diff(log)
        assert np.all(diffs <= 1e-9)

    def test_deterministic_for_seed(self):
        m = harmonic_matrix([["a", "b", "c", "d"] * 20])
        e1 = train_glove(m, config(epochs=5))
        e2 = train_glove(m, config(epochs=5))
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_output_covers_vocabulary(self):
        m = harmonic_matrix([["a", "b", "c", "d"] * 20])
        emb = train_glove(m, config(epochs=2, dim=12))
        assert emb.vectors.shape == (m.size, 12)
        assert emb.words == m.vocabulary.words
        assert emb.model is Model.GLOVE

    def test_flat_weighting_rejected(self):
        tc = tokenized([["a", "b", "a", "b"]])
        flat = count_cooccurrences(tc, 2, Weighting.FLAT)
        with pytest.raises(ValueError, match="harmonic"):
            train_glove(flat, config())

    def test_empty_matrix_rejected(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        empty = CooccurrenceMatrix(
            counts=sp.csr_matrix((2, 2)), window_size=1,
            weighting=Weighting.HARMONIC, vocabulary=vocab,
        )
        with pytest.raises(ValueError, match="nonzero"):
            train_glove(empty, config())
