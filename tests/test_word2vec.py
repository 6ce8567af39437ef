import numpy as np
import pytest

from ocrdrift.embeddings import Model, RateProfile, TrainConfig
from ocrdrift.preprocess import build_vocabulary, encode_documents
from ocrdrift.util import sigmoid
from ocrdrift.word2vec import (
    _context_table,
    cbow_batch_loss,
    cbow_batch_step,
    sgns_batch_loss,
    sgns_batch_step,
    train_cbow,
    train_sgns,
)


def tokenized(docs):
    vocab = build_vocabulary(docs, min_count=1)
    return encode_documents(docs, vocab)


def central_difference(f, x, h=1e-5):
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        g[i] = (up - down) / (2 * h)
    return grad


def relative_error(analytic, numeric):
    scale = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-8)])
    return float(np.max(np.abs(analytic - numeric) / scale))


def random_batch(rng, model):
    """Float64 W, C and a small batch over a few words, so rows collide:
    repeated centers, a positive target that is also one of its row's
    negatives, a negative drawn twice and, for CBOW, masked slots that
    hold real ids (only the mask may exclude them)."""
    V, dim, b, k = (int(rng.integers(lo, hi)) for lo, hi in ((4, 9), (2, 6), (3, 7), (2, 5)))
    W = rng.uniform(-1, 1, (V, dim))
    C = rng.uniform(-1, 1, (V, dim))
    centers = rng.integers(0, V, b).astype(np.int32)
    centers[1] = centers[0]
    negatives = rng.integers(0, V, (b, k)).astype(np.int32)
    negatives[0, 1] = negatives[0, 0]
    if model is Model.SGNS:
        contexts = rng.integers(0, V, b).astype(np.int32)
        negatives[2, 0] = contexts[2]
        return W, C, (centers, contexts, negatives)
    slots = 2 * int(rng.integers(1, 4))
    table = rng.integers(0, V, (b, slots)).astype(np.int32)
    mask = rng.random((b, slots)) < 0.6
    mask[0] = False
    mask[np.arange(b), rng.integers(0, slots, b)] = True
    # in CBOW the center is the positive target
    negatives[2, 0] = centers[2]
    return W, C, (centers, table, mask, negatives)


BATCH_OBJECTIVES = {
    Model.SGNS: (sgns_batch_loss, sgns_batch_step),
    Model.CBOW: (cbow_batch_loss, cbow_batch_step),
}


def step_gradient_error(model, seed):
    """Worst relative error between the move one batch step at rate r makes
    to W and C and -r times the central-difference gradient of the
    model's batch loss on the same batch."""
    rng = np.random.default_rng(seed)
    loss, step = BATCH_OBJECTIVES[model]
    W, C, batch = random_batch(rng, model)
    rate = float(rng.uniform(0.01, 1.0))
    W_after, C_after = W.copy(), C.copy()
    step(W_after, C_after, *batch, rate)
    return max(
        relative_error(after - before, -rate * central_difference(lambda: loss(W, C, *batch), before))
        for before, after in ((W, W_after), (C, C_after))
    )


class TestGradients:
    @pytest.mark.parametrize("seed", range(12))
    def test_sgns_gradients_match_finite_differences(self, seed):
        assert step_gradient_error(Model.SGNS, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(12))
    def test_cbow_gradients_match_finite_differences(self, seed):
        assert step_gradient_error(Model.CBOW, seed) < 1e-4


class TestBatchStep:
    def _batch(self, rng, V, dim, b, k):
        W = rng.uniform(-1, 1, (V, dim))
        C = rng.uniform(-1, 1, (V, dim))
        centers = rng.integers(0, V, b).astype(np.int32)
        contexts = rng.integers(0, V, b).astype(np.int32)
        negatives = rng.integers(0, V, (b, k)).astype(np.int32)
        return W, C, centers, contexts, negatives

    def test_sgns_loss_decreases_for_small_rate(self):
        decreased = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            W, C, centers, contexts, negatives = self._batch(rng, 30, 16, 64, 5)
            before = sgns_batch_loss(W, C, centers, contexts, negatives)
            sgns_batch_step(W, C, centers, contexts, negatives, 1e-4)
            after = sgns_batch_loss(W, C, centers, contexts, negatives)
            decreased += after < before
        assert decreased >= 0.95 * trials

    def test_cbow_loss_decreases_for_small_rate(self):
        decreased = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            V, dim, b, slots = 30, 16, 64, 6
            W = rng.uniform(-1, 1, (V, dim))
            C = rng.uniform(-1, 1, (V, dim))
            centers = rng.integers(0, V, b).astype(np.int32)
            table = rng.integers(0, V, (b, slots)).astype(np.int32)
            mask = rng.random((b, slots)) < 0.8
            mask[:, 0] = True
            negatives = rng.integers(0, V, (b, 5)).astype(np.int32)
            before = cbow_batch_loss(W, C, centers, table, mask, negatives)
            cbow_batch_step(W, C, centers, table, mask, negatives, 1e-4)
            after = cbow_batch_loss(W, C, centers, table, mask, negatives)
            decreased += after < before
        assert decreased >= 0.95 * trials

    def test_sgns_step_matches_add_at_reference(self):
        rng = np.random.default_rng(5)
        W, C, centers, contexts, negatives = self._batch(rng, 20, 8, 100, 3)
        W2, C2 = W.copy(), C.copy()
        rate = 0.05
        sgns_batch_step(W, C, centers, contexts, negatives, rate)

        w = W2[centers]
        cp = C2[contexts]
        cn = C2[negatives]
        pc = sigmoid(np.einsum("bd,bd->b", w, cp)) - 1.0
        nc = sigmoid(np.einsum("bkd,bd->bk", cn, w))
        gw = pc[:, None] * cp + np.einsum("bk,bkd->bd", nc, cn)
        np.add.at(W2, centers, -rate * gw)
        np.add.at(C2, contexts, -rate * pc[:, None] * w)
        np.add.at(C2, negatives.reshape(-1), -rate * (nc[:, :, None] * w[:, None, :]).reshape(-1, 8))
        np.testing.assert_allclose(W, W2, atol=1e-12)
        np.testing.assert_allclose(C, C2, atol=1e-12)

    def test_cbow_step_matches_add_at_reference(self):
        rng = np.random.default_rng(6)
        V, dim, b, slots, k = 20, 8, 100, 6, 3
        W = rng.uniform(-1, 1, (V, dim))
        C = rng.uniform(-1, 1, (V, dim))
        centers = rng.integers(0, V, b).astype(np.int32)
        mask = rng.random((b, slots)) < 0.7
        mask[:, 2] = True
        table = np.where(mask, rng.integers(0, V, (b, slots)), -1).astype(np.int32)
        negatives = rng.integers(0, V, (b, k)).astype(np.int32)
        W2, C2 = W.copy(), C.copy()
        rate = 0.05
        cbow_batch_step(W, C, centers, table, mask, negatives, rate)

        h = np.zeros((b, dim))
        for row in range(b):
            h[row] = W2[table[row][mask[row]]].mean(axis=0)
        o = C2[centers]
        cn = C2[negatives]
        pc = sigmoid(np.einsum("bd,bd->b", h, o)) - 1.0
        nc = sigmoid(np.einsum("bkd,bd->bk", cn, h))
        gh = pc[:, None] * o + np.einsum("bk,bkd->bd", nc, cn)
        for row in range(b):
            members = table[row][mask[row]]
            np.add.at(W2, members, -rate * gh[row] / len(members))
        np.add.at(C2, centers, -rate * pc[:, None] * h)
        np.add.at(C2, negatives.reshape(-1), -rate * (nc[:, :, None] * h[:, None, :]).reshape(-1, dim))
        np.testing.assert_allclose(W, W2, atol=1e-12)
        np.testing.assert_allclose(C, C2, atol=1e-12)


class TestTraining:
    def test_two_word_corpus_nearest_neighbor(self):
        from ocrdrift.overlap import neighbor_sets

        docs = [["a", "b"] * 5000]
        config = TrainConfig(model=Model.SGNS, dim=16, epochs=2, seed=0,
                             rate_profile=RateProfile.FAST, batch_size=512)
        emb = train_sgns(tokenized(docs), config)
        (na, nb) = neighbor_sets(emb, emb.words)
        only_candidate = [i for i, w in enumerate(emb.words) if w != emb.words[na.word]]
        assert list(na.neighbors) == only_candidate

    def test_sgns_bitwise_deterministic(self):
        docs = [["a", "b", "c", "d", "a", "c"] * 50]
        config = TrainConfig(model=Model.SGNS, dim=12, epochs=3, seed=7,
                             rate_profile=RateProfile.SLOW, batch_size=64)
        e1 = train_sgns(tokenized(docs), config)
        e2 = train_sgns(tokenized(docs), config)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_cbow_bitwise_deterministic(self):
        docs = [["a", "b", "c", "d", "a", "c"] * 50]
        config = TrainConfig(model=Model.CBOW, dim=12, epochs=3, seed=7,
                             rate_profile=RateProfile.SLOW, batch_size=64)
        e1 = train_cbow(tokenized(docs), config)
        e2 = train_cbow(tokenized(docs), config)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_different_seeds_differ(self):
        docs = [["a", "b", "c", "d"] * 50]
        base = dict(model=Model.SGNS, dim=12, epochs=1, rate_profile=RateProfile.FAST)
        e1 = train_sgns(tokenized(docs), TrainConfig(seed=1, **base))
        e2 = train_sgns(tokenized(docs), TrainConfig(seed=2, **base))
        assert not np.array_equal(e1.vectors, e2.vectors)

    def test_output_shape_and_coverage(self):
        docs = [["a", "b", "c", "a", "b"] * 10]
        tc = tokenized(docs)
        config = TrainConfig(model=Model.SGNS, dim=24, epochs=1, seed=0,
                             rate_profile=RateProfile.FAST)
        emb = train_sgns(tc, config)
        assert emb.vectors.shape == (len(tc.vocabulary), 24)
        assert emb.words == tc.vocabulary.words
        assert emb.dim == 24
        assert not np.any(np.all(emb.vectors == 0.0, axis=1))

    def test_metadata_recorded(self):
        docs = [["a", "b"] * 30]
        config = TrainConfig(model=Model.CBOW, dim=8, epochs=1, seed=3,
                             rate_profile=RateProfile.FAST)
        emb = train_cbow(tokenized(docs), config)
        assert emb.model is Model.CBOW

    def test_rejects_wrong_model(self):
        config = TrainConfig(model=Model.CBOW, rate_profile=RateProfile.FAST)
        with pytest.raises(ValueError, match="SGNS"):
            train_sgns(tokenized([["a", "b"]]), config)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            TrainConfig(model=Model.SGNS, dim=0, rate_profile=RateProfile.FAST).validated()
        with pytest.raises(ValueError):
            TrainConfig(model=Model.SGNS, epochs=0, rate_profile=RateProfile.FAST).validated()
        for field, value in (("negative_samples", 0), ("batch_size", 0), ("learning_rate", -1e-3)):
            with pytest.raises(ValueError, match=field):
                train_sgns(tokenized([["a", "b"] * 30]),
                           TrainConfig(model=Model.SGNS, rate_profile=RateProfile.FAST, **{field: value}))

    def test_rejects_no_pairs(self):
        config = TrainConfig(model=Model.SGNS, dim=4, rate_profile=RateProfile.FAST)
        with pytest.raises(ValueError, match="pairs"):
            train_sgns(tokenized([["a"], ["b"]]), config)


class TestContextTable:
    def test_window_covering_whole_three_token_document(self):
        tc = tokenized([["a", "b", "c"]])
        centers, table, mask = _context_table(tc.documents, window=5)
        assert len(centers) == 3
        # every position sees exactly the other two tokens
        assert list(mask.sum(axis=1)) == [2, 2, 2]

    def test_edge_positions_have_partial_windows(self):
        tc = tokenized([["a", "b", "c", "d", "e"]])
        _, _, mask = _context_table(tc.documents, window=2)
        assert list(mask.sum(axis=1)) == [2, 3, 4, 3, 2]
