"""The training hot path against its simple reference implementations.

Grouping sorts ids below 2**16 as uint16 keys (numpy's radix sort) and
negative sampling resolves most draws through a guide table. Both must
give exactly what an int64 stable argsort and a binary search on every
draw give, so trained vectors stay byte-identical. The skip-gram pairs,
the CBOW context table and the co-occurrence counts all come from one
window enumerator and must equal what a window loop of their own gives.

Evaluation ranks each block by one value sort of int64 keys that carry
the candidate index in their low bits, and re-sorts the rows where
distinct cosines share a key's high bits. Blocks are sized by a byte
budget, and every grid row is bootstrapped from one set of resample
counts. The orderings must equal a stable argsort, also for cosines 1 ulp
apart, signed zeros and sizes on either side of an index-bit boundary.
The curve means must equal the exact fractions of summed shared-neighbor
counts, and the bands must equal plain per-resample means of the same
draws. Ranking a pair and bootstrapping a curve must each stay within
its stated memory, as must a whole `evaluate` command over one run and
over three.
Blocks are ranked by a pool of threads: any worker count must give the
same count table, and importing ocrdrift must hold OpenBLAS to one thread.

Skip-gram trains through CBOW's step, with each center as a one-slot
row of inputs. That step must move W and C exactly as skip-gram's own
kernel did, which took each center's W row as the hidden vector. The
step and the loss score a batch a bounded chunk of gathered rows at a
time: at any chunk size they must give what whole-batch gathers gave,
and a step must stay within its stated memory. So must co-occurrence
counting.

`train` runs its (model, version, run) jobs in worker processes. Its
files, manifest and progress lines must equal those of a plain loop that
trains the same jobs one after another in config order.

Synthetic noise is applied to codepoint arrays, with every insertion
made by one np.insert per side. It must give the strings of the loop
over Python lists it replaced, from the same three draws.

Word error rates come from a bit-parallel edit distance that keeps one
Python-int bit per ground-truth word. It must give the same integers as
the numpy DP it replaced, which runs one vectorized row per OCR word.

A GloVe batch step takes its dot products a bounded chunk of gathered
rows at a time and its gradient sums straight from the parameter
matrices. It must give the same vectors and objective log as the loop it
replaced, which gathered whole batches and formed each gradient row, and
it must hold no (batch, dim) array. Its bias sums come from bincount and
must equal the grouped sums it replaced. The text export formats a row
at a time and must write the bytes that formatting each numpy scalar
wrote.
"""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrdrift import cli, glove, overlap, util, word2vec
from ocrdrift.config import load_config
from ocrdrift.cooccur import Weighting, count_cooccurrences
from ocrdrift.corpus import PAD, Version, load_corpus, save_paired_files
from ocrdrift.embeddings import (
    EmbeddingMatrix,
    Model,
    TrainConfig,
    load_embeddings,
    save_embeddings,
)
from ocrdrift.glove import train_glove
from ocrdrift.overlap import (
    BLOCK_BYTES,
    BOOTSTRAP_CHUNK,
    _bootstrap_bands,
    _descending_order,
    _normalized_rows,
    _similarities,
    evaluate_pair,
    k_for_fraction,
    overlap_curve,
)
from ocrdrift.noise import NoiseSpec, _word_edit_distance, corpus_error_rates, inject_noise
from ocrdrift.ppmi import train_ppmi
from ocrdrift.preprocess import (
    TokenizedCorpus,
    Vocabulary,
    build_vocabulary,
    encode_documents,
    preprocess_corpus,
    window_pairs,
)
from ocrdrift.synthetic import noisy_corpus, synthetic_documents
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


def reference_segment_sums(rows, updates):
    """Update rows summed per distinct index, as a one-hot CSR product:
    the grouping GloVe's biases and skip-gram's W took before bincount
    and the shared word2vec step."""
    ones = np.ones(len(rows), dtype=updates.dtype)
    cols = np.arange(len(rows), dtype=np.int64)
    unique, matrix = _group_csr(rows, len(rows), ones, cols)
    return unique, matrix @ updates


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

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_ids_up_to_2_31(self, dtype):
        rng = np.random.default_rng(9)
        n = 5_000
        # repeats, equal low halves with different high halves, and the extremes
        rows = rng.choice(rng.integers(0, 2**31 - 1, 300), n)
        rows[:200] = (rng.integers(1, 2**15, 200) << 16) | 7
        rows[200:210] = [0, 2**31 - 1, 65_535, 65_536, 2**31 - 1, 0, 65_536, 1, 2**16 + 1, 2**30]
        rows = rows.astype(dtype)
        assert_same_grouping(rows, 300, rng.normal(size=n), rng.integers(0, 300, n))

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
                         learning_rate=1e-4, batch_size=512)
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
# skip-gram: the shared step on one-slot rows against its own kernel
# ----------------------------------------------------------------------

def reference_sgns_batch_step(W, C, centers, contexts, negatives, rate):
    """The skip-gram step as written before CBOW's step took it over:
    each center's own W row is the hidden vector."""
    w = W.take(centers, axis=0)
    cp = C.take(contexts, axis=0)
    cn = C.take(negatives, axis=0)
    pos_coef = (util.sigmoid(np.einsum("bd,bd->b", w, cp)) - 1.0) * (-rate)
    neg_coef = util.sigmoid(np.einsum("bkd,bd->bk", cn, w)) * (-rate)
    d_w = pos_coef[:, None] * cp + np.einsum("bk,bkd->bd", neg_coef, cn)
    unique, sums = reference_segment_sums(centers, d_w)
    W[unique] += sums
    rows = np.concatenate([contexts, negatives.ravel()])
    weights = np.concatenate([pos_coef, neg_coef.ravel()])
    b, k = negatives.shape
    index = np.concatenate([np.arange(b), np.repeat(np.arange(b), k)])
    unique, sums = util.segment_weighted_sums(rows, weights, index, w)
    C[unique] += sums


@pytest.mark.parametrize("dim", [7, 48])
@pytest.mark.parametrize("pairs", [1, 997, 16_384])
def test_one_slot_step_matches_skipgram_kernel(pairs, dim):
    rng = np.random.default_rng(pairs + dim)
    V = 300
    W = rng.uniform(-0.5, 0.5, (V, dim)).astype(np.float32)
    C = rng.uniform(-0.5, 0.5, (V, dim)).astype(np.float32)
    # a small vocabulary repeats centers; half the batch shares a few more
    centers = rng.integers(0, V, pairs).astype(np.int32)
    centers[: pairs // 2] = centers[: pairs // 2] % 5
    contexts = rng.integers(0, V, pairs).astype(np.int32)
    negatives = rng.integers(0, V, (pairs, 5)).astype(np.int32)
    ref_W, ref_C = W.copy(), C.copy()
    for rate in (0.025, 0.0125):
        word2vec.batch_step(W, C, contexts, centers[:, None], negatives, rate)
        reference_sgns_batch_step(ref_W, ref_C, centers, contexts, negatives, rate)
    assert np.array_equal(W, ref_W)
    assert np.array_equal(C, ref_C)


# ----------------------------------------------------------------------
# word2vec: scores from bounded chunks of gathered rows
# ----------------------------------------------------------------------

def reference_batch_loss(W, C, targets, inputs, negatives):
    """The loss from whole-batch gathers of C."""
    h = word2vec._hidden(W, inputs)[0]
    pos = np.einsum("bd,bd->b", h, C[targets])
    neg = np.einsum("bkd,bd->bk", C[negatives], h)
    return float(-(util.log_sigmoid(pos).sum() + util.log_sigmoid(-neg).sum()))


def reference_batch_step(W, C, targets, inputs, negatives, rate):
    """The step from whole-batch gathers of C: it held the
    (batch, negatives, dim) rows of every negative at once."""
    h, members, weights, batch_idx = word2vec._hidden(W, inputs)
    o = C.take(targets, axis=0)
    cn = C.take(negatives, axis=0)
    pos_coef = (util.sigmoid(np.einsum("bd,bd->b", h, o)) - 1.0) * (-rate)
    neg_coef = util.sigmoid(np.einsum("bkd,bd->bk", cn, h)) * (-rate)
    d_h = pos_coef[:, None] * o + np.einsum("bk,bkd->bd", neg_coef, cn)
    unique, sums = util.segment_weighted_sums(members, weights, batch_idx, d_h)
    W[unique] += sums
    rows = np.concatenate([targets, negatives.ravel()])
    coefs = np.concatenate([pos_coef, neg_coef.ravel()])
    b, k = negatives.shape
    index = np.concatenate([np.arange(b), np.repeat(np.arange(b), k)])
    unique, sums = util.segment_weighted_sums(rows, coefs, index, h)
    C[unique] += sums


def word2vec_batch(model, dim, b=100, k=5, V=40, slots=6, seed=0):
    """Float32 W, C (as training keeps them) and a batch over V words.
    Skip-gram inputs are one slot; CBOW rows have -1 slots, and at least
    one input each."""
    rng = np.random.default_rng(seed + dim)
    W, C = rng.uniform(-0.5, 0.5, (2, V, dim)).astype(np.float32)
    targets = rng.integers(0, V, b).astype(np.int32)
    negatives = rng.integers(0, V, (b, k)).astype(np.int32)
    if model is Model.SGNS:
        return W, C, (targets, rng.integers(0, V, (b, 1)).astype(np.int32), negatives)
    inputs = np.where(rng.random((b, slots)) < 0.6, rng.integers(0, V, (b, slots)), -1)
    inputs[np.arange(b), rng.integers(0, slots, b)] = rng.integers(0, V, b)
    return W, C, (targets, inputs.astype(np.int32), negatives)


def set_chunk_rows(monkeypatch, rows, C, k):
    """util.GATHER_BYTES that fits `rows` batch rows of target and
    negative rows of C."""
    monkeypatch.setattr(util, "GATHER_BYTES", rows * C.itemsize * C.shape[1] * (k + 1))


@pytest.mark.parametrize("model", [Model.SGNS, Model.CBOW])
@pytest.mark.parametrize("dim", [7, 16, 48])
def test_word2vec_chunks_of_any_size(monkeypatch, model, dim):
    """A batch's scores taken 1, 13 (a short last chunk of 9) or all 100
    rows at a time give the whole-batch step's W and C and its loss."""
    W, C, batch = word2vec_batch(model, dim)
    ref_W, ref_C = W.copy(), C.copy()
    ref_losses = [reference_batch_loss(ref_W, ref_C, *batch)]
    for rate in (0.025, 0.0125):
        reference_batch_step(ref_W, ref_C, *batch, rate)
        ref_losses.append(reference_batch_loss(ref_W, ref_C, *batch))
    for rows, chunks in ((1, 100), (13, 8), (100, 1)):
        set_chunk_rows(monkeypatch, rows, C, batch[2].shape[1])
        assert len(word2vec._row_chunks(C, batch[2])) == chunks
        got_W, got_C = W.copy(), C.copy()
        losses = [word2vec.batch_loss(got_W, got_C, *batch)]
        for rate in (0.025, 0.0125):
            word2vec.batch_step(got_W, got_C, *batch, rate)
            losses.append(word2vec.batch_loss(got_W, got_C, *batch))
        assert np.array_equal(got_W, ref_W), rows
        assert np.array_equal(got_C, ref_C), rows
        assert losses == ref_losses, rows


def word2vec_batch_bytes(b, k, slots, dim, V):
    """README's bound on what one float32 batch of b examples with k
    negatives and `slots` input slots adds: 36 b (k + 1 + slots) +
    8 b dim + GATHER_BYTES (k + 3) / (k + 1) + 8 u dim, where
    u = min(b max(k + 1, slots), V) bounds the distinct rows one update
    touches."""
    u = min(b * max(k + 1, slots), V)
    gathered = util.GATHER_BYTES * (k + 3) // (k + 1)
    return 36 * b * (k + 1 + slots) + 8 * b * dim + gathered + 8 * u * dim


@pytest.mark.parametrize("model", [Model.SGNS, Model.CBOW])
def test_word2vec_batch_memory_stays_within_budget(model):
    """One batch step holds O(batch (negatives + slots)) vectors, two
    (batch, dim) arrays, one GATHER_BYTES chunk of gathered rows and the
    per-row sums; no (batch, negatives, dim) array."""
    b, k, dim, V = 16_384, 5, 100, 3_000
    W, C, batch = word2vec_batch(model, dim, b, k, V)
    budget = word2vec_batch_bytes(b, k, batch[1].shape[1], dim, V)
    # the gathered negative rows a whole-batch step held exceed it
    assert 4 * b * k * dim > budget
    word2vec._pair_index.cache_clear()
    assert traced_peak(word2vec.batch_step, W, C, *batch, 0.025) <= budget


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
    # each context word is a target, its center a one-slot input row
    return np.concatenate(contexts).astype(np.int32), np.concatenate(centers).astype(np.int32)[:, None]


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
    return np.concatenate(center_parts), np.concatenate(table_parts, axis=0)


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
                   frequencies=np.arange(VOCAB_SIZE, 0, -1))


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


def test_cooccurrence_memory_stays_within_budget():
    """README's bound on counting P entries (each in-window pair once per
    direction) into N distinct cells over S (document, distance) slices:
    28 P + 12 N + 8 V + 512 S bytes, for the int32 index and float64
    weight arrays written in place, scipy's CSR of them before and after
    its duplicates are summed, and the slice views."""
    docs = [d.split() for d in synthetic_documents(300_000, seed=1, n_types=2_000, n_topics=5,
                                                   doc_chars=1_000)]
    corpus = encode_documents(docs, build_vocabulary(docs, min_count=1))
    lengths = [len(left) for _, _, left, _ in window_pairs(corpus.documents, 5)]
    entries = 2 * sum(lengths)
    for weighting in Weighting:
        cells = count_cooccurrences(corpus, 5, weighting).counts.nnz
        budget = 28 * entries + 12 * cells + 8 * len(corpus.vocabulary) + 512 * len(lengths)
        # the per-slice int64 copies and their concatenation do not fit
        assert 48 * entries > budget
        assert traced_peak(count_cooccurrences, corpus, 5, weighting) <= budget


@pytest.mark.parametrize("weighting", list(Weighting))
def test_cooccurrence_in_place_matches_concatenated_build(weighting):
    """Pairs written in place into one int32/float64 triple give, byte for
    byte, the CSR built from concatenated per-slice int64 copies: the
    same entries in the same order, so duplicates sum in the same order.
    One-token and empty documents and ones shorter than the window sit
    between full ones, so every slice offset moves."""
    docs = [d.split() for d in synthetic_documents(60_000, seed=3, n_types=300, n_topics=5,
                                                   doc_chars=700)]
    documents = encode_documents(docs, build_vocabulary(docs, min_count=1)).documents
    short = (np.array([7], dtype=np.int32), np.array([], dtype=np.int32),
             np.array([1, 2, 1], dtype=np.int32), np.array([4, 4], dtype=np.int32))
    mixed = short[:2] + documents[:20] + short[2:] + documents[20:] + short
    corpus = TokenizedCorpus(documents=mixed, vocabulary=build_vocabulary(docs, min_count=1))
    got = count_cooccurrences(corpus, 5, weighting).counts
    expected = reference_cooccurrences(corpus, 5, weighting)
    for a, b in ((got.indptr, expected.indptr), (got.indices, expected.indices), (got.data, expected.data)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def reference_order(sims):
    return np.argsort(-sims, axis=1, kind="stable")


def reference_order_block(normalized, zero_mask, start, stop):
    """The previous ranking of one query block: a stable argsort."""
    sims = normalized[start:stop] @ normalized.T
    if not isinstance(sims, np.ndarray):
        sims = sims.toarray()
    sims[:, zero_mask] = -1.0
    sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
    return np.argsort(-sims, axis=1, kind="stable")


def reference_neighbors(emb, words, rows=None):
    """Every word's other words, closest first, ranked `rows` query rows
    at a time (all at once by default)."""
    normalized, zero = _normalized_rows(emb, words)
    rows = rows or len(words)
    return np.vstack([
        reference_order_block(normalized, zero, start, min(start + rows, len(words)))[:, :-1]
        for start in range(0, len(words), rows)
    ])


def set_block_rows(monkeypatch, rows, words, *spaces):
    """Make evaluate_pair rank `rows` query rows per block."""
    width = max(len(words), *(emb.vectors.shape[1] for emb in spaces))
    monkeypatch.setattr(overlap, "BLOCK_BYTES", rows * 8 * width)


GRID = [0.02, 0.1, 0.5, 1.0]


def grid_ks(grid, size):
    return [k_for_fraction(n, size) for n in grid]


def assert_same_order(sims):
    expected = reference_order(sims)
    got = _descending_order(sims.copy())
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def external(words, vectors, model=Model.EXTERNAL):
    return EmbeddingMatrix(words=tuple(words), vectors=vectors, model=model)


def exact_tie_vectors(rng, n):
    """Four entries of +-1 per row (norm 2), so every cosine is a multiple
    of 1/4, exact whatever the block shape; every seventh row is zero."""
    signs = rng.choice([-1.0, 1.0], size=(n, 6))
    vectors = signs * (np.argsort(rng.random((n, 6)), axis=1) < 4)
    vectors[::7] = 0.0
    return vectors


def assert_blocks_match(emb, words, rows):
    normalized, zero = _normalized_rows(emb, words)
    size = len(words)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        got = _descending_order(_similarities(normalized, zero, start, stop))
        np.testing.assert_array_equal(got, reference_order_block(normalized, zero, start, stop))
        # the query itself always comes last
        np.testing.assert_array_equal(got[:, -1], np.arange(start, stop))


class TestDescendingOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_tie_heavy(self, seed):
        rng = np.random.default_rng(seed)
        rows, size = int(rng.integers(1, 40)), int(rng.integers(2, 400))
        levels = int(rng.integers(1, 6))
        # a few distinct values per row, so long runs of ties
        sims = rng.integers(-levels, levels + 1, size=(rows, size)) / levels
        # every third row without ties
        sims[::3] = rng.random((len(sims[::3]), size))
        assert_same_order(sims)

    @pytest.mark.parametrize("seed", range(3))
    def test_float32_cosines(self, seed):
        rng = np.random.default_rng(seed)
        sims = rng.uniform(-1.0, 1.0, size=(20, 300)).astype(np.float32)
        sims[::2, ::3] = np.nextafter(np.float32(0.3), np.float32(1.0))
        sims[1::2, ::5] = -0.0
        sims[:, -1] = -np.inf
        assert_same_order(sims)

    def test_signed_zeros_tie(self):
        sims = np.array([[0.0, -0.0, 0.5, -0.0, 0.0, -1.0, -0.0, -np.inf]])
        assert_same_order(sims)
        assert _descending_order(sims.copy())[0].tolist() == [2, 0, 1, 3, 4, 6, 5, 7]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 2), (5, 1)])
    def test_tiny_shapes(self, shape):
        assert_same_order(np.zeros(shape))
        assert_same_order(np.random.default_rng(0).random(shape))

    def test_all_rows_tied_and_none_tied(self):
        assert_same_order(np.zeros((7, 50)))
        assert_same_order(np.random.default_rng(1).random((7, 50)))

    @pytest.mark.parametrize("value", [0.7, -0.3, 1.0, 2**-60, -np.inf])
    def test_rows_of_one_value(self, value):
        assert_same_order(np.full((4, 300), value))

    def test_rows_of_minus_one_and_minus_inf(self):
        sims = np.random.default_rng(2).random((4, 40))
        sims[0] = -1.0
        sims[1] = -np.inf
        sims[2, ::2] = -1.0
        sims[3, 1::3] = -np.inf
        sims[3, ::4] = -1.0
        assert_same_order(sims)

    @pytest.mark.parametrize("size", [1, 2, 2_048, 2_049])
    def test_sizes_around_the_index_bits(self, size):
        """2,048 candidates take 11 index bits and 2,049 take 12."""
        rng = np.random.default_rng(size)
        pool = np.array([0.5, np.nextafter(0.5, 1.0), 0.0, -0.0, -1.0, -np.inf, 0.25])
        tied = pool[rng.integers(0, len(pool), size=(3, size))]
        assert_same_order(tied)
        assert_same_order(rng.uniform(-1.0, 1.0, size=(3, size)))

    @pytest.mark.parametrize("spacing", ["ulp", "below_key_resolution"])
    def test_distinct_cosines_sharing_a_key_are_repaired(self, monkeypatch, spacing):
        """Cosines 1 ulp apart round to one `2.0 - sims` value, and cosines
        2**-45 apart differ only in the low bits the index replaces: both
        need the (run, -cosine, index) repair."""
        rng = np.random.default_rng(3)
        size = 2_000
        steps = rng.integers(0, 6, size=(5, size))
        if spacing == "ulp":
            sims = np.full((5, size), 0.3)
            for step in range(1, 6):
                sims[steps >= step] = np.nextafter(sims[steps >= step], 1.0)
        else:
            sims = 0.5 + steps * 2.0**-45
        sims[4] = rng.random(size)  # one row without a shared key
        repaired = []
        lexsort = np.lexsort

        def counting_lexsort(keys):
            repaired.append(keys)
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        assert_same_order(sims)
        assert len(repaired) == 4

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_few_distinct_values_match_stable_argsort(self, data):
        base = data.draw(st.floats(-1.0, 1.0))
        pool = [base, np.nextafter(base, 2.0), np.nextafter(base, -2.0), base + 2.0**-44,
                0.0, -0.0, -1.0, -np.inf]
        pool += data.draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
        rows, size = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 80))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * size,
                                   max_size=rows * size))
        assert_same_order(np.array(pool)[np.array(picks)].reshape(rows, size))

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_dense_ties_and_zero_vectors(self, rows):
        rng = np.random.default_rng(rows)
        # entries in {-1, 0, 1}, dimension 3: many repeated directions,
        # hence tied cosines, and some all-zero vectors
        vectors = rng.integers(-1, 2, size=(150, 3)).astype(np.float64)
        vectors[::17] = 0.0
        words = [f"w{i:03d}" for i in range(150)]
        assert_blocks_match(external(words, vectors), words, rows)

    @pytest.mark.parametrize("rows", [1, 9, 200])
    def test_sparse_ppmi_exact_zero_cosines(self, rows):
        docs = [d.split() for d in synthetic_documents(20_000, seed=3, n_types=200, doc_chars=300)]
        corpus = encode_documents(docs, build_vocabulary(docs, min_count=2))
        emb = train_ppmi(count_cooccurrences(corpus, 2, Weighting.FLAT))
        words = sorted(emb.words)
        normalized, zero = _normalized_rows(emb, words)
        sims = (normalized @ normalized.T).toarray()
        assert np.count_nonzero(sims == 0.0) > len(words)
        assert_blocks_match(emb, words, rows)

    def test_blocked_ranking_with_ties_matches_reference(self, monkeypatch):
        rng = np.random.default_rng(5)
        words = [f"w{i:02d}" for i in range(90)]
        a, b = (external(words, rng.integers(-2, 3, size=(90, 4)).astype(np.float64)) for _ in range(2))
        for rows in (1, 13, 90):
            # a block's cosines can round differently from another block
            # size's, so the reference ranks the same blocks
            set_block_rows(monkeypatch, rows, words, a, b)
            shared = evaluate_pair(a, b, words, n_grid=GRID)
            ref_a, ref_b = (reference_neighbors(emb, words, rows) for emb in (a, b))
            for gi, k in enumerate(grid_ks(GRID, len(words))):
                np.testing.assert_array_equal(shared[gi], pairwise_counts(ref_a, ref_b, k))

    def test_blocked_overlaps_with_ties_match_pairwise(self, monkeypatch):
        rng = np.random.default_rng(6)
        words = [f"w{i:02d}" for i in range(70)]
        a = external(words, exact_tie_vectors(rng, 70))
        b = external(words, exact_tie_vectors(rng, 70))
        # every cosine is exact, so one whole-table reference serves every block size
        ref_a, ref_b = reference_neighbors(a, words), reference_neighbors(b, words)
        for rows in (None, 1, 8):
            if rows is not None:
                set_block_rows(monkeypatch, rows, words, a, b)
            shared = evaluate_pair(a, b, words, n_grid=GRID)
            for gi, k in enumerate(grid_ks(GRID, len(words))):
                np.testing.assert_array_equal(shared[gi], pairwise_counts(ref_a, ref_b, k))


def tie_pair(seed=6):
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(70)]
    return external(words, exact_tie_vectors(rng, 70)), external(words, exact_tie_vectors(rng, 70)), words


def random_pair(seed=7):
    rng = np.random.default_rng(seed)
    words = [f"w{i:03d}" for i in range(150)]
    return external(words, rng.normal(size=(150, 5))), external(words, rng.normal(size=(150, 5))), words


def reference_bands(shared, ks, confidence, resamples, seed):
    """Plain per-resample means of the per-word fractions, over the same
    draws. They are taken in chunks of 4M values, not BOOTSTRAP_CHUNK:
    the draw stream does not depend on the chunking."""
    rng = np.random.default_rng(seed)
    n = shared.shape[1]
    chunk = max(1, 4_000_000 // n)
    means = np.empty((resamples, len(shared)))
    for done in range(0, resamples, chunk):
        take = min(chunk, resamples - done)
        idx = rng.integers(0, n, size=(take, n))
        for row, values in enumerate(shared / np.asarray(ks)[:, None]):
            means[done:done + take, row] = values[idx].mean(axis=1)
    q = [(1.0 - confidence) / 2.0 * 100.0, (1.0 + confidence) / 2.0 * 100.0]
    return np.percentile(means, q, axis=0)


def pairwise_counts(neighbors_a, neighbors_b, k):
    """Each word's shared top-k neighbors, one set intersection at a time."""
    return [len(np.intersect1d(na[:k], nb[:k])) for na, nb in zip(neighbors_a, neighbors_b)]


class TestBootstrapBands:
    @pytest.mark.parametrize("n,resamples,seed", [(37, 300, (3,)), (5_000, 1_000, (3, 1)), (9_000, 7, 11)])
    def test_matches_plain_resampled_means(self, n, resamples, seed):
        rng = np.random.default_rng(n)
        ks = np.array([1, 4, 25, 8_999])
        shared = rng.integers(0, ks[:, None] + 1, size=(len(ks), n)).astype(np.int32)
        low, high = _bootstrap_bands(shared, ks, 0.9, resamples, seed)
        ref_low, ref_high = reference_bands(shared, ks, 0.9, resamples, seed)
        np.testing.assert_allclose(low, ref_low, rtol=0, atol=1e-12)
        np.testing.assert_allclose(high, ref_high, rtol=0, atol=1e-12)

    def test_memory_stays_within_budget(self):
        """What overlap_curve's docstring allows resampling: an 8-byte copy
        of the counts, two draw chunks and three (resamples, grid) tables.
        Ten chunks are drawn, and each is freed before the next."""
        n, grid, resamples = 2_000, 20, 5_000
        rng = np.random.default_rng(4)
        ks = np.full(grid, 10)
        shared = rng.integers(0, 11, size=(grid, n)).astype(np.int32)
        chunk_bytes = min(BOOTSTRAP_CHUNK, resamples * n) * 8
        budget = grid * n * 8 + 2 * chunk_bytes + 3 * resamples * grid * 8
        assert 3 * chunk_bytes > budget
        assert traced_peak(_bootstrap_bands, shared, ks, 0.95, resamples, 1) <= budget

    def test_constant_rows_get_zero_width_at_the_mean(self):
        rng = np.random.default_rng(8)
        ks = np.array([10, 10, 10, 10])
        shared = np.vstack([np.full(301, 1), rng.integers(0, 11, size=301), np.full(301, 10),
                            np.full(301, 2)]).astype(np.int32)
        # a float mean of 301 copies of 0.2 is not 0.2; the count mean is
        assert np.full(301, 0.2).mean() != 0.2
        low, high = _bootstrap_bands(shared, ks, 0.95, 200, (1,))
        means = shared.sum(axis=1) / (301 * ks)
        assert means[3] == 0.2
        for row in (0, 2, 3):
            assert low[row] == high[row] == means[row]
        assert low[1] < means[1] < high[1]

    @pytest.mark.parametrize("pair", [tie_pair, random_pair])
    def test_means_equal_exact_fractions(self, pair):
        """overlap_curve means, of one run and of two pooled, are the
        correctly rounded fraction (summed shared neighbors) / (words * k),
        where the counts come from one set intersection per word."""
        a, b, words = pair()
        c, _, _ = pair(seed=1)
        grid = [0.02, 0.1, 0.3, 0.5, 1.0]
        size = len(words)
        tables = [evaluate_pair(a, emb, words, n_grid=grid) for emb in (b, c)]
        curves = [overlap_curve([table], grid, resamples=50) for table in tables]
        pooled = overlap_curve(tables, grid, resamples=50)
        ranked = {name: reference_neighbors(emb, words) for name, emb in (("a", a), ("b", b), ("c", c))}
        for gi, k in enumerate(pooled.k_values):
            run_sums = [sum(pairwise_counts(ranked["a"], ranked[other], k)) for other in ("b", "c")]
            for curve, total in zip(curves, run_sums):
                assert curve.means[gi] == float(Fraction(total, size * k))
            assert pooled.means[gi] == float(Fraction(sum(run_sums), 2 * size * k))
        # one table draws from stream (seed,), pooled tables from (seed, 1)
        for curve, shared, seed in ((curves[0], tables[0], (0,)),
                                    (pooled, np.concatenate(tables, axis=1), (0, 1))):
            ref_low, ref_high = reference_bands(shared, curve.k_values, 0.95, 50, seed)
            np.testing.assert_allclose(curve.ci_low, ref_low, rtol=0, atol=1e-12)
            np.testing.assert_allclose(curve.ci_high, ref_high, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# evaluate_pair: blocks ranked by a pool of threads, BLAS held to one
# ----------------------------------------------------------------------

@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every ranking pool evaluate_pair starts."""
    sizes = []

    class RecordingPool(overlap.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(overlap, "ThreadPoolExecutor", RecordingPool)
    return sizes


def sparse_ppmi_pair():
    """PPMI spaces of one corpus at windows 2 and 3."""
    docs = [d.split() for d in synthetic_documents(20_000, seed=3, n_types=200, doc_chars=300)]
    corpus = encode_documents(docs, build_vocabulary(docs, min_count=2))
    a, b = (train_ppmi(count_cooccurrences(corpus, window, Weighting.FLAT)) for window in (2, 3))
    return a, b, sorted(a.words)


class TestThreadedRanking:
    @pytest.mark.parametrize("pair", [tie_pair, sparse_ppmi_pair])
    @pytest.mark.parametrize("rows", [1, 13, None])
    def test_four_workers_match_one(self, monkeypatch, pool_sizes, pair, rows):
        a, b, words = pair()
        if rows is not None:
            set_block_rows(monkeypatch, rows, words, a, b)
        tables = []
        for cpus in (1, 4):
            monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
            tables.append(evaluate_pair(a, b, words, n_grid=GRID))
        one, four = tables
        assert one.tobytes() == four.tobytes()
        blocks = -(-len(words) // (rows or len(words)))
        assert pool_sizes == [1, min(blocks, 4)]

    def test_a_failing_block_raises(self, monkeypatch):
        a, b, words = tie_pair()

        def failing(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(overlap, "_similarities", failing)
        set_block_rows(monkeypatch, 8, words, a, b)
        with pytest.raises(RuntimeError, match="block failed"):
            evaluate_pair(a, b, words, n_grid=[0.1])

    def test_import_holds_openblas_to_one_thread(self):
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        if not libs:
            pytest.skip("numpy bundles no OpenBLAS")
        script = (
            "import ctypes, ocrdrift\n"
            f"lib = ctypes.CDLL({str(libs[0])!r})\n"
            "names = [p + 'openblas_get_num_threads' + s for p in ('', 'scipy_') for s in ('', '64_', '_64')]\n"
            "get = next(getattr(lib, n) for n in names if hasattr(lib, n))\n"
            "print(get())\n"
        )
        src = str(Path(overlap.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="4",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "1"


def _stored_bytes(vectors):
    if isinstance(vectors, np.ndarray):
        return vectors.nbytes
    return vectors.data.nbytes + vectors.indices.nbytes + vectors.indptr.nbytes


def _resampling_bytes(grid, width, resamples):
    """What overlap_curve's docstring allows resampling `width` columns:
    an 8-byte copy of the table, two draw chunks and three tables of
    resampled means."""
    return (grid * width * 8 + 2 * min(BOOTSTRAP_CHUNK, resamples * width) * 8
            + 3 * resamples * grid * 8)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_evaluate_pair_memory_stays_within_budget(monkeypatch, kind):
    """Working memory, as evaluate_pair's docstring states it: the count
    table, two normalized copies of each space, and five block arrays of
    BLOCK_BYTES per ranking thread."""
    # a fixed thread count, so the budget does not grow with the CPUs, and
    # blocks small enough that the normalized copies weigh in the budget
    workers, block_bytes = 2, 1 << 18
    monkeypatch.setattr(util, "usable_cpus", lambda: workers)
    monkeypatch.setattr(overlap, "BLOCK_BYTES", block_bytes)
    size, grid = 3_000, [0.01, 0.1]
    words = [f"w{i:05d}" for i in range(size)]
    if kind == "dense":
        rng = np.random.default_rng(12)
        a = external(words, rng.normal(size=(size, 64)))
        b = external(words, np.round(rng.normal(size=(size, 64))))
    else:
        # wider than the intersection, like PPMI rows over a model's vocabulary
        a, b = (external(words, sp.random(size, 2 * size, density=0.01, format="csr", random_state=seed),
                         Model.PPMI) for seed in (1, 2))
    normalized = 2 * (_stored_bytes(a.vectors) + _stored_bytes(b.vectors))
    budget = len(grid) * size * 4 + normalized + workers * 5 * block_bytes
    # one (rows, size) array of a fixed 1024-row block alone exceeds it
    assert 1024 * size * 8 > budget
    tracemalloc.start()
    try:
        shared = evaluate_pair(a, b, words, n_grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shared.shape == (len(grid), size)
    assert peak <= budget, f"peak {peak} bytes, budget {budget}"


@pytest.mark.parametrize("runs", [1, 3])
def test_overlap_curve_memory_stays_within_budget(runs):
    """Working memory, as overlap_curve's docstring states it: the pooled
    copy of more than one table, then resampling it (an 8-byte copy, two
    draw chunks and three tables of resampled means)."""
    size, resamples = 2_000, 1_000
    grid = [i / 100 for i in range(1, 21)]
    rng = np.random.default_rng(runs)
    tables = [rng.integers(0, 11, size=(len(grid), size)).astype(np.int32) for _ in range(runs)]
    width = runs * size
    pooled = len(grid) * width * 4 if runs > 1 else 0
    budget = pooled + _resampling_bytes(len(grid), width, resamples)
    # a third draw chunk held at once would exceed it
    assert 3 * min(BOOTSTRAP_CHUNK, resamples * width) * 8 > budget
    peak = traced_peak(overlap_curve, tables, grid, 0.95, resamples, 0)
    assert peak <= budget, f"peak {peak} bytes, budget {budget}"


@pytest.fixture(scope="module")
def three_runs(tmp_path_factory):
    """The config of a trained output directory with three SGNS runs and
    one PPMI run, over a vocabulary large enough that embeddings dominate
    memory."""
    root = tmp_path_factory.mktemp("three_runs")
    docs = synthetic_documents(100_000, seed=21, n_types=3_000, doc_chars=1_000)
    save_paired_files(noisy_corpus(docs, NoiseSpec(target_cer=0.08, seed=5)), root / "corpus")
    config = root / "c.json"
    config.write_text(json.dumps({
        "out_dir": str(root / "out"),
        "seed": 13,
        "runs": 3,
        "languages": [{"language": "other", "path": str(root / "corpus"), "format": "paired"}],
        "models": [
            {"model": "ppmi", "window": 2, "min_count": 1},
            {"model": "sgns", "rate_profile": "fast", "dim": 64, "window": 2,
             "epochs": 1, "min_count": 1, "batch_size": 4096},
        ],
    }), encoding="utf-8")
    assert cli.main(["train", "--config", str(config)]) == 0
    return load_config(config)


def test_cmd_evaluate_memory_stays_within_budget(tmp_path, monkeypatch, three_runs):
    """cmd_evaluate's traced peaks, as its docstring states them: ranking
    a pair (the two largest embeddings as loaded, plus evaluate_pair's
    budget, plus the count tables of the runs done so far) and making a
    label's curve (every run's table, their pooled copy, and resampling
    it), on one ranking thread and on two. Going from 1 run to 3 adds no
    more to ranking than two tables, each with under 256 bytes more per
    grid point, and what the later pairs take to load beyond the first.
    That is checked on one thread, whose peak does not depend on how the
    threads' blocks interleave."""
    config = three_runs
    grid, resamples = len(overlap.default_n_grid()), config.bootstrap_resamples
    trained = config.out_dir / "other"
    manifest = json.loads((trained / "manifest.json").read_text(encoding="utf-8"))
    load_peaks, stored = {}, {}
    for entry in manifest["entries"]:
        path = trained / entry["embedding_path"]
        load_peaks[path] = traced_peak(load_embeddings, path)
        stored[path] = _stored_bytes(load_embeddings(path).vectors)
    pairs = [(trained / a["embedding_path"], trained / b["embedding_path"])
             for a in manifest["entries"] for b in manifest["entries"]
             if (a["model"], a["run"], a["version"], b["version"]) == (b["model"], b["run"], "ocr", "gt")]
    ranked = max(stored[ocr] + stored[gt] for ocr, gt in pairs)
    # what the later SGNS runs' pairs take to load beyond run 0's
    sgns_loads = [load_peaks[ocr] + load_peaks[gt] for ocr, gt in pairs if "sgns" in ocr.name]
    later_loads = max(sgns_loads) - sgns_loads[0]

    phases = {"ranking": [], "curve": []}
    make_curve = cli.overlap_curve

    def phased_curve(*args):
        # the peak since the previous curve is the ranking of this label's pairs
        phases["ranking"].append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        curve = make_curve(*args)
        phases["curve"].append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return curve

    monkeypatch.setattr(cli, "overlap_curve", phased_curve)
    peaks, sizes = {}, {}
    for runs in (3, 1):
        out = tmp_path / f"runs{runs}"
        shutil.copytree(trained / "embeddings", out / "other" / "embeddings")
        entries = [e for e in manifest["entries"] if e["run"] < runs]
        (out / "other" / "manifest.json").write_text(json.dumps(dict(manifest, entries=entries)), encoding="utf-8")
        # evaluate ranks the runs the config plans
        run_config = replace(config, out_dir=out, runs=runs)
        # the first call loads what the process keeps for good
        cli.cmd_evaluate(run_config, None)
        for workers in (1, 2):
            monkeypatch.setattr(util, "usable_cpus", lambda: workers)
            phases["ranking"].clear()
            phases["curve"].clear()
            rest = traced_peak(cli.cmd_evaluate, run_config, None)
            got = peaks[runs, workers] = {name: max(values) for name, values in phases.items()}
            got["total"] = max(rest, *got.values())
        sizes[runs] = json.loads((out / "other" / "curves" / "sgns-fast.json").read_text(encoding="utf-8"))["intersection_size"]
    size = sizes[1]
    assert sizes[3] == size
    table_bytes = grid * size * 4
    curve_bytes = grid * (4 * size + 256)
    embeddings = sum(sorted(load_peaks.values())[-2:])
    for (runs, workers), got in peaks.items():
        ranking = embeddings + 2 * ranked + workers * 5 * BLOCK_BYTES + table_bytes + (runs - 1) * curve_bytes
        pooled = runs * table_bytes if runs > 1 else 0
        curve = runs * table_bytes + pooled + _resampling_bytes(grid, runs * size, resamples)
        where = f"runs {runs}, {workers} threads: peaks {got}"
        assert got["ranking"] <= ranking, f"{where}, ranking budget {ranking}"
        assert got["curve"] <= curve, f"{where}, curve budget {curve}"
        assert got["total"] <= max(ranking, curve), where
    assert peaks[3, 1]["ranking"] - peaks[1, 1]["ranking"] <= 2 * curve_bytes + later_loads, peaks


# ----------------------------------------------------------------------
# train: the worker pool against a sequential loop in config order
# ----------------------------------------------------------------------

def _write_train_config(path, corpus_dir, out_dir):
    path.write_text(json.dumps({
        "out_dir": str(out_dir),
        "seed": 13,
        "runs": 2,
        "languages": [{"language": "other", "path": str(corpus_dir), "format": "paired"}],
        "models": [
            {"model": "ppmi", "window": 3, "min_count": 3},
            {"model": "sgns", "rate_profile": "fast", "dim": 16, "window": 3,
             "epochs": 2, "min_count": 3, "batch_size": 512},
            {"model": "cbow", "rate_profile": "fast", "dim": 12, "window": 2,
             "epochs": 2, "min_count": 2, "batch_size": 500},
            {"model": "glove", "dim": 8, "window": 3, "epochs": 3, "min_count": 3},
        ],
    }), encoding="utf-8")
    return path


def reference_train(config_path):
    """Every job trained in this process, one after another, in config
    order: (manifest entries without wall times, progress lines without
    times, the language's output directory)."""
    config = load_config(config_path)
    src = config.languages[0]
    corpus = load_corpus(src.path, src.format)
    out = config.out_dir / src.language
    (out / "embeddings").mkdir(parents=True)
    entries, lines = [], []
    for spec in config.models:
        for version in (Version.OCR, Version.GROUND_TRUTH):
            tokenized = preprocess_corpus(corpus, version, spec.min_count)
            for run in range(1 if spec.train.model is Model.PPMI else config.runs):
                emb = cli._train_one(spec, tokenized, config.seed + run)
                stem = f"{spec.label}_{version.value}_run{run}"
                path = save_embeddings(emb, out / "embeddings" / stem)
                entries.append({"model": spec.label, "version": version.value, "run": run,
                                "seed": config.seed + run,
                                "embedding_path": str(path.relative_to(out))})
                lines.append(f"{src.language}/{stem}")
    return entries, lines, out


@pytest.fixture(scope="module")
def cli_corpus_dir(tmp_path_factory):
    """The corpus of tests/test_cli.py."""
    root = tmp_path_factory.mktemp("corpora")
    docs = synthetic_documents(40_000, seed=21, n_types=120, n_topics=6,
                               doc_chars=700, min_len=2, max_len=5)
    save_paired_files(noisy_corpus(docs, NoiseSpec(target_cer=0.08, seed=5)), root / "demo")
    return root / "demo"


@pytest.fixture(scope="module")
def sequential_train(tmp_path_factory, cli_corpus_dir):
    root = tmp_path_factory.mktemp("sequential")
    return reference_train(_write_train_config(root / "c.json", cli_corpus_dir, root / "out"))


# 1 worker, and more workers than there are jobs of one model or CPUs here
@pytest.mark.parametrize("cpus", [1, 5])
def test_train_pool_matches_sequential_loop(tmp_path, monkeypatch, capsys,
                                            cli_corpus_dir, sequential_train, cpus):
    ref_entries, ref_lines, ref_out = sequential_train
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    config = _write_train_config(tmp_path / "c.json", cli_corpus_dir, tmp_path / "out")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    out = tmp_path / "out" / "other"

    assert [line.split(": trained in ")[0] for line in lines] == ref_lines
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["language"] == "other"
    assert all(entry.pop("train_wall_seconds") >= 0 for entry in manifest["entries"])
    assert manifest["entries"] == ref_entries
    files = sorted(p.name for p in (out / "embeddings").iterdir())
    assert files == sorted(p.name for p in (ref_out / "embeddings").iterdir())
    assert len(files) == len(ref_entries) == 14
    for name in files:
        assert (out / "embeddings" / name).read_bytes() == (ref_out / "embeddings" / name).read_bytes(), name
    assert sorted(p.name for p in out.iterdir()) == ["embeddings", "manifest.json"]


def reference_levenshtein_rows(a, b):
    """Edit distance with unit costs, vectorized one DP row at a time.

    The sequential in-row dependency cur[j] = min(t[j], cur[j-1] + 1)
    unrolls to cur[j] = min_{j'<=j}(t[j'] + (j - j')), which is a running
    minimum of t[j'] - j' shifted back by j.
    """
    if len(a) == 0:
        return len(b)
    if len(b) == 0:
        return len(a)
    n = len(b)
    idx = np.arange(n + 1, dtype=np.int64)
    prev = idx.copy()
    s = np.empty(n + 1, dtype=np.int64)
    for i in range(1, len(a) + 1):
        s[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (b != a[i - 1]), out=s[1:])
        prev = np.minimum.accumulate(s - idx) + idx
    return int(prev[-1])


def reference_word_distance(ocr_words, gt_words):
    lexicon = {w: i for i, w in enumerate(dict.fromkeys(ocr_words + gt_words))}
    a = np.array([lexicon[w] for w in ocr_words], dtype=np.int64)
    b = np.array([lexicon[w] for w in gt_words], dtype=np.int64)
    return reference_levenshtein_rows(a, b)


def edited_copy(rng, words, rate, vocab):
    """`words` with about `rate` of them substituted, deleted or followed
    by an inserted word."""
    out = []
    for word in words:
        kind = rng.integers(0, 4) if rng.random() < rate else 0
        if kind != 2:
            out.append(vocab[rng.integers(0, len(vocab))] if kind == 1 else word)
        if kind == 3:
            out.append(vocab[rng.integers(0, len(vocab))])
    return out


# bit-vector edge cases: empty, one bit, one 64-bit word and either side
# of it, and ints of many machine words
SIDE_LENGTHS = [0, 1, 2, 63, 64, 65, 1030]


class TestWordEditDistance:
    @pytest.mark.parametrize("gt_len", SIDE_LENGTHS)
    @pytest.mark.parametrize("ocr_len", SIDE_LENGTHS)
    def test_seeded_random_pairs(self, ocr_len, gt_len):
        rng = np.random.default_rng((ocr_len, gt_len))
        # one word type (every pair matches), tie-heavy, mostly distinct
        for types in (1, 3, 50):
            vocab = [f"w{i}" for i in range(types)]
            ocr = [vocab[i] for i in rng.integers(0, types, ocr_len)]
            gt = [vocab[i] for i in rng.integers(0, types, gt_len)]
            assert _word_edit_distance(ocr, gt) == reference_word_distance(ocr, gt), types

    @pytest.mark.parametrize("gt_len", [1, 63, 64, 65, 1030, 3000])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
    def test_edited_copies(self, gt_len, rate):
        rng = np.random.default_rng((gt_len, int(rate * 100)))
        vocab = [f"w{i}" for i in range(40)]
        gt = [vocab[i] for i in rng.integers(0, len(vocab), gt_len)]
        ocr = edited_copy(rng, gt, rate, vocab)
        assert _word_edit_distance(ocr, gt) == reference_word_distance(ocr, gt)
        assert _word_edit_distance(gt, ocr) == reference_word_distance(gt, ocr)

    def test_every_document_of_a_desk_train_shaped_corpus(self):
        """The benchmark's desk-train corpus shape: 73 documents of about
        850 words, 600 word types, 10% character noise."""
        docs = synthetic_documents(260_000, seed=301, n_types=600, n_topics=30, doc_chars=3600,
                                   topic_affinity=0.75, min_len=2, max_len=4)
        corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.1, seed=301))
        assert len(corpus.documents) == 73
        expected = []
        for doc in corpus.documents:
            ocr = doc.ocr_aligned.replace(PAD, "").split()
            gt = doc.gt_aligned.replace(PAD, "").split()
            distance = reference_word_distance(ocr, gt)
            assert _word_edit_distance(ocr, gt) == distance, doc.id
            expected.append((doc.id, distance / len(gt)))
        report = corpus_error_rates(corpus)
        assert [(doc_id, wer) for doc_id, _, wer in report.per_document] == expected


def reference_inject_noise(gt_text, spec):
    """The per-position loop over Python lists, with its reversed
    list.insert pass, from the same three draws."""
    n = len(gt_text)
    errors = int(round(spec.target_cer * n))
    if errors == 0:
        return gt_text, gt_text
    rng = np.random.default_rng(spec.seed)
    positions = np.sort(rng.choice(n, size=errors, replace=False))
    kinds = rng.choice(3, size=errors,
                       p=[spec.substitution_weight, spec.deletion_weight, spec.insertion_weight])
    alphabet = spec.alphabet
    draws = rng.integers(0, len(alphabet), size=errors)
    ocr, gt, inserts = list(gt_text), list(gt_text), []
    for pos, kind, draw in zip(positions.tolist(), kinds.tolist(), draws.tolist()):
        if kind == 0:
            replacement = alphabet[draw]
            if replacement == gt_text[pos]:
                replacement = alphabet[(draw + 1) % len(alphabet)]
            ocr[pos] = replacement
        elif kind == 1:
            ocr[pos] = PAD
        else:
            inserts.append((pos, alphabet[draw]))
    for pos, ch in reversed(inserts):
        ocr.insert(pos + 1, ch)
        gt.insert(pos + 1, PAD)
    return "".join(ocr), "".join(gt)


INSERTIONS_ONLY = dict(substitution_weight=0.0, deletion_weight=0.0, insertion_weight=1.0)


class TestInjectNoise:
    """Noise applied to codepoint arrays, with one np.insert per side,
    against the loop over Python lists."""

    @pytest.mark.parametrize("text, fields", [
        # two letters: a clashing draw of the last letter wraps to the first
        ("abbaab" * 40, dict(alphabet="ab", substitution_weight=1.0, deletion_weight=0.0,
                             insertion_weight=0.0)),
        ("ab" * 50, dict(alphabet="ba")),
        # one character, so the only position is the last, and it inserts
        ("x", INSERTIONS_ONLY),
        ("short text", INSERTIONS_ONLY),
        ("Grüße aus Köln, 日本語 und 🙂 ½ café " * 20, dict(alphabet="äöüß日🙂é")),
        ("Grüße aus Köln, 日本語 und 🙂 ½ café " * 20, dict()),
    ])
    @pytest.mark.parametrize("target_cer", [0.05, 0.3, 0.9])
    def test_edge_cases(self, text, fields, target_cer):
        for seed in range(20):
            spec = NoiseSpec(target_cer=target_cer, seed=seed, **fields)
            assert inject_noise(text, spec) == reference_inject_noise(text, spec), seed

    def test_insertion_at_the_last_position(self):
        for seed in range(5):
            spec = NoiseSpec(target_cer=0.9, seed=seed, **INSERTIONS_ONLY)
            ocr, gt = inject_noise("xy", spec)
            assert (ocr, gt) == reference_inject_noise("xy", spec)
            # both positions are corrupted, so one letter follows the y
            assert gt == f"x{PAD}y{PAD}" and ocr[::2] == "xy"

    @pytest.mark.parametrize("target_cer", [0.05, 0.3])
    def test_every_document_of_a_wide_eval_shaped_corpus(self, target_cer):
        docs = synthetic_documents(seed=901, total_chars=400_000, n_types=8000, n_topics=40, doc_chars=6000)
        assert len(docs) == 67
        for index, doc in enumerate(docs):
            spec = NoiseSpec(target_cer=target_cer, seed=index)
            assert inject_noise(doc, spec) == reference_inject_noise(doc, spec), index


# ----------------------------------------------------------------------
# GloVe: the batch step against the loop it replaced
# ----------------------------------------------------------------------

def reference_glove_objective(matrix, W, Cw, bw, bc):
    """The GloVe objective as first written: the rows of every nonzero
    cell gathered at once."""
    coo = matrix.counts.tocoo()
    diff = np.einsum("nd,nd->n", W[coo.row], Cw[coo.col]) + bw[coo.row] + bc[coo.col] - np.log(coo.data)
    return float((glove.cell_weight(coo.data) * diff**2).sum())


def reference_train_glove(matrix, config, objective_log=None):
    """GloVe's batch loop as first written: fancy-index gathers of whole
    batches, one (n, dim) gradient array per update and one grouped sum
    of it."""
    coo = matrix.counts.tocoo()
    n_words, dim = matrix.size, config.dim
    bound = 0.5 / dim
    W, Cw, bw, bc = (util.seeded_matrix(n_words, width, config.seed, stream, -bound, bound)
                     for width, stream in ((dim, glove._W_STREAM), (dim, glove._C_STREAM),
                                           (1, glove._BW_STREAM), (1, glove._BC_STREAM)))
    bw, bc = bw.ravel(), bc.ravel()
    acc = [np.full_like(a, 1e-8) for a in (W, Cw, bw, bc)]

    def adagrad_update(params, acc, rows, grads):
        unique, sums = reference_segment_sums(rows, grads)
        acc[unique] += sums**2
        params[unique] -= glove.ADAGRAD_RATE * sums / np.sqrt(acc[unique])

    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    log_counts, weights = np.log(coo.data), glove.cell_weight(coo.data)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(coo.nnz)
        for start in range(0, coo.nnz, config.batch_size):
            sel = order[start:start + config.batch_size]
            i, j = rows[sel], cols[sel]
            wi, cj = W[i], Cw[j]
            diff = np.einsum("nd,nd->n", wi, cj) + bw[i] + bc[j] - log_counts[sel]
            coef = 2.0 * weights[sel] * diff
            adagrad_update(W, acc[0], i, coef[:, None] * cj)
            adagrad_update(Cw, acc[1], j, coef[:, None] * wi)
            adagrad_update(bw, acc[2], i, coef)
            adagrad_update(bc, acc[3], j, coef)
        if objective_log is not None:
            objective_log.append(reference_glove_objective(matrix, W, Cw, bw, bc))
    return W + Cw


def _glove_matrix(n_types=150, seed=8):
    docs = [d.split() for d in synthetic_documents(60_000, seed=seed, n_types=n_types, n_topics=5,
                                                   doc_chars=1_000)]
    vocab = build_vocabulary(docs, min_count=1)
    return count_cooccurrences(encode_documents(docs, vocab), 5, Weighting.HARMONIC)


def glove_state_bytes(matrix, dim):
    """W, Cw, their accumulators and the result; biases; per-cell arrays:
    README's 36 bytes a cell, the int64 permutation the int32 order is cast
    from, and 8 to spare."""
    n_words = matrix.size
    return 5 * n_words * dim * 8 + 8 * n_words * 8 + 52 * matrix.counts.nnz


def glove_batch_bytes(matrix, dim, n):
    """README's bound on what a batch of n cells adds, the call's two work
    arrays included: 128 n + 8 V + 2 GATHER_BYTES + 16 u dim, with V the
    vocabulary size and u = min(n, V)."""
    return 128 * n + 8 * matrix.size + 2 * util.GATHER_BYTES + 16 * min(n, matrix.size) * dim


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGloveBatchStep:
    @pytest.mark.parametrize("dim, epochs, batch_size, logged", [
        (16, 3, 997, True),  # 997 does not divide nnz: a short last batch
        (7, 2, 256, False),
        (48, 1, 100_000, True),  # one batch of every cell
    ])
    def test_matches_reference_loop(self, dim, epochs, batch_size, logged):
        matrix = _glove_matrix()
        config = TrainConfig(model=Model.GLOVE, dim=dim, epochs=epochs, seed=4, batch_size=batch_size)
        log, reference_log = ([], []) if logged else (None, None)
        vectors = train_glove(matrix, config, objective_log=log).vectors
        assert np.array_equal(vectors, reference_train_glove(matrix, config, reference_log))
        assert log == reference_log

    def test_dot_chunks_of_any_size(self, monkeypatch):
        """A batch's dot products taken 1, 5 or all rows at a time."""
        matrix = _glove_matrix(n_types=60)
        config = TrainConfig(model=Model.GLOVE, dim=8, epochs=2, seed=2, batch_size=300)
        reference = reference_train_glove(matrix, config)
        for rows_per_chunk in (1, 5, 300):
            monkeypatch.setattr(util, "GATHER_BYTES", rows_per_chunk * 8 * 8)
            assert np.array_equal(train_glove(matrix, config).vectors, reference), rows_per_chunk

    def test_batch_memory_stays_within_budget(self):
        """Working memory, as README states it: the training state, O(n)
        vectors per batch of n cells, two work arrays of at most
        GATHER_BYTES and two (distinct rows, dim) sums; no (n, dim) array."""
        matrix = _glove_matrix()
        dim, batch = 64, 4096
        config = TrainConfig(model=Model.GLOVE, dim=dim, epochs=2, seed=1, batch_size=batch)
        budget = glove_state_bytes(matrix, dim) + glove_batch_bytes(matrix, dim, batch)
        # the four (n, dim) arrays the reference loop holds at once exceed it
        assert 4 * batch * dim * 8 > budget
        assert traced_peak(train_glove, matrix, config) <= budget

    def test_objective_log_memory_stays_within_budget(self):
        """Logging the objective adds at most what README allows one batch
        of every nonzero cell; gathering both rows of every cell would not
        fit."""
        matrix = _glove_matrix()
        dim, batch, nnz = 64, 4096, matrix.counts.nnz
        config = TrainConfig(model=Model.GLOVE, dim=dim, epochs=2, seed=1, batch_size=batch)
        budget = glove_state_bytes(matrix, dim) + glove_batch_bytes(matrix, dim, max(batch, nnz))
        assert 2 * nnz * dim * 8 > budget
        log = []
        assert traced_peak(train_glove, matrix, config, objective_log=log) <= budget
        assert len(log) == 2


def reference_export(emb, path):
    """The text format written one numpy scalar at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(emb.words)} {emb.dim}\n")
        for word, vec in zip(emb.words, emb.vectors):
            fh.write(word + " " + " ".join(f"{v:.9g}" for v in vec) + "\n")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_export_matches_per_value_format(tmp_path, dtype):
    info = np.finfo(dtype)
    special = np.array([
        0.0, -0.0, 1.0, -1.0, 1 / 3, 123456789.0, 0.1,
        info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
        info.tiny / 3, -info.tiny / 7, info.eps,
        1e30, -1e30, 1e-30, -1e-30, 9.99999999e29, 1.00000001e-30,
    ], dtype=dtype)
    neighbours = np.concatenate([np.nextafter(special, dtype(np.inf)), np.nextafter(special, dtype(-np.inf))])
    largest = np.array([info.max, -info.max, np.nextafter(info.max, dtype(0))], dtype=dtype)
    rng = np.random.default_rng(5)
    scaled = (rng.normal(size=240) * 10.0 ** rng.integers(-30, 31, size=240)).astype(dtype)
    values = np.concatenate([special, neighbours, largest, scaled])
    vectors = np.append(values, np.zeros(-len(values) % 6, dtype=dtype)).reshape(-1, 6)
    assert vectors.dtype == dtype and np.isfinite(vectors).all()
    emb = external([f"w{i}" for i in range(len(vectors))], vectors)
    save_embeddings(emb, tmp_path / "fast")
    reference_export(emb, tmp_path / "reference.txt")
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
