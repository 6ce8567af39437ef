"""Skip-gram with negative sampling and CBOW, trained from scratch.

Both models keep two dense matrices: input vectors W (returned as the word
embedding) and output vectors C, and share one objective and one step.
An example is a target word and a row of input words; the hidden vector
h is the mean of the inputs' W rows, and the target and each negative
are scored against it through C. CBOW's inputs are a center's context
words (-1 pads the slots a document edge cuts off) and its target is the
center. Skip-gram is the one-slot case: a center is the only input and
each context word is a target (Mikolov et al. 2013; Rong 2014).
`batch_loss` is the negative-sampling logistic loss summed over a batch,
and `batch_step` at rate r moves W and C by -r times its gradient, taken
at the matrices before the step, which is what the gradient acceptance
criterion checks against central differences. Batches are processed in
a fixed seeded order, so a given seed always reproduces the same
matrices bit for bit. The learning rate decays linearly to 1e-4 of its
initial value over the whole run.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable, NamedTuple

import numpy as np

from . import util
from .embeddings import EmbeddingMatrix, Model, TrainConfig
from .preprocess import TokenizedCorpus, window_pairs
from .util import log_sigmoid, seeded_matrix, segment_weighted_sums, sigmoid

log = logging.getLogger(__name__)

NEGATIVE_POWER = 0.75
FINAL_RATE_FRACTION = 1e-4

_W_STREAM = 1
_C_STREAM = 2


def _negative_cdf(frequencies: np.ndarray) -> np.ndarray:
    weights = frequencies.astype(np.float64) ** NEGATIVE_POWER
    cdf = np.cumsum(weights / weights.sum())
    # rounding can leave the sum just below 1, and a draw above it would
    # map to the out-of-range id V; draws below it are unaffected
    cdf[-1] = 1.0
    return cdf


class _NegativeTable(NamedTuple):
    """Guide table for exact inverse-CDF sampling of negatives.

    The unit interval is cut into M equal buckets. guide[m] is the id that
    every u in [m/M, (m+1)/M) maps to, or -1 when a CDF value falls inside
    the bucket, so that only draws in those (at most V of M) buckets need
    a binary search.
    """

    cdf: np.ndarray
    guide: np.ndarray


def _negative_table(frequencies: np.ndarray) -> _NegativeTable:
    cdf = _negative_cdf(frequencies)
    # a power of two keeps u * M and m / M exact in float64
    size = max(1 << 16, 1 << (4 * len(cdf) - 1).bit_length())
    edges = np.arange(size + 1, dtype=np.float64) / size
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    return _NegativeTable(cdf, np.where(lo == hi, lo, -1).astype(np.int32))


def _draw_negatives(rng: np.random.Generator, table: _NegativeTable, shape: tuple[int, ...]) -> np.ndarray:
    """Ids equal to searchsorted(cdf, rng.random(shape), "right")."""
    u = rng.random(shape)
    ids = table.guide[(u * len(table.guide)).astype(np.intp)]
    unresolved = ids < 0
    ids[unresolved] = np.searchsorted(table.cdf, u[unresolved], side="right")
    return ids


def _skipgram_pairs(documents: tuple[np.ndarray, ...], window: int) -> tuple[np.ndarray, np.ndarray]:
    """Skip-gram examples: each context word is the target of its center,
    a one-slot input row. Per document, distance-major, left then right."""
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for _, _, left, right in window_pairs(documents, window):
        centers += (left, right)
        contexts += (right, left)
    if not centers:
        raise ValueError("corpus has no token pairs inside the window")
    # the documents' ids are int32 already, so no cast copies them
    return (
        np.concatenate(contexts).astype(np.int32, copy=False),
        np.concatenate(centers).astype(np.int32, copy=False)[:, None],
    )


def _context_table(documents: tuple[np.ndarray, ...], window: int) -> tuple[np.ndarray, np.ndarray]:
    """CBOW examples: per position, the center id is the target of its
    fixed-width row of context ids, -1 where a slot falls outside the
    document.

    Slots are the offsets -window..-1 then 1..window; documents shorter
    than two tokens contribute no positions.
    """
    kept = [doc for doc in documents if len(doc) >= 2]
    if not kept:
        raise ValueError("corpus has no token pairs inside the window")
    centers = np.concatenate(kept).astype(np.int32, copy=False)
    table = np.full((len(centers), 2 * window), -1, dtype=np.int32)
    for start, distance, left, right in window_pairs(kept, window):
        stop = start + len(left) + distance
        table[start + distance:stop, window - distance] = left
        table[start:stop - distance, window + distance - 1] = right
    return centers, table


@functools.lru_cache(maxsize=2)
def _pair_index(b: int, k: int) -> np.ndarray:
    """The batch row of each output-side update of a (b, k) batch: the b
    positives, then the k negatives of each row. It depends only on the
    batch shape, so it is cached (read-only) across batches."""
    rows = np.arange(b, dtype=np.int32)
    index = np.concatenate([rows, np.repeat(rows, k)])
    index.flags.writeable = False
    return index


def _hidden(W: np.ndarray, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """h[b], the mean of W over the ids in row b of `inputs` (-1 slots
    hold none), and the (members, weights, batch rows) that form it."""
    import scipy.sparse as sp
    mask = inputs >= 0
    counts = mask.sum(axis=1)
    if not counts.all():
        raise ValueError("every example must have at least one input word")
    batch_idx, slot_idx = np.nonzero(mask)
    members = inputs[batch_idx, slot_idx]
    weights = (1.0 / counts).astype(W.dtype)[batch_idx]
    # np.nonzero lists the inputs row by row, so the CSR rows are the batch rows
    indptr = np.concatenate([[0], np.cumsum(counts)])
    h = sp.csr_matrix((weights, members, indptr), shape=(len(inputs), len(W))) @ W
    return h, members, weights, batch_idx


def _row_chunks(C: np.ndarray, negatives: np.ndarray) -> list[slice]:
    """Slices of a batch's rows whose target and negative rows of C
    together take at most util.GATHER_BYTES."""
    b, k = negatives.shape
    rows = max(1, util.GATHER_BYTES // (C.itemsize * C.shape[1] * (k + 1)))
    return [slice(start, start + rows) for start in range(0, b, rows)]


def batch_loss(
    W: np.ndarray, C: np.ndarray, targets: np.ndarray, inputs: np.ndarray, negatives: np.ndarray
) -> float:
    h = _hidden(W, inputs)[0]
    pos = np.empty(len(h), dtype=np.result_type(h, C))
    neg = np.empty(negatives.shape, dtype=pos.dtype)
    for part in _row_chunks(C, negatives):
        pos[part] = np.einsum("bd,bd->b", h[part], C.take(targets[part], axis=0))
        neg[part] = np.einsum("bkd,bd->bk", C.take(negatives[part], axis=0), h[part])
    return float(-(log_sigmoid(pos).sum() + log_sigmoid(-neg).sum()))


def batch_step(
    W: np.ndarray,
    C: np.ndarray,
    targets: np.ndarray,
    inputs: np.ndarray,
    negatives: np.ndarray,
    rate: float,
) -> None:
    """One SGD step on a batch of (target, input row, negatives) examples.

    The learning rate is folded into the logistic coefficients, and every
    update is a coefficient-weighted copy of an existing row, so the
    scatter phase runs as grouped rank-one sums instead of materializing
    per-example outer products. The coefficients and the gradient at h
    are taken one `_row_chunks` slice at a time, so the step holds no
    (batch, negatives, dim) array; each row's values do not depend on the
    slicing, and the grouped sums run over the whole batch.
    """
    h, members, weights, batch_idx = _hidden(W, inputs)
    # the dtype each whole-batch expression would have had
    pos_coef = np.empty(len(h), dtype=np.result_type(h, C, rate))
    neg_coef = np.empty(negatives.shape, dtype=pos_coef.dtype)
    d_h = np.empty(h.shape, dtype=pos_coef.dtype)
    for part in _row_chunks(C, negatives):
        o = C.take(targets[part], axis=0)
        cn = C.take(negatives[part], axis=0)
        pos_coef[part] = (sigmoid(np.einsum("bd,bd->b", h[part], o)) - 1.0) * (-rate)
        neg_coef[part] = sigmoid(np.einsum("bkd,bd->bk", cn, h[part])) * (-rate)
        d_h[part] = pos_coef[part, None] * o + np.einsum("bk,bkd->bd", neg_coef[part], cn)
        del o, cn  # freed before the next slice is gathered
    unique, sums = segment_weighted_sums(members, weights, batch_idx, d_h)
    W[unique] += sums
    # positives and negatives update C together, each a coefficient times h
    rows = np.concatenate([targets, negatives.ravel()])
    coefs = np.concatenate([pos_coef, neg_coef.ravel()])
    unique, sums = segment_weighted_sums(rows, coefs, _pair_index(*negatives.shape), h)
    C[unique] += sums


def _init_matrices(words: tuple[str, ...], dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # float32 halves the memory traffic of the batch kernels
    bound = 0.5 / dim
    W = seeded_matrix(len(words), dim, seed, _W_STREAM, -bound, bound).astype(np.float32)
    C = seeded_matrix(len(words), dim, seed, _C_STREAM, -bound, bound).astype(np.float32)
    return W, C


def _train(
    corpus: TokenizedCorpus,
    config: TrainConfig,
    model: Model,
    build_examples: Callable[[tuple[np.ndarray, ...], int], tuple[np.ndarray, np.ndarray]],
) -> EmbeddingMatrix:
    """The SGD loop both models share.

    build_examples(documents, window) returns aligned (targets, inputs)
    arrays; every batch steps on their selected rows.
    """
    if config.model is not model:
        raise ValueError(f"config.model must be {model.name}, got {config.model}")
    config.validated()
    if config.learning_rate is None:
        raise ValueError(f"{model.value} needs a learning_rate")

    vocab = corpus.vocabulary
    W, C = _init_matrices(vocab.words, config.dim, config.seed)
    targets, inputs = build_examples(corpus.documents, config.window)
    negative_table = _negative_table(vocab.frequencies)
    rng = np.random.default_rng(config.seed)

    count = len(targets)
    batches_per_epoch = math.ceil(count / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    for epoch in range(config.epochs):
        # int32 halves the order's memory; the draws are those of the permutation
        order = rng.permutation(count).astype(np.int32)
        for batch, start in enumerate(range(0, count, config.batch_size)):
            sel = order[start:start + config.batch_size]
            negatives = _draw_negatives(rng, negative_table, (len(sel), config.negative_samples))
            progress = (epoch * batches_per_epoch + batch) / total_steps
            rate = config.learning_rate * (1.0 - progress * (1.0 - FINAL_RATE_FRACTION))
            batch_step(W, C, targets.take(sel), inputs.take(sel, axis=0), negatives, rate)
        log.debug("%s epoch %d/%d done", model.value, epoch + 1, config.epochs)

    return EmbeddingMatrix(words=vocab.words, vectors=W, model=model)


def train_sgns(corpus: TokenizedCorpus, config: TrainConfig) -> EmbeddingMatrix:
    """Train skip-gram vectors; returns the target-side (input) matrix."""
    return _train(corpus, config, Model.SGNS, _skipgram_pairs)


def train_cbow(corpus: TokenizedCorpus, config: TrainConfig) -> EmbeddingMatrix:
    """Train CBOW vectors: averaged context predicts the center word."""
    return _train(corpus, config, Model.CBOW, _context_table)
