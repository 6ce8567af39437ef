"""Skip-gram with negative sampling and CBOW, trained from scratch.

Both models keep two dense matrices: input vectors W (returned as the word
embedding) and output vectors C. Each model has one objective, its batch
loss (`sgns_batch_loss`, `cbow_batch_loss`): the negative-sampling
logistic loss summed over the batch. Each batch step is exact SGD on that
loss: `sgns_batch_step` and `cbow_batch_step` at rate r move W and C by
-r times its gradient, taken at the matrices before the step, which is
what the gradient acceptance criterion checks against central
differences. Batches are processed in a fixed seeded order, so a given
seed always reproduces the same matrices bit for bit. The learning rate
decays linearly to 1e-4 of its initial value over the whole run.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable, NamedTuple

import numpy as np

from .embeddings import EmbeddingMatrix, Model, TrainConfig
from .preprocess import TokenizedCorpus, window_pairs
from .util import log_sigmoid, seeded_matrix, segment_sums, segment_weighted_sums, sigmoid

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
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for _, _, left, right in window_pairs(documents, window):
        centers += (left, right)
        contexts += (right, left)
    if not centers:
        raise ValueError("corpus has no token pairs inside the window")
    return (
        np.concatenate(centers).astype(np.int32),
        np.concatenate(contexts).astype(np.int32),
    )


def _context_table(
    documents: tuple[np.ndarray, ...], window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per position: center id, fixed-width context ids (-1 padded), mask.

    Slots are the offsets -window..-1 then 1..window; documents shorter
    than two tokens contribute no positions.
    """
    kept = [doc for doc in documents if len(doc) >= 2]
    if not kept:
        raise ValueError("corpus has no token pairs inside the window")
    centers = np.concatenate(kept).astype(np.int32)
    table = np.full((len(centers), 2 * window), -1, dtype=np.int32)
    for start, distance, left, right in window_pairs(kept, window):
        stop = start + len(left) + distance
        table[start + distance:stop, window - distance] = left
        table[start:stop - distance, window + distance - 1] = right
    return centers, table, table >= 0


@functools.lru_cache(maxsize=2)
def _pair_index(b: int, k: int) -> np.ndarray:
    """The batch row of each output-side update of a (b, k) batch: the b
    positives, then the k negatives of each row. It depends only on the
    batch shape, so it is cached (read-only) across batches."""
    rows = np.arange(b, dtype=np.int64)
    index = np.concatenate([rows, np.repeat(rows, k)])
    index.flags.writeable = False
    return index


def _update_outputs(
    C: np.ndarray,
    targets: np.ndarray,
    negatives: np.ndarray,
    pos_coef: np.ndarray,
    neg_coef: np.ndarray,
    hidden: np.ndarray,
) -> None:
    """C[targets[i]] += pos_coef[i] * hidden[i], and likewise for each negative.

    Every output-side update is a coefficient times one batch row of
    `hidden`: one grouped pass covers positives and negatives together.
    """
    rows = np.concatenate([targets, negatives.ravel()])
    weights = np.concatenate([pos_coef, neg_coef.ravel()])
    unique, sums = segment_weighted_sums(rows, weights, _pair_index(*negatives.shape), hidden)
    C[unique] += sums


def sgns_batch_loss(
    W: np.ndarray, C: np.ndarray, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
) -> float:
    w = W[centers]
    pos = np.einsum("bd,bd->b", w, C[contexts])
    neg = np.einsum("bkd,bd->bk", C[negatives], w)
    return float(-(log_sigmoid(pos).sum() + log_sigmoid(-neg).sum()))


def sgns_batch_step(
    W: np.ndarray,
    C: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    rate: float,
) -> None:
    """One SGD step on a batch of (center, context, negatives) triples.

    The learning rate is folded into the logistic coefficients, and every
    update is a coefficient-weighted copy of an existing row, so the
    scatter phase runs as grouped rank-one sums instead of materializing
    per-pair outer products.
    """
    w = W.take(centers, axis=0)
    cp = C.take(contexts, axis=0)
    cn = C.take(negatives, axis=0)
    pos_coef = (sigmoid(np.einsum("bd,bd->b", w, cp)) - 1.0) * (-rate)
    neg_coef = sigmoid(np.einsum("bkd,bd->bk", cn, w)) * (-rate)
    d_w = pos_coef[:, None] * cp + np.einsum("bk,bkd->bd", neg_coef, cn)
    unique, sums = segment_sums(centers, d_w)
    W[unique] += sums
    _update_outputs(C, contexts, negatives, pos_coef, neg_coef, w)


def cbow_batch_loss(
    W: np.ndarray,
    C: np.ndarray,
    centers: np.ndarray,
    table: np.ndarray,
    mask: np.ndarray,
    negatives: np.ndarray,
) -> float:
    counts = mask.sum(axis=1)
    h = (W[table] * mask[:, :, None]).sum(axis=1) / counts[:, None]
    pos = np.einsum("bd,bd->b", h, C[centers])
    neg = np.einsum("bkd,bd->bk", C[negatives], h)
    return float(-(log_sigmoid(pos).sum() + log_sigmoid(-neg).sum()))


def cbow_batch_step(
    W: np.ndarray,
    C: np.ndarray,
    centers: np.ndarray,
    table: np.ndarray,
    mask: np.ndarray,
    negatives: np.ndarray,
    rate: float,
) -> None:
    counts = mask.sum(axis=1)
    batch_idx, slot_idx = np.nonzero(mask)
    members = table[batch_idx, slot_idx]
    inv_counts = (1.0 / counts).astype(W.dtype)
    # h[b] = mean of the context vectors, as a grouped weighted gather;
    # alignment with the batch requires every position to keep a context
    _, h = segment_weighted_sums(batch_idx, inv_counts[batch_idx], members, W)
    if len(h) != len(centers):
        raise ValueError("every position must have at least one context word")
    o = C.take(centers, axis=0)
    cn = C.take(negatives, axis=0)
    pos_coef = (sigmoid(np.einsum("bd,bd->b", h, o)) - 1.0) * (-rate)
    neg_coef = sigmoid(np.einsum("bkd,bd->bk", cn, h)) * (-rate)
    d_h = pos_coef[:, None] * o + np.einsum("bk,bkd->bd", neg_coef, cn)
    unique, sums = segment_weighted_sums(members, inv_counts[batch_idx], batch_idx, d_h)
    W[unique] += sums
    _update_outputs(C, centers, negatives, pos_coef, neg_coef, h)


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
    build_examples: Callable[[tuple[np.ndarray, ...], int], tuple[np.ndarray, ...]],
    step: Callable[..., None],
) -> EmbeddingMatrix:
    """The SGD loop both models share.

    build_examples(documents, window) returns aligned per-example arrays;
    every batch passes their selected rows, then the negatives and the
    rate, to step(W, C, ...), which updates W and C in place.
    """
    if config.model is not model:
        raise ValueError(f"config.model must be {model.name}, got {config.model}")
    config.validated()

    vocab = corpus.vocabulary
    W, C = _init_matrices(vocab.words, config.dim, config.seed)
    examples = build_examples(corpus.documents, config.window)
    negative_table = _negative_table(vocab.frequencies)
    rng = np.random.default_rng(config.seed)

    count = len(examples[0])
    batches_per_epoch = math.ceil(count / config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    initial_rate = config.resolved_rate()
    for epoch in range(config.epochs):
        order = rng.permutation(count)
        for batch, start in enumerate(range(0, count, config.batch_size)):
            sel = order[start:start + config.batch_size]
            negatives = _draw_negatives(rng, negative_table, (len(sel), config.negative_samples))
            progress = (epoch * batches_per_epoch + batch) / total_steps
            rate = initial_rate * (1.0 - progress * (1.0 - FINAL_RATE_FRACTION))
            step(W, C, *(array.take(sel, axis=0) for array in examples), negatives, rate)
        log.debug("%s epoch %d/%d done", model.value, epoch + 1, config.epochs)

    return EmbeddingMatrix(words=vocab.words, vectors=W, model=model)


def train_sgns(corpus: TokenizedCorpus, config: TrainConfig) -> EmbeddingMatrix:
    """Train skip-gram vectors; returns the target-side (input) matrix."""
    return _train(corpus, config, Model.SGNS, _skipgram_pairs, sgns_batch_step)


def train_cbow(corpus: TokenizedCorpus, config: TrainConfig) -> EmbeddingMatrix:
    """Train CBOW vectors: averaged context predicts the center word."""
    return _train(corpus, config, Model.CBOW, _context_table, cbow_batch_step)
