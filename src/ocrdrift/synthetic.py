"""Seeded synthetic corpora with learnable co-occurrence structure.

Generates documents over an invented vocabulary whose words cluster into
topics: each document leans on one topic's words, so embedding models have
real neighborhood structure to learn. Used for desk-scale experiments and
tests that need corpora of controlled size without shipping any data.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .corpus import AlignedDocument, Corpus
from .noise import NoiseSpec, inject_noise


_LETTERS = 26  # words are spelled from a..z
_BLOCK = 2**13  # the most 32-bit values drawn and decoded at a time


def _check_vocabulary(n_types: int, min_len: int, max_len: int) -> None:
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    if min_len > max_len:
        raise ValueError("min_len must be <= max_len")
    if n_types < 1:
        raise ValueError("n_types must be >= 1")
    possible = 0
    for length in range(min_len, max_len + 1):
        possible += _LETTERS**length
        if possible >= n_types:
            return
    raise ValueError(f"n_types must be <= {possible}, the number of distinct words of {min_len}..{max_len} letters")


def _bounded_draws(values: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in [0, span) replayed on 32-bit values: each
    value's draw and whether it is accepted.

    `Generator.integers` below 2**32 is Lemire's method: the draw is the
    high word of value * span, and the value is drawn again while the low
    word is below 2**32 % span (Lemire 2019, "Fast random integer
    generation in an interval").
    """
    scaled = values.astype(np.uint64) * np.uint64(span)
    return (scaled >> np.uint64(32)).astype(np.int64), (scaled & np.uint64(0xFFFFFFFF)) >= 2**32 % span


def _decode_words(values: np.ndarray, min_len: int, max_len: int) -> tuple[list[str], list[int]]:
    """The words that the word-by-word draw (a length, then its letters,
    from one `integers` call each) spells from a stream of 32-bit values,
    and the number of values consumed once each word is complete.

    A word is a function of the position its draws start at, so every
    position's word is decoded at once and the chain from position 0 is
    followed; the stream's last, incomplete word is left out.
    """
    n = len(values)
    letters, letter_ok = _bounded_draws(values, _LETTERS)
    text = (letters[letter_ok] + ord("a")).astype(np.uint8).tobytes().decode("ascii")
    # letters_before[i]: the usable letter values before position i (i <= n + 1);
    # letter_at[k]: the position of the k-th, then n for "past the stream's end"
    letters_before = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(letter_ok, out=letters_before[1 : n + 1])
    letters_before[n + 1] = letters_before[n]
    letter_at = np.append(np.flatnonzero(letter_ok), n)
    span = max_len - min_len + 1
    if span == 1:  # integers(min_len, min_len + 1) draws nothing
        lengths = np.full(n, min_len)
        first_letter = np.arange(n)
    else:
        draws, length_ok = _bounded_draws(values, span)
        # the first accepted length value at or after each position, or n
        length_at = np.minimum.accumulate(np.where(length_ok, np.arange(n), n)[::-1])[::-1]
        lengths = min_len + draws[np.minimum(length_at, n - 1)]
        first_letter = length_at + 1
    # a word's letters are the next `length` usable values; a word that
    # runs past the stream's end ends at n + 1
    start = letters_before[first_letter]
    ends = memoryview(np.append(letter_at[np.minimum(start + lengths - 1, len(letter_at) - 1)] + 1, n + 1))
    chain = []
    pos = 0
    while pos <= n:
        chain.append(pos)
        pos = ends[pos]
    chain.pop()  # the stream's end, or a word that runs past it
    words = [text[a : a + length] for a, length in zip(start[chain].tolist(), lengths[chain].tolist())]
    return words, [ends[pos] for pos in chain]


def synthetic_vocabulary(
    n_types: int, rng: np.random.Generator, min_len: int = 3, max_len: int = 9
) -> list[str]:
    """Distinct lowercase pseudo-words.

    Each word is a length drawn by `rng.integers(min_len, max_len + 1)`
    and that many letters drawn by `rng.integers(0, 26, size=length)`;
    repeats are drawn again. Those bounded draws consume the generator's
    32-bit values one at a time, so they are decoded from blocks of raw
    32-bit draws, and the generator is left where the draws one word at a
    time leave it.
    """
    _check_vocabulary(n_types, min_len, max_len)
    state = rng.bit_generator.state
    seen: dict[str, None] = {}
    used = 0  # values the complete words have consumed
    values = np.empty(0, dtype=np.uint32)
    # a length value (none for one length) and its letters per word
    per_word = (min_len != max_len) + (min_len + max_len) / 2
    while True:
        # the values the missing words take, a quarter more for repeats
        size = min(_BLOCK, int((n_types - len(seen)) * per_word * 1.25) + 64)
        values = np.append(values, rng.integers(0, 2**32, size=size, dtype=np.uint32))
        words, ends = _decode_words(values, min_len, max_len)
        seen.update(dict.fromkeys(words))
        if len(seen) >= n_types:
            break
        if words:  # an incomplete last word is decoded again with the next block
            used += ends[-1]
            values = values[ends[-1] :]
    distinct = list(seen)[:n_types]
    used += ends[words.index(distinct[-1])]
    # draw again exactly the values the words used, a block at a time
    rng.bit_generator.state = state
    while used:
        size = min(used, _BLOCK)
        rng.integers(0, 2**32, size=size, dtype=np.uint32)
        used -= size
    return distinct


def synthetic_documents(
    total_chars: int,
    seed: int = 0,
    n_types: int = 1200,
    n_topics: int = 8,
    doc_chars: int = 1300,
    topic_affinity: float = 0.65,
    min_len: int = 3,
    max_len: int = 9,
) -> list[str]:
    """Documents totalling roughly `total_chars` characters.

    Word frequencies follow a Zipf-like law; each document draws a topic
    and takes `topic_affinity` of its tokens from that topic's word block,
    the rest from the global distribution.
    """
    if doc_chars < 1:
        raise ValueError("doc_chars must be >= 1")
    if not 0.0 <= topic_affinity <= 1.0:
        raise ValueError("topic_affinity must be in [0, 1]")
    _check_vocabulary(n_types, min_len, max_len)
    if not 1 <= n_topics <= n_types:
        raise ValueError("n_topics must be >= 1 and <= n_types")
    rng = np.random.default_rng(seed)
    words = synthetic_vocabulary(n_types, rng, min_len=min_len, max_len=max_len)
    global_weights = 1.0 / np.arange(1, n_types + 1) ** 1.05
    global_weights /= global_weights.sum()
    global_cdf = np.cumsum(global_weights)

    topic_of_word = np.arange(n_types) % n_topics
    topic_cdfs = []
    for t in range(n_topics):
        w = np.where(topic_of_word == t, global_weights, 0.0)
        topic_cdfs.append(np.cumsum(w / w.sum()))

    word_lengths = np.array([len(w) for w in words])
    batch = max(16, int(doc_chars / (word_lengths.mean() + 1) * 1.3))

    documents: list[str] = []
    produced = 0
    while produced < total_chars:
        topic_cdf = topic_cdfs[int(rng.integers(0, n_topics))]
        tokens: list[str] = []
        length = 0
        while length < doc_chars:
            from_topic = rng.random(batch) < topic_affinity
            u = rng.random(batch)
            ids = np.empty(batch, dtype=np.intp)
            ids[from_topic] = np.searchsorted(topic_cdf, u[from_topic], side="right")
            ids[~from_topic] = np.searchsorted(global_cdf, u[~from_topic], side="right")
            np.minimum(ids, n_types - 1, out=ids)  # guard the cdf's float tail
            spans = np.cumsum(word_lengths[ids] + 1)
            take = ids[: np.searchsorted(spans, doc_chars - length) + 1]
            tokens.extend(map(words.__getitem__, take.tolist()))
            length += int(spans[len(take) - 1])
        doc = " ".join(tokens)
        documents.append(doc)
        produced += len(doc)
    return documents


def synthetic_text(total_chars: int, seed: int = 0, **kwargs) -> str:
    """One flat text of at least `total_chars` characters."""
    return " ".join(synthetic_documents(total_chars, seed=seed, **kwargs))


def noisy_corpus(documents: list[str], spec: NoiseSpec) -> Corpus:
    """Corrupt clean documents into an aligned corpus at the spec's rate.

    Each document gets its own child seed, so the corpus is deterministic
    as a whole while documents stay independently corrupted.
    """
    docs = []
    for i, text in enumerate(documents):
        seed = int(np.random.default_rng((spec.seed, i)).integers(0, 2**63 - 1))
        docs.append(AlignedDocument(f"doc{i:05d}", *inject_noise(text, replace(spec, seed=seed))))
    return Corpus(documents=tuple(docs))
