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


def synthetic_vocabulary(
    n_types: int, rng: np.random.Generator, min_len: int = 3, max_len: int = 9
) -> list[str]:
    """Distinct lowercase pseudo-words."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_types:
        length = int(rng.integers(min_len, max_len + 1))
        word = "".join(chr(97 + c) for c in rng.integers(0, 26, size=length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


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
            ids = np.where(
                from_topic,
                np.searchsorted(topic_cdf, u, side="right"),
                np.searchsorted(global_cdf, u, side="right"),
            )
            np.minimum(ids, n_types - 1, out=ids)  # guard the cdf's float tail
            stop = np.searchsorted(np.cumsum(word_lengths[ids] + 1), doc_chars - length)
            take = ids[: stop + 1]
            tokens.extend(words[i] for i in take)
            length += int((word_lengths[take] + 1).sum())
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
