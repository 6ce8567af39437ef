"""Text normalization, tokenization, and frequency-filtered vocabularies."""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import PAD, Corpus, Version


class _DropTable(dict):
    """str.translate table deleting digits, punctuation, symbols and '@'.

    Keyed by codepoint; entries are computed on first sight and cached for
    the life of the process. Digits are Unicode category N*, punctuation
    and symbols are P* and S*.
    """

    def __missing__(self, codepoint: int) -> str | None:
        ch = chr(codepoint)
        drop = ch == PAD or unicodedata.category(ch)[0] in "NPS"
        result = None if drop else ch
        self[codepoint] = result
        return result


_DROP_TABLE = _DropTable()


def normalize(text: str) -> str:
    """Lowercase, drop digits/punctuation/symbols, collapse whitespace."""
    cleaned = text.lower().translate(_DROP_TABLE)
    return " ".join(cleaned.split())


def tokenize(text: str) -> list[str]:
    """Split normalized text on spaces; never yields empty tokens."""
    return text.split()


@dataclass(frozen=True)
class Vocabulary:
    """Dense word ids with full corpus frequencies for retained words.

    Ids are assigned by descending frequency (ties broken alphabetically),
    so identical input always produces identical ids.
    """

    word_to_id: dict[str, int]
    frequencies: np.ndarray
    words: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        ordered = sorted(self.word_to_id, key=self.word_to_id.get)
        object.__setattr__(self, "words", tuple(ordered))

    def __len__(self) -> int:
        return len(self.word_to_id)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        """Map tokens to ids, silently dropping out-of-vocabulary tokens."""
        w2i = self.word_to_id
        return np.array([w2i[t] for t in tokens if t in w2i], dtype=np.int32)


def build_vocabulary(documents: Iterable[Sequence[str]], min_count: int = 5) -> Vocabulary:
    """Count tokens across documents and keep words seen >= min_count times."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for tokens in documents:
        counts.update(tokens)
    kept = [(w, c) for w, c in counts.items() if c >= min_count]
    if not kept:
        raise ValueError("empty vocabulary: every word fell below min_count")
    kept.sort(key=lambda item: (-item[1], item[0]))
    word_to_id = {w: i for i, (w, _) in enumerate(kept)}
    freqs = np.array([c for _, c in kept], dtype=np.int64)
    return Vocabulary(word_to_id=word_to_id, frequencies=freqs)


@dataclass(frozen=True)
class TokenizedCorpus:
    """Documents as id sequences over one vocabulary."""

    documents: tuple[np.ndarray, ...]
    vocabulary: Vocabulary


def window_pairs(
    documents: Iterable[np.ndarray], window: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Every in-window token pair, as aligned slices per document and distance.

    Yields (start, distance, left, right) where left[i] and right[i] sit
    `distance` positions apart in one document, for distances 1..window
    (capped at the document length). Documents shorter than two tokens are
    skipped; `start` is the document's offset in the concatenation of the
    documents that are not. Pairs never cross document boundaries.
    """
    start = 0
    for doc in documents:
        n = len(doc)
        if n < 2:
            continue
        for distance in range(1, min(window, n - 1) + 1):
            yield start, distance, doc[:-distance], doc[distance:]
        start += n


def encode_documents(documents: Iterable[Sequence[str]], vocabulary: Vocabulary) -> TokenizedCorpus:
    return TokenizedCorpus(
        documents=tuple(vocabulary.encode(tokens) for tokens in documents),
        vocabulary=vocabulary,
    )


def preprocess_corpus(corpus: Corpus, version: Version, min_count: int = 5) -> TokenizedCorpus:
    """Normalize + tokenize one corpus version, build its vocabulary, encode."""
    token_docs = [tokenize(normalize(text)) for text in corpus.texts(version)]
    vocab = build_vocabulary(token_docs, min_count=min_count)
    return encode_documents(token_docs, vocab)


def intersect_words(word_sets: Sequence[Iterable[str]]) -> list[str]:
    """Sorted intersection of arbitrary word collections."""
    if len(word_sets) < 2:
        raise ValueError("need at least two vocabularies to intersect")
    common = set(word_sets[0])
    for ws in word_sets[1:]:
        common &= set(ws)
    if not common:
        raise ValueError("empty vocabulary intersection")
    return sorted(common)

