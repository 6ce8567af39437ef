from collections import Counter

import numpy as np
import pytest

from ocrdrift.noise import NoiseSpec
from ocrdrift.preprocess import (
    build_vocabulary,
    encode_documents,
    intersect_words,
    normalize,
    preprocess_corpus,
    tokenize,
    window_pairs,
)
from ocrdrift.corpus import Version
from ocrdrift.synthetic import noisy_corpus, synthetic_documents


class TestNormalize:
    def test_digits_punctuation_case_and_whitespace(self):
        assert normalize("The  Cat, 9 lives!") == "the cat lives"

    def test_empty(self):
        assert normalize("") == ""

    def test_fixed_point(self):
        assert normalize("abc") == "abc"

    def test_padding_symbol_removed(self):
        assert normalize("c@t") == "ct"

    def test_symbols_removed(self):
        assert normalize("a + b = c $5 €9") == "a b c"

    def test_accented_letters_kept(self):
        assert normalize("Déjà vu") == "déjà vu"

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_on_messy_input(self, seed):
        rng = np.random.default_rng(seed)
        pool = list("aA9.,!@#$% \t\néÉßÆ-_()[]{}«» ö12;")
        text = "".join(rng.choice(pool, size=200))
        once = normalize(text)
        assert normalize(once) == once


class TestTokenize:
    def test_two_words(self):
        assert tokenize("the cat") == ["the", "cat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_repeats_preserved(self):
        assert tokenize("a b a") == ["a", "b", "a"]


class TestBuildVocabulary:
    def test_threshold_boundary(self):
        docs = [["a"] * 5 + ["b"] * 4]
        vocab = build_vocabulary(docs, min_count=5)
        assert set(vocab.word_to_id) == {"a"}
        assert vocab.frequencies[vocab.word_to_id["a"]] == 5

    def test_min_count_one_keeps_all(self):
        vocab = build_vocabulary([["x", "y"], ["z"]], min_count=1)
        assert set(vocab.word_to_id) == {"x", "y", "z"}

    def test_counts_match_naive_oracle(self):
        rng = np.random.default_rng(42)
        words = [f"w{i}" for i in range(50)]
        docs = [
            [words[i] for i in rng.integers(0, 50, size=rng.integers(1, 60))]
            for _ in range(1000)
        ]
        oracle = Counter(t for doc in docs for t in doc)
        vocab = build_vocabulary(docs, min_count=3)
        for word, idx in vocab.word_to_id.items():
            assert vocab.frequencies[idx] == oracle[word]
        assert set(vocab.word_to_id) == {w for w, c in oracle.items() if c >= 3}

    def test_ids_contiguous_and_deterministic(self):
        docs = [["b", "a", "b", "c", "c", "c"]]
        v1 = build_vocabulary(docs, min_count=1)
        v2 = build_vocabulary(docs, min_count=1)
        assert v1.word_to_id == v2.word_to_id
        assert sorted(v1.word_to_id.values()) == [0, 1, 2]

    def test_order_independent_over_document_permutations(self):
        docs = [["a", "b"], ["c"] * 3, ["b", "b"]]
        v1 = build_vocabulary(docs, min_count=1)
        v2 = build_vocabulary(docs[::-1], min_count=1)
        assert v1.word_to_id == v2.word_to_id

    def test_all_filtered_is_error(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_vocabulary([["once"]], min_count=2)

    def test_encode_drops_oov(self):
        vocab = build_vocabulary([["a", "a", "b", "b"]], min_count=2)
        tc = encode_documents([["a", "zzz", "b"]], vocab)
        decoded = [vocab.words[i] for i in tc.documents[0]]
        assert decoded == ["a", "b"]


class TestWindowPairs:
    def test_yields_slices_in_document_then_distance_order(self):
        docs = [np.array([1, 2, 3]), np.array([7]), np.array([], dtype=np.int64), np.array([4, 5])]
        got = [(start, d, left.tolist(), right.tolist())
               for start, d, left, right in window_pairs(docs, window=5)]
        # short documents are skipped and do not advance the offset
        assert got == [
            (0, 1, [1, 2], [2, 3]),
            (0, 2, [1], [3]),
            (3, 1, [4], [5]),
        ]

    def test_window_caps_the_distance(self):
        distances = [d for _, d, _, _ in window_pairs([np.arange(10)], window=3)]
        assert distances == [1, 2, 3]


class TestIntersections:
    def _words(self, words):
        return build_vocabulary([list(words)], min_count=1).words

    def test_basic_intersection(self):
        assert intersect_words([self._words("abc"), self._words("bcd")]) == ["b", "c"]

    def test_identical_vocabularies_full_size(self):
        words = self._words("abc")
        assert len(intersect_words([words, words])) == len(words)

    def test_every_word_is_in_every_source(self):
        sources = [self._words("abcd"), self._words("cabe"), self._words("bxac")]
        common = intersect_words(sources)
        assert common == ["a", "b", "c"]
        assert all(word in words for words in sources for word in common)

    def test_size_bounded_by_smallest_source(self):
        w1, w2 = self._words("abcdef"), self._words("ab")
        assert len(intersect_words([w1, w2])) <= min(len(w1), len(w2))

    def test_empty_intersection_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            intersect_words([self._words("ab"), self._words("cd")])

    def test_single_vocabulary_is_error(self):
        with pytest.raises(ValueError):
            intersect_words([self._words("ab")])

    def test_noisy_vocab_intersection_strictly_smaller(self):
        docs = synthetic_documents(60_000, seed=3, n_types=300, doc_chars=800)
        corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.15, seed=1))
        gt = preprocess_corpus(corpus, Version.GROUND_TRUTH, min_count=5).vocabulary
        ocr = preprocess_corpus(corpus, Version.OCR, min_count=5).vocabulary
        common = intersect_words([gt.word_to_id.keys(), ocr.word_to_id.keys()])
        assert len(common) < len(gt)
        assert len(common) < len(ocr)

