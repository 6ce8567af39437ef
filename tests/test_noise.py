import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrdrift.noise import (
    NoiseSpec,
    _word_edit_distance,
    character_error_rate,
    corpus_error_rates,
    histogram,
    inject_noise,
    word_error_rate,
)
from ocrdrift.synthetic import synthetic_documents, synthetic_vocabulary
from tests.test_corpus import make_corpus


def reference_levenshtein(a, b):
    """Plain quadratic DP, the independent oracle for edit distances."""
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dp[-1][-1]


class TestCharacterErrorRate:
    def test_identity(self):
        assert character_error_rate("abc", "abc") == 0.0

    def test_one_of_two_positions(self):
        assert character_error_rate("ab", "ac") == 0.5

    def test_padding_in_ocr_counts_toward_errors(self):
        assert character_error_rate("c@t", "cat") == pytest.approx(1 / 3)

    def test_padding_in_gt_not_in_denominator(self):
        # one insertion against two real characters
        assert character_error_rate("abx", "ab@") == 0.5

    def test_both_padding_ignored(self):
        assert character_error_rate("a@", "a@") == 0.0

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            character_error_rate("ab", "abc")

    def test_gt_all_padding_rejected(self):
        with pytest.raises(ValueError):
            character_error_rate("ab", "@@")

    @pytest.mark.parametrize("seed", range(8))
    def test_self_comparison_is_zero(self, seed):
        rng = np.random.default_rng(seed)
        text = "".join(rng.choice(list("abc def@"), size=60))
        if set(text) <= {"@"}:
            return
        assert character_error_rate(text, text) == 0.0

    def test_swapping_arguments_changes_only_denominator(self):
        ocr, gt = "a@", "ab"
        # one mismatching position either way; denominators differ
        assert character_error_rate(ocr, gt) == 1 / 2
        assert character_error_rate(gt, ocr) == 1 / 1


class TestWordErrorRate:
    def test_identity(self):
        assert word_error_rate("the cat", "the cat") == 0.0

    def test_single_substitution(self):
        assert word_error_rate("the bat", "the cat") == 0.5

    def test_insertion_over_three_words(self):
        assert word_error_rate("a b c d", "a c d") == pytest.approx(1 / 3)

    def test_can_exceed_one(self):
        assert word_error_rate("v w x y z", "a") == 5.0

    def test_empty_both_sides(self):
        assert word_error_rate("", "") == 0.0

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="empty ground truth"):
            word_error_rate("something", "")

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_quadratic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c", "d"]
        ocr = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 13))]
        gt = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(1, 13))]
        expected = reference_levenshtein(ocr, gt) / len(gt)
        assert word_error_rate(" ".join(ocr), " ".join(gt)) == pytest.approx(expected)

    # word lists long enough to cross a 64-bit machine word
    @settings(max_examples=300, deadline=None)
    @given(
        ocr=st.lists(st.sampled_from(["a", "b", "c", "ab", "ba"]), max_size=90),
        gt=st.lists(st.sampled_from(["a", "b", "c", "ab", "ba"]), max_size=90),
    )
    def test_bit_parallel_distance_matches_quadratic_oracle(self, ocr, gt):
        assert _word_edit_distance(ocr, gt) == reference_levenshtein(ocr, gt)


class TestCorpusErrorRates:
    def test_perfect_document(self):
        report = corpus_error_rates(make_corpus([("same words", "same words")]))
        assert report.language_mean_cer == 0.0
        assert report.language_mean_wer == 0.0

    def test_means_are_unweighted_over_documents(self):
        corpus = make_corpus([("ab", "ac"), ("abcd", "abcd")])
        report = corpus_error_rates(corpus)
        per_doc = [cer for _, cer, _ in report.per_document]
        assert report.language_mean_cer == pytest.approx(sum(per_doc) / len(per_doc))
        assert report.language_mean_cer == pytest.approx(0.25)

    def test_misaligned_documents_excluded(self):
        corpus = make_corpus([("ab", "ab"), ("a", "ab")])
        report = corpus_error_rates(corpus)
        assert report.excluded_docs == 1
        assert len(report.per_document) == 1

    def test_all_misaligned_is_error(self):
        with pytest.raises(ValueError):
            corpus_error_rates(make_corpus([("a", "ab")]))

    def test_histograms_have_fifty_bins(self):
        corpus = make_corpus([("ab", "ac"), ("xy", "xy"), ("pq", "pr")])
        report = corpus_error_rates(corpus)
        counts, edges = histogram([cer for _, cer, _ in report.per_document])
        assert len(counts) == 50
        assert len(edges) == 51
        assert counts.sum() == 3


class TestNoiseSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NoiseSpec(target_cer=0.1, substitution_weight=0.5, deletion_weight=0.1, insertion_weight=0.1)

    def test_target_above_limit_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(target_cer=0.95)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(target_cer=0.1, substitution_weight=1.2, deletion_weight=-0.3, insertion_weight=0.1)

    def test_alphabet_with_padding_symbol_rejected(self):
        # a substitution drawing it would write padding: a deletion
        with pytest.raises(ValueError, match="padding symbol '@'"):
            NoiseSpec(target_cer=0.1, alphabet="ab@")


class TestInjectNoise:
    def test_zero_target_is_identity(self):
        ocr, gt = inject_noise("hello world", NoiseSpec(target_cer=0.0, seed=1))
        assert ocr == gt == "hello world"
        assert character_error_rate(ocr, gt) == 0.0

    def test_deterministic_for_seed(self):
        text = "some reasonably long input text " * 20
        spec = NoiseSpec(target_cer=0.2, seed=123)
        assert inject_noise(text, spec) == inject_noise(text, spec)

    def test_different_seeds_differ(self):
        text = "some reasonably long input text " * 20
        a = inject_noise(text, NoiseSpec(target_cer=0.2, seed=1))
        b = inject_noise(text, NoiseSpec(target_cer=0.2, seed=2))
        assert a != b

    def test_closed_loop_at_ten_thousand_chars(self):
        text = "the quick brown fox jumps over a lazy dog " * 250
        assert len(text) >= 10_000
        for target in (0.05, 0.2):
            ocr, gt = inject_noise(text, NoiseSpec(target_cer=target, seed=7))
            assert abs(character_error_rate(ocr, gt) - target) <= 0.01

    def test_substitution_only_keeps_rate_at_most_one(self):
        text = "abcdefghij" * 50
        spec = NoiseSpec(
            target_cer=0.5, substitution_weight=1.0, deletion_weight=0.0,
            insertion_weight=0.0, seed=3,
        )
        ocr, gt = inject_noise(text, spec)
        assert len(ocr) == len(gt) == len(text)
        assert character_error_rate(ocr, gt) <= 1.0

    def test_alignment_lengths_always_equal(self):
        text = "word soup for alignment " * 40
        ocr, gt = inject_noise(text, NoiseSpec(target_cer=0.3, seed=9))
        assert len(ocr) == len(gt)
        assert gt.replace("@", "") == text

    def test_padding_in_input_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            inject_noise("has @ symbol", NoiseSpec(target_cer=0.1))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            inject_noise("", NoiseSpec(target_cer=0.1))


def test_synthetic_documents_reject_empty_documents():
    # with doc_chars < 1 every document was empty and generation never ended
    with pytest.raises(ValueError, match="doc_chars"):
        synthetic_documents(100, doc_chars=0)


# each bad argument, the parameter its error names, and what it did before
# it was checked
BAD_SYNTHETIC_ARGUMENTS = {
    "no types": (dict(n_types=0), "n_types"),  # a mean of an empty slice
    "more types than words": (dict(n_types=30, min_len=1, max_len=1), "n_types"),  # never returned
    "more types than words of 1..2 letters": (dict(n_types=703, min_len=1, max_len=2), "n_types"),
    "no topics": (dict(n_topics=0), "n_topics"),  # a NaN topic cdf
    "more topics than types": (dict(n_types=5, n_topics=6), "n_topics"),
    "zero-letter words": (dict(min_len=0), "min_len"),  # numpy's "low >= high"
    "min_len above max_len": (dict(min_len=5, max_len=4), "min_len"),
    "negative topic_affinity": (dict(topic_affinity=-0.1), "topic_affinity"),  # accepted
    "topic_affinity above 1": (dict(topic_affinity=1.5), "topic_affinity"),
    "NaN topic_affinity": (dict(topic_affinity=float("nan")), "topic_affinity"),
}
VOCABULARY_ARGUMENTS = ("n_types", "min_len", "max_len")


@pytest.mark.parametrize("case", sorted(BAD_SYNTHETIC_ARGUMENTS))
def test_synthetic_documents_reject_bad_arguments(case):
    kwargs, name = BAD_SYNTHETIC_ARGUMENTS[case]
    with pytest.raises(ValueError, match=name):
        synthetic_documents(100, **kwargs)
    if set(kwargs) <= set(VOCABULARY_ARGUMENTS):
        # before any draw: the caller's generator is left as it was
        rng = np.random.default_rng(0)
        lengths = {key: value for key, value in kwargs.items() if key != "n_types"}
        with pytest.raises(ValueError, match=name):
            synthetic_vocabulary(kwargs.get("n_types", 10), rng, **lengths)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

