import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrdrift.corpus import (
    AlignedDocument,
    Corpus,
    CorpusError,
    CorpusFormat,
    Version,
    _parse_icdar_file,
    compute_stats,
    load_corpus,
    save_paired_files,
)


def write_icdar(path, ocr_input, ocr_aligned, gt_aligned, gt_tag="[ GS_aligned]"):
    path.write_text(
        f"[OCR_toInput] {ocr_input}\n[OCR_aligned] {ocr_aligned}\n{gt_tag} {gt_aligned}",
        encoding="utf-8",
    )


ICDAR_PIECES = ["[OCR_toInput]", "[OCR_aligned]", "[ GS_aligned]", "[GS_aligned]", "\n", " ", "@", "ä"]


def make_corpus(pairs):
    return Corpus(documents=tuple(AlignedDocument(f"doc{i:03d}", ocr, gt) for i, (ocr, gt) in enumerate(pairs)))


class TestIcdarLoading:
    def test_triple_is_parsed_with_padding_retained(self, tmp_path):
        write_icdar(tmp_path / "a.txt", "c t", "c@t", "cat")
        corpus = load_corpus(tmp_path, CorpusFormat.ICDAR)
        (doc,) = corpus.documents
        assert doc.ocr_aligned == "c@t"
        assert doc.gt_aligned == "cat"
        assert doc.is_aligned

    def test_gt_tag_variant_without_space_also_parses(self, tmp_path):
        write_icdar(tmp_path / "a.txt", "x", "x", "x", gt_tag="[GS_aligned]")
        corpus = load_corpus(tmp_path, CorpusFormat.ICDAR)
        assert corpus.documents[0].gt_aligned == "x"

    def test_length_mismatch_marks_document_misaligned(self, tmp_path):
        write_icdar(tmp_path / "a.txt", "ab", "ab", "abc")
        corpus = load_corpus(tmp_path, "icdar")
        assert not corpus.documents[0].is_aligned

    def test_malformed_file_is_skipped_with_reason(self, tmp_path):
        write_icdar(tmp_path / "good.txt", "a", "a", "a")
        (tmp_path / "bad.txt").write_text("no tags here", encoding="utf-8")
        corpus = load_corpus(tmp_path, "icdar")
        assert len(corpus.documents) == 1
        assert corpus.report.loaded == 1
        assert corpus.report.skipped[0][0] == "bad.txt"

    def test_documents_sorted_by_id(self, tmp_path):
        for name in ("b.txt", "a.txt", "c.txt"):
            write_icdar(tmp_path / name, "x", "x", "x")
        corpus = load_corpus(tmp_path, "icdar")
        ids = [d.id for d in corpus.documents]
        assert ids == sorted(ids)

    def test_empty_directory_is_fatal(self, tmp_path):
        with pytest.raises(CorpusError, match="no documents"):
            load_corpus(tmp_path, "icdar")

    def test_missing_directory_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope", "icdar")

    @settings(max_examples=300, deadline=None)
    @given(content=st.lists(st.sampled_from(ICDAR_PIECES) | st.text(max_size=3), max_size=12).map("".join))
    def test_parser_raises_only_value_error(self, content):
        """Any text parses into an (OCR, ground truth) pair of strings or
        raises a ValueError naming the missing tag."""
        try:
            pair = _parse_icdar_file(content)
        except ValueError as exc:
            assert str(exc).startswith("missing [")
        else:
            assert content.startswith("[OCR_toInput]")
            assert all(isinstance(text, str) for text in pair)

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=60), junk=st.binary(max_size=3))
    def test_damaged_file_loads_or_is_skipped(self, tmp_path_factory, cut, junk):
        """A cut file with bytes appended, invalid UTF-8 included, is one
        document or a skipped file, never another error."""
        root = tmp_path_factory.mktemp("icdar")
        intact = "[OCR_toInput] c t\n[OCR_aligned] c@t\n[ GS_aligned] cät".encode()
        (root / "a.txt").write_bytes(intact[:cut] + junk)
        try:
            corpus = load_corpus(root, "icdar")
        except CorpusError:
            return
        assert len(corpus) == 1 and not corpus.report.skipped


class TestPairedFiles:
    def test_identical_pair_is_aligned(self, tmp_path):
        (tmp_path / "d1.ocr.txt").write_text("same text", encoding="utf-8")
        (tmp_path / "d1.gt.txt").write_text("same text", encoding="utf-8")
        corpus = load_corpus(tmp_path, CorpusFormat.PAIRED_FILES)
        assert corpus.documents[0].is_aligned

    def test_unequal_lengths_not_aligned(self, tmp_path):
        (tmp_path / "d1.ocr.txt").write_text("short", encoding="utf-8")
        (tmp_path / "d1.gt.txt").write_text("longer text", encoding="utf-8")
        corpus = load_corpus(tmp_path, "paired")
        assert not corpus.documents[0].is_aligned

    def test_orphan_files_reported(self, tmp_path):
        (tmp_path / "d1.ocr.txt").write_text("a", encoding="utf-8")
        (tmp_path / "d1.gt.txt").write_text("a", encoding="utf-8")
        (tmp_path / "d2.ocr.txt").write_text("b", encoding="utf-8")
        (tmp_path / "d3.gt.txt").write_text("c", encoding="utf-8")
        corpus = load_corpus(tmp_path, "paired")
        assert len(corpus.documents) == 1
        reasons = {reason for _, reason in corpus.report.skipped}
        assert reasons == {"missing ground-truth file", "missing OCR file"}

    def test_round_trip_preserves_documents(self, tmp_path):
        original = make_corpus([("c@t sat", "cat sat"), ("dog", "dog"), ("a@", "ab")])
        save_paired_files(original, tmp_path)
        reloaded = load_corpus(tmp_path, "paired")
        assert len(reloaded) == len(original)
        for a, b in zip(original.documents, reloaded.documents):
            assert (a.id, a.ocr_aligned, a.gt_aligned, a.is_aligned) == (
                b.id, b.ocr_aligned, b.gt_aligned, b.is_aligned
            )


class TestComputeStats:
    def test_single_document(self):
        stats = compute_stats(make_corpus([("abc", "abc")]), Version.GROUND_TRUTH)
        assert (stats.avg_chars, stats.min_chars, stats.max_chars, stats.total_chars) == (3, 3, 3, 3)

    def test_two_documents(self):
        stats = compute_stats(make_corpus([("ab", "ab"), ("abcd", "abcd")]), Version.GROUND_TRUTH)
        assert stats.avg_chars == 3
        assert (stats.min_chars, stats.max_chars, stats.total_chars) == (2, 4, 6)

    def test_padding_symbols_not_counted(self):
        stats = compute_stats(make_corpus([("c@t", "ca@")]), Version.GROUND_TRUTH)
        assert stats.total_chars == 2
        stats_ocr = compute_stats(make_corpus([("c@t", "ca@")]), Version.OCR)
        assert stats_ocr.total_chars == 2

    def test_totals_match_per_document_oracle(self):
        pairs = [("w" * n, "v" * n) for n in (3, 1000, 42, 501, 500)]
        corpus = make_corpus(pairs)
        stats = compute_stats(corpus, Version.GROUND_TRUTH)
        lengths = [len(d.text(Version.GROUND_TRUTH)) for d in corpus.documents]
        assert stats.total_chars == sum(lengths)
        assert stats.min_chars == min(lengths)
        assert stats.max_chars == max(lengths)
        assert stats.avg_chars == pytest.approx(sum(lengths) / len(lengths))
        assert stats.split_docs == sum(max(1, math.ceil(n / 500)) for n in lengths)

    def test_aligned_count(self):
        corpus = make_corpus([("ab", "ab"), ("a", "ab")])
        assert compute_stats(corpus, Version.GROUND_TRUTH).aligned_docs == 1

    def test_empty_corpus_is_error(self):
        empty = Corpus(documents=())
        with pytest.raises(CorpusError):
            compute_stats(empty, Version.GROUND_TRUTH)
