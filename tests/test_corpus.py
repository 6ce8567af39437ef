import math

import pytest

from ocrdrift.corpus import (
    AlignedDocument,
    Corpus,
    CorpusError,
    CorpusFormat,
    Language,
    Version,
    compute_stats,
    load_corpus,
    save_paired_files,
)


def write_icdar(path, ocr_input, ocr_aligned, gt_aligned, gt_tag="[ GS_aligned]"):
    path.write_text(
        f"[OCR_toInput] {ocr_input}\n[OCR_aligned] {ocr_aligned}\n{gt_tag} {gt_aligned}",
        encoding="utf-8",
    )


def make_doc(doc_id, ocr, gt):
    return AlignedDocument(
        id=doc_id,
        ocr_aligned=ocr,
        gt_aligned=gt,
        is_aligned=len(ocr) == len(gt),
    )


def make_corpus(pairs, language="synthetic"):
    docs = tuple(make_doc(f"doc{i:03d}", ocr, gt) for i, (ocr, gt) in enumerate(pairs))
    return Corpus(documents=docs, language=Language.parse(language))


class TestIcdarLoading:
    def test_triple_is_parsed_with_padding_retained(self, tmp_path):
        write_icdar(tmp_path / "a.txt", "c t", "c@t", "cat")
        corpus = load_corpus(tmp_path, CorpusFormat.ICDAR, "dutch")
        (doc,) = corpus.documents
        assert doc.ocr_aligned == "c@t"
        assert doc.gt_aligned == "cat"
        assert doc.is_aligned
        assert corpus.language == Language("dutch")

    def test_gt_tag_variant_without_space_also_parses(self, tmp_path):
        write_icdar(tmp_path / "a.txt", "x", "x", "x", gt_tag="[GS_aligned]")
        corpus = load_corpus(tmp_path, CorpusFormat.ICDAR, "other")
        assert corpus.documents[0].gt_aligned == "x"

    def test_length_mismatch_marks_document_misaligned(self, tmp_path):
        write_icdar(tmp_path / "a.txt", "ab", "ab", "abc")
        corpus = load_corpus(tmp_path, "icdar", "other")
        assert not corpus.documents[0].is_aligned

    def test_malformed_file_is_skipped_with_reason(self, tmp_path):
        write_icdar(tmp_path / "good.txt", "a", "a", "a")
        (tmp_path / "bad.txt").write_text("no tags here", encoding="utf-8")
        corpus = load_corpus(tmp_path, "icdar", "other")
        assert len(corpus.documents) == 1
        assert corpus.report.loaded == 1
        assert corpus.report.skipped[0][0] == "bad.txt"

    def test_documents_sorted_by_id(self, tmp_path):
        for name in ("b.txt", "a.txt", "c.txt"):
            write_icdar(tmp_path / name, "x", "x", "x")
        corpus = load_corpus(tmp_path, "icdar", "other")
        ids = [d.id for d in corpus.documents]
        assert ids == sorted(ids)

    def test_empty_directory_is_fatal(self, tmp_path):
        with pytest.raises(CorpusError, match="no documents"):
            load_corpus(tmp_path, "icdar", "other")

    def test_missing_directory_is_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope", "icdar", "other")


class TestPairedFiles:
    def test_identical_pair_is_aligned(self, tmp_path):
        (tmp_path / "d1.ocr.txt").write_text("same text", encoding="utf-8")
        (tmp_path / "d1.gt.txt").write_text("same text", encoding="utf-8")
        corpus = load_corpus(tmp_path, CorpusFormat.PAIRED_FILES, "other")
        assert corpus.documents[0].is_aligned

    def test_unequal_lengths_not_aligned(self, tmp_path):
        (tmp_path / "d1.ocr.txt").write_text("short", encoding="utf-8")
        (tmp_path / "d1.gt.txt").write_text("longer text", encoding="utf-8")
        corpus = load_corpus(tmp_path, "paired", "other")
        assert not corpus.documents[0].is_aligned

    def test_orphan_files_reported(self, tmp_path):
        (tmp_path / "d1.ocr.txt").write_text("a", encoding="utf-8")
        (tmp_path / "d1.gt.txt").write_text("a", encoding="utf-8")
        (tmp_path / "d2.ocr.txt").write_text("b", encoding="utf-8")
        (tmp_path / "d3.gt.txt").write_text("c", encoding="utf-8")
        corpus = load_corpus(tmp_path, "paired", "other")
        assert len(corpus.documents) == 1
        reasons = {reason for _, reason in corpus.report.skipped}
        assert reasons == {"missing ground-truth file", "missing OCR file"}

    def test_round_trip_preserves_documents(self, tmp_path):
        original = make_corpus([("c@t sat", "cat sat"), ("dog", "dog"), ("a@", "ab")])
        save_paired_files(original, tmp_path)
        reloaded = load_corpus(tmp_path, "paired", original.language)
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
        empty = Corpus(documents=(), language=Language("synthetic"))
        with pytest.raises(CorpusError):
            compute_stats(empty, Version.GROUND_TRUTH)
