"""Aligned OCR/ground-truth corpora: loading and statistics.

A corpus holds documents that exist in two versions of the same text: the
OCR output and a human-verified ground truth. The two versions come padded
with '@' so that characters at the same position correspond; documents
whose padded versions differ in length are kept but flagged as misaligned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

PAD = "@"


class CorpusError(Exception):
    """Raised when a corpus cannot be loaded or is unusable."""


class Version(Enum):
    """Which side of the aligned pair an operation reads."""

    OCR = "ocr"
    GROUND_TRUTH = "gt"


class CorpusFormat(Enum):
    ICDAR = "icdar"
    PAIRED_FILES = "paired"


@dataclass(frozen=True)
class AlignedDocument:
    """One document's padded OCR/GT pair and alignment status."""

    id: str
    ocr_aligned: str
    gt_aligned: str

    @property
    def is_aligned(self) -> bool:
        return len(self.ocr_aligned) == len(self.gt_aligned)

    def text(self, version: Version) -> str:
        """The selected version with alignment padding removed."""
        s = self.gt_aligned if version is Version.GROUND_TRUTH else self.ocr_aligned
        return s.replace(PAD, "")


@dataclass(frozen=True)
class IngestionReport:
    root: str
    format: str
    loaded: int
    skipped: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Corpus:
    documents: tuple[AlignedDocument, ...]
    report: IngestionReport | None = None

    def __len__(self) -> int:
        return len(self.documents)

    def texts(self, version: Version) -> list[str]:
        return [doc.text(version) for doc in self.documents]


@dataclass(frozen=True)
class CorpusStats:
    total_docs: int
    aligned_docs: int
    split_docs: int
    avg_chars: float
    min_chars: int
    max_chars: int
    total_chars: int


_ICDAR_GT_TAGS = ("[ GS_aligned]", "[GS_aligned]")
# compute_stats counts the pieces that fixed-width splitting at this many
# characters would make
SPLIT_MAX_CHARS = 500


def _parse_icdar_file(content: str) -> tuple[str, str]:
    """Extract the (ocr_aligned, gt_aligned) pair from one file. The file
    must open with an [OCR_toInput] section, whose text is not kept."""
    if not content.startswith("[OCR_toInput]"):
        raise ValueError("missing [OCR_toInput] tag")
    aligned_at = content.find("\n[OCR_aligned]")
    if aligned_at < 0:
        raise ValueError("missing [OCR_aligned] tag")
    gt_at = -1
    gt_tag = ""
    for tag in _ICDAR_GT_TAGS:
        gt_at = content.find("\n" + tag)
        if gt_at >= 0:
            gt_tag = tag
            break
    if gt_at < 0 or gt_at < aligned_at:
        raise ValueError("missing [GS_aligned] tag")

    def strip_tag(section: str, tag: str) -> str:
        body = section[len(tag):]
        if body.startswith(" "):
            body = body[1:]
        return body.rstrip("\n")

    ocr_aligned = strip_tag(content[aligned_at + 1:gt_at], "[OCR_aligned]")
    gt_aligned = strip_tag(content[gt_at + 1:], gt_tag)
    return ocr_aligned, gt_aligned


def load_corpus(root_path: str | Path, format: CorpusFormat | str) -> Corpus:
    """Load every parseable document under `root_path`.

    Unparseable files are skipped and listed in the corpus's ingestion
    report; an unreadable or empty directory is fatal. Documents are sorted
    by id, so load order never depends on filesystem enumeration.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    fmt = CorpusFormat(format) if isinstance(format, str) else format

    documents: list[AlignedDocument] = []
    skipped: list[tuple[str, str]] = []

    if fmt is CorpusFormat.ICDAR:
        paths = sorted(p for p in root.rglob("*.txt") if p.is_file())
        for path in paths:
            rel = path.relative_to(root).as_posix()
            try:
                content = path.read_text(encoding="utf-8")
                ocr_aligned, gt_aligned = _parse_icdar_file(content)
            except (ValueError, UnicodeDecodeError) as exc:
                skipped.append((rel, str(exc)))
                continue
            documents.append(AlignedDocument(rel[:-len(".txt")], ocr_aligned, gt_aligned))
    else:
        ocr_paths = sorted(p for p in root.rglob("*.ocr.txt") if p.is_file())
        for path in ocr_paths:
            rel = path.relative_to(root).as_posix()
            doc_id = rel[:-len(".ocr.txt")]
            gt_path = path.parent / (path.name[:-len(".ocr.txt")] + ".gt.txt")
            if not gt_path.is_file():
                skipped.append((rel, "missing ground-truth file"))
                continue
            try:
                ocr_text = path.read_text(encoding="utf-8")
                gt_text = gt_path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                skipped.append((rel, str(exc)))
                continue
            documents.append(AlignedDocument(doc_id, ocr_text, gt_text))
        for gt_path in sorted(p for p in root.rglob("*.gt.txt") if p.is_file()):
            ocr_name = gt_path.name[:-len(".gt.txt")] + ".ocr.txt"
            if not (gt_path.parent / ocr_name).is_file():
                skipped.append((gt_path.relative_to(root).as_posix(), "missing OCR file"))

    if not documents:
        raise CorpusError(f"no documents found under {root}")

    documents.sort(key=lambda d: d.id)
    report = IngestionReport(
        root=str(root), format=fmt.value, loaded=len(documents), skipped=tuple(skipped)
    )
    return Corpus(documents=tuple(documents), report=report)


def save_paired_files(corpus: Corpus, out_dir: str | Path) -> None:
    """Write `<id>.ocr.txt` / `<id>.gt.txt` pairs holding the aligned texts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        ocr_path = out / f"{doc.id}.ocr.txt"
        ocr_path.parent.mkdir(parents=True, exist_ok=True)
        ocr_path.write_text(doc.ocr_aligned, encoding="utf-8")
        (out / f"{doc.id}.gt.txt").write_text(doc.gt_aligned, encoding="utf-8")


def compute_stats(corpus: Corpus, version: Version) -> CorpusStats:
    """Character statistics of the selected version, padding excluded.

    `split_docs` is the number of pieces fixed-width splitting at
    SPLIT_MAX_CHARS would produce for that version. The average is kept
    as a float; round it at presentation time.
    """
    if not corpus.documents:
        raise CorpusError("cannot compute statistics of an empty corpus")
    lengths = [len(doc.text(version)) for doc in corpus.documents]
    total = sum(lengths)
    return CorpusStats(
        total_docs=len(lengths),
        aligned_docs=sum(1 for d in corpus.documents if d.is_aligned),
        split_docs=sum(max(1, math.ceil(n / SPLIT_MAX_CHARS)) for n in lengths),
        avg_chars=total / len(lengths),
        min_chars=min(lengths),
        max_chars=max(lengths),
        total_chars=total,
    )
