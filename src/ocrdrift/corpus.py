"""Aligned OCR/ground-truth corpora: loading, splitting, and statistics.

A corpus holds documents that exist in two versions of the same text: the
OCR output and a human-verified ground truth. The two versions come padded
with '@' so that characters at the same position correspond; documents
whose padded versions differ in length are kept but flagged as misaligned.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .util import write_atomically

PAD = "@"

_LANGUAGE_CODES = {
    "nl": "dutch",
    "dutch": "dutch",
    "en": "english",
    "eng": "english",
    "english": "english",
    "fr": "french",
    "french": "french",
    "de": "german",
    "german": "german",
}


class CorpusError(Exception):
    """Raised when a corpus cannot be loaded or is unusable."""


@dataclass(frozen=True)
class Language:
    """A corpus language; the four studied ones plus arbitrary others."""

    name: str

    @classmethod
    def parse(cls, value: "str | Language") -> "Language":
        if isinstance(value, Language):
            return value
        key = value.strip().lower()
        return cls(_LANGUAGE_CODES.get(key, key))

    def __str__(self) -> str:
        return self.name


class Version(Enum):
    """Which side of the aligned pair an operation reads."""

    OCR = "ocr"
    GROUND_TRUTH = "gt"


class CorpusFormat(Enum):
    ICDAR = "icdar"
    PAIRED_FILES = "paired"


@dataclass(frozen=True)
class AlignedDocument:
    """One document's OCR text, padded OCR/GT pair, and alignment status."""

    id: str
    ocr_raw: str
    ocr_aligned: str
    gt_aligned: str
    is_aligned: bool

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

    def to_json(self, path: str | Path) -> None:
        payload = {
            "root": self.root,
            "format": self.format,
            "loaded": self.loaded,
            "skipped": [{"file": f, "reason": r} for f, r in self.skipped],
        }
        write_atomically(path, json.dumps(payload, indent=2) + "\n")


@dataclass(frozen=True)
class Corpus:
    documents: tuple[AlignedDocument, ...]
    language: Language
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


def _parse_icdar_file(content: str) -> tuple[str, str, str]:
    """Extract the (ocr_raw, ocr_aligned, gt_aligned) triple from one file."""
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

    ocr_raw = strip_tag(content[:aligned_at], "[OCR_toInput]")
    ocr_aligned = strip_tag(content[aligned_at + 1:gt_at], "[OCR_aligned]")
    gt_aligned = strip_tag(content[gt_at + 1:], gt_tag)
    return ocr_raw, ocr_aligned, gt_aligned


def _infer_language(root: Path) -> Language:
    for part in reversed(root.parts):
        token = re.split(r"[_\-.]", part.lower())[0]
        if token in _LANGUAGE_CODES:
            return Language(_LANGUAGE_CODES[token])
    return Language("unknown")


def load_corpus(
    root_path: str | Path,
    format: CorpusFormat | str = CorpusFormat.ICDAR,
    language: str | Language | None = None,
) -> Corpus:
    """Load every parseable document under `root_path`.

    Unparseable files are skipped and listed in the corpus's ingestion
    report; an unreadable or empty directory is fatal. Documents are sorted
    by id, so load order never depends on filesystem enumeration.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    fmt = CorpusFormat(format) if isinstance(format, str) else format
    lang = Language.parse(language) if language is not None else _infer_language(root)

    documents: list[AlignedDocument] = []
    skipped: list[tuple[str, str]] = []

    if fmt is CorpusFormat.ICDAR:
        paths = sorted(p for p in root.rglob("*.txt") if p.is_file())
        for path in paths:
            rel = path.relative_to(root).as_posix()
            try:
                content = path.read_text(encoding="utf-8")
                ocr_raw, ocr_aligned, gt_aligned = _parse_icdar_file(content)
            except (ValueError, UnicodeDecodeError) as exc:
                skipped.append((rel, str(exc)))
                continue
            documents.append(
                AlignedDocument(
                    id=rel[:-len(".txt")],
                    ocr_raw=ocr_raw,
                    ocr_aligned=ocr_aligned,
                    gt_aligned=gt_aligned,
                    is_aligned=len(ocr_aligned) == len(gt_aligned),
                )
            )
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
            documents.append(
                AlignedDocument(
                    id=doc_id,
                    ocr_raw=ocr_text,
                    ocr_aligned=ocr_text,
                    gt_aligned=gt_text,
                    is_aligned=len(ocr_text) == len(gt_text),
                )
            )
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
    return Corpus(documents=tuple(documents), language=lang, report=report)


def save_paired_files(corpus: Corpus, out_dir: str | Path) -> None:
    """Write `<id>.ocr.txt` / `<id>.gt.txt` pairs holding the aligned texts.

    Only the aligned pair is stored; reloading a corpus whose raw OCR text
    differs from its aligned OCR text will set ocr_raw = ocr_aligned.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        ocr_path = out / f"{doc.id}.ocr.txt"
        ocr_path.parent.mkdir(parents=True, exist_ok=True)
        ocr_path.write_text(doc.ocr_aligned, encoding="utf-8")
        (out / f"{doc.id}.gt.txt").write_text(doc.gt_aligned, encoding="utf-8")


def _chunks(text: str, max_chars: int) -> list[str]:
    if not text:
        return [""]
    return [text[i:i + max_chars] for i in range(0, len(text), max_chars)]


def split_documents(corpus: Corpus, max_chars: int) -> Corpus:
    """Split every document into pieces of at most `max_chars` characters.

    Pieces are fixed-width slices, so concatenating the pieces of any field
    reproduces that field exactly. Aligned documents stay aligned because
    the two equal-length padded strings share slice boundaries.
    """
    if max_chars < 1:
        raise ValueError("max_chars must be >= 1")
    pieces: list[AlignedDocument] = []
    for doc in corpus.documents:
        raw_parts = _chunks(doc.ocr_raw, max_chars)
        ocr_parts = _chunks(doc.ocr_aligned, max_chars)
        gt_parts = _chunks(doc.gt_aligned, max_chars)
        n = max(len(raw_parts), len(ocr_parts), len(gt_parts))
        if n == 1:
            pieces.append(doc)
            continue
        width = len(str(n - 1))
        for i in range(n):
            raw = raw_parts[i] if i < len(raw_parts) else ""
            ocr = ocr_parts[i] if i < len(ocr_parts) else ""
            gt = gt_parts[i] if i < len(gt_parts) else ""
            pieces.append(
                AlignedDocument(
                    id=f"{doc.id}#{i:0{width}d}",
                    ocr_raw=raw,
                    ocr_aligned=ocr,
                    gt_aligned=gt,
                    is_aligned=doc.is_aligned and len(ocr) == len(gt),
                )
            )
    return replace(corpus, documents=tuple(pieces))


def compute_stats(
    corpus: Corpus,
    version: Version,
    split_max_chars: int = 500,
) -> CorpusStats:
    """Character statistics of the selected version, padding excluded.

    `split_docs` is the number of pieces fixed-width splitting at
    `split_max_chars` would produce for that version. The average is kept
    as a float; round it at presentation time.
    """
    if not corpus.documents:
        raise CorpusError("cannot compute statistics of an empty corpus")
    lengths = [len(doc.text(version)) for doc in corpus.documents]
    total = sum(lengths)
    return CorpusStats(
        total_docs=len(lengths),
        aligned_docs=sum(1 for d in corpus.documents if d.is_aligned),
        split_docs=sum(max(1, math.ceil(n / split_max_chars)) for n in lengths),
        avg_chars=total / len(lengths),
        min_chars=min(lengths),
        max_chars=max(lengths),
        total_chars=total,
    )
