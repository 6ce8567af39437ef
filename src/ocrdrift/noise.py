"""Character/word error rates of aligned texts, plus synthetic OCR noise.

CER is positional: the padded OCR and ground-truth strings are compared
character by character. WER is the standard edit-distance formulation,
(S + D + I) / ground-truth words, over whitespace tokens. The distance is
exact and bit-parallel (Myers 1999, in Hyyro's 2003 global form): one
Python-int bit per ground-truth word and about fifteen integer operations
per OCR word.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .corpus import PAD, Corpus

HISTOGRAM_BINS = 50


def _codepoints(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _text(codepoints: np.ndarray) -> str:
    return codepoints.tobytes().decode("utf-32-le", "surrogatepass")


def character_error_rate(ocr_aligned: str, gt_aligned: str) -> float:
    """Fraction of differing positions per non-padding ground-truth position.

    Both strings must have equal length (they are the padded, aligned
    representations). Positions where both sides hold the padding symbol
    contribute to neither count; a position where only the ground truth is
    padding (an OCR insertion) counts as an error but not as a ground-truth
    character, so insertion-heavy noise can push the rate above 1.
    """
    if len(ocr_aligned) != len(gt_aligned):
        raise ValueError(
            f"misaligned document: OCR has {len(ocr_aligned)} characters, "
            f"ground truth {len(gt_aligned)}"
        )
    if not gt_aligned:
        raise ValueError("cannot compute a character error rate on empty texts")
    ocr = _codepoints(ocr_aligned)
    gt = _codepoints(gt_aligned)
    gt_chars = int(np.count_nonzero(gt != ord(PAD)))
    if gt_chars == 0:
        raise ValueError("ground truth contains only padding")
    return int(np.count_nonzero(ocr != gt)) / gt_chars


def _word_edit_distance(ocr_words: list[str], gt_words: list[str]) -> int:
    """Unit-cost edit distance by Myers' bit-vector algorithm (JACM 1999) in
    Hyyro's global form (Nordic J. Computing 2003): bit i of `pv`/`mv` says
    whether the DP column steps up/down at ground-truth word i."""
    if not gt_words:
        return len(ocr_words)
    peq: dict[str, int] = {}
    for i, word in enumerate(gt_words):
        peq[word] = peq.get(word, 0) | 1 << i
    mask, last = (1 << len(gt_words)) - 1, 1 << (len(gt_words) - 1)
    pv, mv, distance = mask, 0, len(gt_words)
    for word in ocr_words:
        eq = peq.get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        distance += bool(ph & last) - bool(mh & last)
        ph = ph << 1 | 1  # row 0 steps up: D[0][j] = j
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def word_error_rate(ocr_text: str, gt_text: str) -> float:
    """Word-level edit operations per ground-truth word.

    Texts are split on whitespace; no other preprocessing is applied. The
    numerator is the minimum number of substitutions, deletions, and
    insertions turning the ground-truth word sequence into the OCR one.
    """
    ocr_words = ocr_text.split()
    gt_words = gt_text.split()
    if not gt_words:
        if ocr_words:
            raise ValueError("word error rate undefined: empty ground truth, non-empty OCR")
        return 0.0
    return _word_edit_distance(ocr_words, gt_words) / len(gt_words)


def histogram(values: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of HISTOGRAM_BINS equal-width bins spanning
    [0, max(values)], or [0, 1] when no value is above 0."""
    hi = max(values) if values and max(values) > 0 else 1.0
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(0.0, hi))
    return counts, edges


@dataclass(frozen=True)
class ErrorRateReport:
    """Per-document and language-level OCR error rates.

    Means weight every included document equally. `excluded_docs` counts
    documents skipped because their padded versions differ in length.
    """

    per_document: tuple[tuple[str, float, float], ...]
    language_mean_cer: float
    language_mean_wer: float
    excluded_docs: int
    skipped: tuple[tuple[str, str], ...] = ()


def corpus_error_rates(corpus: Corpus) -> ErrorRateReport:
    """CER/WER for every aligned document, with equal-weight language means.

    Misaligned documents are excluded. Documents whose rates are undefined
    (for example an empty ground truth) are skipped and listed separately.
    """
    rows: list[tuple[str, float, float]] = []
    skipped: list[tuple[str, str]] = []
    excluded = 0
    for doc in corpus.documents:
        if not doc.is_aligned:
            excluded += 1
            continue
        try:
            cer = character_error_rate(doc.ocr_aligned, doc.gt_aligned)
            wer = word_error_rate(
                doc.ocr_aligned.replace(PAD, ""), doc.gt_aligned.replace(PAD, "")
            )
        except ValueError as exc:
            skipped.append((doc.id, str(exc)))
            continue
        rows.append((doc.id, cer, wer))
    if not rows:
        raise ValueError("no aligned documents with measurable error rates")
    cers = [r[1] for r in rows]
    wers = [r[2] for r in rows]
    return ErrorRateReport(
        per_document=tuple(rows),
        language_mean_cer=sum(cers) / len(cers),
        language_mean_wer=sum(wers) / len(wers),
        excluded_docs=excluded,
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of synthetic character-level OCR noise.

    The three weights choose, per corrupted position, between substituting
    the character, deleting it (padding appears on the OCR side), and
    inserting a spurious character (padding appears on the ground-truth
    side). They must sum to one.
    """

    target_cer: float
    substitution_weight: float = 0.8
    deletion_weight: float = 0.1
    insertion_weight: float = 0.1
    seed: int = 0
    alphabet: str = string.ascii_lowercase

    def __post_init__(self):
        if not 0.0 <= self.target_cer < 1.0:
            raise ValueError("target_cer must be in [0, 1)")
        if self.target_cer > 0.9:
            raise ValueError("target_cer above 0.9: padding would dominate the output")
        weights = (self.substitution_weight, self.deletion_weight, self.insertion_weight)
        for name, weight in zip(("substitution_weight", "deletion_weight", "insertion_weight"), weights):
            # NaN passes both checks below
            if not math.isfinite(weight):
                raise ValueError(f"{name} must be a finite number, got {weight}")
        if any(w < 0 for w in weights):
            raise ValueError("noise weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("noise weights must sum to 1")
        if len(set(self.alphabet)) != len(self.alphabet) or len(self.alphabet) < 2:
            raise ValueError("alphabet must hold at least two distinct characters")
        if PAD in self.alphabet:
            raise ValueError(f"alphabet must not hold the padding symbol {PAD!r}")


def inject_noise(gt_text: str, spec: NoiseSpec) -> tuple[str, str]:
    """Corrupt a clean text into an aligned (ocr, ground-truth) pair.

    Exactly round(target_cer * len(gt_text)) positions are corrupted, drawn
    uniformly without replacement, so the measured rate of the output pair
    sits within half a character of the target. Output is deterministic
    given the spec's seed.
    """
    if not gt_text:
        raise ValueError("cannot inject noise into empty text")
    if PAD in gt_text:
        raise ValueError(f"input text already contains the padding symbol {PAD!r}")
    n = len(gt_text)
    errors = int(round(spec.target_cer * n))
    if errors == 0:
        return gt_text, gt_text

    rng = np.random.default_rng(spec.seed)
    positions = np.sort(rng.choice(n, size=errors, replace=False))
    kinds = rng.choice(
        3,
        size=errors,
        p=[spec.substitution_weight, spec.deletion_weight, spec.insertion_weight],
    )
    draws = rng.integers(0, len(spec.alphabet), size=errors)

    alphabet = _codepoints(spec.alphabet)
    gt = _codepoints(gt_text)
    ocr = gt.copy()
    substituted = kinds == 0
    at, drawn = positions[substituted], draws[substituted]
    replacement = alphabet[drawn]
    # a draw equal to the original character moves on to the next letter
    clash = replacement == gt[at]
    replacement[clash] = alphabet[(drawn[clash] + 1) % len(alphabet)]
    ocr[at] = replacement
    ocr[positions[kinds == 1]] = ord(PAD)
    inserted = kinds == 2
    # each insertion follows its position in the original text
    after = positions[inserted] + 1
    return _text(np.insert(ocr, after, alphabet[draws[inserted]])), _text(np.insert(gt, after, ord(PAD)))
