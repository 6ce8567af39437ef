"""Character and word error rates, and controlled noise injection.

CER compares the padded, position-aligned strings character by
character; WER counts word-level edit operations per ground-truth word.
The noise injector produces aligned pairs whose measured CER lands on a
requested target, which is the basis of every desk-scale experiment.
"""

from ocrdrift.noise import (
    NoiseSpec,
    character_error_rate,
    corpus_error_rates,
    inject_noise,
    word_error_rate,
)
from ocrdrift.synthetic import noisy_corpus, synthetic_documents, synthetic_text

# positional CER: '@' marks alignment padding
print("CER('c@t', 'cat') =", character_error_rate("c@t", "cat"))
print("CER('ab', 'ac')   =", character_error_rate("ab", "ac"))

# WER is edit-distance based and can exceed 1 under heavy corruption
print("WER('the bat', 'the cat') =", word_error_rate("the bat", "the cat"))
print("WER('a b c d', 'a c d')   =", word_error_rate("a b c d", "a c d"))

# closed loop: inject noise at a target rate, measure it back
text = synthetic_text(50_000, seed=3)
for target in (0.05, 0.15, 0.30):
    ocr, gt = inject_noise(text, NoiseSpec(target_cer=target, seed=11))
    measured = character_error_rate(ocr, gt)
    print(f"target {target:.2f} -> measured {measured:.4f}")

# corpus-level report: per-document rates, equal-weight means, histograms
docs = synthetic_documents(40_000, seed=5, n_types=200, doc_chars=900)
corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.12, seed=2))
report = corpus_error_rates(corpus)
print(
    f"corpus of {len(report.per_document)} docs: "
    f"mean CER {report.language_mean_cer:.3f}, mean WER {report.language_mean_wer:.3f}"
)
counts, edges = report.cer_histogram
peak = counts.argmax()
print(f"CER distribution peaks in [{edges[peak]:.3f}, {edges[peak + 1]:.3f})")
