"""Release-gating checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per
criterion is printed in the terminal summary. The dataset-reproduction
check only runs when OCRDRIFT_ICDAR_ROOT points at a local copy of the
aligned OCR competition corpora (see README for the expected layout).
"""

import itertools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ocrdrift import util
from ocrdrift.cli import main
from ocrdrift.cooccur import Weighting, count_cooccurrences
from ocrdrift.corpus import Version, compute_stats, load_corpus, save_paired_files
from ocrdrift.embeddings import EmbeddingMatrix, Model, TrainConfig
from ocrdrift.noise import NoiseSpec, character_error_rate, corpus_error_rates, inject_noise, word_error_rate
from ocrdrift.overlap import evaluate_pair, k_for_fraction, overlap_curve
from ocrdrift.ppmi import train_ppmi
from ocrdrift.preprocess import build_vocabulary, encode_documents, intersect_words, preprocess_corpus
from ocrdrift.synthetic import noisy_corpus, synthetic_documents, synthetic_text
from ocrdrift.word2vec import train_sgns
from tests.test_word2vec import step_gradient_error

pytestmark = pytest.mark.acceptance

ICDAR_ROOT = os.environ.get("OCRDRIFT_ICDAR_ROOT")


def cosine_top_k(vectors, query, k):
    """The k rows closest to row `query` by cosine, the query excluded."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    sims = unit @ unit[query]
    sims[query] = -np.inf
    return np.argsort(-sims, kind="stable")[:k]


def test_metric_oracles_exact():
    """Worked neighborhood example plus hand-computed CER/WER values."""
    assert k_for_fraction(0.01, 1000) == 10
    # 21 words on an arc; word 0's ten nearest are words 1-10 in one
    # space and words 1-5 and 11-15 in the other, so they share half
    slots_a = np.arange(21)
    slots_b = np.r_[np.arange(6), np.arange(11, 16), np.arange(6, 11), np.arange(16, 21)]
    a, b = (np.column_stack([np.cos(0.05 * s), np.sin(0.05 * s)]) for s in (slots_a, slots_b))
    top_a, top_b = cosine_top_k(a, 0, 10), cosine_top_k(b, 0, 10)
    assert sorted(top_a) == list(range(1, 11))
    assert len(np.intersect1d(top_a, top_b)) / 10 == 0.5
    words = tuple(f"w{i:02d}" for i in range(21))
    shared = evaluate_pair(EmbeddingMatrix(words, a, Model.EXTERNAL), EmbeddingMatrix(words, b, Model.EXTERNAL),
                           words, n_grid=[10 / 21])
    assert k_for_fraction(10 / 21, 21) == 10
    assert shared[0, 0] / 10 == 0.5

    assert character_error_rate("abc", "abc") == 0.0
    assert character_error_rate("ab", "ac") == 0.5
    assert character_error_rate("c@t", "cat") == 1 / 3

    assert word_error_rate("the cat", "the cat") == 0.0
    assert word_error_rate("the bat", "the cat") == 0.5
    assert word_error_rate("a b c d", "a c d") == 1 / 3


def test_ppmi_matches_dense_bruteforce():
    """Sparse path equals a dense evaluation of the association formula on
    ten random corpora of at most 500 tokens, to 1e-10."""
    rng = np.random.default_rng(2024)
    for trial in range(10):
        n_words = int(rng.integers(5, 25))
        words = [f"w{i}" for i in range(n_words)]
        docs = []
        remaining = int(rng.integers(50, 501))
        while remaining > 1:
            size = int(rng.integers(2, min(remaining, 80) + 1))
            docs.append([words[i] for i in rng.integers(0, n_words, size=size)])
            remaining -= size
        vocab = build_vocabulary(docs, min_count=1)
        tc = encode_documents(docs, vocab)
        matrix = count_cooccurrences(tc, int(rng.integers(1, 6)), Weighting.FLAT)

        counts = matrix.counts.toarray()
        total = counts.sum()
        row = counts.sum(axis=1)
        col = counts.sum(axis=0)
        dense = np.zeros_like(counts)
        nz = counts > 0
        dense[nz] = np.maximum(np.log2(counts[nz] * total / np.outer(row, col)[nz]), 0.0)

        sparse = train_ppmi(matrix).vectors.toarray()
        assert np.abs(sparse - dense).max() < 1e-10, f"trial {trial}"


def test_gradients_match_finite_differences():
    """One word2vec batch step at rate r moves float64 W and C by -r
    times the central-difference gradient (h = 1e-5) of the batch loss,
    to a relative error below 1e-4, on 100 random small batches for each
    model's table shape (skip-gram's one-slot rows, CBOW's context rows)
    with repeated centers, a positive target that is also one of its
    negatives, a repeated negative and -1 CBOW slots."""
    for model in (Model.SGNS, Model.CBOW):
        for trial in range(100):
            error = step_gradient_error(model, (77, trial))
            assert error < 1e-4, f"{model.value} batch {trial}: relative error {error:.2e}"


def test_self_overlap_identity():
    """Any trained model against itself: overlap 1.0 at every fraction of
    the grid with zero-width confidence intervals."""
    docs = synthetic_documents(60_000, seed=5, n_types=250, n_topics=10, doc_chars=800)
    corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.0, seed=1))
    tc = preprocess_corpus(corpus, Version.GROUND_TRUTH, min_count=5)

    sgns = train_sgns(tc, TrainConfig(model=Model.SGNS, dim=32, epochs=2, seed=2,
                                      learning_rate=1e-3, batch_size=4096))
    ppmi = train_ppmi(count_cooccurrences(tc, 5, Weighting.FLAT))
    for emb in (sgns, ppmi):
        curve = overlap_curve([evaluate_pair(emb, emb, emb.words)], resamples=200, seed=3)
        assert len(curve.n_values) == 100
        assert np.all(curve.means == 1.0)
        assert np.all(curve.ci_high - curve.ci_low == 0.0)


def test_closed_loop_noise_injection():
    """Injected noise measures back within +/-0.01 of its target rate on a
    text of at least 100k characters."""
    text = synthetic_text(120_000, seed=31)
    assert len(text) >= 100_000
    for target in (0.05, 0.10, 0.20, 0.30):
        ocr, gt = inject_noise(text, NoiseSpec(target_cer=target, seed=17))
        measured = character_error_rate(ocr, gt)
        assert abs(measured - target) <= 0.01, f"target {target}, measured {measured:.4f}"


def test_figure_shaped_outputs_from_completed_run(tmp_path):
    """The evaluate command regenerates curve + inset + CI-band figures
    from any completed training run."""
    docs = synthetic_documents(30_000, seed=8, n_types=100, n_topics=5,
                               doc_chars=600, min_len=2, max_len=5)
    save_paired_files(noisy_corpus(docs, NoiseSpec(target_cer=0.05, seed=2)), tmp_path / "data")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "out_dir": str(tmp_path / "out"),
        "seed": 1,
        "runs": 1,
        "n_grid": {"start": 0.01, "stop": 1.0, "step": 0.01},
        "bootstrap_resamples": 100,
        "languages": [{"language": "other", "path": str(tmp_path / "data"), "format": "paired"}],
        "models": [{"model": "sgns", "rate_profile": "fast", "dim": 12, "window": 3,
                    "epochs": 1, "min_count": 3, "batch_size": 1024}],
    }), encoding="utf-8")
    assert main(["train", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 0

    csv_text = (tmp_path / "out" / "other" / "curves" / "sgns-fast.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "N,k,mean,ci_low,ci_high"
    assert len(csv_text.splitlines()) == 101
    svg = (tmp_path / "out" / "other" / "overlap.svg").read_text(encoding="utf-8")
    assert "<polyline" in svg
    assert 'class="ci-band"' in svg
    assert 'id="inset"' in svg


def test_end_to_end_determinism(tmp_path):
    """Two runs with the same config produce byte-identical CSV outputs."""
    docs = synthetic_documents(25_000, seed=9, n_types=90, n_topics=5,
                               doc_chars=600, min_len=2, max_len=5)
    save_paired_files(noisy_corpus(docs, NoiseSpec(target_cer=0.1, seed=4)), tmp_path / "data")
    outputs = []
    for name in ("first", "second"):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps({
            "out_dir": str(tmp_path / name),
            "seed": 6,
            "runs": 2,
            "n_grid": [0.05, 0.5, 1.0],
            "bootstrap_resamples": 200,
            "languages": [{"language": "other", "path": str(tmp_path / "data"), "format": "paired"}],
            "models": [
                {"model": "ppmi", "window": 3, "min_count": 3},
                {"model": "sgns", "rate_profile": "slow", "dim": 16, "window": 3,
                 "epochs": 2, "min_count": 3, "batch_size": 512},
            ],
        }), encoding="utf-8")
        assert main(["train", "--config", str(config_path)]) == 0
        assert main(["evaluate", "--config", str(config_path)]) == 0
        outputs.append(tmp_path / name)
    for rel in ("other/curves/ppmi.csv", "other/curves/sgns-slow.csv"):
        assert (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()


def _sgns_on_noisy_copy(docs, target_cer):
    """The monotonic test's skip-gram model (slow rate), trained on `docs`
    corrupted at `target_cer`. At module level, so it pickles by name."""
    corpus = noisy_corpus(docs, NoiseSpec(target_cer=target_cer, seed=99))
    tc = preprocess_corpus(corpus, Version.OCR, min_count=5)
    config = TrainConfig(model=Model.SGNS, dim=48, epochs=24, seed=3,
                         learning_rate=1e-4, batch_size=16384)
    return train_sgns(tc, config)


def test_noise_degrades_embeddings_monotonically():
    """The central qualitative finding at desk scale: models trained on
    noisier text drift further from the clean-text model.

    A ~1M-character synthetic corpus is corrupted at increasing rates;
    an identically-seeded skip-gram model (slow rate) is trained on each
    version and compared with the clean model at N = 0.05 over the common
    vocabulary intersection. Zero injected noise must reproduce the clean
    model exactly; every further step up in noise must lower the overlap
    by more than the confidence-band width. Takes a few minutes.
    """
    docs = synthetic_documents(1_050_000, seed=11, n_types=600, n_topics=30,
                               doc_chars=900, topic_affinity=0.75, min_len=2, max_len=4)
    assert sum(len(d) for d in docs) >= 1_000_000

    levels = (0.0, 0.05, 0.10, 0.20, 0.30)
    # the six models are independent: train them side by side, one worker
    # per usable CPU; each is a pure function of its corpus and seed
    with ProcessPoolExecutor(util.usable_cpus(), mp_context=multiprocessing.get_context("fork")) as pool:
        clean, *noisy = pool.map(_sgns_on_noisy_copy, itertools.repeat(docs), (0.0,) + levels)

    common = intersect_words([clean.words] + [emb.words for emb in noisy])
    means, widths = [], []
    for lev, emb in zip(levels, noisy):
        curve = overlap_curve([evaluate_pair(emb, clean, common, n_grid=[0.05])], [0.05],
                              resamples=1000, seed=7)
        means.append(float(curve.means[0]))
        widths.append(float(curve.ci_high[0] - curve.ci_low[0]))
        print(f"cer={lev:.2f}: overlap={means[-1]:.4f} ci_width={widths[-1]:.4f}")

    assert means[0] == 1.0, "zero injected noise must reproduce the clean model"
    for i in range(len(levels) - 1):
        drop = means[i] - means[i + 1]
        limit = max(widths[i], widths[i + 1])
        assert drop > limit, (
            f"overlap did not fall past the CI width between CER {levels[i]} "
            f"and {levels[i + 1]}: drop {drop:.4f}, width {limit:.4f}"
        )


@pytest.mark.skipif(
    ICDAR_ROOT is None,
    reason="set OCRDRIFT_ICDAR_ROOT to a directory with per-language aligned corpora",
)
@pytest.mark.parametrize(
    "language,total,aligned,mean_cer,mean_wer",
    [
        ("dutch", 150, 149, 0.286, 0.536),
        ("english", 963, 951, 0.075, 0.146),
        ("french", 3993, 3616, 0.064, 0.193),
        ("german", 10032, 1738, 0.240, 0.813),
    ],
)
def test_dataset_reproduction(language, total, aligned, mean_cer, mean_wer):
    """Document counts exactly, mean error rates within +/-0.005, on the
    combined 2017+2019 aligned corpora (only when locally available)."""
    root = Path(ICDAR_ROOT) / language
    if not root.is_dir():
        pytest.skip(f"no corpus directory for {language} under {ICDAR_ROOT}")
    corpus = load_corpus(root, "icdar")
    stats = compute_stats(corpus, Version.GROUND_TRUTH)
    assert stats.total_docs == total
    assert stats.aligned_docs == aligned
    report = corpus_error_rates(corpus)
    assert abs(report.language_mean_cer - mean_cer) <= 0.005
    assert abs(report.language_mean_wer - mean_wer) <= 0.005
