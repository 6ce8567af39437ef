"""Comparing embedding spaces trained on clean versus noisy text.

The core measurement: train the same model configuration on the OCR and
ground-truth versions of a corpus, then ask how much the two spaces agree
on each word's top-N neighborhood. Rising noise pushes the curve down.
Renders the curves (with bootstrap confidence bands and the small-N
inset) to an SVG.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ocrdrift.corpus import Version
from ocrdrift.embeddings import Model, TrainConfig
from ocrdrift.noise import NoiseSpec
from ocrdrift.overlap import evaluate_pair, overlap_curve, write_curve_csv
from ocrdrift.preprocess import intersect_words, preprocess_corpus
from ocrdrift.svg import CurveSeries, render_overlap_svg
from ocrdrift.synthetic import noisy_corpus, synthetic_documents
from ocrdrift.word2vec import train_sgns

workdir = Path(tempfile.mkdtemp(prefix="ocrdrift-demo-"))
atexit.register(shutil.rmtree, workdir, ignore_errors=True)
docs = synthetic_documents(200_000, seed=17, n_types=400, n_topics=20,
                           doc_chars=900, min_len=2, max_len=5)


def train(corpus, version, seed):
    tokens = preprocess_corpus(corpus, version, min_count=5)
    config = TrainConfig(model=Model.SGNS, dim=48, epochs=6, seed=seed,
                         learning_rate=1e-3)
    return train_sgns(tokens, config)


grid = [i / 100 for i in range(1, 101)]
series = []
for level in (0.05, 0.15, 0.30):
    corpus = noisy_corpus(docs, NoiseSpec(target_cer=level, seed=23))
    tables = []
    for run in range(2):  # average two seeded runs per level
        emb_ocr = train(corpus, Version.OCR, seed=run)
        emb_gt = train(corpus, Version.GROUND_TRUTH, seed=run)
        shared = intersect_words([emb_ocr.words, emb_gt.words])
        tables.append(evaluate_pair(emb_ocr, emb_gt, shared, grid))
    curve = overlap_curve(tables, grid, resamples=300, seed=5)
    write_curve_csv(curve, workdir / f"overlap_cer{int(level * 100):03d}.csv")
    series.append(CurveSeries(
        label=f"CER {level:.2f}",
        n=np.array(curve.n_values),
        mean=curve.means,
        ci_low=curve.ci_low,
        ci_high=curve.ci_high,
    ))
    k5 = curve.k_values[4]
    print(f"CER {level:.2f}: overlap@N=0.05 (k={k5}) = {curve.means[4]:.3f} "
          f"[{curve.ci_low[4]:.3f}, {curve.ci_high[4]:.3f}]")

figure = workdir / "overlap.svg"
render_overlap_svg(series, figure, title="OCR noise vs neighbor overlap")
print(f"\nrendered {len(series)} curves with bands to a {figure.stat().st_size:,}-byte SVG")
