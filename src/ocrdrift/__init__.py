"""Measure how OCR noise shifts distributional word embeddings.

The pipeline: load an aligned OCR/ground-truth corpus, quantify its noise
(character and word error rates), train identically-configured embedding
models on each version, and compare the two learned spaces by how much
their cosine nearest-neighbor sets overlap across neighborhood sizes.
"""

import os

# read once, when numpy loads OpenBLAS: the program's threads are its
# parallelism, so no result depends on the caller's environment or CPUs
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cooccur import CooccurrenceMatrix, Weighting, count_cooccurrences
from .corpus import (
    PAD,
    AlignedDocument,
    Corpus,
    CorpusError,
    CorpusFormat,
    CorpusStats,
    IngestionReport,
    Language,
    Version,
    compute_stats,
    load_corpus,
    save_paired_files,
    split_documents,
)
from .embeddings import (
    EmbeddingMatrix,
    Model,
    RateProfile,
    TrainConfig,
    export_embeddings,
    import_embeddings,
    load_sparse_embeddings,
    save_sparse_embeddings,
)
from .glove import glove_objective, train_glove
from .noise import (
    ErrorRateReport,
    NoiseSpec,
    character_error_rate,
    corpus_error_rates,
    inject_noise,
    word_error_rate,
)
from .overlap import (
    NeighborSet,
    OverlapCurve,
    average_runs,
    default_n_grid,
    evaluate_pair,
    k_for_fraction,
    neighbor_sets,
    overlap_at_k,
    write_curve_csv,
    write_curve_json,
)
from .ppmi import train_ppmi
from .preprocess import (
    TokenizedCorpus,
    Vocabulary,
    build_vocabulary,
    encode_documents,
    intersect_words,
    normalize,
    preprocess_corpus,
    tokenize,
)
from .synthetic import noisy_corpus, synthetic_documents, synthetic_text
from .word2vec import train_cbow, train_sgns

__version__ = "0.1.0"
