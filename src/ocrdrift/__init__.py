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

__version__ = "0.1.0"
