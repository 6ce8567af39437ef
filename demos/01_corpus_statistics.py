"""Loading aligned corpora and computing dataset statistics.

Builds a small synthetic OCR/ground-truth corpus on disk in the paired
file layout, loads it back, and walks through the corpus-level numbers:
document counts, alignment and character statistics.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from ocrdrift.corpus import Version, compute_stats, load_corpus, save_paired_files
from ocrdrift.noise import NoiseSpec
from ocrdrift.synthetic import noisy_corpus, synthetic_documents

workdir = Path(tempfile.mkdtemp(prefix="ocrdrift-demo-"))
atexit.register(shutil.rmtree, workdir, ignore_errors=True)

# a corpus of ~60k characters with 8% character noise on the OCR side
docs = synthetic_documents(60_000, seed=42, n_types=300, doc_chars=1200)
corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.08, seed=7))
save_paired_files(corpus, workdir / "demo_corpus")
print(f"wrote {len(corpus)} document pairs in the paired file layout")

# loading reports anything it had to skip, and keeps documents sorted
corpus = load_corpus(workdir / "demo_corpus", "paired")
print(f"loaded {len(corpus)} documents, {len(corpus.report.skipped)} skipped")

for version in (Version.GROUND_TRUTH, Version.OCR):
    stats = compute_stats(corpus, version)
    print(
        f"{version.value:>4}: {stats.total_chars} chars total, "
        f"avg {stats.avg_chars:.0f}, min {stats.min_chars}, max {stats.max_chars}, "
        f"{stats.aligned_docs}/{stats.total_docs} aligned"
    )
