"""Training the four embedding model families on one corpus.

PPMI re-weights the co-occurrence matrix into sparse rows; skip-gram and
CBOW run seeded SGD with negative sampling; the least-squares model fits
log counts with an adaptive-rate optimizer. All four expose the same
EmbeddingMatrix interface, so nearest neighbors are queried identically.
"""

import numpy as np

from ocrdrift.cooccur import Weighting, count_cooccurrences
from ocrdrift.corpus import Version
from ocrdrift.embeddings import Model, RateProfile, TrainConfig
from ocrdrift.glove import train_glove
from ocrdrift.noise import NoiseSpec
from ocrdrift.overlap import neighbor_sets
from ocrdrift.ppmi import train_ppmi
from ocrdrift.preprocess import preprocess_corpus
from ocrdrift.synthetic import noisy_corpus, synthetic_documents
from ocrdrift.word2vec import train_cbow, train_sgns

docs = synthetic_documents(150_000, seed=8, n_types=300, n_topics=15, doc_chars=900)
corpus = noisy_corpus(docs, NoiseSpec(target_cer=0.0, seed=1))
tokens = preprocess_corpus(corpus, Version.GROUND_TRUTH, min_count=5)
print(f"vocabulary: {len(tokens.vocabulary)} words")

embeddings = {}

flat = count_cooccurrences(tokens, window_size=5, weighting=Weighting.FLAT)
embeddings["ppmi"] = train_ppmi(flat)

sgns_config = TrainConfig(model=Model.SGNS, dim=48, epochs=4, seed=0,
                          rate_profile=RateProfile.FAST)
embeddings["sgns"] = train_sgns(tokens, sgns_config)

cbow_config = TrainConfig(model=Model.CBOW, dim=48, epochs=4, seed=0,
                          rate_profile=RateProfile.FAST)
embeddings["cbow"] = train_cbow(tokens, cbow_config)

harmonic = count_cooccurrences(tokens, window_size=5, weighting=Weighting.HARMONIC)
glove_config = TrainConfig(model=Model.GLOVE, dim=48, epochs=20, seed=0)
embeddings["glove"] = train_glove(harmonic, glove_config)

# the topic generator groups words into blocks; a well-trained model
# should rank a word's topic-mates as its closest neighbors
probe = embeddings["sgns"].words[0]
shared = sorted(set(embeddings["ppmi"].words))
print(f"\nnearest neighbors of {probe!r}:")
for name, emb in embeddings.items():
    sets = neighbor_sets(emb, shared)
    query = shared.index(probe)
    top = [shared[j] for j in sets[query].neighbors[:5]]
    kind = "sparse" if not emb.is_dense else f"dense d={emb.dim}"
    print(f"  {name:>5} ({kind}): {top}")

# same seed, same corpus: training is reproducible bit for bit
again = train_sgns(tokens, sgns_config)
print("\nbit-identical retrain:", np.array_equal(again.vectors, embeddings["sgns"].vectors))
