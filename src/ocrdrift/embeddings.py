"""Word embedding matrices and their text and sparse serializations."""

from __future__ import annotations

import itertools
import os
import zipfile
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class Model(Enum):
    PPMI = "ppmi"
    SGNS = "sgns"
    CBOW = "cbow"
    GLOVE = "glove"
    EXTERNAL = "external"


class RateProfile(Enum):
    """Named learning-rate presets for the gradient-trained models."""

    FAST = "fast"
    SLOW = "slow"


RATE_PROFILES = {RateProfile.FAST: 1e-3, RateProfile.SLOW: 1e-4}


@dataclass(frozen=True)
class TrainConfig:
    model: Model
    dim: int = 100
    window: int = 5
    learning_rate: float | None = None
    epochs: int = 5
    negative_samples: int = 5
    seed: int = 0
    rate_profile: RateProfile | None = None
    batch_size: int = 8192

    def resolved_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        if self.rate_profile is not None:
            return RATE_PROFILES[self.rate_profile]
        raise ValueError("set either learning_rate or rate_profile")

    def validated(self) -> "TrainConfig":
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate is not None and not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        return self


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Per-word vectors: a dense (V, dim) array or a sparse CSR matrix."""

    words: tuple[str, ...]
    vectors: np.ndarray | sp.csr_matrix
    model: Model
    word_to_row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.vectors.shape[0] != len(self.words):
            raise ValueError(
                f"{self.vectors.shape[0]} vectors for {len(self.words)} words"
            )
        lookup = {w: i for i, w in enumerate(self.words)}
        if len(lookup) != len(self.words):
            raise ValueError("duplicate word in embedding")
        object.__setattr__(self, "word_to_row", lookup)

    @property
    def is_dense(self) -> bool:
        return isinstance(self.vectors, np.ndarray)

    @property
    def dim(self) -> int | None:
        """Vector size for dense embeddings; None for sparse rows."""
        return int(self.vectors.shape[1]) if self.is_dense else None

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_row

    def __len__(self) -> int:
        return len(self.words)


def export_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write the dense text format: a `<count> <dim>` header, then one
    `<word> <v1> ... <vdim>` line per word at 9 significant digits."""
    if not emb.is_dense:
        raise TypeError("only dense embeddings can be exported to the text format")
    # tolist() gives Python floats, which format exactly as numpy's float32
    # and float64 scalars do; converting a row at a time keeps one row of
    # Python floats alive, not the whole matrix
    row_format = " ".join(["{:.9g}"] * emb.dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(emb.words)} {emb.dim}\n")
        for word, vec in zip(emb.words, emb.vectors):
            if " " in word or not word:
                raise ValueError(f"word not serializable in text format: {word!r}")
            fh.write(word + " " + row_format.format(*vec.tolist()) + "\n")


def save_sparse_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Persist sparse rows (CSR components plus the word list) as .npz."""
    if emb.is_dense:
        raise TypeError("use export_embeddings for dense matrices")
    m = emb.vectors.tocsr()
    np.savez_compressed(
        path,
        data=m.data,
        indices=m.indices,
        indptr=m.indptr,
        shape=np.asarray(m.shape, dtype=np.int64),
        words=np.asarray(emb.words, dtype=np.str_),
        model=np.asarray(emb.model.value, dtype=np.str_),
    )


def load_sparse_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Sparse rows written by `save_sparse_embeddings`; a damaged,
    incomplete or inconsistent archive is a ValueError naming the file."""
    import scipy.sparse as sp
    try:
        with np.load(path, allow_pickle=False) as payload:
            matrix = sp.csr_matrix(
                (payload["data"], payload["indices"], payload["indptr"]),
                shape=tuple(payload["shape"]),
            )
            # the constructor checks array shapes, not index bounds
            matrix.check_format(full_check=True)
            words = tuple(str(w) for w in payload["words"])
            return EmbeddingMatrix(words=words, vectors=matrix, model=Model(str(payload["model"])))
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, KeyError, ValueError, OSError) as exc:
        raise ValueError(f"{path}: not a valid sparse embedding archive: {exc}") from None


def _fast_rows(lines: list[str], count: int, dim: int) -> tuple[list[str], np.ndarray] | None:
    """Words and vectors of well-formed rows, every value parsed in one
    C-level call; None where any row is not well formed. `np.loadtxt`
    splits fields at the characters `str.split` splits at and parses a
    value to the same float64 as `float()`; it reads each word as 0, and
    raises where a row's field count differs from the first row's."""
    # the line count also spares loadtxt an empty input, which it warns about
    if len(lines) != count:
        return None
    try:
        table = np.loadtxt(lines, dtype=np.float64, comments=None,
                           converters={0: lambda word: 0.0}, ndmin=2)
    except ValueError:
        return None
    # a blank line is skipped, and leaves fewer rows than lines
    if table.shape != (count, dim + 1):
        return None
    words = [line.split(maxsplit=1)[0] for line in lines]
    if len(set(words)) != count:
        return None
    return words, table[:, 1:]


def _rows_one_by_one(lines: list[str], count: int, dim: int, path: str | Path) -> tuple[list[str], np.ndarray]:
    """Words and vectors parsed a line and a `float()` at a time; raises
    on the first malformed line, naming it."""
    words: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((count, dim), dtype=np.float64)
    for lineno, line in enumerate(lines, start=2):
        if lineno - 2 >= count:
            raise ValueError(f"{path}: more rows than the header declares at line {lineno}")
        parts = line.split()
        if len(parts) != dim + 1:
            raise ValueError(
                f"{path}: expected {dim + 1} fields, got {len(parts)} at line {lineno}"
            )
        word = parts[0]
        if word in seen:
            raise ValueError(f"{path}: duplicate word {word!r} at line {lineno}")
        seen.add(word)
        words.append(word)
        try:
            vectors[lineno - 2] = [float(v) for v in parts[1:]]
        except ValueError:
            raise ValueError(f"{path}: non-numeric value at line {lineno}") from None
    if len(words) != count:
        raise ValueError(f"{path}: header declares {count} rows, found {len(words)}")
    return words, vectors


def import_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read the text format back; errors name the offending line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{path}: malformed header at line 1")
            try:
                count, dim = int(header[0]), int(header[1])
            except ValueError:
                raise ValueError(f"{path}: malformed header at line 1") from None
            if count < 1 or dim < 1:
                raise ValueError(f"{path}: malformed header at line 1")
            # a row takes at least 2 * dim + 1 bytes (a word, then a space
            # and a digit per value): a header that declares more rows than
            # the file can hold is refused before the array is allocated
            size = os.fstat(fh.fileno()).st_size
            if count * (2 * dim + 1) > size:
                raise ValueError(
                    f"{path}: header declares {count} rows of {dim} values, "
                    f"more than its {size} bytes can hold, at line 1"
                )
            # one line past the declared rows is enough to refuse the file
            lines = list(itertools.islice(fh, count + 1))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    # a malformed file (or a value only `float()` reads, such as 1_000)
    # takes the line-by-line path, which names the first bad line
    words, vectors = _fast_rows(lines, count, dim) or _rows_one_by_one(lines, count, dim, path)
    bad_rows = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{path}: non-finite value at line {bad_rows[0] + 2}")
    return EmbeddingMatrix(words=tuple(words), vectors=vectors, model=Model.EXTERNAL)
