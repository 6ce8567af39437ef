"""Word embedding matrices and their file formats: one writer, one reader."""

from __future__ import annotations

import itertools
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TextIO

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


class Model(Enum):
    PPMI = "ppmi"
    SGNS = "sgns"
    CBOW = "cbow"
    GLOVE = "glove"
    EXTERNAL = "external"


@dataclass(frozen=True)
class TrainConfig:
    model: Model
    dim: int = 100
    window: int = 5
    learning_rate: float | None = None
    epochs: int = 5
    negative_samples: int = 5
    seed: int = 0
    batch_size: int = 8192

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


def save_embeddings(emb: EmbeddingMatrix, stem: str | Path) -> Path:
    """Write `emb` to `<stem>.txt` if it is dense, `<stem>.npz` if it is
    sparse (the suffix appended, so a dot in the stem stays), and return
    the path. A word either reader would give back changed is refused
    before any file is made: an empty word, one that holds whitespace of
    any kind, or one that ends in NUL."""
    for word in emb.words:
        # the text reader splits rows at every character str.split splits
        # at, and a numpy string array drops trailing NULs
        if word.split() != [word] or word.endswith("\0"):
            raise ValueError(f"word not serializable: {word!r}")
    if not emb.is_dense:
        path, m = Path(f"{stem}.npz"), emb.vectors.tocsr()
        np.savez_compressed(path, data=m.data, indices=m.indices, indptr=m.indptr,
                            shape=np.asarray(m.shape, dtype=np.int64),
                            words=np.asarray(emb.words, dtype=np.str_),
                            model=np.asarray(emb.model.value, dtype=np.str_))
        return path
    if not emb.words or not emb.dim:
        raise ValueError(f"text format needs a word and a dimension, got {len(emb.words)} words of dim {emb.dim}")
    path = Path(f"{stem}.txt")
    # tolist() gives Python floats, which format exactly as numpy's float32
    # and float64 scalars do; converting a row at a time keeps one row of
    # Python floats alive, not the whole matrix
    row_format = " ".join(["{:.9g}"] * emb.dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(emb.words)} {emb.dim}\n")
        for word, vec in zip(emb.words, emb.vectors):
            fh.write(word + " " + row_format.format(*vec.tolist()) + "\n")
    return path


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """The embeddings in `path`: a `.npz` path is read as the archive
    `save_embeddings` writes, any other path as the text format (model
    EXTERNAL). A malformed file is a ValueError naming it, and a text
    file's errors name the line; a missing file is a FileNotFoundError."""
    if Path(path).suffix == ".npz":
        import scipy.sparse as sp
        with _archive(path) as payload:
            matrix = sp.csr_matrix((payload["data"], payload["indices"], payload["indptr"]),
                                   shape=tuple(payload["shape"]))
            # the constructor checks array shapes, not index bounds
            matrix.check_format(full_check=True)
            words = tuple(str(w) for w in payload["words"])
            return EmbeddingMatrix(words=words, vectors=matrix, model=Model(str(payload["model"])))
    with _text_rows(path) as (rows, count, dim):
        # one line past the declared rows is enough to refuse the file
        lines = list(itertools.islice(rows, count + 1))
    # a malformed file (or a value only `float()` reads, such as 1_000)
    # takes the line-by-line path, which names the first bad line
    words, vectors = _fast_rows(lines, count, dim) or _rows_one_by_one(lines, count, dim, path)
    bad_rows = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if bad_rows.size:
        raise ValueError(f"{path}: non-finite value at line {bad_rows[0] + 2}")
    return EmbeddingMatrix(words=tuple(words), vectors=vectors, model=Model.EXTERNAL)


def read_embedding_words(path: str | Path) -> tuple[str, ...]:
    """The word list of an embedding file, without its vectors, told apart
    by suffix as `load_embeddings` does: the `words` member of a `.npz`
    archive (no scipy needed), else the first field of each text row. For
    a valid file these are the words a full load gives. The header,
    archive and encoding checks are the loader's; a fault in the vector
    values is found by the full load."""
    if Path(path).suffix == ".npz":
        with _archive(path) as payload:
            return tuple(str(w) for w in payload["words"])
    words = []
    with _text_rows(path) as (rows, count, dim):
        for lineno, line in enumerate(itertools.islice(rows, count), start=2):
            fields = line.split(maxsplit=1)
            if not fields:
                raise ValueError(f"{path}: expected {dim + 1} fields, got 0 at line {lineno}")
            words.append(fields[0])
    return tuple(words)


@contextmanager
def _archive(path: str | Path) -> Iterator[np.lib.npyio.NpzFile]:
    """The open archive at `path`; a damaged, incomplete or inconsistent
    archive, found on opening it or while reading its members, is a
    ValueError naming the file."""
    try:
        with np.load(path, allow_pickle=False) as payload:
            yield payload
    except FileNotFoundError:
        raise
    # RuntimeError: a member flagged encrypted (its subclass NotImplementedError:
    # a compression method or encryption that zipfile cannot read)
    except (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError, KeyError, TypeError, ValueError,
            OSError) as exc:
        raise ValueError(f"{path}: not a valid sparse embedding archive: {exc}") from None


@contextmanager
def _text_rows(path: str | Path) -> Iterator[tuple[TextIO, int, int]]:
    """The text file at `path`, open past its header, with the header's
    (count, dim). A malformed header, or one that declares more rows than
    the file can hold, is a ValueError naming the file and line 1; bytes
    that are not UTF-8, in the header or the rows, are one naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            try:
                count, dim = map(int, header)
            except ValueError:
                count = dim = 0
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
            yield fh, count, dim
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


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
