import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ocrdrift import embeddings
from ocrdrift.config import load_config
from ocrdrift.embeddings import (
    EmbeddingMatrix,
    Model,
    TrainConfig,
    load_embeddings,
    read_embedding_words,
    save_embeddings,
)
from ocrdrift.preprocess import build_vocabulary, encode_documents
from ocrdrift.word2vec import train_cbow, train_sgns


def dense_embedding(words, vectors, model=Model.SGNS):
    return EmbeddingMatrix(
        words=tuple(words),
        vectors=np.asarray(vectors, dtype=np.float64),
        model=model,
    )


class TestTrainConfig:
    def test_fast_and_slow_presets(self, tmp_path):
        """A config's rate_profile is its learning rate, and the label names it."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"out_dir": "out", "models": [
            {"model": "sgns", "rate_profile": "fast"}, {"model": "cbow", "rate_profile": "slow"}]}),
            encoding="utf-8")
        fast, slow = load_config(path).models
        assert (fast.label, fast.train) == ("sgns-fast", TrainConfig(model=Model.SGNS, learning_rate=1e-3))
        assert (slow.label, slow.train) == ("cbow-slow", TrainConfig(model=Model.CBOW, learning_rate=1e-4))

    def test_missing_rate_is_error(self):
        vocab = build_vocabulary([["a", "b"] * 10], min_count=1)
        corpus = encode_documents([["a", "b"] * 10], vocab)
        for model, train in ((Model.SGNS, train_sgns), (Model.CBOW, train_cbow)):
            with pytest.raises(ValueError, match="needs a learning_rate"):
                train(corpus, TrainConfig(model=model))


class TestTextFormat:
    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = dense_embedding(["alpha", "beta", "gamma"], rng.normal(size=(3, 5)))
        path = save_embeddings(emb, tmp_path / "vectors")
        back = load_embeddings(path)
        assert back.words == emb.words
        assert np.abs(back.vectors - emb.vectors).max() < 1e-6
        assert back.model is Model.EXTERNAL

    def test_header_line(self, tmp_path):
        emb = dense_embedding(["a", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = save_embeddings(emb, tmp_path / "v")
        assert path.read_text(encoding="utf-8").splitlines()[0] == "2 3"

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 2 3 4\nb 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nsame 1 2\nsame 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate word"):
            load_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_embeddings(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 2\nword 1 oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_embeddings(path)

    def test_whitespace_around_fields_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2 \na 1 2 \n  b\t3  4\t\nc 5 6\r\n", encoding="utf-8")
        back = load_embeddings(path)
        assert back.words == ("a", "b", "c")
        np.testing.assert_array_equal(back.vectors, [[1, 2], [3, 4], [5, 6]])

    @pytest.mark.parametrize("text,message", [
        ("1 1\n", "header declares 1 rows, found 0"),
        ("2 2\na 1 2\n\n", "expected 3 fields, got 0 at line 3"),
        ("2 2\na 1 2\nb 3 4 5\n", "expected 3 fields, got 4 at line 3"),
        ("2 2\na 1 2\nb 3\n", "expected 3 fields, got 2 at line 3"),
        ("2 2\na 1 2\nb 3 4\nc 5 6\n", "more rows than the header declares at line 4"),
        ("3 2\na 1 2\nb 3 4\na 5 6\n", "duplicate word 'a' at line 4"),
        ("4 2\na 1 2\nb 3 4\nc 5 6\nd 7 x8\n", "non-numeric value at line 5"),
    ])
    def test_malformed_rows_name_their_line(self, tmp_path, text, message):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_embeddings(path)

    def test_value_only_float_reads_is_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1_0 2\nb 3 4\n", encoding="utf-8")
        np.testing.assert_array_equal(load_embeddings(path).vectors, [[10, 2], [3, 4]])

    @pytest.mark.parametrize("kind", ["float32 at 9 digits", "float64 repr"])
    def test_values_bitwise_equal_to_float(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        shape = (300, 7)
        signs = rng.choice([-1.0, 1.0], size=shape)
        if kind == "float32 at 9 digits":
            values = (signs * 10.0 ** rng.uniform(-44, 38, shape)).astype(np.float32)
            values[0, :3] = [np.finfo(np.float32).max, np.finfo(np.float32).smallest_subnormal, -0.0]
            text = [" ".join(f"{v:.9g}" for v in row) for row in values]
        else:
            values = signs * 10.0 ** rng.uniform(-320, 308, shape)
            values[0, :3] = [np.finfo(np.float64).max, np.finfo(np.float64).smallest_subnormal, -0.0]
            text = [" ".join(repr(float(v)) for v in row) for row in values]
        path = tmp_path / "v.txt"
        path.write_text(f"{shape[0]} {shape[1]}\n"
                        + "".join(f"w{i} {row}\n" for i, row in enumerate(text)), encoding="utf-8")
        expected = np.array([[float(v) for v in row.split()] for row in text])
        back = load_embeddings(path)
        assert back.vectors.dtype == np.float64
        assert back.vectors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"4 2\na 1 2\nb 3 4\nc 5 {value}\nd 7 8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite value at line 4"):
            load_embeddings(path)

    def test_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("99999999999 99999\na 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header declares 99999999999 rows .* at line 1"):
            load_embeddings(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 rows"):
            load_embeddings(path)

    def test_word_with_space_rejected(self, tmp_path):
        """Any whitespace the reader splits a row at, the empty word and a
        trailing NUL (which an archive's string array drops) are refused
        in either format before the file is made."""
        for word in ["not ok", "a\nb", "a\tb", "a\rb", "a\x1cb", "a\xa0b", "a\u2028b", "ok ", "", "a\0"]:
            for vectors in (np.eye(2), sp.csr_matrix(np.eye(2))):
                emb = EmbeddingMatrix(words=("ok", word), vectors=vectors, model=Model.PPMI)
                with pytest.raises(ValueError) as refused:
                    save_embeddings(emb, tmp_path / "v")
                assert str(refused.value) == f"word not serializable: {word!r}"
                assert not list(tmp_path.iterdir())


class TestSparseFormat:
    def test_npz_round_trip(self, tmp_path):
        rows = sp.csr_matrix(np.array([[0.0, 1.5, 0.0], [2.5, 0.0, 0.0], [0.0, 0.0, 0.25]]))
        emb = EmbeddingMatrix(words=("x", "y", "z"), vectors=rows, model=Model.PPMI)
        path = save_embeddings(emb, tmp_path / "rows")
        back = load_embeddings(path)
        assert back.words == emb.words
        assert back.model is Model.PPMI
        np.testing.assert_allclose(back.vectors.toarray(), rows.toarray())

    @staticmethod
    def write_archive(path, **changes):
        """An archive of a 3x3 matrix as save_embeddings writes it,
        with `changes` replacing its arrays (None drops one)."""
        arrays = dict(data=np.ones(3), indices=np.array([0, 1, 2], dtype=np.int32),
                      indptr=np.array([0, 1, 2, 3], dtype=np.int32), shape=np.array([3, 3]),
                      words=np.array(["x", "y", "z"]), model=np.array("ppmi"))
        arrays.update(changes)
        np.savez_compressed(path, **{k: v for k, v in arrays.items() if v is not None})
        return path

    def test_truncated_archive_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz")
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ValueError, match="rows.npz: not a valid sparse embedding archive"):
            load_embeddings(path)

    def test_damaged_archive_named(self, tmp_path):
        """A byte flipped anywhere, the end-of-archive record included,
        leaves a loadable archive or is a ValueError naming the file."""
        path = self.write_archive(tmp_path / "rows.npz")
        intact = path.read_bytes()
        for pos in range(len(intact)):
            damaged = bytearray(intact)
            damaged[pos] ^= 0xFF
            path.write_bytes(damaged)
            try:
                load_embeddings(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: not a valid sparse embedding archive")

    @pytest.mark.parametrize("read", [load_embeddings, read_embedding_words])
    def test_encrypted_archive_named(self, tmp_path, read):
        """zipfile refuses a member whose flags mark it encrypted with a
        RuntimeError; either reader makes that a ValueError naming the file."""
        path = self.write_archive(tmp_path / "rows.npz")
        damaged = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            entry = archive.start_dir
        # bit 0 of the general-purpose flags in each central-directory entry
        while (entry := damaged.find(b"PK\x01\x02", entry)) != -1:
            damaged[entry + 8] |= 1
            entry += 4
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="rows.npz: not a valid sparse embedding archive"):
            read(path)

    def test_missing_file_keeps_its_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_embeddings(tmp_path / "absent.npz")

    def test_missing_array_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz", indptr=None)
        with pytest.raises(ValueError, match="rows.npz: .*indptr"):
            load_embeddings(path)

    def test_column_index_outside_matrix_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz", indices=np.array([0, 7, 2], dtype=np.int32))
        with pytest.raises(ValueError, match="rows.npz: .*indices must be < 3"):
            load_embeddings(path)

    def test_unknown_model_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz", model=np.array("bert"))
        with pytest.raises(ValueError, match="rows.npz: .*'bert'"):
            load_embeddings(path)


class TestWordsOnly:
    """`read_embedding_words` reads a file's words without its vectors,
    through the loaders' own header and archive checks."""

    def test_text_words_equal_full_load(self, tmp_path):
        rng = np.random.default_rng(3)
        path = save_embeddings(dense_embedding(["alpha", "béta", "δ", "gamma"], rng.normal(size=(4, 3))),
                               tmp_path / "vectors")
        assert read_embedding_words(path) == load_embeddings(path).words
        # tabs and runs of blanks, and a value only the line-by-line path reads
        path.write_text("3 2\n a\t1 2\nb  1_000 2\nc 3 4\n", encoding="utf-8")
        assert read_embedding_words(path) == load_embeddings(path).words == ("a", "b", "c")

    def test_npz_words_equal_full_load(self, tmp_path):
        rows = sp.random(5, 9, density=0.3, format="csr", random_state=2)
        path = save_embeddings(EmbeddingMatrix(words=("v", "w", "x", "y", "zé"), vectors=rows, model=Model.PPMI),
                               tmp_path / "rows")
        assert read_embedding_words(path) == load_embeddings(path).words

    @pytest.mark.parametrize("content", [
        b"x y\nw 1\n",
        b"0 3\n",
        b"99999 99999\nw 1 2\n",
        b"2 1\nw\xe9 1\nv 2\n",
    ])
    def test_text_header_and_encoding_errors_are_the_loaders(self, tmp_path, content):
        path = tmp_path / "vectors.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError) as full:
            load_embeddings(path)
        with pytest.raises(ValueError) as words:
            read_embedding_words(path)
        assert str(words.value) == str(full.value)
        assert str(words.value).startswith(f"{path}: ")

    def test_blank_row_named(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("3 1\na 1\n\nc 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="vectors.txt: expected 2 fields, got 0 at line 3"):
            read_embedding_words(path)

    def test_damaged_archive_named(self, tmp_path):
        """A truncated archive, or a byte flipped anywhere, is a ValueError
        naming the file, or leaves the words readable."""
        path = TestSparseFormat.write_archive(tmp_path / "rows.npz")
        intact = path.read_bytes()
        path.write_bytes(intact[:200])
        with pytest.raises(ValueError, match="rows.npz: not a valid sparse embedding archive"):
            read_embedding_words(path)
        for pos in range(len(intact)):
            damaged = bytearray(intact)
            damaged[pos] ^= 0xFF
            path.write_bytes(damaged)
            try:
                read_embedding_words(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: not a valid sparse embedding archive")

    def test_npz_words_without_scipy(self, tmp_path):
        """Reading an archive's words leaves scipy unimported: a child
        process reads them and reports the scipy modules it then holds."""
        path = TestSparseFormat.write_archive(tmp_path / "rows.npz")
        probe = (
            "import sys\n"
            "from ocrdrift.embeddings import read_embedding_words\n"
            "print(' '.join(read_embedding_words(sys.argv[1])))\n"
            "print(' '.join(m for m in ('scipy', 'scipy.sparse') if m in sys.modules) or '-')\n"
        )
        src = str(Path(embeddings.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", probe, str(path)],
                                capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["x y z", "-"]


# words the writer accepts: not empty, no whitespace of any kind, no trailing NUL
WORD = st.text(min_size=1, max_size=5).filter(lambda w: w.split() == [w] and not w.endswith("\0"))


def dense_matrices(words, dtype):
    finite = st.floats(allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8)
    return hnp.arrays(dtype, st.tuples(st.just(len(words)), st.integers(1, 4)), elements=finite)


def sparse_matrices(words):
    values = st.floats(allow_nan=False, allow_infinity=False)
    dense = hnp.arrays(np.float64, st.tuples(st.just(len(words)), st.integers(1, 5)),
                       elements=st.one_of(st.just(0.0), values))
    return dense.map(sp.csr_matrix)


def corrupted(intact, edits, cut):
    """`intact` with each (position, bytes) edit replacing the byte at
    that position (taken modulo the current length) by those bytes, so
    an edit deletes, substitutes or inserts; then cut to `cut` bytes."""
    data = bytearray(intact)
    for pos, new in edits:
        pos %= max(len(data), 1)
        data[pos:pos + 1] = new
    return bytes(data if cut is None else data[:cut % (len(data) + 1)])


# bytes that keep a text file decodable as often as not
EDIT_BYTES = st.binary(max_size=3) | st.sampled_from(
    [b" ", b"\n", b"\t", b"\r", b"\x0c", b"\xc2\xa0", b"\xe2\x80\xa8", b"0", b"7", b"-", b".",
     b"e", b"_", b"nan", b"inf", b"x", b"\xc3\xa9", b"\x00"])
EDITS = st.lists(st.tuples(st.integers(min_value=0), EDIT_BYTES), min_size=1, max_size=4)


def assert_loads_or_names_path(path):
    """A load of `path` either succeeds, with as many finite vectors as
    words, or raises a ValueError naming the file; the words-only read
    agrees with the load or fails the same way."""
    try:
        emb = load_embeddings(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert emb.vectors.shape[0] == len(emb.words)
        if emb.is_dense:
            assert np.isfinite(emb.vectors).all()
    try:
        words = read_embedding_words(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(words, tuple) and all(isinstance(w, str) for w in words)


class TestSaveLoad:
    """`save_embeddings` picks the format from the matrix kind, and
    `load_embeddings` reads back exactly what it wrote."""

    def test_dense_to_txt_sparse_to_npz(self, tmp_path):
        dense = dense_embedding(["a", "b"], np.eye(2))
        sparse = EmbeddingMatrix(words=("a", "b"), vectors=sp.csr_matrix(np.eye(2)), model=Model.PPMI)
        # a label may hold a dot: the suffix is appended, never substituted
        assert save_embeddings(dense, tmp_path / "sgns.v2_ocr_run0") == tmp_path / "sgns.v2_ocr_run0.txt"
        assert save_embeddings(sparse, tmp_path / "ppmi.v2_ocr_run0") == tmp_path / "ppmi.v2_ocr_run0.npz"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ppmi.v2_ocr_run0.npz", "sgns.v2_ocr_run0.txt"]
        assert load_embeddings(tmp_path / "sgns.v2_ocr_run0.txt").is_dense
        assert not load_embeddings(tmp_path / "ppmi.v2_ocr_run0.npz").is_dense

    @pytest.mark.parametrize("vectors", [np.empty((0, 3)), np.empty((2, 0))])
    def test_empty_dense_matrix_rejected(self, tmp_path, vectors):
        emb = dense_embedding(["a", "b"][:len(vectors)], vectors)
        with pytest.raises(ValueError, match="text format needs a word and a dimension"):
            save_embeddings(emb, tmp_path / "v")
        assert not list(tmp_path.iterdir())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), words=st.lists(WORD, min_size=1, max_size=6, unique=True),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_dense_round_trip(self, tmp_path_factory, data, words, dtype):
        vectors = data.draw(dense_matrices(words, dtype))
        emb = EmbeddingMatrix(words=tuple(words), vectors=vectors, model=Model.SGNS)
        path = save_embeddings(emb, tmp_path_factory.getbasetemp() / "round.trip")
        back = load_embeddings(path)
        assert back.words == emb.words == read_embedding_words(path)
        expected = np.array([[float(f"{v:.9g}") for v in row] for row in vectors.tolist()])
        assert back.vectors.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), words=st.lists(WORD, max_size=6, unique=True), model=st.sampled_from(list(Model)))
    def test_sparse_round_trip(self, tmp_path_factory, data, words, model):
        rows = data.draw(sparse_matrices(words))
        path = save_embeddings(EmbeddingMatrix(words=tuple(words), vectors=rows, model=model),
                               tmp_path_factory.getbasetemp() / "round.trip")
        back = load_embeddings(path)
        assert back.words == tuple(words) == read_embedding_words(path)
        assert back.model is model
        assert back.vectors.shape == rows.shape
        for part in ("data", "indices", "indptr"):
            assert getattr(back.vectors, part).tobytes() == getattr(rows, part).tobytes(), part


class TestMalformedFiles:
    """Corrupted files raise nothing but a ValueError naming the path."""

    @settings(max_examples=300, deadline=None)
    @given(edits=EDITS, cut=st.none() | st.integers(min_value=0))
    def test_corrupted_text_file(self, tmp_path_factory, edits, cut):
        rng = np.random.default_rng(6)
        intact = save_embeddings(dense_embedding(["a", "bé", "c"], rng.normal(size=(3, 2))),
                                 tmp_path_factory.getbasetemp() / "intact").read_bytes()
        path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
        path.write_bytes(corrupted(intact, edits, cut))
        assert_loads_or_names_path(path)

    @settings(max_examples=300, deadline=None)
    @given(edits=EDITS, cut=st.none() | st.integers(min_value=0))
    def test_corrupted_archive(self, tmp_path_factory, edits, cut):
        rows = sp.csr_matrix(np.array([[0.0, 1.5, 0.0], [2.5, 0.0, 0.0], [0.0, 0.0, 0.25]]))
        intact = save_embeddings(EmbeddingMatrix(words=("x", "y", "z"), vectors=rows, model=Model.PPMI),
                                 tmp_path_factory.getbasetemp() / "intact").read_bytes()
        path = tmp_path_factory.getbasetemp() / "fuzzed.npz"
        path.write_bytes(corrupted(intact, edits, cut))
        assert_loads_or_names_path(path)

    @settings(max_examples=200, deadline=None)
    @given(member=st.sampled_from(["data", "indices", "indptr", "shape", "words", "model"]),
           value=st.sampled_from([
               np.array(3), np.array([]), np.array([[0, 1], [2, 3]]), np.array(["a", "b", "c", "d"]),
               np.array([-1, 0, 5]), np.array([3.5, 2.0]), np.array([True, False, True]),
               np.array("ppmi"), np.array([1 << 40, 2, 3]), np.array([b"x", b"y", b"z"]),
           ]))
    def test_archive_with_a_wrong_member(self, tmp_path_factory, member, value):
        """A well-formed zip whose member has the wrong shape, type or values."""
        path = TestSparseFormat.write_archive(tmp_path_factory.getbasetemp() / "odd.npz", **{member: value})
        assert_loads_or_names_path(path)


class TestEmbeddingMatrix:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            dense_embedding(["a", "a"], np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dense_embedding(["a", "b", "c"], np.eye(2))

    def test_dim_none_for_sparse(self):
        emb = EmbeddingMatrix(words=("a", "b"), vectors=sp.csr_matrix(np.eye(2)), model=Model.PPMI)
        assert emb.dim is None
        assert not emb.is_dense
