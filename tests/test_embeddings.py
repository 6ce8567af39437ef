import numpy as np
import pytest
import scipy.sparse as sp

from ocrdrift.embeddings import (
    EmbeddingMatrix,
    Model,
    RateProfile,
    TrainConfig,
    export_embeddings,
    import_embeddings,
    load_sparse_embeddings,
    save_sparse_embeddings,
)


def dense_embedding(words, vectors, model=Model.SGNS):
    return EmbeddingMatrix(
        words=tuple(words),
        vectors=np.asarray(vectors, dtype=np.float64),
        model=model,
    )


class TestTrainConfig:
    def test_fast_and_slow_presets(self):
        fast = TrainConfig(model=Model.SGNS, rate_profile=RateProfile.FAST)
        slow = TrainConfig(model=Model.CBOW, rate_profile=RateProfile.SLOW)
        assert fast.resolved_rate() == 1e-3
        assert slow.resolved_rate() == 1e-4

    def test_explicit_rate_wins(self):
        config = TrainConfig(model=Model.SGNS, learning_rate=0.5, rate_profile=RateProfile.SLOW)
        assert config.resolved_rate() == 0.5

    def test_missing_rate_is_error(self):
        with pytest.raises(ValueError, match="rate"):
            TrainConfig(model=Model.SGNS).resolved_rate()


class TestTextFormat:
    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = dense_embedding(["alpha", "beta", "gamma"], rng.normal(size=(3, 5)))
        path = tmp_path / "vectors.txt"
        export_embeddings(emb, path)
        back = import_embeddings(path)
        assert back.words == emb.words
        assert np.abs(back.vectors - emb.vectors).max() < 1e-6
        assert back.model is Model.EXTERNAL

    def test_header_line(self, tmp_path):
        emb = dense_embedding(["a", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "v.txt"
        export_embeddings(emb, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "2 3"

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 2 3 4\nb 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            import_embeddings(path)

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nsame 1 2\nsame 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate word"):
            import_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("not a header\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            import_embeddings(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 2\nword 1 oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            import_embeddings(path)

    def test_whitespace_around_fields_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2 \na 1 2 \n  b\t3  4\t\nc 5 6\r\n", encoding="utf-8")
        back = import_embeddings(path)
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
            import_embeddings(path)

    def test_value_only_float_reads_is_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1_0 2\nb 3 4\n", encoding="utf-8")
        np.testing.assert_array_equal(import_embeddings(path).vectors, [[10, 2], [3, 4]])

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
        back = import_embeddings(path)
        assert back.vectors.dtype == np.float64
        assert back.vectors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"4 2\na 1 2\nb 3 4\nc 5 {value}\nd 7 8\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite value at line 4"):
            import_embeddings(path)

    def test_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("99999999999 99999\na 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header declares 99999999999 rows .* at line 1"):
            import_embeddings(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 rows"):
            import_embeddings(path)

    def test_sparse_export_rejected(self, tmp_path):
        emb = EmbeddingMatrix(words=("a", "b"), vectors=sp.csr_matrix(np.eye(2)), model=Model.PPMI)
        with pytest.raises(TypeError):
            export_embeddings(emb, tmp_path / "v.txt")

    def test_word_with_space_rejected(self, tmp_path):
        emb = dense_embedding(["ok", "not ok"], np.eye(2))
        with pytest.raises(ValueError, match="not ok"):
            export_embeddings(emb, tmp_path / "v.txt")


class TestSparseFormat:
    def test_npz_round_trip(self, tmp_path):
        rows = sp.csr_matrix(np.array([[0.0, 1.5, 0.0], [2.5, 0.0, 0.0], [0.0, 0.0, 0.25]]))
        emb = EmbeddingMatrix(words=("x", "y", "z"), vectors=rows, model=Model.PPMI)
        path = tmp_path / "rows.npz"
        save_sparse_embeddings(emb, path)
        back = load_sparse_embeddings(path)
        assert back.words == emb.words
        assert back.model is Model.PPMI
        np.testing.assert_allclose(back.vectors.toarray(), rows.toarray())

    @staticmethod
    def write_archive(path, **changes):
        """An archive of a 3x3 matrix as save_sparse_embeddings writes it,
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
            load_sparse_embeddings(path)

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
                load_sparse_embeddings(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: not a valid sparse embedding archive")

    def test_missing_file_keeps_its_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sparse_embeddings(tmp_path / "absent.npz")

    def test_missing_array_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz", indptr=None)
        with pytest.raises(ValueError, match="rows.npz: .*indptr"):
            load_sparse_embeddings(path)

    def test_column_index_outside_matrix_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz", indices=np.array([0, 7, 2], dtype=np.int32))
        with pytest.raises(ValueError, match="rows.npz: .*indices must be < 3"):
            load_sparse_embeddings(path)

    def test_unknown_model_named(self, tmp_path):
        path = self.write_archive(tmp_path / "rows.npz", model=np.array("bert"))
        with pytest.raises(ValueError, match="rows.npz: .*'bert'"):
            load_sparse_embeddings(path)


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
