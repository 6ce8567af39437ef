import csv
import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrdrift import overlap
from ocrdrift.embeddings import EmbeddingMatrix, Model
from ocrdrift.overlap import (
    _bootstrap_bands,
    default_n_grid,
    evaluate_pair,
    k_for_fraction,
    overlap_curve,
    read_curve_csv,
    write_curve_csv,
    write_curve_json,
)


def embedding(words, vectors):
    return EmbeddingMatrix(
        words=tuple(words),
        vectors=np.asarray(vectors, dtype=np.float64),
        model=Model.EXTERNAL,
    )


def random_embedding(rng, n_words, dim, prefix="w"):
    words = [f"{prefix}{i:04d}" for i in range(n_words)]
    return embedding(words, rng.normal(size=(n_words, dim)))


def oracle_neighbors(vectors, query):
    """All-pairs cosine with explicit tie-breaking, one query at a time."""
    sims = []
    for j, v in enumerate(vectors):
        if j == query:
            continue
        qn = np.linalg.norm(vectors[query])
        vn = np.linalg.norm(v)
        sim = -1.0 if qn == 0 or vn == 0 else float(vectors[query] @ v / (qn * vn))
        sims.append((-sim, j))
    sims.sort()
    return [j for _, j in sims]


class TestKForFraction:
    def test_paper_grid_example(self):
        assert k_for_fraction(0.01, 1000) == 10

    def test_floor_behavior(self):
        assert k_for_fraction(0.0199, 1000) == 19

    def test_at_least_one(self):
        assert k_for_fraction(0.01, 50) == 1

    def test_capped_below_intersection_size(self):
        assert k_for_fraction(1.0, 400) == 399

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            k_for_fraction(0.0, 100)
        with pytest.raises(ValueError):
            k_for_fraction(1.5, 100)

    def test_grid_shape(self):
        grid = default_n_grid()
        assert len(grid) == 100
        assert grid[0] == 0.01
        assert grid[-1] == 1.0


def every_k(size):
    """A fraction grid whose neighborhood sizes are k = 1 .. size - 1."""
    return [k / size for k in range(1, size)]


def shared_counts(a, b):
    """evaluate_pair's shared-neighbor counts, row k - 1 for each k."""
    return evaluate_pair(a, b, a.words, n_grid=every_k(len(a.words)))


def oracle_counts(vectors_a, vectors_b):
    """Each word's shared top-k neighbors under the oracle ranking."""
    size = len(vectors_a)
    order_a = [oracle_neighbors(vectors_a, q) for q in range(size)]
    order_b = [oracle_neighbors(vectors_b, q) for q in range(size)]
    return np.array([
        [len(set(oa[:k]) & set(ob[:k])) for oa, ob in zip(order_a, order_b)]
        for k in range(1, size)
    ])


# a 3-word space ranking b first for a, and a first for b and the third word
RANKED = [[1, 0.9], [1, 0], [0, 1]]


class TestNeighborSets:
    """The exact cosine ranking, seen through the shared-neighbor counts
    evaluate_pair keeps for every neighborhood size."""

    def test_orthonormal_vectors_tie_break_alphabetically(self):
        # every cosine is 0: a ranks (b, c), b ranks (a, c), c ranks (a, b)
        tied = embedding(["a", "b", "c"], np.eye(3))
        counts = shared_counts(tied, embedding(["a", "b", "c"], RANKED))
        assert counts[0].tolist() == [1, 1, 1]

    def test_cosine_ordering(self):
        emb = embedding(["a", "b", "c"], [[1, 0], [1, 0.01], [-1, 0]])
        ranked = embedding(["a", "b", "c"], RANKED)
        # c's nearest is b here, a there
        assert shared_counts(emb, ranked)[0].tolist() == [1, 1, 0]

    def test_zero_vector_ranks_last(self):
        # b is a's only other candidate with a cosine above -1, so it must
        # outrank the zero vector z; a zero query ranks the others (tied)
        # alphabetically
        emb = embedding(["a", "b", "z"], [[1, 0], [-1, 0.1], [0, 0]])
        ranked = embedding(["a", "b", "z"], RANKED)
        assert shared_counts(emb, ranked)[0].tolist() == [1, 1, 1]

    def test_matches_bruteforce_oracle_every_query(self, monkeypatch):
        rng = np.random.default_rng(0)
        a = random_embedding(rng, 200, 8)
        b = random_embedding(rng, 200, 8)
        # 64-row query blocks
        monkeypatch.setattr(overlap, "BLOCK_BYTES", 64 * 8 * 200)
        np.testing.assert_array_equal(shared_counts(a, b), oracle_counts(a.vectors, b.vectors))

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_matches_bruteforce_oracle_spot_checks(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        a = random_embedding(rng, 150, 6)
        b = random_embedding(rng, 150, 6)
        monkeypatch.setattr(overlap, "BLOCK_BYTES", 64 * 8 * 150)
        queries = [0, 57, 123, 149]
        expected = oracle_counts(a.vectors, b.vectors)[:, queries]
        np.testing.assert_array_equal(shared_counts(a, b)[:, queries], expected)

    def test_missing_word_named_in_error(self):
        emb = embedding(["a", "b"], np.eye(2))
        with pytest.raises(KeyError, match="ghost"):
            evaluate_pair(emb, emb, ["a", "ghost"])

    def test_self_excluded_and_length(self):
        rng = np.random.default_rng(0)
        a = random_embedding(rng, 30, 4)
        b = random_embedding(rng, 30, 4)
        counts = shared_counts(a, b)
        # a word that counted itself would share it at k = 1
        np.testing.assert_array_equal(counts, oracle_counts(a.vectors, b.vectors))
        assert counts.shape == (29, 30)
        assert np.all(counts[-1] == 29)


def fan(order):
    """A 2-D space in which the first word's neighbors, closest first,
    are the words numbered in `order`."""
    vectors = np.zeros((len(order) + 1, 2))
    vectors[0] = (1.0, 0.0)
    for rank, word in enumerate(order):
        angle = 0.05 * (rank + 1)
        vectors[word] = (np.cos(angle), np.sin(angle))
    return embedding([f"w{i:02d}" for i in range(len(order) + 1)], vectors)


def first_word_overlap(a, b, k):
    """The first word's overlap at k between two spaces, by evaluate_pair."""
    size = len(a.words)
    assert k_for_fraction(k / size, size) == k
    return evaluate_pair(a, b, a.words, n_grid=[k / size])[0, 0] / k


class TestOverlapAtK:
    def test_identical_sets(self):
        a = fan([1, 2, 3, 4])
        for k in range(1, 5):
            assert first_word_overlap(a, a, k) == 1.0

    def test_half_shared_top_ten(self):
        a = fan(list(range(1, 30)))
        b = fan([1, 2, 3, 4, 5, 20, 21, 22, 23, 24] + list(range(6, 20)) + list(range(25, 30)))
        assert first_word_overlap(a, b, 10) == 0.5

    def test_disjoint(self):
        a, b = fan([1, 2, 3, 4, 5, 6]), fan([4, 5, 6, 1, 2, 3])
        assert first_word_overlap(a, b, 3) == 0.0

    def test_symmetric(self):
        a, b = fan([1, 2, 3, 4, 5, 6]), fan([3, 4, 5, 6, 1, 2])
        assert first_word_overlap(a, b, 3) == first_word_overlap(b, a, 3) == 1 / 3
        rng = np.random.default_rng(14)
        c, d = random_embedding(rng, 40, 5), random_embedding(rng, 40, 5)
        np.testing.assert_array_equal(shared_counts(c, d), shared_counts(d, c))

    def test_k_out_of_range(self):
        a = fan([1, 2])
        for fraction in (0.0, 1.5):
            with pytest.raises(ValueError):
                evaluate_pair(a, a, a.words, n_grid=[fraction])

    def test_full_candidate_set_is_one(self):
        a, b = fan([1, 2, 3]), fan([3, 2, 1])
        assert first_word_overlap(a, b, 1) == 0.0
        assert first_word_overlap(a, b, 3) == 1.0


def one_row_band(counts, k, confidence, resamples, seed=0):
    """The band of the mean of counts / k."""
    low, high = _bootstrap_bands(np.asarray(counts, dtype=np.int32).reshape(1, -1),
                                 np.array([k]), confidence, resamples, seed)
    return float(low[0]), float(high[0])


class TestBootstrap:
    def test_constant_values_zero_width(self):
        low, high = one_row_band([7] * 50, 10, 0.95, 500, seed=1)
        assert low == high == 0.7

    def test_balanced_binary_interval(self):
        counts = np.array([0, 1] * 5000)
        low, high = one_row_band(counts, 1, 0.95, 1000, seed=2)
        assert 0.485 <= low <= 0.4975
        assert 0.5025 <= high <= 0.515

    def test_single_resample_degenerate(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 11, size=100)
        low, high = one_row_band(counts, 10, 0.95, 1, seed=4)
        assert low == high

    def test_deterministic_for_seed(self):
        counts = np.random.default_rng(0).integers(0, 21, size=200)
        assert one_row_band(counts, 20, 0.9, 300, seed=7) == one_row_band(counts, 20, 0.9, 300, seed=7)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            one_row_band([], 1, 0.95, 100)
        with pytest.raises(ValueError):
            one_row_band([1], 1, 1.5, 100)
        with pytest.raises(ValueError):
            one_row_band([1], 1, 0.95, 0)
        # two draws of 2**52 sum to 2**53, past float64's exact integers
        with pytest.raises(ValueError, match="not be exact"):
            _bootstrap_bands(np.full((1, 2), 2**52), np.array([2**52]), 0.95, 10, 0)


def one_run_curve(a, b, n_grid=None, **bootstrap):
    """The curve of one run, over a's words."""
    return overlap_curve([evaluate_pair(a, b, a.words, n_grid)], n_grid, **bootstrap)


class TestEvaluatePair:
    def test_identical_embeddings_pin_curve_at_one(self):
        rng = np.random.default_rng(0)
        emb = random_embedding(rng, 60, 6)
        curve = one_run_curve(emb, emb, resamples=50)
        assert np.all(curve.means == 1.0)
        assert np.all(curve.ci_low == 1.0)
        assert np.all(curve.ci_high == 1.0)

    def test_full_fraction_always_one(self):
        rng = np.random.default_rng(1)
        a = random_embedding(rng, 50, 5)
        b = random_embedding(rng, 50, 5)
        curve = one_run_curve(a, b, [1.0], resamples=50)
        assert curve.means[0] == 1.0
        assert curve.k_values[0] == 49

    def test_random_embeddings_near_chance(self):
        rng = np.random.default_rng(2)
        a = random_embedding(rng, 500, 20)
        b = random_embedding(rng, 500, 20)
        curve = one_run_curve(a, b, [0.1], resamples=1000, seed=5)
        k = curve.k_values[0]
        expected = k / 499
        se = (curve.ci_high[0] - curve.ci_low[0]) / (2 * 1.96)
        assert abs(curve.means[0] - expected) <= 3 * se

    def test_per_word_matches_pairwise_operation(self):
        rng = np.random.default_rng(3)
        a = random_embedding(rng, 40, 6)
        b = random_embedding(rng, 40, 6)
        table = evaluate_pair(a, b, a.words, n_grid=[0.1, 0.5])
        curve = overlap_curve([table], [0.1, 0.5], resamples=10)
        counts = oracle_counts(a.vectors, b.vectors)
        assert table.dtype == np.int32
        for gi, k in enumerate(curve.k_values):
            expected = counts[k - 1] / k
            np.testing.assert_array_equal(table[gi] / k, expected)
            assert curve.means[gi] == pytest.approx(np.mean(expected))

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = random_embedding(rng, 80, 10)
        b = random_embedding(rng, 80, 10)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        rotated = embedding(a.words, 3.7 * (a.vectors @ q))
        c1 = one_run_curve(a, b, [0.05, 0.2], resamples=20, seed=1)
        c2 = one_run_curve(rotated, b, [0.05, 0.2], resamples=20, seed=1)
        np.testing.assert_allclose(c1.means, c2.means, atol=1e-12)

    def test_ci_brackets_mean(self):
        rng = np.random.default_rng(5)
        a = random_embedding(rng, 100, 8)
        b = random_embedding(rng, 100, 8)
        curve = one_run_curve(a, b, [0.05, 0.3, 0.8], resamples=500)
        assert np.all(curve.ci_low <= curve.means)
        assert np.all(curve.means <= curve.ci_high)

    def test_intersection_word_missing(self):
        rng = np.random.default_rng(6)
        a = random_embedding(rng, 10, 4)
        b = random_embedding(rng, 10, 4, prefix="x")
        with pytest.raises(KeyError):
            evaluate_pair(a, b, a.words, n_grid=[0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_names_word(self, value):
        rng = np.random.default_rng(15)
        a = random_embedding(rng, 6, 3)
        vectors = a.vectors.copy()
        vectors[4, 1] = value
        bad = embedding(a.words, vectors)
        with pytest.raises(ValueError, match="'w0004' has a non-finite"):
            evaluate_pair(a, bad, a.words, n_grid=[0.5])
        with pytest.raises(ValueError, match="'w0004' has a non-finite"):
            evaluate_pair(bad, a, a.words, n_grid=[0.5])

    def test_non_finite_sparse_vector_names_word(self):
        words = ("a", "b", "c", "d")
        vectors = sp.csr_matrix(np.array([[1.0, 0, 0], [0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]]))
        vectors.data[-1] = np.nan
        emb = EmbeddingMatrix(words=words, vectors=vectors, model=Model.PPMI)
        with pytest.raises(ValueError, match="'d' has a non-finite"):
            evaluate_pair(emb, emb, words, n_grid=[0.5])
        # words outside the intersection are not checked
        assert evaluate_pair(emb, emb, words[:3], n_grid=[0.5]).shape == (1, 3)

    def test_too_small_intersection(self):
        rng = np.random.default_rng(7)
        a = random_embedding(rng, 5, 4)
        with pytest.raises(ValueError):
            evaluate_pair(a, a, a.words[:1], n_grid=[0.5])

    def test_repeated_intersection_word_names_word(self):
        rng = np.random.default_rng(8)
        a = random_embedding(rng, 20, 4)
        b = random_embedding(rng, 20, 4)
        # a repeat would rank the word among its own neighbors
        words = list(a.words) + ["w0007"]
        with pytest.raises(ValueError, match="'w0007' appears more than once"):
            evaluate_pair(a, b, words, n_grid=[0.1])
        with pytest.raises(ValueError, match="'w0003' appears more than once"):
            evaluate_pair(a, b, ["w0003", "w0003"], n_grid=[0.5])


GRID = [0.1, 0.5]


class TestAverageRuns:
    """overlap_curve pooling several runs' tables."""

    def test_identical_runs_keep_means(self):
        rng = np.random.default_rng(8)
        a = random_embedding(rng, 40, 5)
        b = random_embedding(rng, 40, 5)
        table = evaluate_pair(a, b, a.words, GRID)
        single = overlap_curve([table], GRID, resamples=200)
        averaged = overlap_curve([table, table, table], GRID, resamples=200)
        np.testing.assert_allclose(averaged.means, single.means)
        assert averaged.runs_averaged == 3
        assert averaged.k_values == single.k_values
        # pooling identical runs cannot widen the band
        assert np.all(
            averaged.ci_high - averaged.ci_low <= single.ci_high - single.ci_low + 1e-12
        )

    def test_mean_of_three_levels(self):
        # k is 4 and 20 over 40 words, so each value * k is an integer count
        ks = np.array([k_for_fraction(n, 40) for n in GRID])
        assert ks.tolist() == [4, 20]
        tables = [np.repeat((value * ks).astype(np.int32)[:, None], 40, axis=1)
                  for value in (0.25, 0.5, 0.75)]
        averaged = overlap_curve(tables, GRID, resamples=200)
        np.testing.assert_array_equal(averaged.means, 0.5)

    def test_pooled_interval_not_wider_than_widest(self):
        rng = np.random.default_rng(10)
        a = random_embedding(rng, 60, 6)
        tables, curves = [], []
        for seed in range(3):
            b = random_embedding(np.random.default_rng(100 + seed), 60, 6)
            tables.append(evaluate_pair(a, b, a.words, GRID))
            curves.append(overlap_curve(tables[-1:], GRID, resamples=200, seed=seed))
        averaged = overlap_curve(tables, GRID, resamples=200)
        widest = np.max([c.ci_high - c.ci_low for c in curves], axis=0)
        assert np.all(averaged.ci_high - averaged.ci_low <= widest + 1e-9)

    def test_mismatched_grids_rejected(self):
        rng = np.random.default_rng(11)
        a = random_embedding(rng, 30, 4)
        t1 = evaluate_pair(a, a, a.words, [0.1])
        t2 = evaluate_pair(a, a, a.words, [0.1, 0.2])
        with pytest.raises(ValueError, match="grid"):
            overlap_curve([t1, t2], [0.1])
        with pytest.raises(ValueError, match="grid"):
            overlap_curve([t2], [0.1])
        with pytest.raises(ValueError, match="each other"):
            overlap_curve([t1, evaluate_pair(a, a, a.words[:20], [0.1])], [0.1])
        with pytest.raises(ValueError, match="no tables"):
            overlap_curve([], [0.1])


class TestCurveFiles:
    def test_csv_header_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        a = random_embedding(rng, 30, 4)
        b = random_embedding(rng, 30, 4)
        curve = one_run_curve(a, b, [0.1, 0.5, 1.0], resamples=20)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "N,k,mean,ci_low,ci_high"
        n, k, mean, lo, hi = read_curve_csv(path)
        np.testing.assert_allclose(n, curve.n_values)
        np.testing.assert_allclose(mean, curve.means, atol=1e-8)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("N,k,mean,ci_low,ci_high\n0.1,3,0.5,0.4,0.6\n0.5,15,0.7\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"curve\.csv: expected 5 fields, got 3 at line 3"):
            read_curve_csv(path)

    def test_non_numeric_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("N,k,mean,ci_low,ci_high\n0.1,3,oops,0.4,0.6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"curve\.csv: non-numeric value at line 2"):
            read_curve_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "curve.csv"
        path.write_text(f"N,k,mean,ci_low,ci_high\n0.1,3,0.5,0.4,0.6\n0.5,15,{value},0.4,0.6\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r"curve\.csv: non-finite value at line 3"):
            read_curve_csv(path)

    @settings(max_examples=200)
    @given(
        rows=st.lists(st.lists(st.one_of(st.text(max_size=8), st.floats().map(repr),
                                         st.integers().map(str)), max_size=6), max_size=4),
        tail=st.text(max_size=40),
    )
    def test_malformed_rows_raise_only_value_error(self, tmp_path_factory, rows, tail):
        path = tmp_path_factory.getbasetemp() / "curve.csv"
        table = io.StringIO()
        csv.writer(table).writerows([["N", "k", "mean", "ci_low", "ci_high"], *rows])
        path.write_text(table.getvalue() + tail, encoding="utf-8", newline="")
        try:
            n, k, mean, lo, hi = read_curve_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert np.isfinite(np.concatenate([n, mean, lo, hi])).all()

    def test_json_metadata_block(self, tmp_path):
        import json

        rng = np.random.default_rng(13)
        a = random_embedding(rng, 20, 4)
        curve = one_run_curve(a, a, [0.5], resamples=10)
        path = tmp_path / "curve.json"
        write_curve_json(curve, path, metadata={"language": "dutch", "model": "sgns-slow"})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["metadata"]["model"] == "sgns-slow"
        assert payload["points"][0]["mean"] == 1.0
