import numpy as np
import pytest
import scipy.sparse as sp

from ocrdrift.embeddings import EmbeddingMatrix, Model
from ocrdrift.overlap import (
    NeighborSet,
    _bootstrap_bands,
    average_runs,
    default_n_grid,
    evaluate_pair,
    k_for_fraction,
    neighbor_sets,
    overlap_at_k,
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


class TestNeighborSets:
    def test_orthonormal_vectors_tie_break_alphabetically(self):
        emb = embedding(["a", "b", "c"], np.eye(3))
        sets = neighbor_sets(emb, ["a", "b", "c"])
        assert list(sets[0].neighbors) == [1, 2]
        assert list(sets[1].neighbors) == [0, 2]
        assert list(sets[2].neighbors) == [0, 1]

    def test_cosine_ordering(self):
        emb = embedding(["a", "b", "c"], [[1, 0], [1, 0.01], [-1, 0]])
        sets = neighbor_sets(emb, ["a", "b", "c"])
        assert list(sets[0].neighbors) == [1, 2]

    def test_zero_vector_ranks_last(self):
        emb = embedding(["a", "b", "z"], [[1, 0], [0.9, 0.1], [0, 0]])
        sets = neighbor_sets(emb, ["a", "b", "z"])
        assert list(sets[0].neighbors) == [1, 2]
        # a zero query still ranks nonzero candidates (tied) before zero ones
        assert list(sets[2].neighbors) == [0, 1]

    def test_matches_bruteforce_oracle_every_query(self):
        rng = np.random.default_rng(0)
        emb = random_embedding(rng, 200, 8)
        sets = neighbor_sets(emb, emb.words, block_size=64)
        for q in range(200):
            assert list(sets[q].neighbors) == oracle_neighbors(emb.vectors, q)

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_matches_bruteforce_oracle_spot_checks(self, seed):
        rng = np.random.default_rng(seed)
        emb = random_embedding(rng, 150, 6)
        sets = neighbor_sets(emb, emb.words, block_size=64)
        for q in (0, 57, 123, 149):
            assert list(sets[q].neighbors) == oracle_neighbors(emb.vectors, q)

    def test_missing_word_named_in_error(self):
        emb = embedding(["a", "b"], np.eye(2))
        with pytest.raises(KeyError, match="ghost"):
            neighbor_sets(emb, ["a", "ghost"])

    def test_self_excluded_and_length(self):
        rng = np.random.default_rng(0)
        emb = random_embedding(rng, 30, 4)
        sets = neighbor_sets(emb, emb.words)
        for s in sets:
            assert s.word not in s.neighbors
            assert len(s.neighbors) == 29
            assert len(set(s.neighbors.tolist())) == 29


class TestOverlapAtK:
    def _sets(self, a, b):
        return (
            NeighborSet(word=0, neighbors=np.array(a)),
            NeighborSet(word=0, neighbors=np.array(b)),
        )

    def test_identical_sets(self):
        sa, sb = self._sets([1, 2, 3, 4], [1, 2, 3, 4])
        for k in range(1, 5):
            assert overlap_at_k(sa, sb, k) == 1.0

    def test_half_shared_top_ten(self):
        sa, sb = self._sets(list(range(1, 11)) + [99], [1, 2, 3, 4, 5, 20, 21, 22, 23, 24, 99])
        assert overlap_at_k(sa, sb, 10) == 0.5

    def test_disjoint(self):
        sa, sb = self._sets([1, 2, 3], [4, 5, 6])
        assert overlap_at_k(sa, sb, 3) == 0.0

    def test_symmetric(self):
        sa, sb = self._sets([1, 2, 3, 4], [3, 4, 5, 6])
        assert overlap_at_k(sa, sb, 3) == overlap_at_k(sb, sa, 3)

    def test_k_out_of_range(self):
        sa, sb = self._sets([1, 2], [1, 2])
        with pytest.raises(ValueError):
            overlap_at_k(sa, sb, 0)
        with pytest.raises(ValueError):
            overlap_at_k(sa, sb, 3)

    def test_full_candidate_set_is_one(self):
        sa, sb = self._sets([1, 2, 3], [3, 2, 1])
        assert overlap_at_k(sa, sb, 3) == 1.0


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


class TestEvaluatePair:
    def test_identical_embeddings_pin_curve_at_one(self):
        rng = np.random.default_rng(0)
        emb = random_embedding(rng, 60, 6)
        curve = evaluate_pair(emb, emb, emb.words, resamples=50)
        assert np.all(curve.means == 1.0)
        assert np.all(curve.ci_low == 1.0)
        assert np.all(curve.ci_high == 1.0)

    def test_full_fraction_always_one(self):
        rng = np.random.default_rng(1)
        a = random_embedding(rng, 50, 5)
        b = random_embedding(rng, 50, 5)
        curve = evaluate_pair(a, b, a.words, n_grid=[1.0], resamples=50)
        assert curve.means[0] == 1.0
        assert curve.k_values[0] == 49

    def test_random_embeddings_near_chance(self):
        rng = np.random.default_rng(2)
        a = random_embedding(rng, 500, 20)
        b = random_embedding(rng, 500, 20)
        curve = evaluate_pair(a, b, a.words, n_grid=[0.1], resamples=1000, seed=5)
        k = curve.k_values[0]
        expected = k / 499
        se = (curve.ci_high[0] - curve.ci_low[0]) / (2 * 1.96)
        assert abs(curve.means[0] - expected) <= 3 * se

    def test_per_word_matches_pairwise_operation(self):
        rng = np.random.default_rng(3)
        a = random_embedding(rng, 40, 6)
        b = random_embedding(rng, 40, 6)
        curve = evaluate_pair(a, b, a.words, n_grid=[0.1, 0.5], resamples=10)
        sets_a = neighbor_sets(a, a.words)
        sets_b = neighbor_sets(b, b.words)
        assert curve.shared.dtype == np.int32
        for gi, k in enumerate(curve.k_values):
            expected = [overlap_at_k(sa, sb, k) for sa, sb in zip(sets_a, sets_b)]
            np.testing.assert_array_equal(curve.shared[gi] / k, expected)
            assert curve.means[gi] == pytest.approx(np.mean(expected))

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = random_embedding(rng, 80, 10)
        b = random_embedding(rng, 80, 10)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        rotated = embedding(a.words, 3.7 * (a.vectors @ q))
        c1 = evaluate_pair(a, b, a.words, n_grid=[0.05, 0.2], resamples=20, seed=1)
        c2 = evaluate_pair(rotated, b, a.words, n_grid=[0.05, 0.2], resamples=20, seed=1)
        np.testing.assert_allclose(c1.means, c2.means, atol=1e-12)

    def test_ci_brackets_mean(self):
        rng = np.random.default_rng(5)
        a = random_embedding(rng, 100, 8)
        b = random_embedding(rng, 100, 8)
        curve = evaluate_pair(a, b, a.words, n_grid=[0.05, 0.3, 0.8], resamples=500)
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
            neighbor_sets(bad, a.words)

    def test_non_finite_sparse_vector_names_word(self):
        words = ("a", "b", "c", "d")
        vectors = sp.csr_matrix(np.array([[1.0, 0, 0], [0, 0, 0], [0, 2.0, 0], [0, 1.0, 3.0]]))
        vectors.data[-1] = np.nan
        emb = EmbeddingMatrix(words=words, vectors=vectors, model=Model.PPMI)
        with pytest.raises(ValueError, match="'d' has a non-finite"):
            neighbor_sets(emb, words)
        # words outside the intersection are not checked
        assert len(neighbor_sets(emb, words[:3])) == 3

    def test_too_small_intersection(self):
        rng = np.random.default_rng(7)
        a = random_embedding(rng, 5, 4)
        with pytest.raises(ValueError):
            evaluate_pair(a, a, a.words[:1], n_grid=[0.5])


class TestAverageRuns:
    def _curve(self, rng, a, b, seed=0):
        return evaluate_pair(a, b, a.words, n_grid=[0.1, 0.5], resamples=200, seed=seed)

    def test_identical_runs_keep_means(self):
        rng = np.random.default_rng(8)
        a = random_embedding(rng, 40, 5)
        b = random_embedding(rng, 40, 5)
        single = self._curve(rng, a, b)
        averaged = average_runs([single, single, single])
        np.testing.assert_allclose(averaged.means, single.means)
        assert averaged.runs_averaged == 3
        assert averaged.k_values == single.k_values
        # pooling identical runs cannot widen the band
        assert np.all(
            averaged.ci_high - averaged.ci_low <= single.ci_high - single.ci_low + 1e-12
        )

    def test_mean_of_three_levels(self):
        rng = np.random.default_rng(9)
        a = random_embedding(rng, 40, 5)
        base = self._curve(rng, a, a)
        import dataclasses

        def with_mean(curve, value):
            # k is 4 and 20 here, so each count value * k is an integer
            counts = (value * np.array(curve.k_values)).astype(np.int32)
            return dataclasses.replace(
                curve,
                means=np.full(len(counts), value),
                shared=np.repeat(counts[:, None], curve.shared.shape[1], axis=1),
            )

        averaged = average_runs([with_mean(base, 0.25), with_mean(base, 0.5), with_mean(base, 0.75)])
        np.testing.assert_array_equal(averaged.means, 0.5)

    def test_pooled_interval_not_wider_than_widest(self):
        rng = np.random.default_rng(10)
        a = random_embedding(rng, 60, 6)
        curves = []
        for seed in range(3):
            b = random_embedding(np.random.default_rng(100 + seed), 60, 6)
            curves.append(self._curve(rng, a, b, seed=seed))
        averaged = average_runs(curves)
        widest = np.max([c.ci_high - c.ci_low for c in curves], axis=0)
        assert np.all(averaged.ci_high - averaged.ci_low <= widest + 1e-9)

    def test_mismatched_grids_rejected(self):
        rng = np.random.default_rng(11)
        a = random_embedding(rng, 30, 4)
        c1 = evaluate_pair(a, a, a.words, n_grid=[0.1], resamples=10)
        c2 = evaluate_pair(a, a, a.words, n_grid=[0.2], resamples=10)
        with pytest.raises(ValueError, match="grid"):
            average_runs([c1, c2])


class TestCurveFiles:
    def test_csv_header_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        a = random_embedding(rng, 30, 4)
        b = random_embedding(rng, 30, 4)
        curve = evaluate_pair(a, b, a.words, n_grid=[0.1, 0.5, 1.0], resamples=20)
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

    def test_json_metadata_block(self, tmp_path):
        import json

        rng = np.random.default_rng(13)
        a = random_embedding(rng, 20, 4)
        curve = evaluate_pair(a, a, a.words, n_grid=[0.5], resamples=10)
        path = tmp_path / "curve.json"
        write_curve_json(curve, path, metadata={"language": "dutch", "model": "sgns-slow"})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["metadata"]["model"] == "sgns-slow"
        assert payload["points"][0]["mean"] == 1.0
