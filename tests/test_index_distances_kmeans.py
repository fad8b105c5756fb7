"""Tests for distance kernels and k-means."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index import create_index
from repro.index.distances import (
    adjusted_distances,
    cosine,
    inner_product,
    squared_l2,
    to_user_score,
    topk_smallest,
)
from repro.index.kmeans import hierarchical_balanced_kmeans, kmeans
from tests.reference.build import hierarchical_balanced_kmeans_reference, \
    kmeans_reference, squared_l2_reference


def naive_l2(q, d):
    return np.array([[np.sum((qi - di) ** 2) for di in d] for qi in q])


def clustered(rng, n, dim, centers=32, spread=0.3):
    """``n`` float32 rows scattered around ``centers`` Gaussian centres:
    the shape of a sealed segment, where late Lloyd rounds move few rows."""
    means = rng.standard_normal((centers, dim)).astype(np.float32)
    noise = rng.standard_normal((n, dim)).astype(np.float32)
    return means[rng.integers(centers, size=n)] + spread * noise


def _oracle_cases():
    """``name -> (data, k, kmeans keyword arguments)``."""
    rng = np.random.default_rng(20)
    six = rng.standard_normal((6, 5)).astype(np.float32)
    return {
        "sealed-4096x128-k64": (clustered(rng, 4096, 128), 64, {}),
        "temp-1024x128-k16": (clustered(rng, 1024, 128), 16, {}),
        "small-256x128-k16": (clustered(rng, 256, 128), 16, {}),
        "pq-subspace-4096x16-k256": (clustered(rng, 4096, 16), 256, {}),
        "ragged-700x128-k64": (clustered(rng, 700, 128), 64, {}),
        "n-below-k": (clustered(rng, 10, 8), 16, {}),
        "n-equals-k": (clustered(rng, 16, 8), 16, {}),
        # Every row the same: seeding takes its ``total <= 0`` branch.
        "identical-rows": (np.ones((20, 4), dtype=np.float32), 4, {}),
        # 200 rows over 6 distinct points, k=8: two clusters are empty
        # and reseeded every round; ``tol=0`` keeps the rounds coming.
        "duplicates-reseed": (six[rng.integers(6, size=200)], 8, {}),
        "duplicates-reseed-every-round": (
            six[rng.integers(6, size=200)], 8, {"tol": 0.0}),
        "ends-by-tol": (clustered(rng, 500, 8, centers=8), 8,
                        {"tol": 0.05}),
        "ends-by-max-iters": (
            rng.standard_normal((2000, 16)).astype(np.float32), 32,
            {"max_iters": 3}),
        "no-rounds": (clustered(rng, 100, 8), 4, {"max_iters": 0}),
        "float64-non-contiguous": (
            rng.standard_normal((600, 40))[:, ::2], 12, {}),
        "one-dimension": (
            rng.standard_normal((300, 1)).astype(np.float32), 7, {}),
    }


_ORACLE_CASES = _oracle_cases()


class TestDistances:
    def test_squared_l2_matches_naive(self, rng):
        q = rng.standard_normal((5, 8)).astype(np.float32)
        d = rng.standard_normal((7, 8)).astype(np.float32)
        assert np.allclose(squared_l2(q, d), naive_l2(q, d), atol=1e-3)

    def test_l2_nonnegative(self, rng):
        q = rng.standard_normal((10, 16)).astype(np.float32) * 100
        assert (squared_l2(q, q) >= 0).all()

    def test_l2_self_distance_zero(self, rng):
        x = rng.standard_normal((6, 8)).astype(np.float32)
        assert np.allclose(np.diag(squared_l2(x, x)), 0.0, atol=1e-3)

    def test_inner_product(self):
        q = np.array([[1.0, 0.0]], dtype=np.float32)
        d = np.array([[2.0, 5.0], [0.0, 1.0]], dtype=np.float32)
        assert np.allclose(inner_product(q, d), [[2.0, 0.0]])

    def test_cosine_bounds_and_zero_vectors(self, rng):
        q = rng.standard_normal((4, 8)).astype(np.float32)
        d = rng.standard_normal((6, 8)).astype(np.float32)
        sims = cosine(q, d)
        assert (sims <= 1.0 + 1e-5).all() and (sims >= -1.0 - 1e-5).all()
        zero = np.zeros((1, 8), dtype=np.float32)
        assert np.allclose(cosine(zero, d), 0.0)

    def test_adjusted_smaller_is_more_similar(self, rng):
        q = rng.standard_normal((1, 8)).astype(np.float32)
        near = q + 0.01
        far = q + 10.0
        d = np.concatenate([near, far])
        for metric in MetricType:
            adj = adjusted_distances(q, d, metric)[0]
            assert adj[0] < adj[1], metric

    def test_1d_queries_accepted(self, rng):
        q = rng.standard_normal(8).astype(np.float32)
        d = rng.standard_normal((3, 8)).astype(np.float32)
        assert adjusted_distances(q, d, MetricType.EUCLIDEAN).shape == (1, 3)

    def test_to_user_score_euclidean_sqrt(self):
        assert to_user_score(np.array([9.0]), MetricType.EUCLIDEAN) == \
            pytest.approx([3.0])

    def test_to_user_score_ip_negates(self):
        assert to_user_score(np.array([-0.5]),
                             MetricType.INNER_PRODUCT) == pytest.approx([0.5])

    @given(hnp.arrays(np.float32, (6, 4),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=30)
    def test_l2_symmetry_property(self, data):
        d = squared_l2(data, data)
        assert np.allclose(d, d.T, atol=1e-1)


class TestTopkSmallest:
    def test_returns_sorted_smallest(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        ids, vals = topk_smallest(values, 3)
        assert ids.tolist() == [1, 3, 2]
        assert vals.tolist() == [1.0, 2.0, 3.0]

    def test_k_larger_than_n(self):
        ids, vals = topk_smallest(np.array([2.0, 1.0]), 5)
        assert ids.tolist() == [1, 0]

    def test_k_zero(self):
        ids, _vals = topk_smallest(np.array([1.0]), 0)
        assert len(ids) == 0

    def test_2d_batched(self, rng):
        values = rng.standard_normal((4, 20))
        ids, vals = topk_smallest(values, 5)
        assert ids.shape == (4, 5)
        for row in range(4):
            expected = np.sort(values[row])[:5]
            assert np.allclose(vals[row], expected)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
           st.integers(1, 20))
    @settings(max_examples=40)
    def test_matches_full_sort(self, values, k):
        arr = np.asarray(values)
        _ids, vals = topk_smallest(arr, k)
        assert np.allclose(vals, np.sort(arr)[:min(k, len(arr))])


class TestKMeans:
    def test_separated_clusters_recovered(self, rng):
        centers = np.array([[0, 0], [50, 50], [-50, 50]], dtype=np.float32)
        data = np.concatenate([
            centers[i] + rng.standard_normal((30, 2)).astype(np.float32)
            for i in range(3)])
        result = kmeans(data, 3, seed=1)
        # Each true cluster maps to exactly one k-means cluster.
        labels = [set(result.assignments[i * 30:(i + 1) * 30])
                  for i in range(3)]
        assert all(len(s) == 1 for s in labels)
        assert len(set.union(*labels)) == 3

    def test_deterministic_for_seed(self, rng):
        data = rng.standard_normal((100, 4)).astype(np.float32)
        a = kmeans(data, 5, seed=3)
        b = kmeans(data, 5, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_k_clamped_to_n(self, rng):
        data = rng.standard_normal((3, 4)).astype(np.float32)
        result = kmeans(data, 10)
        assert result.k == 3

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 4), dtype=np.float32), 2)

    def test_identical_points_handled(self):
        data = np.ones((20, 4), dtype=np.float32)
        result = kmeans(data, 4)
        assert result.assignments.shape == (20,)

    def test_assignments_are_nearest_centroid(self, rng):
        data = rng.standard_normal((80, 6)).astype(np.float32)
        result = kmeans(data, 6, seed=2)
        dists = squared_l2(data, result.centroids)
        assert np.array_equal(result.assignments, dists.argmin(axis=1))


class TestKMeansEqualsReference:
    """The build path redoes only what moved and returns what the loop
    that redid everything returned."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_same_result_same_draws(self, case, seed):
        data, k, kwargs = _ORACLE_CASES[case]
        # ``default_rng`` hands a Generator back as it is: both runs draw
        # from a stream the test can read on afterwards.
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        got = kmeans(data, k, seed=ours, **kwargs)
        want = kmeans_reference(data, k, seed=theirs, **kwargs)
        assert got.iterations == want.iterations
        assert got.centroids.dtype == want.centroids.dtype
        assert got.assignments.dtype == want.assignments.dtype
        assert np.array_equal(got.centroids, want.centroids)
        assert np.array_equal(got.assignments, want.assignments)
        assert ours.random() == theirs.random()

    def test_the_matrix_covers_what_it_says(self):
        """The named branches are really taken by the named cases."""
        def run(case):
            data, k, kwargs = _ORACLE_CASES[case]
            return kmeans_reference(data, k, **kwargs)
        assert run("ends-by-tol").iterations < 25
        assert run("ends-by-max-iters").iterations == 3
        assert run("duplicates-reseed-every-round").iterations == 25
        data, k, _ = _ORACLE_CASES["duplicates-reseed"]
        assert len(np.unique(data, axis=0)) < k
        assert run("sealed-4096x128-k64").iterations > 3

    def test_squared_l2_in_place_form_is_the_same_bits(self, rng):
        q = rng.standard_normal((300, 24)).astype(np.float32) * 7
        d = rng.standard_normal((40, 24)).astype(np.float32)
        want = squared_l2_reference(q, d)
        assert np.array_equal(squared_l2(q, d), want)
        out = np.empty((300, 40), dtype=np.float32)
        norms = np.einsum("ij,ij->i", q, q)
        assert squared_l2(q, d, q_norms=norms, out=out) is out
        assert np.array_equal(out, want)
        column = squared_l2(q, d[3:4], q_norms=norms)
        assert np.array_equal(column, squared_l2_reference(q, d[3:4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
    def test_non_finite_rows_rejected(self, rng, bad):
        data = rng.standard_normal((50, 4)).astype(np.float32)
        data[17, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            kmeans(data, 4)

    @pytest.mark.parametrize("index_type, params", [
        ("IVF_FLAT", {"nlist": 8}), ("PQ", {"m": 4, "nbits": 4})])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_index_build_names_the_type(self, rng, index_type, params, bad):
        data = rng.standard_normal((200, 16)).astype(np.float32)
        data[3, 5] = bad
        index = create_index(index_type, MetricType.EUCLIDEAN, 16, **params)
        with pytest.raises(IndexBuildError, match=index_type):
            index.build(data)
        assert not index.is_built

    @pytest.mark.parametrize("index_type, params", [
        ("IVF_FLAT", {"nlist": 32, "nprobe": 4}),
        ("IVF_PQ", {"nlist": 16, "nprobe": 4, "m": 8, "nbits": 6}),
        ("SSD", {"nprobe": 4}),
    ])
    def test_indexes_built_on_it_are_the_same(self, monkeypatch,
                                              index_type, params):
        from repro.index import ivf, pq, ssd
        rng = np.random.default_rng(8)
        data = clustered(rng, 2000, 32)
        queries = clustered(rng, 64, 32)

        def built():
            index = create_index(index_type, MetricType.EUCLIDEAN, 32,
                                 **params)
            index.build(data)
            return index.list_sizes(), index.search(queries, 10)[0]

        sizes, ids = built()
        monkeypatch.setattr(ivf, "kmeans", kmeans_reference)
        monkeypatch.setattr(pq, "kmeans", kmeans_reference)
        monkeypatch.setattr(ssd, "hierarchical_balanced_kmeans",
                            hierarchical_balanced_kmeans_reference)
        ref_sizes, ref_ids = built()
        assert np.array_equal(sizes, ref_sizes)
        assert np.array_equal(ids, ref_ids)


class TestHierarchicalKMeans:
    @pytest.mark.parametrize("cap, branch", [(32, 8), (10, 3)])
    def test_one_partition_per_split_same_leaves(self, rng, cap, branch):
        data = clustered(rng, 900, 12, centers=5)
        data[100:400] = data[100]          # a degenerate sub-tree
        got = hierarchical_balanced_kmeans(data, cap, branch=branch, seed=4)
        want = hierarchical_balanced_kmeans_reference(
            data, cap, branch=branch, seed=4)
        assert np.array_equal(got.centroids, want.centroids)
        assert np.array_equal(got.assignments, want.assignments)

    def test_respects_size_cap(self, rng):
        data = rng.standard_normal((500, 8)).astype(np.float32)
        result = hierarchical_balanced_kmeans(data, max_cluster_size=32)
        sizes = np.bincount(result.assignments, minlength=result.k)
        assert sizes.max() <= 32
        assert sizes.sum() == 500

    def test_every_point_assigned(self, rng):
        data = rng.standard_normal((200, 4)).astype(np.float32)
        result = hierarchical_balanced_kmeans(data, max_cluster_size=16)
        assert (result.assignments >= 0).all()
        assert (result.assignments < result.k).all()

    def test_degenerate_identical_points(self):
        data = np.ones((100, 4), dtype=np.float32)
        result = hierarchical_balanced_kmeans(data, max_cluster_size=10)
        sizes = np.bincount(result.assignments, minlength=result.k)
        assert sizes.max() <= 10

    def test_small_input_single_leaf(self, rng):
        data = rng.standard_normal((5, 4)).astype(np.float32)
        result = hierarchical_balanced_kmeans(data, max_cluster_size=32)
        assert result.k == 1

    def test_bad_cap_rejected(self, rng):
        with pytest.raises(ValueError):
            hierarchical_balanced_kmeans(
                rng.standard_normal((5, 2)).astype(np.float32), 0)
