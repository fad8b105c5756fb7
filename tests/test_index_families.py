"""Cross-cutting tests over every vector index family (Table 1).

One parametrized suite asserts the shared :class:`VectorIndex` contract on
all 16 registered index types; family-specific behaviour gets its own test
classes below.
"""

import copy

import numpy as np
import pytest

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index import available_indexes, create_index
from repro.index.base import index_from_bytes
from repro.index.flat import FlatIndex

DIM = 32
N = 1500

# Minimum recall@10 each family must reach on clustered data with generous
# parameters.  Quantizers trade recall for memory, hence lower bars.
RECALL_FLOORS = {
    "FLAT": 1.0,
    "IVF_FLAT": 0.85,
    "IVF_PQ": 0.55,
    "IVF_SQ8": 0.85,
    "IVF_HNSW": 0.70,
    "PQ": 0.45,
    "OPQ": 0.45,
    "RQ": 0.45,
    "SQ8": 0.90,
    "IMI": 0.50,
    "HNSW": 0.90,
    "NSG": 0.85,
    "NGT": 0.80,
    "SSD": 0.60,
    "COMPOSITE": 0.85,
    "TIERED": 0.60,
}

GENEROUS_PARAMS = {
    "IVF_FLAT": {"nlist": 32, "nprobe": 8},
    "IVF_PQ": {"nlist": 32, "nprobe": 8, "m": 8},
    "IVF_SQ8": {"nlist": 32, "nprobe": 8},
    "IVF_HNSW": {"nlist": 64, "nprobe": 16},
    "PQ": {"m": 8},
    "OPQ": {"m": 8, "train_iters": 3},
    "RQ": {"stages": 6},
    "IMI": {"ksub": 16, "candidate_factor": 16},
    "HNSW": {"M": 16, "ef_search": 64},
    "NSG": {"knn": 24, "ef_search": 64},
    "NGT": {"edge_size": 16, "ef_search": 64},
    "SSD": {"nprobe": 16, "replicas": 2},
    "COMPOSITE": {"bucketer": "graph", "compressor": "sq", "nlist": 32,
                  "nprobe": 8},
    "TIERED": {"nprobe": 16, "replicas": 2},
}

#: Parameters a list-based type validates: a non-positive or fractional
#: count is refused when the index is constructed, whatever the type.
COUNT_PARAMS = {
    "IVF_FLAT": ("nlist", "nprobe"),
    "IVF_SQ8": ("nlist", "nprobe"),
    "IVF_PQ": ("nlist", "nprobe", "m"),
    "IVF_HNSW": ("nlist", "nprobe", "M", "ef_search"),
    "IMI": ("ksub",),
    "SSD": ("nprobe", "replicas"),
    "TIERED": ("nprobe", "replicas"),
    "COMPOSITE": ("nlist", "nprobe", "m", "stages", "ksub"),
    "PQ": ("m",),
    "OPQ": ("m",),
    "RQ": ("stages",),
    "HNSW": ("M", "ef_construction", "ef_search"),
    "NSG": ("knn", "out_degree", "ef_search", "ef_construction"),
    "NGT": ("edge_size", "outdegree_limit", "num_seeds", "ef_search"),
}

#: Types whose search takes an ``ef_search`` override, checked like ``nprobe``.
GRAPH_TYPES = ("HNSW", "NSG", "NGT")


@pytest.fixture(scope="module")
def clustered_data():
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((20, DIM)).astype(np.float32) * 6
    assign = rng.integers(0, 20, N)
    data = centers[assign] + rng.standard_normal((N, DIM)).astype(np.float32)
    queries = data[rng.choice(N, 20, replace=False)] + \
        rng.standard_normal((20, DIM)).astype(np.float32) * 0.1
    return data, queries


@pytest.fixture(scope="module")
def truth(clustered_data):
    data, queries = clustered_data
    flat = FlatIndex(MetricType.EUCLIDEAN, DIM)
    flat.build(data)
    ids, _ = flat.search(queries, 10)
    return ids


def build(name, data):
    index = create_index(name, MetricType.EUCLIDEAN, DIM,
                         **GENEROUS_PARAMS.get(name, {}))
    index.build(data)
    return index


@pytest.fixture(scope="module")
def built_on_all(clustered_data):
    """``name`` -> a deep copy of its index over all of the data, built
    once per module (builds are seeded; no test sees another's search)."""
    built = {}

    def copy_of(name):
        if name not in built:
            built[name] = build(name, clustered_data[0])
        return copy.deepcopy(built[name])
    return copy_of


@pytest.mark.parametrize("name", sorted(RECALL_FLOORS))
class TestIndexContract:
    def test_recall_floor(self, name, clustered_data, truth, built_on_all):
        _data, queries = clustered_data
        index = built_on_all(name)
        ids, _ = index.search(queries, 10)
        hits = sum(len(set(map(int, row)) & set(map(int, t)))
                   for row, t in zip(ids, truth))
        recall = hits / truth.size
        assert recall >= RECALL_FLOORS[name], f"{name}: recall {recall}"

    def test_result_shape_and_padding(self, name, clustered_data):
        data, _ = clustered_data
        index = build(name, data[:30])
        query = data[:2]
        ids, dists = index.search(query, 50)
        assert ids.shape == (2, 50) and dists.shape == (2, 50)
        # At most 30 real results; the rest padded with -1 / inf.
        assert (ids >= -1).all()
        for row_ids, row_dists in zip(ids, dists):
            valid = row_ids >= 0
            assert np.isfinite(row_dists[valid]).all()

    def test_distances_sorted(self, name, clustered_data, built_on_all):
        _data, queries = clustered_data
        index = built_on_all(name)
        _ids, dists = index.search(queries[:4], 10)
        for row in dists:
            finite = row[np.isfinite(row)]
            assert (np.diff(finite) >= -1e-4).all()

    def test_search_before_build_rejected(self, name):
        index = create_index(name, MetricType.EUCLIDEAN, DIM,
                             **GENEROUS_PARAMS.get(name, {}))
        with pytest.raises(IndexBuildError):
            index.search(np.zeros((1, DIM), dtype=np.float32), 1)

    def test_wrong_dim_rejected(self, name, clustered_data):
        data, _ = clustered_data
        index = build(name, data[:100])
        with pytest.raises(IndexBuildError):
            index.search(np.zeros((1, DIM + 1), dtype=np.float32), 1)

    def test_serialization_roundtrip(self, name, clustered_data):
        data, queries = clustered_data
        index = build(name, data[:200])
        blob = index.to_bytes()
        again = index_from_bytes(blob)
        a_ids, a_dists = index.search(queries[:3], 5)
        b_ids, b_dists = again.search(queries[:3], 5)
        assert type(again) is type(index)
        assert np.array_equal(a_ids, b_ids)
        assert np.array_equal(a_dists, b_dists)
        assert again.stats.as_dict() == index.stats.as_dict()

    def test_stats_populated(self, name, clustered_data, built_on_all):
        _data, queries = clustered_data
        index = built_on_all(name)
        index.search(queries[:2], 5)
        stats = index.stats
        total = (stats.float_comparisons + stats.quantized_comparisons
                 + stats.ssd_blocks_read)
        assert total > 0

    @pytest.mark.parametrize("nq", [1, 3])
    def test_k_zero_keeps_the_query_axis(self, name, nq, clustered_data):
        data, queries = clustered_data
        index = build(name, data[:200])
        ids, dists = index.search(queries[:nq], 0)
        assert ids.shape == dists.shape == (nq, 0)

    def test_counts_validated_at_construction(self, name):
        for param in COUNT_PARAMS.get(name, ()):
            for bad in (0, -1, 2.5, "8", True):
                # COMPOSITE builds only the parts its spec names.
                params = {**GENEROUS_PARAMS.get(name, {}), param: bad}
                if name == "COMPOSITE":
                    params.update(
                        bucketer="imi" if param == "ksub" else "kmeans",
                        compressor={"m": "pq", "stages": "rq"}.get(param,
                                                                   "none"))
                with pytest.raises(IndexBuildError, match=param):
                    create_index(name, MetricType.EUCLIDEAN, DIM, **params)

    def test_nprobe_override_validated(self, name, clustered_data):
        if "nprobe" not in COUNT_PARAMS.get(name, ()):
            pytest.skip("no nprobe override")
        data, queries = clustered_data
        index = build(name, data[:200])
        for bad in (0, -3, 1.5):
            with pytest.raises(IndexBuildError, match="nprobe"):
                index.search(queries[:2], 5, nprobe=bad)
        ids, _ = index.search(queries[:2], 5, nprobe=10 ** 6)   # clamped
        assert (ids >= 0).all()

    def test_unknown_parameter_is_a_typed_error(self, name):
        with pytest.raises(IndexBuildError) as err:
            create_index(name, MetricType.EUCLIDEAN, DIM, nprobee=4,
                         **GENEROUS_PARAMS.get(name, {}))
        message = str(err.value)
        assert name in message and "nprobee" in message
        for accepted in GENEROUS_PARAMS.get(name, {}):
            assert accepted in message

    def test_exact_match_found(self, name, clustered_data, built_on_all):
        """Searching for a database vector itself must return it top-1
        (quantizing indexes may rank a twin first, so allow top-10)."""
        data, _ = clustered_data
        index = built_on_all(name)
        probe = 17
        ids, _ = index.search(data[probe:probe + 1], 10)
        assert probe in set(int(x) for x in ids[0])


@pytest.mark.parametrize("name", GRAPH_TYPES)
def test_ef_search_override_validated(name, clustered_data):
    data, queries = clustered_data
    index = build(name, data[:200])
    for bad in (0, -3, 1.5, "8"):
        with pytest.raises(IndexBuildError, match="ef_search"):
            index.search(queries[:2], 5, ef_search=bad)
    ids, _ = index.search(queries[:2], 5, ef_search=2)     # widened to k
    assert (ids >= 0).all()


class TestRegistry:
    def test_all_expected_registered(self):
        assert set(RECALL_FLOORS) == set(available_indexes())
        assert len(RECALL_FLOORS) == 16

    def test_imi_is_euclidean_only_like_its_bucketer(self):
        """One rule, in the one bucketer (DESIGN.md): cells are ranked by
        additive squared-L2 halves."""
        for metric in (MetricType.INNER_PRODUCT, MetricType.COSINE):
            with pytest.raises(IndexBuildError, match="Euclidean"):
                create_index("IMI", metric, DIM)
            with pytest.raises(IndexBuildError, match="Euclidean"):
                create_index("COMPOSITE", metric, DIM, bucketer="imi")

    def test_unknown_type_rejected(self):
        with pytest.raises(IndexBuildError):
            create_index("NOPE", MetricType.EUCLIDEAN, 8)

    def test_case_insensitive(self):
        index = create_index("ivf_flat", MetricType.EUCLIDEAN, 8)
        assert index.index_type == "IVF_FLAT"

    def test_bad_dim_rejected(self):
        with pytest.raises(IndexBuildError):
            create_index("FLAT", MetricType.EUCLIDEAN, 0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.5,
                                       "1.2", True, None])
    def test_nsg_alpha_is_a_finite_number_at_least_one(self, alpha):
        with pytest.raises(IndexBuildError, match="alpha"):
            create_index("NSG", MetricType.EUCLIDEAN, DIM, alpha=alpha)
        assert create_index("NSG", MetricType.EUCLIDEAN, DIM,
                            alpha=np.float32(1.5)).alpha == 1.5
