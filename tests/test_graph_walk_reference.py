"""One graph walk: HNSW, NSG, NGT and the centroid graphs of IVF_HNSW and
SSD build and search as they did with their own walks.

The oracle is ``tests/reference/graph.py`` (the former set-based beam,
HNSW's own layer beam and kernel, and each type's per-query loop).  For
every type under every metric the built adjacency, the search ids and
every :class:`SearchStats` counter must be equal.  Distances are
bit-equal where the former walk already used the small-block kernel
(HNSW and the two centroid graphs); NSG and NGT scored with the GEMM
expansion, so theirs may differ in the last float32 bits.
"""

import numpy as np
import pytest

from repro.core.schema import MetricType
from repro.index import create_index, ivf
from repro.index.base import SearchStats
from repro.index.graph import beam_search
from repro.index.hnsw import HnswIndex
from tests.reference.graph import ParentHnswIndex, ParentNgtIndex, \
    ParentNsgIndex

N, DIM, NQ, K = 300, 64, 24, 10

#: type -> (parameters, the former class, or None for a bucketed type
#: whose centroid graph is HNSW).
TYPES = {
    "HNSW": ({"M": 8, "ef_construction": 64, "ef_search": 48},
             ParentHnswIndex),
    "NSG": ({"knn": 12, "out_degree": 8, "ef_construction": 32,
             "ef_search": 48}, ParentNsgIndex),
    "NGT": ({"edge_size": 16, "num_seeds": 32, "ef_search": 48},
            ParentNgtIndex),
    "IVF_HNSW": ({"nlist": 48, "nprobe": 8}, None),
    "SSD": ({"nprobe": 6, "replicas": 2}, None),
}
BIT_EQUAL = {"HNSW", "IVF_HNSW", "SSD"}


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(30)
    centers = rng.standard_normal((12, DIM)).astype(np.float32) * 4
    data = (centers[rng.integers(0, 12, N)]
            + rng.standard_normal((N, DIM)).astype(np.float32))
    queries = (data[rng.choice(N, NQ, replace=False)]
               + rng.standard_normal((NQ, DIM)).astype(np.float32) * 0.3)
    return data, queries


def _graph_of(index):
    """What the build produced: the graph's edges and its entry nodes."""
    if hasattr(index, "bucketer"):
        index = index.bucketer.graph
        assert index.is_built       # the centroids are navigated
    if isinstance(index, HnswIndex):
        edges = [{node: list(map(int, nbrs)) for node, nbrs in layer.items()}
                 for layer in index._graph]
        return edges, index._entry, index._max_level, index.stats.as_dict()
    edges = [nbrs.tolist() for nbrs in index._graph]
    entry = getattr(index, "_medoid", None)
    if entry is None:
        entry = index._seeds.tolist()
    return edges, entry


def _build(name, metric, data, monkeypatch, parent):
    params, former = TYPES[name]
    if parent and former is not None:
        index = former(metric, DIM, **params)
    else:
        with monkeypatch.context() as patch:
            if parent:
                patch.setattr(ivf, "HnswIndex", ParentHnswIndex)
            index = create_index(name, metric, DIM, **params)
    index.build(data)
    return index


@pytest.mark.parametrize("metric", list(MetricType), ids=lambda m: m.name)
@pytest.mark.parametrize("name", sorted(TYPES))
def test_one_walk_builds_and_searches_as_the_former_walks(
        name, metric, corpus, monkeypatch):
    data, queries = corpus
    index = _build(name, metric, data, monkeypatch, parent=False)
    former = _build(name, metric, data, monkeypatch, parent=True)
    assert _graph_of(index) == _graph_of(former)

    ids, dists = index.search(queries, K)
    want_ids, want_dists = former.search(queries, K)
    assert np.array_equal(ids, want_ids)
    assert index.stats.as_dict() == former.stats.as_dict()
    assert index.stats.graph_hops > 0
    if name in BIT_EQUAL:
        assert np.array_equal(dists, want_dists)
    elif metric is MetricType.EUCLIDEAN:
        # The former ``|q|^2 - 2 q.x + |x|^2`` loses float32 bits in
        # proportion to the norms, not to the distance.
        norms = (np.einsum("ij,ij->i", queries, queries)[:, None]
                 + np.einsum("ij,ij->i", data, data).max())
        assert (np.abs(dists - want_dists)
                <= 4 * np.finfo(np.float32).eps * norms).all()
    else:
        np.testing.assert_allclose(dists, want_dists, rtol=1e-6)


def test_the_walk_reads_both_adjacency_shapes():
    """An HNSW layer (dict of lists) and an NSG / NGT graph (list of
    arrays) walk the same: same ids, same visited mask, same counters."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((50, 8)).astype(np.float32)
    arrays = [np.asarray(rng.choice(50, 6, replace=False), dtype=np.int64)
              for _ in range(50)]
    layer = {node: nbrs.tolist() for node, nbrs in enumerate(arrays)}
    walks = []
    for graph in (arrays, layer):
        stats = SearchStats()
        found, visited = beam_search(graph, data, data[7], [3, 3, 11], 8,
                                     MetricType.EUCLIDEAN, stats)
        walks.append((found, visited.tolist(), stats.as_dict()))
    assert walks[0] == walks[1]
    found, visited, stats = walks[0]
    assert len(found) == 8 and visited[3] and visited[11]
    assert stats["float_comparisons"] == sum(visited)
