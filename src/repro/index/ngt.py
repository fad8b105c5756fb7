"""NGT-style proximity graph (Iwasaki & Miyazaki).

Yahoo's NGT combines a k-NN graph with degree adjustment and a coarse seed
structure.  Our implementation captures those ingredients: a bidirected
k-NN graph with in/out-degree caps (the ONNG "path adjustment" effect of
keeping graphs sparse but navigable), plus a small random sample of *seed*
nodes ranked per query to start the beam — the role NGT's VP-tree plays.
This is the index backing the Vald baseline in the Figure 8 reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import positive_int, register_index
from repro.index.distances import block_distances, topk_smallest
from repro.index.graph import GraphIndex, beam_search, ensure_connected, \
    exact_knn_graph


@register_index("NGT")
class NgtIndex(GraphIndex):
    """Degree-adjusted bidirected k-NN graph with sampled seeds."""

    def __init__(self, metric: MetricType, dim: int, edge_size: int = 24,
                 outdegree_limit: int = 48, num_seeds: int = 64,
                 ef_search: int = 64, seed: int = 0) -> None:
        super().__init__(metric, dim)
        edge_size = positive_int("edge_size", edge_size)
        if edge_size < 2:
            raise IndexBuildError(f"edge_size must be >= 2, got {edge_size}")
        self.edge_size = edge_size
        self.outdegree_limit = max(
            positive_int("outdegree_limit", outdegree_limit), edge_size)
        self.num_seeds = positive_int("num_seeds", num_seeds)
        self.ef_search = positive_int("ef_search", ef_search)
        self.seed = seed
        self._data: np.ndarray | None = None
        self._graph: list[np.ndarray] = []
        self._seeds: np.ndarray | None = None

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        n = arr.shape[0]
        self._data = arr
        knn = exact_knn_graph(arr, self.edge_size, self.metric)

        # Bidirect the graph, then cap out-degree keeping nearest edges.
        incoming: list[list[int]] = [[] for _ in range(n)]
        for node, neigh in enumerate(knn):
            for nb in neigh:
                incoming[int(nb)].append(node)
        graph: list[np.ndarray] = []
        for node in range(n):
            merged = np.unique(np.concatenate(
                [knn[node], np.asarray(incoming[node], dtype=np.int64)]
            )) if incoming[node] else knn[node]
            merged = merged[merged != node]
            if len(merged) > self.outdegree_limit:
                dists = block_distances(arr[node], arr[merged], self.metric)
                ids, _ = topk_smallest(dists, self.outdegree_limit)
                merged = merged[ids]
            graph.append(merged.astype(np.int64))

        rng = np.random.default_rng(self.seed)
        count = min(self.num_seeds, n)
        self._seeds = rng.choice(n, size=count, replace=False)
        ensure_connected(graph, arr, int(self._seeds[0]), self.metric)
        self._graph = graph
        self.ntotal = n
        self.is_built = True

    def _walk(self, q: np.ndarray, ef: int) -> list[int]:
        seed_dists = block_distances(q, self._data[self._seeds], self.metric)
        self.stats.float_comparisons += len(self._seeds)
        # Enter from the few best seeds (the role of NGT's VP-tree):
        # multiple entries keep clustered datasets fully reachable.
        take = min(4, len(self._seeds))
        order = np.argsort(seed_dists, kind="stable")[:take]
        entries = [int(self._seeds[i]) for i in order]
        return beam_search(self._graph, self._data, q, entries, ef,
                           self.metric, self.stats)[0]
