"""NSG: navigating spreading-out graph (Fu et al., VLDB'19).

NSG re-selects the edges of a k-NN graph so that, from a single
*navigating node* (the dataset medoid), there is a monotone path to every
point.  We implement the construction with the robust-prune rule of the
same monotonic-graph family (Vamana / DiskANN, itself derived from NSG's
MRNG rule):

1. start from each node's exact kNN edges (truncated to ``out_degree``);
2. for each node, beam-search the *current* graph from the medoid and use
   the visited set plus the kNN list as the candidate pool;
3. ``robust_prune`` keeps the closest candidate, discards candidates that
   are ``alpha`` times closer to a kept edge than to the node (diversity),
   and repeats until ``out_degree`` edges are chosen — ``alpha > 1``
   deliberately retains long-range edges;
4. every chosen edge is mirrored; overfull nodes are re-pruned;
5. two passes (``alpha = 1`` then the configured ``alpha``), then any node
   unreachable from the medoid is grafted on.

Search is a best-first beam from the navigating node.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import SearchStats, positive_int, register_index
from repro.index.distances import block_distances
from repro.index.graph import GraphIndex, beam_search, ensure_connected, \
    exact_knn_graph


@register_index("NSG")
class NsgIndex(GraphIndex):
    """Navigating spreading-out graph (robust-prune construction)."""

    def __init__(self, metric: MetricType, dim: int, knn: int = 24,
                 out_degree: int = 16, ef_search: int = 64,
                 ef_construction: int = 96, alpha: float = 1.2,
                 seed: int = 0) -> None:
        super().__init__(metric, dim)
        out_degree = positive_int("out_degree", out_degree)
        if out_degree < 2:
            raise IndexBuildError(f"out_degree must be >= 2, got {out_degree}")
        if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
                or not 1.0 <= alpha < math.inf):
            raise IndexBuildError(
                f"alpha must be a finite number >= 1, got {alpha!r}")
        self.knn = max(positive_int("knn", knn), out_degree)
        self.out_degree = out_degree
        self.ef_search = positive_int("ef_search", ef_search)
        self.ef_construction = max(
            positive_int("ef_construction", ef_construction), out_degree)
        self.alpha = alpha
        self.seed = seed
        self._data: np.ndarray | None = None
        self._graph: list[np.ndarray] = []
        self._medoid: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        self._data = arr
        n = arr.shape[0]
        knn = exact_knn_graph(arr, self.knn, self.metric)

        centroid = arr.mean(axis=0)
        self._medoid = int(
            block_distances(centroid, arr, self.metric).argmin())

        graph: list[np.ndarray] = [nbrs[:self.out_degree].copy()
                                   for nbrs in knn]
        scratch = SearchStats()
        rng = np.random.default_rng(self.seed)
        for alpha in (1.0, self.alpha):
            order = rng.permutation(n)
            for node in order:
                node = int(node)
                _, visited = beam_search(
                    graph, arr, arr[node], [self._medoid],
                    self.ef_construction, self.metric, scratch)
                pool = set(np.flatnonzero(visited).tolist()) \
                    | set(int(x) for x in graph[node]) \
                    | set(int(x) for x in knn[node])
                pool.discard(node)
                graph[node] = self._robust_prune(arr, node, pool, alpha)
                for nb in graph[node]:
                    nb = int(nb)
                    merged = np.append(graph[nb], node)
                    if len(merged) > self.out_degree:
                        graph[nb] = self._robust_prune(
                            arr, nb, set(int(x) for x in merged), alpha)
                    else:
                        graph[nb] = np.unique(merged)
        ensure_connected(graph, arr, self._medoid, self.metric)
        self._graph = graph
        self.ntotal = n
        self.is_built = True

    def _robust_prune(self, arr: np.ndarray, node: int, pool: set[int],
                      alpha: float) -> np.ndarray:
        """Vamana robust prune: diverse edges, long links kept by alpha."""
        pool = pool - {node}
        if not pool:
            return np.empty(0, dtype=np.int64)
        cand = np.asarray(sorted(pool), dtype=np.int64)
        dists = block_distances(arr[node], arr[cand], self.metric)
        order = np.argsort(dists, kind="stable")
        cand = cand[order]
        dists = dists[order]
        alive = np.ones(len(cand), dtype=bool)
        kept: list[int] = []
        for idx in range(len(cand)):
            if not alive[idx]:
                continue
            kept.append(int(cand[idx]))
            if len(kept) >= self.out_degree:
                break
            # Discard candidates much closer to the new edge than to node.
            to_kept = block_distances(arr[cand[idx]], arr[cand[alive]],
                                      self.metric)
            alive_idx = np.flatnonzero(alive)
            # Adjusted distances can be negative (IP); the alpha rule is
            # formulated on nonnegative distances, so shift both sides.
            shift = min(float(to_kept.min(initial=0.0)),
                        float(dists[alive].min(initial=0.0)), 0.0)
            discard = (alpha * (to_kept - shift)
                       <= (dists[alive] - shift))
            alive[alive_idx[discard]] = False
            alive[idx] = False
        return np.asarray(kept, dtype=np.int64)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _walk(self, q: np.ndarray, ef: int) -> list[int]:
        return beam_search(self._graph, self._data, q, [self._medoid], ef,
                           self.metric, self.stats)[0]

    @property
    def medoid(self) -> int:
        """The navigating node."""
        return self._medoid
