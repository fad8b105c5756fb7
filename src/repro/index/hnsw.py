"""HNSW: hierarchical navigable small world graph (Malkov & Yashunin).

The high-recall/low-latency proximity graph of Table 1 and the index whose
``M``/``ef`` knobs the paper's auto-configuration tool tunes.  Standard
construction: each node draws a geometric level; upper layers form coarse
navigation graphs and layer 0 holds up to ``2M`` neighbours per node chosen
with the select-neighbours heuristic; queries greedily descend the layers
and run a best-first beam of width ``ef_search`` at layer 0.

The implementation is tuned for pure Python: every layer's beam is the
shared walk of :mod:`repro.index.graph` (small-block distance kernel, numpy
visited mask), and the select-neighbours heuristic is vectorized over the
full candidate list — together these keep builds usable at the
10k-100k-vector scales of our experiments.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import positive_int, register_index
from repro.index.distances import adjusted_distances, block_distances
from repro.index.graph import GraphIndex, beam_search


@register_index("HNSW")
class HnswIndex(GraphIndex):
    """Hierarchical navigable small world graph."""

    def __init__(self, metric: MetricType, dim: int, M: int = 16,
                 ef_construction: int = 100, ef_search: int = 64,
                 seed: int = 0) -> None:
        super().__init__(metric, dim)
        M = positive_int("M", M)
        if M < 2:
            raise IndexBuildError(f"M must be >= 2, got {M}")
        self.M = M
        self.max_m0 = 2 * M
        self.ef_construction = max(
            positive_int("ef_construction", ef_construction), M)
        self.ef_search = positive_int("ef_search", ef_search)
        self.seed = seed
        self._ml = 1.0 / np.log(M)
        self._data: np.ndarray | None = None
        self._levels: np.ndarray | None = None
        # _graph[level][node] -> list[int] of neighbour ids
        self._graph: list[dict[int, list[int]]] = []
        self._entry: int = -1
        self._max_level: int = -1

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        rng = np.random.default_rng(self.seed)
        n = arr.shape[0]
        self._data = arr
        self._levels = np.floor(
            -np.log(rng.uniform(1e-12, 1.0, size=n)) * self._ml
        ).astype(np.int64)
        self._max_level = -1
        self._graph = []
        self._entry = -1
        for node in range(n):
            self._insert(node)
        self.ntotal = n
        self.is_built = True

    def _dist(self, q: np.ndarray, ids) -> np.ndarray:
        block = self._data[np.asarray(ids, dtype=np.int64)]
        return block_distances(q, block, self.metric)

    def _neighbors(self, level: int, node: int) -> list[int]:
        return self._graph[level].get(node, [])

    def _insert(self, node: int) -> None:
        level = int(self._levels[node])
        while len(self._graph) <= level:
            self._graph.append({})
        q = self._data[node]
        if self._entry < 0:
            for lvl in range(level + 1):
                self._graph[lvl][node] = []
            self._entry = node
            self._max_level = level
            return

        entry = self._entry
        for lvl in range(self._max_level, level, -1):
            entry = self._greedy_step(q, entry, lvl)
        eps = [entry]
        for lvl in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(q, eps, self.ef_construction, lvl)
            max_conn = self.max_m0 if lvl == 0 else self.M
            chosen = self._select_neighbors(q, candidates, max_conn)
            self._graph[lvl][node] = list(chosen)
            # Reverse edges are pruned lazily with 50% slack and the cheap
            # keep-closest rule (the "select simple" variant); the diversity
            # heuristic is reserved for the new node's own edges.  Slack
            # amortizes pruning cost without hurting navigability.
            slack = max_conn + max_conn // 2
            for other in chosen:
                bucket = self._graph[lvl].setdefault(other, [])
                bucket.append(node)
                if len(bucket) > slack:
                    self._graph[lvl][other] = self._keep_closest(
                        self._data[other], bucket, max_conn)
            eps = candidates
        for lvl in range(self._max_level + 1, level + 1):
            self._graph[lvl][node] = []
        if level > self._max_level:
            self._max_level = level
            self._entry = node

    def _greedy_step(self, q: np.ndarray, entry: int, level: int) -> int:
        """Walk to the local distance minimum on one layer."""
        current = entry
        current_dist = float(self._dist(q, [current])[0])
        self.stats.float_comparisons += 1
        while True:
            neigh = self._neighbors(level, current)
            if not neigh:
                break
            dists = self._dist(q, neigh)
            self.stats.float_comparisons += len(neigh)
            self.stats.graph_hops += 1
            best = int(dists.argmin())
            if dists[best] >= current_dist:
                break
            current = neigh[best]
            current_dist = float(dists[best])
        return current

    def _search_layer(self, q: np.ndarray, entry_points: list[int],
                      ef: int, level: int) -> list[int]:
        """Best-first beam of width ``ef``; returns ids sorted by distance."""
        return beam_search(self._graph[level], self._data, q, entry_points,
                           ef, self.metric, self.stats)[0]

    def _select_neighbors(self, q: np.ndarray, candidates: list[int],
                          m: int) -> list[int]:
        """Heuristic neighbour selection (keeps diverse edges).

        A candidate is kept only if it is closer to ``q`` than to every
        already-kept neighbour — the pruning rule from the HNSW paper that
        prevents clustered edges and preserves graph navigability.  The
        candidate-to-candidate distances are computed in one batch.
        """
        candidates = list(dict.fromkeys(candidates))
        if len(candidates) <= m:
            return candidates
        cand = np.asarray(candidates, dtype=np.int64)
        vecs = self._data[cand]
        to_q = block_distances(q, vecs, self.metric)
        self.stats.float_comparisons += len(cand)
        order = np.argsort(to_q, kind="stable")
        # Pairwise candidate distances in one shot (<= ef_construction^2).
        pairwise = adjusted_distances(vecs, vecs, self.metric)
        self.stats.float_comparisons += len(cand) * len(cand)

        kept: list[int] = []
        kept_pos: list[int] = []
        # Running minimum distance from each candidate to the kept set,
        # updated incrementally so the loop body is O(1) numpy work.
        min_to_kept = np.full(len(cand), np.inf, dtype=pairwise.dtype)
        for oi in order.tolist():
            if not kept_pos or to_q[oi] < min_to_kept[oi]:
                kept.append(int(cand[oi]))
                kept_pos.append(oi)
                np.minimum(min_to_kept, pairwise[oi], out=min_to_kept)
            if len(kept) >= m:
                break
        if len(kept) < m:
            chosen = set(kept_pos)
            for oi in order.tolist():
                if oi not in chosen:
                    kept.append(int(cand[oi]))
                    chosen.add(oi)
                if len(kept) >= m:
                    break
        return kept

    def _keep_closest(self, q: np.ndarray, candidates: list[int],
                      m: int) -> list[int]:
        """Keep the ``m`` nearest candidates (no diversity pruning)."""
        candidates = list(dict.fromkeys(candidates))
        if len(candidates) <= m:
            return candidates
        cand = np.asarray(candidates, dtype=np.int64)
        dists = block_distances(q, self._data[cand], self.metric)
        self.stats.float_comparisons += len(cand)
        keep = np.argpartition(dists, m - 1)[:m]
        return cand[keep].tolist()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _walk(self, q: np.ndarray, ef: int) -> list[int]:
        entry = self._entry
        for lvl in range(self._max_level, 0, -1):
            entry = self._greedy_step(q, entry, lvl)
        return self._search_layer(q, [entry], ef, 0)
