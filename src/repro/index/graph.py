"""The one walk of the proximity graphs (HNSW, NSG, NGT).

:func:`beam_search` is the best-first beam every graph index runs: HNSW on
each layer at build and at search (and so IVF_HNSW's and SSD's centroid
graphs), NSG at build and at search, NGT at search.  It scores with
:func:`~repro.index.distances.block_distances`, marks visited nodes in a
numpy mask and counts its work in a :class:`SearchStats`.
:class:`GraphIndex` is the one query loop around it.  Also here: exact
k-NN graph construction (blocked brute force, fine at the scales of our
experiments) and the reachability repair NSG and NGT finish their builds
with.
"""

from __future__ import annotations

import abc
import heapq

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import SearchStats, VectorIndex, positive_int
from repro.index.distances import adjusted_distances, block_distances, \
    topk_smallest


def exact_knn_graph(data: np.ndarray, k: int, metric: MetricType,
                    block: int = 1024) -> list[np.ndarray]:
    """Adjacency list of each point's exact k nearest neighbours (no self).

    Computed in row blocks to bound peak memory at ``block * n`` floats.
    """
    n = data.shape[0]
    k = min(k, n - 1)
    adjacency: list[np.ndarray] = []
    for start in range(0, n, block):
        stop = min(start + block, n)
        dists = adjusted_distances(data[start:stop], data, metric)
        rows = np.arange(start, stop)
        dists[np.arange(stop - start), rows] = np.inf  # exclude self
        ids, _ = topk_smallest(dists, k)
        for row in range(stop - start):
            adjacency.append(ids[row].astype(np.int64))
    return adjacency


def beam_search(graph, data: np.ndarray, q: np.ndarray, entries: list[int],
                ef: int, metric: MetricType, stats: SearchStats
                ) -> tuple[list[int], np.ndarray]:
    """Best-first beam of width ``ef`` from ``entries`` over ``graph``.

    ``graph[node]`` is a node's out-neighbours: an HNSW layer's dict of
    lists or NSG's / NGT's list of arrays.  Returns the ids the beam ends
    with, nearest first, and the mask of every node whose distance was
    evaluated — NSG's build draws its candidate pool from it.
    """
    visited = np.zeros(len(data), dtype=bool)
    eps = list(dict.fromkeys(entries))
    dists = block_distances(q, data[eps], metric)
    stats.float_comparisons += len(eps)
    visited[eps] = True
    candidates = list(zip(dists.tolist(), eps))
    heapq.heapify(candidates)
    results = [(-d, e) for d, e in candidates]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)
    while candidates:
        dist, node = heapq.heappop(candidates)
        if dist > -results[0][0] and len(results) >= ef:
            break
        neigh = np.asarray(graph[node], dtype=np.int64)
        fresh = neigh[~visited[neigh]]
        if not len(fresh):
            continue
        visited[fresh] = True
        fresh_dists = block_distances(q, data[fresh], metric)
        stats.float_comparisons += len(fresh)
        stats.graph_hops += 1
        worst = -results[0][0]
        full = len(results) >= ef
        for fd, fn in zip(fresh_dists.tolist(), fresh.tolist()):
            if not full or fd < worst:
                heapq.heappush(candidates, (fd, fn))
                heapq.heappush(results, (-fd, fn))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]
                full = len(results) >= ef
    ordered = sorted((-d, node) for d, node in results)
    return [node for _, node in ordered], visited


class GraphIndex(VectorIndex):
    """A proximity graph over its build rows, searched one query at a time.

    A subclass keeps its rows in ``_data`` and its default beam width in
    ``ef_search``, and says in :meth:`_walk` how one query reaches its
    nearest nodes.  The ``k`` it keeps are re-scored against the query.
    """

    _data: np.ndarray
    ef_search: int

    @abc.abstractmethod
    def _walk(self, q: np.ndarray, ef: int) -> list[int]:
        """The ids a beam of width ``ef`` ends with, nearest first."""

    def search(self, queries: np.ndarray, k: int,
               ef_search: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        if ef_search is not None:
            positive_int("ef_search", ef_search)
        ef = max(ef_search or self.ef_search, k)
        self.stats.reset()
        nq = queries.shape[0]
        all_ids = np.full((nq, k), -1, dtype=np.int64)
        all_dists = np.full((nq, k), np.inf, dtype=np.float32)
        for qi, q in enumerate(queries):
            found = self._walk(q, ef)[:k]
            if found:
                all_ids[qi, :len(found)] = found
                all_dists[qi, :len(found)] = block_distances(
                    q, self._data[found], self.metric)
        return all_ids, all_dists


def ensure_connected(graph: list[np.ndarray], data: np.ndarray,
                     root: int, metric: MetricType) -> None:
    """Graft unreachable nodes onto the component of ``root`` (in place).

    BFS from the root; every unreachable node gets an edge from its nearest
    reachable neighbour — the spanning step NSG uses to guarantee every
    point can be found from the navigating node.
    """
    n = len(graph)
    seen = np.zeros(n, dtype=bool)
    frontier = [root]
    seen[root] = True
    while frontier:
        nxt: list[int] = []
        for node in frontier:
            for nb in graph[node]:
                nb = int(nb)
                if not seen[nb]:
                    seen[nb] = True
                    nxt.append(nb)
        frontier = nxt
    unreachable = np.flatnonzero(~seen)
    if not len(unreachable):
        return
    reachable = np.flatnonzero(seen)
    for node in unreachable:
        dists = block_distances(data[node], data[reachable], metric)
        anchor = int(reachable[int(dists.argmin())])
        graph[anchor] = np.append(graph[anchor], node)
        # Newly attached nodes become reachable anchors for later ones.
        reachable = np.append(reachable, node)
