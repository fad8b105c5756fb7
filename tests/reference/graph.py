"""The graph walks before HNSW, NSG and NGT shared one: ``graph.py``'s
set-based beam, ``HnswIndex._search_layer`` with its ``_dist_block``
kernel, and each type's own per-query loop, copied verbatim from the
commit that replaced them.  :class:`ParentHnswIndex`,
:class:`ParentNsgIndex` and :class:`ParentNgtIndex` put them back into
the current classes (every method the change rewrote), so an index
built from one of them builds and searches as the former index did;
``tests/test_graph_walk_reference.py`` holds the two equal.  A bucketer's
centroid graph takes the former walk when ``repro.index.ivf.HnswIndex``
is patched to :class:`ParentHnswIndex`."""

import heapq

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import SearchStats
from repro.index.distances import adjusted_distances, topk_smallest
from repro.index.graph import exact_knn_graph
from repro.index.hnsw import HnswIndex
from repro.index.ngt import NgtIndex
from repro.index.nsg import NsgIndex


def _dist_block(q: np.ndarray, block: np.ndarray,
                metric: MetricType) -> np.ndarray:
    """Adjusted distances of one query against a small candidate block."""
    if metric is MetricType.EUCLIDEAN:
        diff = block - q
        return np.einsum("ij,ij->i", diff, diff)
    if metric is MetricType.INNER_PRODUCT:
        return -(block @ q)
    # cosine
    qn = q / (np.linalg.norm(q) or 1.0)
    norms = np.linalg.norm(block, axis=1)
    norms[norms == 0] = 1.0
    return -((block @ qn) / norms)


def beam_search(graph: list[np.ndarray], data: np.ndarray, q: np.ndarray,
                entries: list[int], ef: int, metric: MetricType,
                stats: SearchStats,
                visited_out: set | None = None) -> list[tuple[float, int]]:
    """Best-first beam over a flat graph; returns (distance, id) ascending.

    ``visited_out``, when given, collects every node whose distance was
    evaluated — graph constructions (NSG/Vamana) use the visited set as
    the candidate pool for edge selection.
    """
    eps = np.asarray(sorted(set(entries)), dtype=np.int64)
    dists = adjusted_distances(q, data[eps], metric)[0]
    stats.float_comparisons += len(eps)
    visited = set(int(e) for e in eps)
    candidates = [(float(d), int(e)) for d, e in zip(dists, eps)]
    heapq.heapify(candidates)
    results = [(-float(d), int(e)) for d, e in zip(dists, eps)]
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)
    while candidates:
        dist, node = heapq.heappop(candidates)
        worst = -results[0][0]
        if dist > worst and len(results) >= ef:
            break
        fresh = np.asarray([x for x in graph[node] if int(x) not in visited],
                           dtype=np.int64)
        if not len(fresh):
            continue
        visited.update(int(x) for x in fresh)
        fresh_dists = adjusted_distances(q, data[fresh], metric)[0]
        stats.float_comparisons += len(fresh)
        stats.graph_hops += 1
        worst = -results[0][0]
        for fd, fn in zip(fresh_dists, fresh):
            fd = float(fd)
            fn = int(fn)
            if len(results) < ef or fd < worst:
                heapq.heappush(candidates, (fd, fn))
                heapq.heappush(results, (-fd, fn))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]
    if visited_out is not None:
        visited_out.update(visited)
    return sorted((-d, node) for d, node in results)


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
        dists = adjusted_distances(data[node], data[reachable], metric)[0]
        anchor = int(reachable[int(dists.argmin())])
        graph[anchor] = np.append(graph[anchor], node)
        # Newly attached nodes become reachable anchors for later ones.
        reachable = np.append(reachable, node)


class ParentHnswIndex(HnswIndex):
    """HNSW with the former layer beam, kernel and query loop."""

    def _dist(self, q: np.ndarray, ids) -> np.ndarray:
        block = self._data[np.asarray(ids, dtype=np.int64)]
        return _dist_block(q, block, self.metric)

    def _search_layer(self, q: np.ndarray, entry_points: list[int],
                      ef: int, level: int) -> list[int]:
        """Best-first beam of width ``ef``; returns ids sorted by distance."""
        graph = self._graph[level]
        visited = np.zeros(len(self._data), dtype=bool)
        eps = list(dict.fromkeys(entry_points))
        dists = self._dist(q, eps)
        self.stats.float_comparisons += len(eps)
        visited[eps] = True
        candidates = [(float(d), e) for d, e in zip(dists, eps)]
        heapq.heapify(candidates)
        results = [(-float(d), e) for d, e in zip(dists, eps)]
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)
        while candidates:
            dist, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if dist > worst and len(results) >= ef:
                break
            neigh = graph.get(node)
            if not neigh:
                continue
            neigh_arr = np.asarray(neigh, dtype=np.int64)
            fresh = neigh_arr[~visited[neigh_arr]]
            if not len(fresh):
                continue
            visited[fresh] = True
            fresh_dists = _dist_block(q, self._data[fresh], self.metric)
            self.stats.float_comparisons += len(fresh)
            self.stats.graph_hops += 1
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
        return [node for _, node in ordered]

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
        to_q = _dist_block(q, vecs, self.metric)
        self.stats.float_comparisons += len(cand)
        order = np.argsort(to_q, kind="stable")
        # Pairwise candidate distances in one shot (<= ef_construction^2).
        if self.metric is MetricType.EUCLIDEAN:
            sq = np.einsum("ij,ij->i", vecs, vecs)
            pairwise = sq[:, None] - 2.0 * (vecs @ vecs.T) + sq[None, :]
        elif self.metric is MetricType.INNER_PRODUCT:
            pairwise = -(vecs @ vecs.T)
        else:
            norms = np.linalg.norm(vecs, axis=1)
            norms[norms == 0] = 1.0
            unit = vecs / norms[:, None]
            pairwise = -(unit @ unit.T)
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

    def search(self, queries: np.ndarray, k: int,
               ef_search: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        ef = max(ef_search or self.ef_search, k)
        self.stats.reset()
        nq = queries.shape[0]
        all_ids = np.full((nq, k), -1, dtype=np.int64)
        all_dists = np.full((nq, k), np.inf, dtype=np.float32)
        for qi in range(nq):
            q = queries[qi]
            entry = self._entry
            for lvl in range(self._max_level, 0, -1):
                entry = self._greedy_step(q, entry, lvl)
            found = self._search_layer(q, [entry], ef, 0)[:k]
            if found:
                ids = np.asarray(found, dtype=np.int64)
                dists = self._dist(q, ids)
                all_ids[qi, :len(ids)] = ids
                all_dists[qi, :len(ids)] = dists
        return all_ids, all_dists


class ParentNsgIndex(NsgIndex):
    """NSG with the former build (set-based beam, GEMM-form distances)
    and query loop."""

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        self._data = arr
        n = arr.shape[0]
        knn = exact_knn_graph(arr, self.knn, self.metric)

        centroid = arr.mean(axis=0, keepdims=True)
        self._medoid = int(
            adjusted_distances(centroid, arr, self.metric)[0].argmin())

        graph: list[np.ndarray] = [nbrs[:self.out_degree].copy()
                                   for nbrs in knn]
        scratch = SearchStats()
        rng = np.random.default_rng(self.seed)
        for alpha in (1.0, self.alpha):
            order = rng.permutation(n)
            for node in order:
                node = int(node)
                visited: set[int] = set()
                beam_search(graph, arr, arr[node], [self._medoid],
                            self.ef_construction, self.metric, scratch,
                            visited_out=visited)
                pool = visited | set(int(x) for x in graph[node]) \
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
        dists = adjusted_distances(arr[node], arr[cand], self.metric)[0]
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
            to_kept = adjusted_distances(arr[cand[idx]],
                                         arr[cand[alive]],
                                         self.metric)[0]
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

    def search(self, queries: np.ndarray, k: int,
               ef_search: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        ef = max(ef_search or self.ef_search, k)
        self.stats.reset()
        nq = queries.shape[0]
        all_ids = np.full((nq, k), -1, dtype=np.int64)
        all_dists = np.full((nq, k), np.inf, dtype=np.float32)
        for qi in range(nq):
            found = beam_search(self._graph, self._data, queries[qi],
                                [self._medoid], ef, self.metric, self.stats)
            for col, (dist, node) in enumerate(found[:k]):
                all_ids[qi, col] = node
                all_dists[qi, col] = dist
        return all_ids, all_dists


class ParentNgtIndex(NgtIndex):
    """NGT with the former build and query loop."""

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
                dists = adjusted_distances(arr[node], arr[merged],
                                           self.metric)[0]
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

    def search(self, queries: np.ndarray, k: int,
               ef_search: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        ef = max(ef_search or self.ef_search, k)
        self.stats.reset()
        nq = queries.shape[0]
        all_ids = np.full((nq, k), -1, dtype=np.int64)
        all_dists = np.full((nq, k), np.inf, dtype=np.float32)
        for qi in range(nq):
            q = queries[qi]
            seed_dists = adjusted_distances(q, self._data[self._seeds],
                                            self.metric)[0]
            self.stats.float_comparisons += len(self._seeds)
            # Enter from the few best seeds (the role of NGT's VP-tree):
            # multiple entries keep clustered datasets fully reachable.
            take = min(4, len(self._seeds))
            order = np.argsort(seed_dists, kind="stable")[:take]
            entries = [int(self._seeds[i]) for i in order]
            found = beam_search(self._graph, self._data, q, entries,
                                ef, self.metric, self.stats)
            for col, (dist, node) in enumerate(found[:k]):
                all_ids[qi, col] = node
                all_dists[qi, col] = dist
        return all_ids, all_dists
