"""IVF-Flat: inverted file index over k-means clusters.

Vectors are grouped into ``nlist`` k-means clusters; a query scans only the
``nprobe`` clusters whose centroids are most similar ("inverted indexes
group vectors into clusters, and only scan the most promising clusters for
a query").  ``nprobe`` trades recall for speed and is the knob swept in the
Figure 8 reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import VectorIndex, register_index
from repro.index.distances import adjusted_distances, nonzero_norms, \
    topk_smallest
from repro.index.kmeans import kmeans


#: Cap on one scan's scratch score block, in float32 entries (16 MB).  A
#: query block that would need more is scanned in several passes.
_SCAN_BLOCK_FLOATS = 1 << 22


class InvertedLists:
    """Raw vectors grouped by list, scanned exactly and list by list.

    Rows are stored **sorted by list** in one matrix, so list ``c`` is the
    slice ``offsets[c]:offsets[c + 1]`` of ``vectors`` and of ``ids`` (the
    rows' positions in the build matrix) and a scan multiplies against it
    in place.  What does not depend on the query is computed once here:
    Euclidean keeps ``|v|^2`` per row in ``norms`` (list-sorted like the
    rows), cosine stores unit-normalised rows, inner product stores the
    rows as they are.  Distances are formed in the order
    :func:`~repro.index.distances.adjusted_distances` forms them, so a
    list scan returns what the exact scan returns for the same rows.
    """

    def __init__(self, data: np.ndarray, assignments: np.ndarray,
                 nlist: int, metric: MetricType) -> None:
        order = np.argsort(assignments, kind="stable")
        self.metric = metric
        self.ids = order.astype(np.int64, copy=False)
        self.offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(assignments, minlength=nlist),
                  out=self.offsets[1:])
        # One entry past the lists, like ``offsets``: list ``-1`` is empty.
        self.sizes = np.append(np.diff(self.offsets), 0)
        self.max_list_size = int(self.sizes.max())
        vectors = data[order]
        self.norms: np.ndarray | None = None
        if metric is MetricType.EUCLIDEAN:
            # Zero-padded by one list's length: see ``_scan_block``.
            self.norms = np.zeros(len(order) + self.max_list_size,
                                  dtype=np.float32)
            np.einsum("ij,ij->i", vectors, vectors,
                      out=self.norms[:len(order)])
        elif metric is MetricType.COSINE:
            vectors /= nonzero_norms(vectors)
        self.vectors = vectors

    @property
    def nlist(self) -> int:
        return len(self.offsets) - 1

    def scan(self, queries: np.ndarray, probe_lists: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact top-``k`` of each query over the lists it probes.

        ``probe_lists`` is ``(nq, nprobe)`` list numbers, ``-1`` where a
        query probes fewer.  Returns ``(ids, adjusted distances, vector
        comparisons performed)`` with result rows tail-padded by ``-1`` /
        ``+inf`` to width ``k``.
        """
        nq, nprobe = probe_lists.shape
        step = max(1, _SCAN_BLOCK_FLOATS // (nprobe * self.max_list_size))
        passes = [self._scan_block(queries[start:start + step],
                                   probe_lists[start:start + step], k)
                  for start in range(0, max(nq, 1), step)]
        if len(passes) == 1:
            return passes[0]
        ids, dists, compared = zip(*passes)
        return np.concatenate(ids), np.concatenate(dists), sum(compared)

    def _scan_block(self, queries: np.ndarray, probe_lists: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Scan one query block list-major; same returns as ``scan``."""
        nq, nprobe = probe_lists.shape
        vectors = self.vectors
        # Group the (query, probed list) pairs by list: pair ``p`` is
        # query ``p // nprobe``, and ``order`` lists the pairs list by list.
        pairs = probe_lists.reshape(-1)
        order = np.argsort(pairs, kind="stable")
        grouped = pairs[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        # Per pair; a ``-1`` pair reads the trailing entries: size 0.
        lows = self.offsets[grouped]
        sizes = self.sizes[grouped]
        width = int(sizes.max(initial=0)) if k > 0 else 0
        if width == 0:
            return (np.full((nq, k), -1, dtype=np.int64),
                    np.full((nq, k), np.inf, dtype=np.float32), 0)

        # Negating (or doubling) the left factor negates (doubles) every
        # product and partial sum exactly, so the GEMMs below yield
        # ``-q.v`` / ``-2 q.v`` with the bits of the exact scan's.
        if self.metric is MetricType.EUCLIDEAN:
            left = -2.0 * queries
        elif self.metric is MetricType.COSINE:
            left = queries / -nonzero_norms(queries)
        else:
            left = -queries
        pair_query = order // nprobe
        left = left[pair_query]
        # One block row per pair, in list order, so each list's products
        # are one GEMM written straight into a rectangular slice of it.
        block = np.full((len(order), width), np.inf, dtype=np.float32)
        low_of, size_of = lows.tolist(), sizes.tolist()
        for begin, end in zip([0] + cuts, cuts + [len(order)]):
            size = size_of[begin]
            if size:
                low = low_of[begin]
                np.matmul(left[begin:end], vectors[low:low + size].T,
                          out=block[begin:end, :size])
        if self.norms is not None:
            # (|q|^2 - 2 q.v) + |v|^2, the order ``squared_l2`` adds in.
            # Row ``r`` of ``windows`` is ``norms[r:r + width]``: a pair's
            # row of |v|^2 starts where its list starts, and what it
            # reads past the list's end lands on +inf padding.
            block += np.einsum("ij,ij->i", queries, queries)[pair_query,
                                                             None]
            windows = np.ndarray((len(self.ids) + 1, width), np.float32,
                                 self.norms, strides=self.norms.strides * 2)
            block += windows[lows]

        # Back to query order: a query's pairs side by side make its
        # candidate row, and one batched top-k picks the winners.
        candidates = np.empty_like(block)
        candidates[order] = block
        cols, dists = topk_smallest(
            candidates.reshape(nq, nprobe * width), k)
        slot, within = np.divmod(cols, width)
        probed = pairs[slot + np.arange(0, nq * nprobe, nprobe)[:, None]]
        found = dists < np.inf   # +inf is block padding
        ids = np.where(
            found,
            self.ids[np.where(found, self.offsets[probed] + within, 0)], -1)
        if self.norms is not None:
            np.maximum(dists, 0.0, out=dists)   # rounding below zero
        ids, dists = VectorIndex._pad_results(ids, dists, k)
        return ids, dists, int(sizes.sum())


@register_index("IVF_FLAT")
class IvfFlatIndex(VectorIndex):
    """Inverted file with exact in-cluster scan."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 nprobe: int = 8, seed: int = 0) -> None:
        super().__init__(metric, dim)
        if nlist <= 0:
            raise IndexBuildError(f"nlist must be positive, got {nlist}")
        if nprobe <= 0:
            raise IndexBuildError(f"nprobe must be positive, got {nprobe}")
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self._centroids: np.ndarray | None = None
        self._lists: InvertedLists | None = None

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        result = kmeans(arr, min(self.nlist, arr.shape[0]), seed=self.seed)
        self._centroids = result.centroids
        self._lists = InvertedLists(arr, result.assignments, result.k,
                                    self.metric)
        self.ntotal = arr.shape[0]
        self.is_built = True

    @property
    def effective_nlist(self) -> int:
        return self._lists.nlist if self._lists is not None else 0

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        nprobe = min(nprobe or self.nprobe, self.effective_nlist)
        self.stats.reset()

        centroid_dists = adjusted_distances(queries, self._centroids,
                                            self.metric)
        probe_lists, _ = topk_smallest(centroid_dists, nprobe)
        ids, dists, compared = self._lists.scan(queries, probe_lists, k)
        self.stats.float_comparisons += centroid_dists.size + compared
        return ids, dists

    def list_sizes(self) -> np.ndarray:
        """Cluster occupancy (diagnostics / balance tests)."""
        if self._lists is None:
            return np.zeros(0, dtype=np.int64)
        return self._lists.sizes[:-1]
