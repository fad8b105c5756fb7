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
    for Euclidean ``|v|^2 / 2`` rides along as one more column, so that
    ``[-q, 1] . [v, |v|^2 / 2]`` is the rank score in one GEMM; cosine
    stores unit-normalised rows; inner product stores the rows as they
    are.  The score (``|v|^2 / 2 - q.v`` or ``-q.v``) is monotone in the
    adjusted distance, and only the ``k`` winners are converted back.
    """

    def __init__(self, data: np.ndarray, assignments: np.ndarray,
                 nlist: int, metric: MetricType) -> None:
        order = np.argsort(assignments, kind="stable")
        self.metric = metric
        self.ids = order.astype(np.int64, copy=False)
        self.offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(assignments, minlength=nlist),
                  out=self.offsets[1:])
        self.max_list_size = int(np.diff(self.offsets).max())
        vectors = data[order]
        if metric is MetricType.EUCLIDEAN:
            half_norms = 0.5 * np.einsum("ij,ij->i", vectors, vectors)
            vectors = np.concatenate([vectors, half_norms[:, None]], axis=1)
        elif metric is MetricType.COSINE:
            vectors /= nonzero_norms(vectors)
        self.vectors = vectors

    @property
    def nlist(self) -> int:
        return len(self.offsets) - 1

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def scan(self, queries: np.ndarray, probe_lists: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact top-``k`` of each query over the lists it probes.

        ``probe_lists`` is ``(nq, nprobe)`` list numbers, ``-1`` where a
        query probes fewer.  Returns ``(ids, adjusted distances, vector
        comparisons performed)`` with result rows tail-padded by ``-1`` /
        ``+inf`` to width ``k``.
        """
        nq, nprobe = probe_lists.shape
        ids = np.full((nq, k), -1, dtype=np.int64)
        dists = np.full((nq, k), np.inf, dtype=np.float32)
        step = max(1, _SCAN_BLOCK_FLOATS // (nprobe * self.max_list_size))
        compared = 0
        for start in range(0, nq, step):
            stop = start + step
            compared += self._scan_block(
                queries[start:stop], probe_lists[start:stop],
                ids[start:stop], dists[start:stop])
        return ids, dists, compared

    def _scan_block(self, queries: np.ndarray, probe_lists: np.ndarray,
                    ids_out: np.ndarray, dists_out: np.ndarray) -> int:
        """Scan one query block list-major; fills the output rows."""
        nq, nprobe = probe_lists.shape
        offsets, vectors = self.offsets, self.vectors
        # Group the (query, probed list) pairs by list: pair ``p`` is
        # query ``p // nprobe``, and ``order`` lists the pairs list by list.
        pairs = probe_lists.reshape(-1)
        order = np.argsort(pairs, kind="stable")
        grouped = pairs[order]
        starts = [0] + (np.flatnonzero(grouped[1:] != grouped[:-1])
                        + 1).tolist()
        lists = grouped[starts]
        # A ``-1`` pair reads offsets[-1] then offsets[0]: a negative size.
        lows = offsets[lists]
        sizes = offsets[lists + 1] - lows
        width = int(sizes.max())
        if width <= 0 or not ids_out.shape[1]:
            return 0

        if self.metric is MetricType.EUCLIDEAN:
            left = np.ones((nq, vectors.shape[1]), dtype=np.float32)
            np.negative(queries, out=left[:, :-1])
        elif self.metric is MetricType.COSINE:
            left = queries / -nonzero_norms(queries)
        else:
            left = -queries
        left = left[order // nprobe]
        # One block row per pair, in list order, so each list's scores are
        # one GEMM written straight into a rectangular slice of the block.
        block = np.full((len(order), width), np.inf, dtype=np.float32)
        compared = 0
        begin = 0
        for end, low, size in zip(starts[1:] + [len(order)],
                                  lows.tolist(), sizes.tolist()):
            if size > 0:
                np.matmul(left[begin:end], vectors[low:low + size].T,
                          out=block[begin:end, :size])
                compared += (end - begin) * size
            begin = end

        # Back to query order: a query's pairs side by side make its
        # candidate row, and one batched top-k picks the winners.
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        cols, scores = topk_smallest(
            block[inverse].reshape(nq, nprobe * width), ids_out.shape[1])
        slot, within = np.divmod(cols, width)
        probed = pairs[slot + np.arange(0, nq * nprobe, nprobe)[:, None]]
        low = offsets[probed]
        found = within < offsets[probed + 1] - low   # not block padding
        have = cols.shape[1]
        ids_out[:, :have] = np.where(
            found, self.ids[np.where(found, low + within, 0)], -1)
        if self.metric is MetricType.EUCLIDEAN:
            # |q - v|^2 = |q|^2 + 2 (|v|^2 / 2 - q.v)
            scores *= 2.0
            scores += np.einsum("ij,ij->i", queries, queries)[:, None]
            np.maximum(scores, 0.0, out=scores)
        dists_out[:, :have] = scores
        return compared


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
        return self._lists.sizes()
