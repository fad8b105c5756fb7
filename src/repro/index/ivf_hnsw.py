"""IVF-HNSW: inverted file whose coarse quantizer is an HNSW graph.

With many clusters (large ``nlist``), finding the nearest centroids by
brute force starts to dominate; IVF-HNSW builds an HNSW graph *over the
centroids* so probing costs ~``ef`` comparisons instead of ``nlist``.
Lists hold raw vectors and are scanned exactly, by the storage and kernel
it shares with IVF-Flat (:class:`~repro.index.ivf.InvertedLists`).
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import VectorIndex, register_index
from repro.index.hnsw import HnswIndex
from repro.index.ivf import InvertedLists
from repro.index.kmeans import kmeans


@register_index("IVF_HNSW")
class IvfHnswIndex(VectorIndex):
    """IVF with an HNSW-navigated centroid set."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 256,
                 nprobe: int = 8, M: int = 8, ef_search: int = 32,
                 seed: int = 0) -> None:
        super().__init__(metric, dim)
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self._centroid_graph = HnswIndex(metric, dim, M=M,
                                         ef_search=ef_search, seed=seed)
        self._lists: InvertedLists | None = None

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        coarse = kmeans(arr, min(self.nlist, arr.shape[0]), seed=self.seed)
        self._centroid_graph.build(coarse.centroids)
        self._lists = InvertedLists(arr, coarse.assignments, coarse.k,
                                    self.metric)
        self.ntotal = arr.shape[0]
        self.is_built = True

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        nprobe = min(nprobe or self.nprobe, self._lists.nlist)
        self.stats.reset()
        # Navigate the centroid graph instead of scanning all centroids.
        probe_lists, _ = self._centroid_graph.search(queries, nprobe)
        self.stats.add(self._centroid_graph.stats)
        ids, dists, compared = self._lists.scan(queries, probe_lists, k)
        self.stats.float_comparisons += compared
        return ids, dists
