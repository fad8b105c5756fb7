"""IVF-HNSW: inverted file whose coarse quantizer is an HNSW graph.

With many clusters (large ``nlist``), finding the nearest centroids by
brute force starts to dominate; IVF-HNSW navigates an HNSW graph *over the
centroids* (:class:`~repro.index.ivf.GraphBucketer`) so probing costs
~``ef`` comparisons instead of ``nlist``.  Lists hold raw vectors and are
scanned exactly: graph x flat.
"""

from __future__ import annotations

from repro.core.schema import MetricType
from repro.index.base import register_index
from repro.index.ivf import BucketedIndex, FlatCodec, GraphBucketer


@register_index("IVF_HNSW")
class IvfHnswIndex(BucketedIndex):
    """IVF with an HNSW-navigated centroid set."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 256,
                 nprobe: int = 8, M: int = 8, ef_search: int = 32,
                 seed: int = 0) -> None:
        super().__init__(metric, dim,
                         GraphBucketer(metric, dim, nlist, M=M,
                                       ef_search=ef_search, seed=seed),
                         FlatCodec(metric), nprobe)
        self.nlist = nlist
