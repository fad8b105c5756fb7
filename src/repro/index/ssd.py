"""SSD index (Section 4.4) — the NeurIPS'21 track-2 winning design.

Large collections live on SSD; only bucket *centroids* stay in DRAM:

* vectors are grouped by hierarchical balanced k-means into buckets sized to
  fit 4 KB-aligned SSD blocks (vectors are SQ-compressed to 1 byte/dim, so
  a 128-d vector bucket holds ~32 vectors per block);
* bucket centroids are indexed in DRAM with an existing in-memory index
  (HNSW by default) so picking buckets is cheap;
* a query finds the ``nprobe`` most similar centroids, "reads" those buckets
  from SSD (every read counted in 4 KB blocks for the cost model), decodes
  and reranks exactly;
* **multi-assignment**: hierarchical k-means runs ``replicas`` times with
  different seeds, so each vector lands in several buckets — the LSH-style
  replication that recovers recall lost when k-means splits a query's true
  neighbours across buckets.  Duplicate hits are removed at rerank.

As a bucketed index (:mod:`repro.index.ivf`) this is
:class:`BalancedBucketer` x sq: buckets are lists.  What is its own is the
block accounting (every probed bucket is ``blocks_per_bucket`` reads) and
the duplicate removal after the top-k.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import SearchStats, positive_int, register_index
from repro.index.distances import first_k_distinct
from repro.index.ivf import BucketedIndex, GraphBucketer, KMeansBucketer
from repro.index.kmeans import hierarchical_balanced_kmeans
from repro.index.sq import ScalarQuantizer

BLOCK_BYTES = 4096


class BalancedBucketer(GraphBucketer):
    """Hierarchical balanced k-means into buckets of at most ``capacity``
    rows, run ``replicas`` times with different seeds so every row lands
    in ``replicas`` buckets; the bucket centroids — all that stays in
    DRAM — are navigated with an HNSW graph, or scanned flat when there
    is only a handful or ``navigate`` is off.  (The inherited ``nlist`` is
    unused: the number of buckets follows from ``capacity``.)"""

    def __init__(self, metric: MetricType, dim: int, capacity: int,
                 replicas: int, navigate: bool, ef_search: int,
                 seed: int) -> None:
        super().__init__(metric, dim, M=16, ef_search=ef_search, seed=seed)
        self.capacity = capacity
        self.replicas = positive_int("replicas", replicas)
        self.navigate = navigate

    def _partition(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        runs = [hierarchical_balanced_kmeans(
            data, max_cluster_size=self.capacity,
            seed=self.seed + 1009 * replica)
            for replica in range(self.replicas)]
        firsts = np.cumsum([0] + [run.k for run in runs[:-1]])
        return (np.concatenate([run.centroids for run in runs]),
                np.stack([run.assignments + first
                          for run, first in zip(runs, firsts)]))

    def fit(self, data: np.ndarray) -> np.ndarray:
        assignments = KMeansBucketer.fit(self, data)
        if self.navigate and self.num_buckets > 8:
            self.graph.build(self.centroids)
        return assignments

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        if not self.graph.is_built:
            return KMeansBucketer.probe(self, queries, nprobe, stats)
        return super().probe(queries, nprobe, stats)


@register_index("SSD")
class SsdIndex(BucketedIndex):
    """Bucketed, SQ-compressed, SSD-resident index with multi-assignment."""

    def __init__(self, metric: MetricType, dim: int, nprobe: int = 8,
                 replicas: int = 2, centroid_index: str = "HNSW",
                 seed: int = 0) -> None:
        self.centroid_index_type = centroid_index.upper()
        # One SQ-coded byte per dimension: how many vectors fit in a block.
        self.bucket_capacity = max(1, BLOCK_BYTES // dim)
        self.blocks_per_bucket = max(1, -(-dim // BLOCK_BYTES))
        self.sq = ScalarQuantizer(dim)
        nprobe = positive_int("nprobe", nprobe)
        super().__init__(
            metric, dim,
            BalancedBucketer(metric, dim, self.bucket_capacity, replicas,
                             self.centroid_index_type == "HNSW",
                             max(64, 4 * nprobe), seed),
            self.sq, nprobe)
        self.replicas = replicas

    @property
    def num_buckets(self) -> int:
        return self.bucketer.num_buckets

    def bucket_sizes(self) -> np.ndarray:
        """Bucket occupancies; all must be <= bucket_capacity (tested)."""
        return self.list_sizes()

    def _probe(self, queries: np.ndarray, k: int,
               nprobe: int | None) -> np.ndarray:
        # Stage 1: pick buckets by centroid similarity (DRAM); stage 2
        # fetches each of them from SSD, whole blocks at a time.
        buckets = super()._probe(queries, k, nprobe)
        self.stats.ssd_blocks_read += (int((buckets >= 0).sum())
                                       * self.blocks_per_bucket)
        return buckets

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        # A vector sits in ``replicas`` buckets, so the best ``k`` distinct
        # vectors are among the best ``k * replicas`` candidates.
        ids, dists = super().search(queries, k * self.replicas, nprobe)
        return first_k_distinct(ids, dists, k)

    def dram_bytes(self) -> int:
        """DRAM footprint: centroids only (the design's headline saving)."""
        return self.bucketer.centroids.nbytes

    def ssd_bytes(self) -> int:
        """SSD footprint: all buckets at block granularity."""
        return self.num_buckets * self.blocks_per_bucket * BLOCK_BYTES
