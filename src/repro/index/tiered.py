"""Hierarchical storage-aware index (the paper's future-work direction, §7).

"Current vector search index assumes a single type of storage ... We will
explore indexes that can jointly utilize all devices on the storage
hierarchy.  For example, most applications have some hot vectors (e.g.,
popular products in e-commerce) that are frequently accessed by search
requests, which can be placed in fast storage."

:class:`TieredIndex` keeps a **hot tier** of frequently returned vectors
in DRAM (raw float32, searched exactly) and the **cold tier** on SSD (the
Section 4.4 bucketed index).  A query scans the hot tier plus a reduced
SSD probe; an exponentially decayed access counter tracks popularity and
:meth:`rebalance` promotes the most accessed vectors (demoting the
coldest) — the "popular products" adaptation loop.  Hits from both tiers
are merged exactly; ids always refer to the original build matrix, so the
tiering is invisible to callers.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import VectorIndex, register_index
from repro.index.distances import adjusted_distances, first_k_distinct, \
    topk_smallest
from repro.index.ssd import SsdIndex


@register_index("TIERED")
class TieredIndex(VectorIndex):
    """Hot DRAM tier + cold SSD tier with popularity-driven promotion."""

    def __init__(self, metric: MetricType, dim: int,
                 hot_fraction: float = 0.1, nprobe: int = 8,
                 replicas: int = 1, decay: float = 0.95,
                 seed: int = 0) -> None:
        super().__init__(metric, dim)
        if not 0.0 < hot_fraction < 1.0:
            raise IndexBuildError(
                f"hot_fraction must be in (0, 1), got {hot_fraction}")
        self.hot_fraction = hot_fraction
        self.nprobe = nprobe
        self.decay = decay
        self._cold = SsdIndex(metric, dim, nprobe=nprobe,
                              replicas=replicas, seed=seed)
        self._data: np.ndarray | None = None
        self._hot_ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._access: np.ndarray | None = None
        self.promotions = 0

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        self._data = arr
        self._cold.build(arr)
        self._access = np.zeros(arr.shape[0], dtype=np.float64)
        # Initial hot set: uniform sample (no access history yet).
        hot_n = max(1, int(arr.shape[0] * self.hot_fraction))
        rng = np.random.default_rng(0)
        self._hot_ids = np.sort(rng.choice(arr.shape[0], hot_n,
                                           replace=False)).astype(np.int64)
        self.ntotal = arr.shape[0]
        self.is_built = True

    @property
    def hot_size(self) -> int:
        return len(self._hot_ids)

    def hot_set(self) -> np.ndarray:
        return self._hot_ids.copy()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        self.stats.reset()

        cold_ids, cold_dists = self._cold.search(queries, k, nprobe=nprobe)
        self.stats.add(self._cold.stats)

        hot_dists = adjusted_distances(queries, self._data[self._hot_ids],
                                       self.metric)
        self.stats.float_comparisons += hot_dists.size
        hot_idx, hot_vals = topk_smallest(hot_dists, k)

        # Both tiers side by side, each row sorted by distance (hot first
        # among equals); a vector found by both keeps its better entry.
        ids = np.concatenate([self._hot_ids[hot_idx], cold_ids], axis=1)
        dists = np.concatenate([hot_vals, cold_dists], axis=1)
        by_dist = np.argsort(dists, axis=1, kind="stable")
        ids, dists = first_k_distinct(
            np.take_along_axis(ids, by_dist, axis=1),
            np.take_along_axis(dists, by_dist, axis=1), k)
        np.add.at(self._access, ids[ids >= 0], 1.0)
        return self._pad_results(ids, dists, k)

    # ------------------------------------------------------------------
    # popularity adaptation
    # ------------------------------------------------------------------

    def rebalance(self) -> int:
        """Promote the most-accessed vectors into the hot tier.

        Returns how many hot slots changed.  Access counters decay so the
        hot set tracks *recent* popularity.
        """
        if self._access is None:
            raise IndexBuildError("index not built")
        hot_n = len(self._hot_ids)
        new_hot = np.sort(np.argsort(-self._access, kind="stable")[:hot_n]
                          ).astype(np.int64)
        changed = len(set(new_hot.tolist())
                      - set(self._hot_ids.tolist()))
        self._hot_ids = new_hot
        self._access *= self.decay
        self.promotions += changed
        return changed

    def dram_bytes(self) -> int:
        """Hot-tier vectors plus the cold tier's centroid directory."""
        return (len(self._hot_ids) * self.dim * 4
                + self._cold.dram_bytes())

    def hot_hit_fraction(self, queries: np.ndarray, k: int) -> float:
        """Fraction of final results served from the hot tier."""
        queries = self._check_query_input(queries)
        ids, _ = self.search(queries, k)
        hot = set(self._hot_ids.tolist())
        valid = ids[ids >= 0]
        if valid.size == 0:
            return 0.0
        return float(np.isin(valid, list(hot)).mean())
