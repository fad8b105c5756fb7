"""Inverted multi-index (IMI).

Babenko & Lempitsky's IMI splits vectors into two halves and trains a
codebook per half; the cross product of the two codebooks induces a much
finer partition (``k^2`` cells from two ``k``-word codebooks) than a single
IVF of the same training cost.  A query visits cells in order of the summed
half-distances (the multi-sequence order) until enough candidates are
gathered, then scores them exactly.

:class:`ImiBucketer` is that partition as a bucketer of the bucketed index
(:mod:`repro.index.ivf`): the non-empty cells are the lists.  ``IMI`` is
imi x flat; what is its own is the stopping rule, a probe width worked out
from the sizes of the cells in visiting order.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import SearchStats, positive_int, register_index
from repro.index.distances import squared_l2
from repro.index.ivf import BucketedIndex, FlatCodec
from repro.index.kmeans import kmeans


class ImiBucketer:
    """Two half-codebooks; their non-empty product cells are the lists.

    Euclidean only: ranking cells by the *sum* of the two half-distances
    is ranking them by distance to the cell's centre only when the metric
    is additive over the halves, which squared L2 is and inner product and
    cosine are not.
    """

    def __init__(self, metric: MetricType, dim: int, ksub: int = 16,
                 seed: int = 0) -> None:
        if metric is not MetricType.EUCLIDEAN:
            raise IndexBuildError(
                f"IMI cells are ranked by additive squared-L2 halves: "
                f"Euclidean only, got {metric.value}")
        if dim % 2 != 0:
            raise IndexBuildError(f"IMI needs an even dim, got {dim}")
        self.metric = metric
        self.half = dim // 2
        self.ksub = positive_int("ksub", ksub)
        self.seed = seed
        self.num_buckets = 0
        self._books: list[np.ndarray] = []
        #: ``(k1, k2)`` cell -> list number, ``-1`` for an empty cell.
        self._cell_list: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> np.ndarray:
        ksub = min(self.ksub, data.shape[0])
        first = kmeans(data[:, :self.half], ksub, seed=self.seed)
        second = kmeans(data[:, self.half:], ksub, seed=self.seed + 1)
        self._books = [first.centroids, second.centroids]
        cells, assignments = np.unique(
            first.assignments * second.k + second.assignments,
            return_inverse=True)
        self._cell_list = np.full(first.k * second.k, -1, dtype=np.int64)
        self._cell_list[cells] = np.arange(len(cells))
        self.num_buckets = len(cells)
        return assignments

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        """The first ``nprobe`` non-empty cells in multi-sequence order.

        The multi-sequence algorithm pops cells ``(i, j)`` — ``i``-th
        nearest first-half word with ``j``-th nearest second-half word —
        from a heap keyed ``(d1[i] + d2[j], i, j)``, pushing ``(i + 1, j)``
        and ``(i, j + 1)`` as it goes.  Both half-distance rows ascend and
        float addition is monotone, so a cell's predecessors never key
        above it and the pops come out in sorted key order: one stable
        sort of the sums, laid out ``i``-major, visits the cells exactly
        as the heap would, ties included, for the whole block.
        """
        d1 = squared_l2(queries[:, :self.half], self._books[0])
        d2 = squared_l2(queries[:, self.half:], self._books[1])
        stats.float_comparisons += d1.size + d2.size
        row = np.arange(queries.shape[0])[:, None]
        near1 = np.argsort(d1, axis=1, kind="stable")
        near2 = np.argsort(d2, axis=1, kind="stable")
        sums = d1[row, near1][:, :, None] + d2[row, near2][:, None, :]
        visit = np.argsort(sums.reshape(len(row), -1), axis=1,
                           kind="stable")
        i, j = np.divmod(visit, d2.shape[1])
        lists = self._cell_list[near1[row, i] * d2.shape[1]
                                + near2[row, j]]
        # Empty cells out of the way, the others' order kept.
        nonempty_first = np.argsort(lists < 0, axis=1, kind="stable")
        return lists[row,
                     nonempty_first[:, :min(nprobe, self.num_buckets)]]


@register_index("IMI")
class ImiIndex(BucketedIndex):
    """Two-codebook inverted multi-index with multi-sequence traversal."""

    def __init__(self, metric: MetricType, dim: int, ksub: int = 32,
                 candidate_factor: int = 8, seed: int = 0) -> None:
        super().__init__(metric, dim, ImiBucketer(metric, dim, ksub, seed),
                         FlatCodec(metric), nprobe=None)
        self.ksub = ksub
        self.candidate_factor = candidate_factor

    def _probe(self, queries: np.ndarray, k: int,
               nprobe: int | None) -> np.ndarray:
        """Cells in visiting order until ``k * candidate_factor``
        candidates are gathered: a cell is scanned when the cells before
        it hold fewer than that."""
        want = max(k * self.candidate_factor, k)
        cells = self.bucketer.probe(queries, self.bucketer.num_buckets,
                                    self.stats)
        sizes = self._lists.sizes[cells]
        scanned = np.cumsum(sizes, axis=1) - sizes < want
        return np.where(scanned, cells, -1)[:, :int(scanned.sum(axis=1)
                                                    .max(initial=0))]

    def search(self, queries: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        return super().search(queries, k)
