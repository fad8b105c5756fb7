"""Product quantization (PQ) and IVF-PQ.

PQ splits vectors into ``m`` subspaces and vector-quantizes each with its
own 256-centroid codebook, compressing a float32 vector to ``m`` bytes.
Search uses asymmetric distance computation (ADC): per query, a ``(m, 256)``
lookup table of subspace distances is built once and each database code is
scored with ``m`` table lookups — the quantized-comparison fast path of the
cost model.

:class:`ProductQuantizer` is the ``pq`` codec of the bucketed index
(:mod:`repro.index.ivf`): the tables are built once per query block and
gathered per probed list.  :class:`IvfPqIndex` is kmeans x PQ on the
*residuals* (vector minus its list's centroid), the classic Jegou et al.
construction — what is its own is the codec it composes,
:class:`ListResidualPq`.
"""

from __future__ import annotations

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError
from repro.index.base import positive_int, register_index
from repro.index.distances import adjusted_distances, squared_l2
from repro.index.ivf import BucketedIndex, ExhaustiveIndex, KMeansBucketer, \
    Scorer
from repro.index.kmeans import kmeans

#: Cap on one ADC gather, in float32 entries (16 MB): a long list is
#: scored a few queries at a time.
_ADC_BLOCK_FLOATS = 1 << 22


def effective_metric(metric: MetricType) -> MetricType:
    """Cosine is handled as inner product over normalized vectors.

    Per-subspace cosine does not compose into full-vector cosine, so
    PQ-based indexes normalize rows at build/search time and run IP math.
    """
    if metric is MetricType.COSINE:
        return MetricType.INNER_PRODUCT
    return metric


class ProductQuantizer:
    """PQ codec: train / encode / decode / ADC lookup tables."""

    quantized = True
    scores_cross_term = False   # the tables' sums are whole distances

    def __init__(self, dim: int, m: int = 8, nbits: int = 8,
                 seed: int = 0) -> None:
        if dim % positive_int("m", m) != 0:
            raise IndexBuildError(f"dim {dim} not divisible by m {m}")
        if not 1 <= nbits <= 8:
            raise IndexBuildError(f"nbits must be in [1, 8], got {nbits}")
        self.dim = dim
        self.m = m
        self.nbits = nbits
        self.ksub = 1 << nbits
        self.dsub = dim // m
        self.seed = seed
        self._codebooks: np.ndarray | None = None  # (m, ksub, dsub)
        self.is_trained = False

    def train(self, data: np.ndarray) -> None:
        """Learn one codebook per subspace with k-means."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.shape[1] != self.dim:
            raise IndexBuildError(
                f"PQ: expected dim {self.dim}, got {data.shape[1]}")
        ksub = min(self.ksub, data.shape[0])
        books = np.zeros((self.m, self.ksub, self.dsub), dtype=np.float32)
        for sub in range(self.m):
            chunk = data[:, sub * self.dsub:(sub + 1) * self.dsub]
            result = kmeans(chunk, ksub, seed=self.seed + sub)
            books[sub, :result.k] = result.centroids
            if result.k < self.ksub:
                # Unused codewords mirror the last real one so decode stays
                # well-defined for any byte value.
                books[sub, result.k:] = result.centroids[-1]
        self._codebooks = books
        self.is_trained = True

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Quantize ``(n, dim)`` vectors to ``(n, m)`` uint8 codes."""
        self._require_trained()
        data = np.ascontiguousarray(data, dtype=np.float32)
        n = data.shape[0]
        codes = np.empty((n, self.m), dtype=np.uint8)
        for sub in range(self.m):
            chunk = data[:, sub * self.dsub:(sub + 1) * self.dsub]
            dists = squared_l2(chunk, self._codebooks[sub])
            codes[:, sub] = dists.argmin(axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        self._require_trained()
        codes = np.asarray(codes, dtype=np.int64)
        n = codes.shape[0]
        out = np.empty((n, self.dim), dtype=np.float32)
        for sub in range(self.m):
            out[:, sub * self.dsub:(sub + 1) * self.dsub] = (
                self._codebooks[sub][codes[:, sub]])
        return out

    def adc_table(self, queries: np.ndarray,
                  metric: MetricType) -> np.ndarray:
        """Per-subspace lookup tables of adjusted distances.

        ``(nq, m, ksub)`` for a query block, ``(m, ksub)`` for one query.
        """
        self._require_trained()
        queries = np.asarray(queries, dtype=np.float32)
        block = queries.reshape(-1, self.dim)
        tables = np.empty((block.shape[0], self.m, self.ksub),
                          dtype=np.float32)
        for sub in range(self.m):
            tables[:, sub] = adjusted_distances(
                block[:, sub * self.dsub:(sub + 1) * self.dsub],
                self._codebooks[sub], metric)
        return tables.reshape(queries.shape[:-1] + (self.m, self.ksub))

    @staticmethod
    def adc_scan(tables: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Score ``(n, m)`` codes against ADC tables: ``(..., n)`` sums of
        ``m`` lookups, one row per table."""
        return tables[..., np.arange(tables.shape[-2]), codes].sum(axis=-1)

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        tables = self.adc_table(queries, metric)

        def score(begin: int, end: int, codes: np.ndarray,
                  out: np.ndarray) -> None:
            step = max(1, _ADC_BLOCK_FLOATS // codes.size)
            for lo in range(begin, end, step):
                group = pair_query[lo:min(lo + step, end)]
                out[lo - begin:lo - begin + len(group)] = self.adc_scan(
                    tables[group], codes)

        return score

    def _require_trained(self) -> None:
        if not self.is_trained:
            raise IndexBuildError("product quantizer not trained")

    def reconstruction_error(self, data: np.ndarray) -> float:
        """Mean squared reconstruction error (quality diagnostics)."""
        approx = self.decode(self.encode(data))
        return float(np.mean((data - approx) ** 2))


@register_index("PQ")
class PqIndex(ExhaustiveIndex):
    """Standalone PQ index: ADC scan over all codes."""

    def __init__(self, metric: MetricType, dim: int, m: int = 8,
                 nbits: int = 8, seed: int = 0) -> None:
        self.pq = ProductQuantizer(dim, m=m, nbits=nbits, seed=seed)
        super().__init__(metric, dim, self.pq, effective_metric(metric))


class ListResidualPq(ProductQuantizer):
    """PQ over what is left of a row once its list's centroid is taken out.

    Residuals are small and alike across lists, so one set of codebooks
    quantizes them far better than it would the rows.  The index stores
    ``encode(row - centroid)``; a query is scored against list ``c`` as

    * Euclidean: ``|q - (c + r)|^2 == |(q - c) - r|^2`` — ADC with the
      *residual query*, whose tables are therefore built per probed list;
    * inner product: ``-<q, c + r> == -<q, c> - <q, r>`` — the block's
      tables on the raw query, plus the centroid term per (query, list).
    """

    def __init__(self, bucketer: KMeansBucketer, dim: int, m: int,
                 nbits: int, seed: int) -> None:
        super().__init__(dim, m=m, nbits=nbits, seed=seed)
        self.bucketer = bucketer

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        centroids = self.bucketer.centroids
        lists = pair_list.tolist()
        if metric is MetricType.EUCLIDEAN:
            def score(begin: int, end: int, codes: np.ndarray,
                      out: np.ndarray) -> None:
                shifted = queries[pair_query[begin:end]] \
                    - centroids[lists[begin]]
                out[:] = self.adc_scan(self.adc_table(shifted, metric),
                                       codes)
            return score

        on_rows = super().prepare(queries, pair_query, pair_list, metric)
        on_centroids = adjusted_distances(queries, centroids, metric)

        def score(begin: int, end: int, codes: np.ndarray,
                  out: np.ndarray) -> None:
            on_rows(begin, end, codes, out)
            out += on_centroids[pair_query[begin:end], lists[begin], None]

        return score


@register_index("IVF_PQ")
class IvfPqIndex(BucketedIndex):
    """IVF coarse quantizer + PQ-compressed residuals: kmeans x
    list-residual pq."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 nprobe: int = 8, m: int = 8, nbits: int = 8,
                 seed: int = 0) -> None:
        bucketer = KMeansBucketer(effective_metric(metric), nlist, seed)
        self.pq = ListResidualPq(bucketer, dim, m, nbits, seed)
        super().__init__(metric, dim, bucketer, self.pq, nprobe)
        self.nlist = nlist

    def _stored(self, arr: np.ndarray,
                assignments: np.ndarray) -> np.ndarray:
        return arr - self.bucketer.centroids[assignments]
