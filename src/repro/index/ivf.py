"""The bucketed index: one structure behind every list-based index type.

Section 7 of the paper distils vector search into "compression ...,
indexing ..., and bucketing"; for the inverted-list rows of Table 1 that
decomposition is the only structure there is:

* a **bucketer** groups the build rows into lists and maps a query block
  to the lists each query probes (:class:`KMeansBucketer`: flat centroid
  scan; :class:`GraphBucketer`: centroids navigated with an HNSW graph;
  :class:`~repro.index.imi.ImiBucketer` and
  :class:`~repro.index.ssd.BalancedBucketer` live with the types they
  were made for);
* a **codec** decides what a stored row is and how a group of queries is
  scored against one list of them (:class:`FlatCodec`: raw float32; the
  quantizers of :mod:`~repro.index.sq`, :mod:`~repro.index.pq`,
  :mod:`~repro.index.rq`, :mod:`~repro.index.opq` are the others);
* :class:`InvertedLists` stores the codes sorted by list and scans them
  list-major for the whole query block, whatever the codec;
* :class:`BucketedIndex` composes the three, and ``IVF_FLAT``,
  ``IVF_SQ8``, ``IVF_PQ``, ``IVF_HNSW``, ``IMI``, ``SSD`` and
  ``COMPOSITE`` are registrations of it.

``nprobe`` trades recall for speed ("inverted indexes group vectors into
clusters, and only scan the most promising clusters for a query") and is
the knob swept in the Figure 8 reproduction.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import SearchStats, VectorIndex, positive_int, \
    register_index
from repro.index.distances import adjusted_distances, nonzero_norms, \
    normalize_rows, topk_smallest
from repro.index.hnsw import HnswIndex
from repro.index.kmeans import kmeans


#: Cap on one scan's scratch score block, in float32 entries (16 MB).  A
#: query block that would need more is scanned in several passes.
_SCAN_BLOCK_FLOATS = 1 << 22

#: ``score(begin, end, codes, out)``: the scores of pairs ``begin:end`` of
#: a prepared block (one list's group of queries) against that list's
#: ``codes``, written into ``out`` of shape ``(end - begin, len(codes))``.
Scorer = Callable[[int, int, np.ndarray, np.ndarray], None]


class Codec(Protocol):
    """What a stored row is, and how queries are scored against a list.

    The scan asks a codec for exactly two things: :meth:`prepare` the
    query block once, and (through the function that returns) score a
    group of its queries against one list's slice of codes.
    """

    quantized: bool   # a scored row counts as a quantized comparison
    #: Euclidean scores are ``-2 q.row`` and the scan completes them with
    #: ``|q|^2 + |row|^2``; otherwise scores are the distances already.
    scores_cross_term: bool

    def train(self, data: np.ndarray) -> None:
        """Learn from the rows about to be stored."""
        ...

    def encode(self, data: np.ndarray) -> np.ndarray:
        """``(n, dim)`` float32 rows to row-aligned codes."""
        ...

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Codes back to (approximate) float32 rows."""
        ...

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        """Whatever can be computed once for the query block.

        Pair ``p`` is query ``pair_query[p]`` probing list
        ``pair_list[p]``; pairs arrive grouped by list.
        """
        ...


class Bucketer(Protocol):
    """Groups rows into lists; maps a query block to the lists it probes."""

    metric: MetricType   # the metric the lists are scanned in
    num_buckets: int

    def fit(self, data: np.ndarray) -> np.ndarray:
        """The list of every row: ``(n,)`` list numbers, or
        ``(replicas, n)`` when each row is stored in several."""
        ...

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        """``(nq, <= nprobe)`` list numbers, most promising first, ``-1``
        where a query has fewer; its own work is added to ``stats``."""
        ...


# ---------------------------------------------------------------------------
# codecs scored with one GEMM per list
# ---------------------------------------------------------------------------

def _left_factor(queries: np.ndarray, metric: MetricType) -> np.ndarray:
    """``-2 q`` / ``-q`` / ``-q / |q|``: the GEMM's left-hand side.

    Negating (or doubling) the left factor negates (doubles) every
    product and partial sum exactly, so the GEMMs yield ``-q.v`` /
    ``-2 q.v`` with the bits of the exact scan's.
    """
    if metric is MetricType.EUCLIDEAN:
        return -2.0 * queries
    if metric is MetricType.COSINE:
        return queries / -nonzero_norms(queries)
    return -queries


class GemmCodec:
    """Codes that decode to float rows, scored by one GEMM per list.

    The mix-in behind the scalar and residual quantizers: a list's codes
    are decoded (and unit-normalised under cosine) when the list is
    scanned.  Distances are formed in the order
    :func:`~repro.index.distances.adjusted_distances` forms them.
    """

    quantized = True
    scores_cross_term = True

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        left = _left_factor(queries, metric)[pair_query]
        unit = metric is MetricType.COSINE

        def score(begin: int, end: int, codes: np.ndarray,
                  out: np.ndarray) -> None:
            rows = self.decode(codes)
            if unit:
                rows /= nonzero_norms(rows)
            np.matmul(left[begin:end], rows.T, out=out)

        return score


class FlatCodec(GemmCodec):
    """Raw float32 rows (the ``none`` compressor): the codes are the rows.

    What does not depend on the query is done when the rows are stored:
    cosine keeps unit-normalised rows, so a list scan multiplies against
    its slice in place and returns what the exact scan returns for the
    same rows, bit for bit.
    """

    quantized = False

    def __init__(self, metric: MetricType) -> None:
        self.metric = metric

    def train(self, data: np.ndarray) -> None:
        pass

    def encode(self, data: np.ndarray) -> np.ndarray:
        if self.metric is MetricType.COSINE:
            return normalize_rows(data)
        return data

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return codes

    def prepare(self, queries: np.ndarray, pair_query: np.ndarray,
                pair_list: np.ndarray, metric: MetricType) -> Scorer:
        left = _left_factor(queries, metric)[pair_query]

        def score(begin: int, end: int, codes: np.ndarray,
                  out: np.ndarray) -> None:
            np.matmul(left[begin:end], codes.T, out=out)

        return score


# ---------------------------------------------------------------------------
# storage and the list-major scan
# ---------------------------------------------------------------------------

class InvertedLists:
    """Codes grouped by list, scanned list by list for a query block.

    Rows are stored **sorted by list** in one array, so list ``c`` is the
    slice ``offsets[c]:offsets[c + 1]`` of ``codes`` and of ``ids`` (the
    rows' positions in the build matrix) and a scan scores against it in
    place.  What a row is is the codec's business; where its Euclidean
    scores are only the cross term, ``norms`` keeps ``|row|^2`` of the
    decoded rows (list-sorted like them).
    """

    def __init__(self, data: np.ndarray, assignments: np.ndarray,
                 nlist: int, codec: Codec, metric: MetricType) -> None:
        order = np.argsort(assignments, axis=None, kind="stable")
        self.metric = metric
        self.codec = codec
        self.ids = order.astype(np.int64, copy=False)
        if assignments.ndim > 1:
            # (replicas, n): a row is stored once per replica.
            self.ids %= assignments.shape[1]
        self.offsets = np.zeros(nlist + 1, dtype=np.int64)
        np.cumsum(np.bincount(assignments.reshape(-1), minlength=nlist),
                  out=self.offsets[1:])
        # One entry past the lists, like ``offsets``: list ``-1`` is empty.
        self.sizes = np.append(np.diff(self.offsets), 0)
        self.max_list_size = int(self.sizes.max())
        self.codes = codec.encode(data[self.ids])
        self.norms: np.ndarray | None = None
        if metric is MetricType.EUCLIDEAN and codec.scores_cross_term:
            rows = codec.decode(self.codes)
            # Zero-padded by one list's length: see ``_scan_block``.
            self.norms = np.zeros(len(rows) + self.max_list_size,
                                  dtype=np.float32)
            np.einsum("ij,ij->i", rows, rows, out=self.norms[:len(rows)])

    @property
    def nlist(self) -> int:
        return len(self.offsets) - 1

    def scan(self, queries: np.ndarray, probe_lists: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray, int]:
        """Top-``k`` of each query over the lists it probes.

        ``probe_lists`` is ``(nq, nprobe)`` list numbers, ``-1`` where a
        query probes fewer.  Returns ``(ids, adjusted distances, rows
        scored)`` with result rows tail-padded by ``-1`` / ``+inf`` to
        width ``k``.
        """
        nq, nprobe = probe_lists.shape
        step = max(1, _SCAN_BLOCK_FLOATS
                   // max(1, nprobe * self.max_list_size))
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
        codes = self.codes
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

        pair_query = order // nprobe
        score = self.codec.prepare(queries, pair_query, grouped,
                                   self.metric)
        # One block row per pair, in list order, so each list's scores
        # are written straight into a rectangular slice of it.
        block = np.full((len(order), width), np.inf, dtype=np.float32)
        low_of, size_of = lows.tolist(), sizes.tolist()
        for begin, end in zip([0] + cuts, cuts + [len(order)]):
            size = size_of[begin]
            if size:
                low = low_of[begin]
                score(begin, end, codes[low:low + size],
                      block[begin:end, :size])
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


# ---------------------------------------------------------------------------
# bucketers over k-means centroids
# ---------------------------------------------------------------------------

class KMeansBucketer:
    """IVF-style: k-means lists, probed by a flat scan of the centroids."""

    def __init__(self, metric: MetricType, nlist: int = 64,
                 seed: int = 0) -> None:
        self.metric = metric
        self.nlist = positive_int("nlist", nlist)
        self.seed = seed
        self.num_buckets = 0
        self.centroids: np.ndarray | None = None

    def _partition(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(centroids, the list of every row)``."""
        result = kmeans(data, min(self.nlist, data.shape[0]),
                        seed=self.seed)
        return result.centroids, result.assignments

    def fit(self, data: np.ndarray) -> np.ndarray:
        self.centroids, assignments = self._partition(data)
        self.num_buckets = self.centroids.shape[0]
        return assignments

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        dists = adjusted_distances(queries, self.centroids, self.metric)
        stats.float_comparisons += dists.size
        return topk_smallest(dists, min(nprobe, self.num_buckets))[0]


class GraphBucketer(KMeansBucketer):
    """k-means lists whose centroids are navigated with a small HNSW.

    With many lists, finding the nearest centroids by brute force starts
    to dominate; a graph *over the centroids* makes probing cost ~``ef``
    comparisons instead of ``nlist``.
    """

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 M: int = 8, ef_search: int = 48, seed: int = 0) -> None:
        super().__init__(metric, nlist, seed)
        self.graph = HnswIndex(metric, dim, M=M, ef_search=ef_search,
                               seed=seed)

    def fit(self, data: np.ndarray) -> np.ndarray:
        assignments = super().fit(data)
        self.graph.build(self.centroids)
        return assignments

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        lists, _ = self.graph.search(queries,
                                     min(nprobe, self.num_buckets))
        stats.add(self.graph.stats)
        return lists


class OneList:
    """The degenerate bucketer: one list, which every query scans."""

    num_buckets = 1

    def __init__(self, metric: MetricType) -> None:
        self.metric = metric

    def fit(self, data: np.ndarray) -> np.ndarray:
        return np.zeros(data.shape[0], dtype=np.int64)

    def probe(self, queries: np.ndarray, nprobe: int,
              stats: SearchStats) -> np.ndarray:
        return np.zeros((queries.shape[0], 1), dtype=np.int64)


# ---------------------------------------------------------------------------
# the index
# ---------------------------------------------------------------------------

class BucketedIndex(VectorIndex):
    """A bucketer and a codec over one :class:`InvertedLists`."""

    def __init__(self, metric: MetricType, dim: int, bucketer: Bucketer,
                 codec: Codec, nprobe: int | None) -> None:
        super().__init__(metric, dim)
        # ``None`` from a type that has no such knob (IMI: ``_probe``).
        if nprobe is not None:
            self.nprobe = positive_int("nprobe", nprobe)
        self.bucketer = bucketer
        self.codec = codec
        # The ADC codecs cannot compose cosine from subspaces: their
        # registrations hand the bucketer inner product instead, and rows
        # and queries reach the lists unit-normalised.
        self._unit_rows = bucketer.metric is not metric
        self._lists: InvertedLists | None = None

    def _stored(self, arr: np.ndarray,
                assignments: np.ndarray) -> np.ndarray:
        """What the codec is trained on and encodes: the rows."""
        return arr

    def build(self, data: np.ndarray) -> None:
        arr = self._check_build_input(data)
        if self._unit_rows:
            arr = normalize_rows(arr)
        assignments = self.bucketer.fit(arr)
        rows = self._stored(arr, assignments)
        self.codec.train(rows)
        self._lists = InvertedLists(rows, assignments,
                                    self.bucketer.num_buckets, self.codec,
                                    self.bucketer.metric)
        self.ntotal = arr.shape[0]
        self.is_built = True

    def _probe(self, queries: np.ndarray, k: int,
               nprobe: int | None) -> np.ndarray:
        """The ``(nq, width)`` lists each query scans, ``-1`` padded."""
        return self.bucketer.probe(queries, nprobe or self.nprobe,
                                   self.stats)

    def search(self, queries: np.ndarray, k: int,
               nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        queries = self._check_query_input(queries)
        if self._unit_rows:
            queries = normalize_rows(queries)
        if nprobe is not None:
            positive_int("nprobe", nprobe)
        self.stats.reset()
        ids, dists, compared = self._lists.scan(
            queries, self._probe(queries, k, nprobe), k)
        if self.codec.quantized:
            self.stats.quantized_comparisons += compared
        else:
            self.stats.float_comparisons += compared
        return ids, dists

    @property
    def effective_nlist(self) -> int:
        return self._lists.nlist if self._lists is not None else 0

    def list_sizes(self) -> np.ndarray:
        """List occupancy (diagnostics / balance tests)."""
        if self._lists is None:
            return np.zeros(0, dtype=np.int64)
        return self._lists.sizes[:-1]

    def memory_bytes_estimate(self) -> int:
        """Stored payload size (the memory knob users trade with)."""
        return self._lists.codes.nbytes if self._lists is not None else 0


class ExhaustiveIndex(BucketedIndex):
    """A codec over :class:`OneList`: the scan of every stored code that
    the quantizer types (``SQ8``, ``RQ``, ``PQ``, ``OPQ``) are."""

    def __init__(self, metric: MetricType, dim: int, codec: Codec,
                 scanned_as: MetricType) -> None:
        super().__init__(metric, dim, OneList(scanned_as), codec, nprobe=1)

    def search(self, queries: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        return super().search(queries, k)


@register_index("IVF_FLAT")
class IvfFlatIndex(BucketedIndex):
    """Inverted file with exact in-cluster scan: kmeans x flat."""

    def __init__(self, metric: MetricType, dim: int, nlist: int = 128,
                 nprobe: int = 8, seed: int = 0) -> None:
        super().__init__(metric, dim, KMeansBucketer(metric, nlist, seed),
                         FlatCodec(metric), nprobe)
        self.nlist = nlist
