"""Vector index interface and registry.

Every index implements :class:`VectorIndex`:

* ``build(data)`` — train and populate from an ``(n, dim)`` float32 matrix;
* ``search(queries, k)`` — return ``(ids, adjusted_distances)`` arrays of
  shape ``(nq, k)``; ids index into the build matrix, padded with ``-1``
  when fewer than ``k`` results exist; adjusted distances follow the
  smaller-is-more-similar convention of :mod:`repro.index.distances`;
* ``stats`` — the work counters of the most recent ``search`` call, which
  the query node feeds to the cost model so virtual time reflects the real
  number of comparisons performed;
* ``to_bytes`` / ``index_from_bytes`` — persistence for the object store.

Indexes register under the names users pass in ``create_index`` params
(``"FLAT"``, ``"IVF_FLAT"``, ``"HNSW"``, ...), mirroring the PyManu API.
"""

from __future__ import annotations

import abc
import inspect
import pickle
from dataclasses import dataclass
from typing import Any, Type

import numpy as np

from repro.core.schema import MetricType
from repro.errors import IndexBuildError


#: Every counter a :class:`SearchStats` carries, in declaration order.
#: The profiling plane sums these per segment / node / proxy and asserts
#: the sums agree exactly, so additions here must be incremented inside
#: the per-segment scan window (``Segment.search`` and below).
STAT_FIELDS = (
    "float_comparisons",
    "quantized_comparisons",
    "ssd_blocks_read",
    "graph_hops",
    "rows_scanned",
    "bytes_materialized",
    "candidates_visited",
    "candidates_pruned",
    "index_scans",
    "brute_scans",
    "delete_filter_hits",
    "cache_hits",
    "cache_misses",
)

#: Each counter's column in a counter array: a read's scan counts into
#: one int64 array, a row per segment and a column per counter in
#: :data:`STAT_FIELDS` order, which :class:`SearchStats` converts from and
#: to (``from_row`` / ``as_row``).
(FLOAT_COMPARISONS, QUANTIZED_COMPARISONS, SSD_BLOCKS_READ, GRAPH_HOPS,
 ROWS_SCANNED, BYTES_MATERIALIZED, CANDIDATES_VISITED, CANDIDATES_PRUNED,
 INDEX_SCANS, BRUTE_SCANS, DELETE_FILTER_HITS, CACHE_HITS,
 CACHE_MISSES) = range(len(STAT_FIELDS))


@dataclass
class SearchStats:
    """Work performed by the last search (cost model + profiling plane).

    The first four counters drive the cost model (virtual service time);
    the rest are the work-accounting counters ``EXPLAIN ANALYZE`` and
    per-tenant read-unit metering are built on:

    * ``rows_scanned`` — (query, stored row) pairs whose vector was
      examined: allowed rows x nq for exact scans, comparisons performed
      inside the index for indexed scans;
    * ``bytes_materialized`` — column bytes gathered from segment storage
      to serve exact scans;
    * ``candidates_visited`` / ``candidates_pruned`` — index candidates
      examined by post-filtering, and how many the deletion/filter masks
      dropped;
    * ``index_scans`` / ``brute_scans`` — scan invocations by path;
    * ``delete_filter_hits`` — rows excluded by the deletion bitmap;
    * ``cache_hits`` / ``cache_misses`` — consolidated-column cache
      outcomes on the exact-scan path.
    """

    float_comparisons: int = 0
    quantized_comparisons: int = 0
    ssd_blocks_read: int = 0
    graph_hops: int = 0
    rows_scanned: int = 0
    bytes_materialized: int = 0
    candidates_visited: int = 0
    candidates_pruned: int = 0
    index_scans: int = 0
    brute_scans: int = 0
    delete_filter_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        self.__init__()

    def add(self, other: "SearchStats") -> None:
        """Accumulate ``other``'s counters into this object in place.

        Spelled out per field: this runs once per segment scan, where a
        ``setattr`` loop over :data:`STAT_FIELDS` cost more than the
        bookkeeping it did.
        """
        self.float_comparisons += other.float_comparisons
        self.quantized_comparisons += other.quantized_comparisons
        self.ssd_blocks_read += other.ssd_blocks_read
        self.graph_hops += other.graph_hops
        self.rows_scanned += other.rows_scanned
        self.bytes_materialized += other.bytes_materialized
        self.candidates_visited += other.candidates_visited
        self.candidates_pruned += other.candidates_pruned
        self.index_scans += other.index_scans
        self.brute_scans += other.brute_scans
        self.delete_filter_hits += other.delete_filter_hits
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def merged_with(self, other: "SearchStats") -> "SearchStats":
        merged = SearchStats()
        merged.add(self)
        merged.add(other)
        return merged

    def as_dict(self) -> dict:
        """Counter name -> value snapshot (profiling delta windows)."""
        return {name: getattr(self, name) for name in STAT_FIELDS}

    def as_row(self) -> list[int]:
        """The counters as one counter-array row (:data:`STAT_FIELDS`
        order): what a segment's or an index's own search reported,
        added to its row of a read's counter array."""
        return [self.float_comparisons, self.quantized_comparisons,
                self.ssd_blocks_read, self.graph_hops, self.rows_scanned,
                self.bytes_materialized, self.candidates_visited,
                self.candidates_pruned, self.index_scans, self.brute_scans,
                self.delete_filter_hits, self.cache_hits, self.cache_misses]

    @classmethod
    def from_row(cls, row) -> "SearchStats":
        """The counters of one counter-array row (a sequence of ints in
        :data:`STAT_FIELDS` order)."""
        return cls(*row)


class VectorIndex(abc.ABC):
    """Abstract base of all vector indexes."""

    #: registry name, set by subclasses (e.g. "IVF_FLAT")
    index_type: str = ""

    def __init__(self, metric: MetricType, dim: int) -> None:
        if dim <= 0:
            raise IndexBuildError(f"invalid dim {dim}")
        self.metric = metric
        self.dim = dim
        self.ntotal = 0
        self.is_built = False
        self.stats = SearchStats()

    @abc.abstractmethod
    def build(self, data: np.ndarray) -> None:
        """Train and populate the index from ``(n, dim)`` float32 data."""

    @abc.abstractmethod
    def search(self, queries: np.ndarray, k: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k search; see the module docstring for the contract."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _check_build_input(self, data: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise IndexBuildError(
                f"{self.index_type}: expected (n, {self.dim}) data, "
                f"got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise IndexBuildError(f"{self.index_type}: empty build data")
        if not np.isfinite(arr).all():
            raise IndexBuildError(
                f"{self.index_type}: build data holds NaN or inf")
        return arr

    def _check_query_input(self, queries: np.ndarray) -> np.ndarray:
        arr = np.asarray(queries, dtype=np.float32)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise IndexBuildError(
                f"{self.index_type}: expected (nq, {self.dim}) queries, "
                f"got shape {arr.shape}")
        if not self.is_built:
            raise IndexBuildError(f"{self.index_type}: index not built")
        return arr

    @staticmethod
    def _pad_results(ids: np.ndarray, dists: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
        """Pad result rows with -1 ids / +inf distances up to width ``k``."""
        nq, have = ids.shape
        if have >= k:
            return ids[:, :k], dists[:, :k]
        pad_ids = np.full((nq, k - have), -1, dtype=np.int64)
        pad_dists = np.full((nq, k - have), np.inf, dtype=dists.dtype)
        return (np.concatenate([ids, pad_ids], axis=1),
                np.concatenate([dists, pad_dists], axis=1))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for the object store.

        Blobs are only ever produced and consumed by this cluster's own
        worker nodes (a trusted internal path), so pickle is acceptable.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint (for placement decisions)."""
        return len(self.to_bytes())


_REGISTRY: dict[str, Type[VectorIndex]] = {}


def register_index(name: str):
    """Class decorator adding an index to the factory registry."""

    def deco(cls: Type[VectorIndex]) -> Type[VectorIndex]:
        cls.index_type = name
        _REGISTRY[name] = cls
        return cls

    return deco


def available_indexes() -> list[str]:
    """Names accepted by :func:`create_index`."""
    return sorted(_REGISTRY)


def positive_int(name: str, value: Any) -> int:
    """``value`` as an int, refused unless it is a positive integer.

    Index parameters arrive from outside (``create_index`` params, REST
    bodies): a zero, negative or fractional count is refused here, where
    the message can name it, not by numpy at the first search.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value <= 0):
        raise IndexBuildError(
            f"{name} must be a positive integer, got {value!r}")
    return int(value)


def create_index(index_type: str, metric: MetricType, dim: int,
                 **params: Any) -> VectorIndex:
    """Instantiate an index by registry name with type-specific params."""
    try:
        cls = _REGISTRY[index_type.upper()]
    except KeyError:
        raise IndexBuildError(
            f"unknown index type {index_type!r}; "
            f"available: {available_indexes()}") from None
    accepted = [name for name in inspect.signature(cls).parameters
                if name not in ("metric", "dim")]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise IndexBuildError(
            f"{cls.index_type}: unknown parameter(s) {unknown}; "
            f"accepted: {accepted}")
    return cls(metric=metric, dim=dim, **params)


def index_from_bytes(raw: bytes) -> VectorIndex:
    """Deserialize an index blob produced by :meth:`VectorIndex.to_bytes`."""
    obj = pickle.loads(raw)
    if not isinstance(obj, VectorIndex):
        raise IndexBuildError("blob does not contain a VectorIndex")
    return obj
