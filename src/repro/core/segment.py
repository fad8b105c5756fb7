"""Segments: Manu's unit of data placement (Sections 3.1, 3.6).

A segment is a run of entities from one shard.  It starts *growing* —
accepting appends, organized into fixed-size **slices**; every full slice
is searched through a light-weight temporary index (IVF-Flat) so searches
on growing data avoid brute-force scans ("the temporary index brings up to
10X speedup for searching growing segments").  A segment *seals* when it
reaches the configured size or stays idle too long; sealed segments are
immutable, get a full index built by an index node, and are the unit of
distribution across query nodes.

A growing segment does work only for what is read.  An append records
its rows and builds nothing: a slice's index is built, for the metric
asked, the first time a search reads the slice.  A vector column keeps
its appended chunks until its first read consolidates them into one
float32 buffer (a lone chunk is adopted as it is); from then on appends
write their rows into the buffer, which doubles when outgrown, and a
read is a view of its first ``num_rows`` rows.  ``pk_array`` is extended
by the keys appended since it was last read.

Deletions are recorded in a **bitmap** and filtered from search results;
the segment tracks its WAL progress (max LSN applied) both for delta
consistency and as the replay start position for time travel.

A search answers in **blocks**: :meth:`Segment.search` returns one
:class:`~repro.core.results.HitBlock` — a row per query, hits ascending,
padding last, at most ``k`` wide — whichever way the rows were scanned.
Below it everything is a ``(rows, dists)`` block in the segment's own row
numbers: the exact scan (:meth:`Segment.exact_block`, one helper behind the
pre-filter strategy, the growing tail, the escalation and
``range_search``), an index's candidates after :meth:`Segment.filter_block`
(the one post-filter + escalation, which the node arena calls for its
members too), and a growing segment's slices and tail laid side by side
and reselected by one batched top-k.  Primary keys are gathered once, at
the end.  Where a node answers with one selection, a growing segment is
not searched on its own: its built slice indexes are members of the node
arena and its tail an exact column of the selection, scored by
``exact_block`` without counting and charged (:meth:`Segment.charge_exact`)
once the selection stands.
"""

from __future__ import annotations

import bisect
import enum
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.config import SegmentConfig
from repro.core.results import HitBatch, HitBlock
from repro.core.schema import CollectionSchema, MetricType
from repro.errors import ClusterStateError, SchemaError
from repro.index.base import SearchStats, VectorIndex
from repro.index.distances import adjusted_distances, squared_l2, \
    topk_smallest
from repro.index.ivf import IvfFlatIndex


class SegmentState(enum.Enum):
    GROWING = "growing"
    SEALED = "sealed"


def amplified_k(k: int, covered: int, n_excluded: int) -> int:
    """How many candidates to ask an index of ``covered`` rows for, so
    that ``k`` are left once the ``n_excluded`` masked rows are dropped:
    all of them on top of ``k`` while they are few, a quarter once they
    outnumber ``k`` (a starved row escalates to the exact scan)."""
    return min(covered, k + n_excluded if n_excluded <= k
               else min(covered, 2 * k + n_excluded // 4))


def post_filter(allowed: Optional[np.ndarray], rows: np.ndarray,
                real: np.ndarray, k: int, stats: SearchStats
                ) -> Optional[np.ndarray]:
    """The block post-filter: which entries of an ``(nq, width)`` block of
    index candidates are each row's first ``k`` that ``allowed`` (None:
    every row) lets through — the whole block at once.

    ``rows`` are the candidates' segment rows and ``real`` marks the
    entries that are candidates at all (tail padding reads some in-range
    row of ``allowed``, and is masked out again).  Adds the candidates
    visited and pruned to ``stats``.  Returns None when nothing was
    dropped and nothing is padding (what a segment without deletions or
    filter sees): every row's first ``k`` entries are its hits.
    """
    keep = real if allowed is None else allowed[rows] & real
    n_real = int(np.count_nonzero(real))
    n_kept = int(np.count_nonzero(keep))
    stats.candidates_visited += n_real
    stats.candidates_pruned += n_real - n_kept
    if n_kept == keep.size:
        return None
    return keep & (np.cumsum(keep, axis=1) <= k)


class Segment:
    """One segment's rows, slices, deletion bitmap, and indexes."""

    #: Moves with every change to which segments a segment set holds or
    #: how a node scan reads them: a set's new or released segment, a
    #: segment's first rows, its seal, an attached index
    #: (:meth:`changed`).  One counter for every segment of the process:
    #: a query node derives its scan plans again once it has moved, and a
    #: move elsewhere costs a node a plan, never a wrong one.
    generation = 0

    @staticmethod
    def changed() -> None:
        """Move :attr:`generation`."""
        Segment.generation += 1

    def __init__(self, segment_id: str, collection: str,
                 schema: CollectionSchema,
                 config: Optional[SegmentConfig] = None) -> None:
        self.segment_id = segment_id
        self.collection = collection
        self.schema = schema
        self.config = config if config is not None else SegmentConfig()
        self.state = SegmentState.GROWING

        self._pks: list = []
        # ``pk_array`` as of its last read (None: rebuild from ``_pks``).
        self._pk_arr: Optional[np.ndarray] = None
        self._pk_rows: dict = {}
        self._dims = {f.name: f.dim for f in schema.vector_fields}
        # Appended chunks per column.  A vector column's chunks move into
        # its float32 buffer at the first read (``_vectors``), and its
        # appends are written there after that; the buffer doubles when
        # outgrown, like ``_deleted_buf``.
        self._chunks: dict[str, list] = {f.name: [] for f in schema.fields
                                         if not f.is_primary}
        self._buffers: dict[str, np.ndarray] = {}
        # Per vector column, the squared norms of its first rows (the
        # einsum ``squared_l2`` forms them with), kept from the first
        # exact scan that reads them: rows change only through
        # ``rewrite_vectors`` (``column`` hands them out read-only), so a
        # growing tail read on every request is normed once per row.
        self._norms: dict[str, np.ndarray] = {
            name: np.zeros(0, dtype=np.float32) for name in self._dims}
        self._normed: dict[str, int] = dict.fromkeys(self._dims, 0)
        # Columns read since the last append, the lookups behind a scan's
        # ``cache_hits`` / ``cache_misses``.  None marks a vector column
        # counted as read but not consolidated (see ``append``).
        self._consolidated: dict[str, object] = {}
        # Full slices as of the last append with temp indexes on.
        self._slices_filled = 0
        # Deletion bitmap: ``_deleted`` is always the first ``num_rows``
        # entries of a buffer that doubles when an append outgrows it.
        self._deleted_buf = np.zeros(0, dtype=bool)
        self._deleted = self._deleted_buf
        self._num_deleted = 0
        # Temporary slice indexes: field -> {(slice_no, metric): index}.
        # Indexes are metric-specific (the adjusted-distance scales of
        # different metrics are not comparable); each is built by the
        # first search that reads its slice under its metric.
        self._temp_indexes: dict[
            str, dict[tuple[int, MetricType], IvfFlatIndex]] = {
            f.name: {} for f in schema.vector_fields}
        # Full sealed index per vector field (attached by query nodes).
        self._sealed_indexes: dict[str, VectorIndex] = {}
        # Attribute indexes (Table 1: sorted list / label inverted index)
        # built lazily on sealed segments to accelerate filtering.
        self._attr_indexes: dict[str, object] = {}
        self.max_lsn = 0
        # Insert-only watermark for WAL replay dedup.  ``max_lsn`` cannot
        # serve: deletions fan out to every segment of the collection and
        # bump it with timestamps from other shards' channels, so it is
        # not comparable with one channel's insert LSNs.
        self.max_insert_lsn = 0
        # First row and LSN of each append: a delete reaches only rows
        # inserted before it (``live_before``).
        self._append_rows: list[int] = []
        self._append_lsns: list[int] = []
        self.last_insert_at_ms = 0.0
        self.temp_index_enabled = True

    # ------------------------------------------------------------------
    # state & size
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._pks)

    @property
    def num_deleted(self) -> int:
        return self._num_deleted

    @property
    def num_live_rows(self) -> int:
        return self.num_rows - self.num_deleted

    @property
    def is_sealed(self) -> bool:
        return self.state is SegmentState.SEALED

    @property
    def pks(self) -> list:
        return list(self._pks)

    @property
    def pk_array(self) -> np.ndarray:
        """Primary keys as one ndarray — the gather source for searches.

        Cached, and extended by the keys appended since the last read, so
        the hot path turns row indices into pks with one fancy-index
        instead of a Python loop over ``self._pks``.
        """
        arr = self._pk_arr
        if arr is None or not len(arr):     # empty: float64, not the pks'
            arr = np.asarray(self._pks)
        elif len(arr) < len(self._pks):
            arr = np.concatenate((arr, np.asarray(self._pks[len(arr):])))
        self._pk_arr = arr
        return arr

    def seal(self) -> None:
        """Freeze the segment; further appends are rejected."""
        self.state = SegmentState.SEALED
        Segment.changed()

    def should_seal(self, now_ms: float) -> bool:
        """Size or idle-time sealing policy (Section 3.1)."""
        if self.is_sealed or self.num_rows == 0:
            return False
        if self.num_rows >= self.config.seal_entity_count:
            return True
        return (now_ms - self.last_insert_at_ms) >= self.config.seal_idle_ms

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append(self, pks: Sequence, columns: Mapping[str, object],
               lsn: int, now_ms: float = 0.0) -> None:
        """Append a batch of rows (growing segments only): every column
        holds one value per pk, a vector column an ``(len(pks), dim)``
        block; a batch that does not is refused before anything moves."""
        if self.is_sealed:
            raise ClusterStateError(
                f"segment {self.segment_id} is sealed; cannot append")
        self._check_batch(len(pks), columns)
        start = self.num_rows
        end = start + len(pks)
        if not start and end:
            Segment.changed()
        self._pk_rows.update(zip(pks, range(start, end)))
        self._pks.extend(pks)
        for name, chunk in columns.items():
            buf = self._buffers.get(name)
            if buf is None:
                self._chunks[name].append(chunk)
                continue
            if end > len(buf):
                grown = np.empty((max(end, 2 * len(buf)), buf.shape[1]),
                                 dtype=np.float32)
                grown[:start] = buf[:start]
                self._buffers[name] = buf = grown
            buf[start:end] = chunk
        self._consolidated.clear()
        if end > len(self._deleted_buf):
            grown = np.zeros(max(end, 2 * len(self._deleted_buf)),
                             dtype=bool)
            grown[:start] = self._deleted
            self._deleted_buf = grown
        self._deleted = self._deleted_buf[:end]
        self.max_lsn = max(self.max_lsn, lsn)
        self.max_insert_lsn = max(self.max_insert_lsn, lsn)
        self._append_rows.append(start)
        self._append_lsns.append(lsn)
        self.last_insert_at_ms = now_ms
        filled = end // self.config.slice_size
        if self.temp_index_enabled and filled > self._slices_filled:
            # Section 3.6 indexes a slice when it fills.  The counters
            # charge that index's read of the vector columns to this
            # append, wherever a search later builds it, so what a scan
            # counts as cached does not depend on when searches come.
            self._slices_filled = filled
            self._consolidated.update(dict.fromkeys(self._dims))

    def _check_batch(self, n: int, columns: Mapping[str, object]) -> None:
        """Refuse (``SchemaError``) a column this segment does not hold,
        or one that is not ``n`` rows — ``(n, dim)`` for a vector."""
        for name, chunk in columns.items():
            if name not in self._chunks:
                raise SchemaError(
                    f"segment {self.segment_id} has no column {name!r}")
            dim = self._dims.get(name)
            shape = (len(chunk),) if dim is None else np.shape(chunk)
            if shape != ((n,) if dim is None else (n, dim)):
                raise SchemaError(
                    f"segment {self.segment_id}: column {name!r} has "
                    f"shape {shape} for {n} pks")

    def apply_delete(self, pks: Sequence, lsn: int) -> int:
        """Mark rows deleted in the bitmap; returns how many matched.

        A sealed segment ignores a delete no newer than its newest insert:
        every such delete either reached it while it grew on the same FIFO
        channel or was dropped by compaction, so a replayed one (an
        upsert's, say) would only hit the newer version of its pk.
        """
        if self.is_sealed and lsn <= self.max_insert_lsn:
            return 0
        count = 0
        for pk in pks:
            row = self._pk_rows.get(pk)
            if row is not None and not self._deleted[row]:
                self._deleted[row] = True
                count += 1
        self._num_deleted += count
        self.max_lsn = max(self.max_lsn, lsn)
        return count

    def contains_pk(self, pk) -> bool:
        """Whether the segment holds a live row for ``pk``."""
        row = self._pk_rows.get(pk)
        return row is not None and not self._deleted[row]

    def live_before(self, pk, lsn: int) -> bool:
        """Whether the segment holds a live row for ``pk`` inserted at an
        LSN below ``lsn`` — what a delete at ``lsn`` may hit.  A replayed
        delete can find a newer row of its pk (an upsert's)."""
        row = self._pk_rows.get(pk)
        if row is None or self._deleted[row]:
            return False
        at = bisect.bisect_right(self._append_rows, row) - 1
        return self._append_lsns[at] < lsn

    @property
    def delete_ratio(self) -> float:
        """Fraction of rows deleted — triggers index rebuild/compaction."""
        return self.num_deleted / self.num_rows if self.num_rows else 0.0

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------

    def column(self, name: str):
        """Consolidated column values (numpy array, or list for strings);
        a vector column is a read-only view of its buffer's first
        ``num_rows`` rows (:meth:`rewrite_vectors` writes one)."""
        value = self._consolidated.get(name)
        if value is not None:
            return value
        if name in self._dims:
            value = self._vectors(name)
        else:
            chunks = self._chunks[name]
            if self.schema.field(name).dtype.value == "string":
                value = [item for chunk in chunks for item in chunk]
            elif chunks:
                value = np.concatenate([np.asarray(c) for c in chunks])
            else:
                value = np.empty(0)
        self._consolidated[name] = value
        return value

    def _vectors(self, name: str) -> np.ndarray:
        """A vector column as a view of its buffer — made from the
        appended chunks on the first call, without being counted as a
        read (``_consolidated`` is not touched)."""
        buf = self._buffers.get(name)
        if buf is None:
            chunks = self._chunks[name]
            if len(chunks) == 1:
                # Adopted as it is: it holds exactly ``num_rows`` rows, so
                # the next append outgrows it and never writes into it.
                buf = np.asarray(chunks[0], dtype=np.float32)
            elif chunks:
                buf = np.concatenate(
                    [np.asarray(c, dtype=np.float32) for c in chunks])
            else:
                buf = np.empty((0, self._dims[name]), dtype=np.float32)
            self._buffers[name] = buf
            chunks.clear()
        # Read-only: the squared norms kept of its rows stay its rows'.
        view = buf[:self.num_rows]
        view.flags.writeable = False
        return view

    def rewrite_vectors(self, name: str, rows, values) -> None:
        """Write ``values`` over ``rows`` of vector column ``name`` in
        place — the one write to a stored row — and drop the squared
        norms kept of its rows (the next exact scan norms them again)."""
        self._vectors(name)
        self._buffers[name][:self.num_rows][rows] = values
        self._normed[name] = 0

    def scalar_columns(self) -> dict[str, object]:
        """All filterable columns, for expression evaluation: the scalar
        fields and the primary key."""
        columns = {f.name: self.column(f.name)
                   for f in self.schema.scalar_fields}
        columns[self.schema.primary_field.name] = self.pk_array
        return columns

    def flush_payload(self) -> tuple[list, dict[str, object], int]:
        """(pks, columns, max_lsn) for binlog conversion by a data node."""
        columns = {name: self.column(name) for name in self._chunks}
        return list(self._pks), columns, self.max_lsn

    def deleted_mask(self) -> np.ndarray:
        return self._deleted.copy()

    def deletions(self, lo: int, hi: int) -> np.ndarray:
        """The deletion bitmap of rows ``[lo, hi)``, as a view."""
        return self._deleted[lo:hi]

    def holds_each_pk_once(self) -> bool:
        """Whether no primary key was appended twice."""
        return len(self._pk_rows) == self.num_rows

    def pks_from(self, row: int) -> list:
        """The primary keys of the rows from ``row`` on."""
        return self._pks[row:]

    def holds_any_pk(self, pks: set) -> bool:
        """Whether any of ``pks`` is a row of this segment (live or
        deleted): one lookup per key."""
        return not self._pk_rows.keys().isdisjoint(pks)

    # ------------------------------------------------------------------
    # temporary slice indexes
    # ------------------------------------------------------------------

    def _build_temp_index(self, field: str, slice_no: int,
                          metric: MetricType) -> IvfFlatIndex:
        size = self.config.slice_size
        # The counters charged a Euclidean index's read of the column to
        # the append that filled the slice; another metric's index is a
        # read of its own, counted here.
        column = self._vectors(field) if metric is MetricType.EUCLIDEAN \
            else self.column(field)
        index = IvfFlatIndex(metric, self._dims[field],
                             nlist=self.config.temp_index_nlist,
                             nprobe=max(2,
                                        self.config.temp_index_nlist // 8))
        index.build(column[slice_no * size:(slice_no + 1) * size])
        self._temp_indexes[field][(slice_no, metric)] = index
        return index

    def _temp_index_for(self, field: str, slice_no: int,
                        metric: MetricType) -> IvfFlatIndex:
        """Full slice ``slice_no``'s temp index for ``metric``, built by
        the first search that asks for it (its k-means is seeded, so it
        is the same index whenever that is)."""
        index = self._temp_indexes[field].get((slice_no, metric))
        if index is None:
            index = self._build_temp_index(field, slice_no, metric)
        return index

    def built_slice_indexes(self, field: str, metric: MetricType,
                            first: int = 0) -> Optional[list[IvfFlatIndex]]:
        """The temp indexes of the full slices from ``first`` on, for
        ``metric``, where searches have built all of them (None where
        one is not built yet: building is a search's, in slice order)."""
        built = self._temp_indexes[field]
        found = [built.get((slice_no, metric))
                 for slice_no in range(first, self.num_temp_indexes(field))]
        return None if None in found else found

    def num_temp_indexes(self, field: str) -> int:
        """Full slices a search of ``field`` reads through a temporary
        index: none while they are off or once a sealed index is
        attached."""
        if (not self.temp_index_enabled or field not in self._dims
                or field in self._sealed_indexes):
            return 0
        return self.num_rows // self.config.slice_size

    # ------------------------------------------------------------------
    # sealed index management
    # ------------------------------------------------------------------

    def attach_index(self, field: str, index: VectorIndex) -> None:
        """Install the index-node-built index, replacing temp indexes."""
        if index.ntotal != self.num_rows:
            raise ClusterStateError(
                f"index covers {index.ntotal} rows, segment has "
                f"{self.num_rows}")
        self._sealed_indexes[field] = index
        self._temp_indexes[field] = {}
        Segment.changed()

    def has_index(self, field: str) -> bool:
        return field in self._sealed_indexes

    def index_for(self, field: str) -> Optional[VectorIndex]:
        return self._sealed_indexes.get(field)

    # ------------------------------------------------------------------
    # attribute indexes (Table 1: Sorted List / label inverted index)
    # ------------------------------------------------------------------

    def attr_index(self, field: str):
        """The attribute index for a scalar field (sealed segments only).

        Numeric fields get a :class:`~repro.index.attr.SortedListIndex`,
        string fields a :class:`~repro.index.attr.LabelIndex`; built
        lazily on first use (sealed data is immutable, so the index never
        goes stale).  Returns None for growing segments or bool fields.
        """
        if not self.is_sealed:
            return None
        if field in self._attr_indexes:
            return self._attr_indexes[field]
        spec = self.schema.field(field)
        if spec.dtype.is_vector or spec.is_primary:
            return None
        from repro.index.attr import LabelIndex, SortedListIndex
        if spec.dtype.is_numeric:
            index = SortedListIndex(self.column(field))
        elif spec.dtype.value == "string":
            index = LabelIndex(self.column(field))
        else:
            return None
        self._attr_indexes[field] = index
        return index

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def exclusions(self, filter_mask: Optional[np.ndarray]
                   ) -> tuple[Optional[np.ndarray], int]:
        """``(allowed rows, how many rows that masks out)`` of a search
        under the deletion bitmap and ``filter_mask``; no mask at all
        (None) where neither excludes anything by construction."""
        if filter_mask is None and not self._num_deleted:
            return None, 0
        allowed = ~self._deleted
        if filter_mask is not None:
            if len(filter_mask) != self.num_rows:
                raise ValueError(
                    f"filter mask has {len(filter_mask)} rows, "
                    f"segment has {self.num_rows}")
            allowed = allowed & filter_mask
        return allowed, self.num_rows - int(np.count_nonzero(allowed))

    def search(self, field: str, queries: np.ndarray, k: int,
               metric: MetricType,
               filter_mask: Optional[np.ndarray] = None,
               stats: Optional[SearchStats] = None,
               force_brute: bool = False,
               ) -> HitBlock:
        """Top-k over live, filter-passing rows: one :class:`HitBlock`, a
        row per query sorted by ascending adjusted distance with the
        padding last, at most ``k`` wide.

        Uses the sealed index when attached, temporary slice indexes plus a
        brute tail scan while growing, and pure brute force when
        ``force_brute`` (the pre-filter strategy or a no-index segment).
        Indexed paths amplify k and post-filter; if filtering starves the
        result below ``k``, the search transparently escalates to an exact
        scan of allowed rows, so results are always correct.
        """
        stats = stats if stats is not None else SearchStats()
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        stats.delete_filter_hits += self._num_deleted
        allowed, n_excluded = self.exclusions(filter_mask)
        if n_excluded == self.num_rows or k <= 0:
            return HitBlock.empty(queries.shape[0])
        sealed_index = self._sealed_indexes.get(field)
        if force_brute:
            rows, dists = self._search_brute(
                field, queries, k, metric, allowed, 0, self.num_rows, stats)
        elif sealed_index is not None:
            rows, dists = self._search_with_index(
                sealed_index, 0, queries, k, metric, allowed, stats, field)
        else:
            rows, dists = self._search_growing(
                field, queries, k, metric, allowed, stats)
        return HitBlock(self.pk_array[rows], dists)

    def exact_block(self, field: str, queries: np.ndarray,
                    metric: MetricType, allowed: Optional[np.ndarray],
                    lo: int, hi: int, stats: Optional[SearchStats] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The exact scan: ``(rows, (nq, len(rows)) distances)`` of the
        allowed rows in ``[lo, hi)`` (None: all of them, read in place),
        counted into ``stats``.  A range with no allowed row costs and
        counts nothing.  Without ``stats`` nothing is counted and the
        column is read without being marked read: that is
        :meth:`charge_exact`'s, once the answer is used."""
        rows = np.arange(lo, hi) if allowed is None \
            else lo + np.flatnonzero(allowed[lo:hi])
        if not len(rows):
            return rows, np.empty((queries.shape[0], 0), dtype=np.float32)
        if stats is None:
            column = self._vectors(field)
        else:
            self.charge_exact(field, queries.shape[0], len(rows), stats)
            column = self.column(field)
        data = column[lo:hi] if allowed is None else column[rows]
        if metric is MetricType.EUCLIDEAN:
            norms = self._row_norms(field, column, hi)
            return rows, squared_l2(
                queries, data,
                d_norms=norms[lo:hi] if allowed is None else norms[rows])
        return rows, adjusted_distances(queries, data, metric)

    def _row_norms(self, field: str, column: np.ndarray, hi: int
                   ) -> np.ndarray:
        """``|row|^2`` of the first ``hi`` rows of vector ``column``
        (``field``'s): the rows not kept yet are normed and kept (a
        buffer that doubles when outgrown, its fill in ``_normed``)."""
        norms, normed = self._norms[field], self._normed[field]
        if normed < hi:
            if hi > len(norms):
                grown = np.empty(max(hi, 2 * len(norms)), dtype=np.float32)
                grown[:normed] = norms[:normed]
                self._norms[field] = norms = grown
            rows = column[normed:hi]
            np.einsum("ij,ij->i", rows, rows, out=norms[normed:hi])
            self._normed[field] = hi
        return norms

    def charge_exact(self, field: str, nq: int, n: int,
                     stats: SearchStats) -> None:
        """Count an exact scan of ``n`` rows of ``field`` for ``nq``
        queries into ``stats``, the column's read included."""
        if field in self._consolidated:
            stats.cache_hits += 1
        else:
            stats.cache_misses += 1
        self.column(field)
        stats.brute_scans += 1
        stats.rows_scanned += nq * n
        stats.bytes_materialized += 4 * self._dims[field] * n   # float32
        stats.float_comparisons += nq * n

    def _search_brute(self, field: str, queries: np.ndarray, k: int,
                      metric: MetricType, allowed: Optional[np.ndarray],
                      lo: int, hi: int, stats: SearchStats
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` of ``[lo, hi)`` as a ``(rows, dists)`` block."""
        rows, dists = self.exact_block(field, queries, metric, allowed,
                                       lo, hi, stats)
        idx, vals = topk_smallest(dists, k)
        return rows[idx], vals

    def filter_block(self, field: str, queries: np.ndarray, k: int,
                     metric: MetricType, allowed: Optional[np.ndarray],
                     n_excluded: int, lo: int, hi: int, rows: np.ndarray,
                     dists: np.ndarray, real: np.ndarray,
                     stats: SearchStats) -> tuple[np.ndarray, np.ndarray]:
        """The post-filter strategy on one index's ``(nq, asked)`` block
        of candidates — ``rows`` in this segment, ascending ``dists``,
        ``real`` marking the entries that are candidates at all — for an
        index over the segment's rows ``[lo, hi)`` of which ``allowed``
        masks out ``n_excluded``.  Returns the ``(rows, dists)`` block of
        every query's first ``k`` allowed candidates, moved to the front
        with ``+inf`` padding behind them.
        """
        keep = post_filter(allowed, rows, real, k, stats)
        if keep is None:
            # The block's rows are the hits.
            return rows[:, :k], dists[:, :k]
        order = np.argsort(~keep, axis=1, kind="stable")[:, :k]
        rows = np.take_along_axis(rows, order, axis=1)
        dists = np.where(np.take_along_axis(keep, order, axis=1),
                         np.take_along_axis(dists, order, axis=1),
                         np.float32(np.inf))
        if n_excluded > 0 and real.shape[1] < hi - lo:
            # Starved by filtering: fall back to exact scan (correct).
            # Without exclusions, returning fewer than k hits is the
            # index's normal ANN behaviour and needs no escalation.
            for q in np.flatnonzero(
                    np.count_nonzero(keep, axis=1) < k).tolist():
                exact_rows, exact = self._search_brute(
                    field, queries[q:q + 1], k, metric, allowed, lo, hi,
                    stats)
                found = exact.shape[1]
                rows[q, :found] = exact_rows[0]
                dists[q, :found] = exact[0]
                dists[q, found:] = np.inf
        return rows, dists

    def _search_with_index(self, index: VectorIndex, lo: int,
                           queries: np.ndarray, k: int, metric: MetricType,
                           allowed: Optional[np.ndarray],
                           stats: SearchStats, field: str
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Post-filter strategy over one index, of the rows from ``lo``
        on, as a ``(rows, dists)`` block."""
        hi = lo + index.ntotal
        n_excluded = 0 if allowed is None \
            else index.ntotal - int(np.count_nonzero(allowed[lo:hi]))
        ids, dists = index.search(
            queries, amplified_k(k, index.ntotal, n_excluded))
        stats.add(index.stats)
        stats.index_scans += 1
        # Indexes report work as comparison counts; at the scan layer one
        # comparison examines one stored row, which is the rows-scanned
        # unit the read-unit metering charges for.
        stats.rows_scanned += (index.stats.float_comparisons
                               + index.stats.quantized_comparisons)
        return self.filter_block(
            field, queries, k, metric, allowed, n_excluded, lo, hi,
            lo + ids, dists.astype(np.float32, copy=False), ids >= 0, stats)

    def _search_growing(self, field: str, queries: np.ndarray, k: int,
                        metric: MetricType, allowed: Optional[np.ndarray],
                        stats: SearchStats
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Temp slice indexes plus exact scan of the partial tail slice."""
        size = self.config.slice_size
        parts = [self._search_with_index(
            self._temp_index_for(field, slice_no, metric), slice_no * size,
            queries, k, metric, allowed, stats, field)
            for slice_no in range(self.num_temp_indexes(field))]
        uncovered_from = len(parts) * size
        if uncovered_from < self.num_rows:
            parts.append(self._search_brute(
                field, queries, k, metric, allowed, uncovered_from,
                self.num_rows, stats))
        # Slices cover disjoint rows, so no dedup is needed here — lay
        # the blocks side by side and reselect the k smallest.
        rows = np.concatenate([part[0] for part in parts], axis=1)
        idx, dists = topk_smallest(
            np.concatenate([part[1] for part in parts], axis=1), k)
        return np.take_along_axis(rows, idx, axis=1), dists

    def range_search(self, field: str, query: np.ndarray,
                     threshold: float, metric: MetricType,
                     filter_mask: Optional[np.ndarray] = None,
                     stats: Optional[SearchStats] = None,
                     ) -> HitBatch:
        """All live rows with adjusted distance <= ``threshold`` (exact).

        Range semantics need every qualifying row, so the scan is always
        exact over the allowed rows; returns a :class:`HitBatch` sorted
        ascending.
        """
        stats = stats if stats is not None else SearchStats()
        stats.delete_filter_hits += self._num_deleted
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        rows, dists = self.exact_block(
            field, query, metric, self.exclusions(filter_mask)[0], 0,
            self.num_rows, stats)
        dists = dists[0]
        hit = np.flatnonzero(dists <= threshold)
        order = hit[np.argsort(dists[hit], kind="stable")]
        return HitBatch(self.pk_array[rows[order]],
                        dists[order].astype(np.float32))

    def fetch_rows(self, pks: Sequence) -> dict:
        """Field values of the given live primary keys.

        Returns pk -> {field: value} for the pks present (and not
        deleted) in this segment; absent pks are simply omitted.
        """
        out: dict = {}
        fields = [f for f in self.schema.fields if not f.is_primary]
        columns = {f.name: self.column(f.name) for f in fields}
        for pk in pks:
            row = self._pk_rows.get(pk)
            if row is None or self._deleted[row]:
                continue
            values = {}
            for field in fields:
                column = columns[field.name]
                if isinstance(column, np.ndarray):
                    values[field.name] = column[row].copy() \
                        if column.ndim == 2 else column[row]
                else:
                    values[field.name] = column[row]
            out[pk] = values
        return out

    def memory_bytes(self) -> int:
        """Rough resident size (placement/balancing input): the bytes of
        the consolidated columns, summed from what the segment holds
        without consolidating anything (that would count as a read)."""
        total = 0
        for name, chunks in self._chunks.items():
            if name in self._dims:
                total += 4 * self._dims[name] * self.num_rows   # float32
                continue
            value = self._consolidated.get(name)
            parts = chunks if value is None else [value]
            if self.schema.field(name).dtype.value == "string":
                total += sum(len(s) for part in parts for s in part)
            else:
                total += sum(np.asarray(part).nbytes for part in parts)
        return total
