"""Search results and the two-phase top-k reduce (Section 3.6).

Query nodes produce *segment-wise* top-k lists, merge them into *node-wise*
lists, and the proxy merges node lists into the global answer.  All three
steps are the same operation — :func:`merge_topk` — which also removes
duplicate primary keys, because "a segment can reside on more than one
query node ... the proxies remove duplicate result vectors for a query".

Partial results travel the reduce path as :class:`HitBlock`s — one
partial result per query row in two parallel ``(nq, width)`` arrays — from
the segment up: a segment search, the node arena, the node reduce and the
proxy all hand one on, so a merge is one concatenation and one stable sort
for the whole request, at the node and at the proxy alike; a row read on
its own is a :class:`HitBatch`, parallel ``pks`` / ``dists`` ndarrays
sorted by ascending adjusted distance (what the single-query verbs, range
and multi-vector search, scan a segment into).  User-facing
:class:`SearchHit` objects only materialize through a batch's sequence
protocol, when the holder of a :class:`SearchResult` (or a test) looks at
its hits.

Hits carry *adjusted distances* (smaller = more similar) internally and
expose the user-facing score through :meth:`SearchHit.score_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import INDEX_SCANS, SearchStats
from repro.index.distances import repeated, to_user_score


@dataclass(frozen=True, order=True)
class SearchHit:
    """One result entity: adjusted distance first so hits sort naturally."""

    adjusted_distance: float
    pk: object = field(compare=False)

    def score_for(self, metric: MetricType) -> float:
        """User-facing score (L2 distance or similarity) for this hit."""
        return float(to_user_score(self.adjusted_distance, metric))


class HitBatch:
    """One partial top-k result as parallel ndarrays, sorted ascending:
    a row of a block read on its own, or a single-query scan's result.

    The contract every producer and consumer relies on:

    * ``dists`` is 1-D, float, and sorted ascending (adjusted distances);
    * ``pks`` is parallel to ``dists`` (same length, pk of each hit);
    * duplicate pks may appear *across* batches (replicas, segment copies
      during redistribution) — :func:`merge_topk` removes them; a single
      segment never emits the same pk twice.

    Batches are cheap views over the arrays the distance kernels already
    produced; nothing is copied per hit.  The sequence protocol
    (``len``/``iter``/``[i]``/slices) materializes :class:`SearchHit`
    objects on demand, so a batch serves as ``SearchResult.hits``.
    """

    __slots__ = ("pks", "dists")

    def __init__(self, pks, dists) -> None:
        self.pks = np.asarray(pks)
        self.dists = np.asarray(dists)

    @classmethod
    def empty(cls) -> "HitBatch":
        return cls(np.empty(0, dtype=object),
                   np.empty(0, dtype=np.float32))

    @classmethod
    def from_hits(cls, hits: Iterable[SearchHit]) -> "HitBatch":
        """Pack already-sorted :class:`SearchHit`s into a batch."""
        hits = list(hits)
        if not hits:
            return cls.empty()
        pks = [h.pk for h in hits]
        arr = np.asarray(pks)
        if arr.dtype.kind in "US" \
                and not all(isinstance(pk, str) for pk in pks):
            # Heterogeneous pks: keep them as objects instead of letting
            # numpy silently stringify everything.
            arr = np.empty(len(pks), dtype=object)
            arr[:] = pks
        return cls(arr, np.asarray([h.adjusted_distance for h in hits]))

    @classmethod
    def from_unsorted(cls, pks, dists) -> "HitBatch":
        """Build a batch from parallel arrays in arbitrary order."""
        dists = np.asarray(dists)
        order = np.argsort(dists, kind="stable")
        return cls(np.asarray(pks)[order], dists[order])

    def to_hits(self) -> list[SearchHit]:
        """Materialize user-facing hit objects (the SearchResult boundary).

        ``tolist()`` converts numpy scalars back to native Python types so
        pks round-trip exactly (JSON encoding, dict keys, equality).
        """
        return [SearchHit(float(d), pk)
                for pk, d in zip(self.pks.tolist(), self.dists.tolist())]

    def __len__(self) -> int:
        return int(self.pks.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self.to_hits())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.to_hits()[i]
        pk = self.pks[i]
        if isinstance(pk, np.generic):
            pk = pk.item()
        return SearchHit(float(self.dists[i]), pk)

    def __eq__(self, other) -> bool:
        if isinstance(other, HitBatch):
            return (len(self) == len(other)
                    and bool(np.all(self.pks == other.pks))
                    and bool(np.all(self.dists == other.dists)))
        if isinstance(other, (list, tuple)):
            return self.to_hits() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"HitBatch(n={len(self)})"


class HitBlock:
    """One partial result per query: the rows of two parallel 2-D arrays.

    Row ``q`` of ``pks`` / ``dists`` holds query ``q``'s hits, and an
    entry at distance ``+inf`` is padding: rows differ in how many hits
    they hold.  Every producer — ``Segment.search``, the node arena,
    :func:`merge_topk` — hands out rows sorted ascending with the hits
    first, which read as :class:`HitBatch` views (``block[q]``,
    iteration); :func:`merge_topk` itself takes padding wherever it sits
    (several blocks side by side are one).
    """

    __slots__ = ("pks", "dists")

    def __init__(self, pks: np.ndarray, dists: np.ndarray) -> None:
        self.pks = pks
        self.dists = dists

    @classmethod
    def empty(cls, nq: int) -> "HitBlock":
        return cls(np.empty((nq, 0), dtype=object),
                   np.empty((nq, 0), dtype=np.float32))

    @classmethod
    def from_batches(cls, batches: Sequence[HitBatch]) -> "HitBlock":
        """One row per batch, tail-padded to the longest."""
        if len(batches) == 1:
            return cls(batches[0].pks[None, :], batches[0].dists[None, :])
        filled = [batch for batch in batches if len(batch)]
        if not filled:
            return cls.empty(len(batches))
        width = max(len(batch) for batch in filled)
        pks = np.zeros((len(batches), width), dtype=np.result_type(
            *[batch.pks.dtype for batch in filled]))
        dists = np.full((len(batches), width), np.inf, dtype=np.result_type(
            *[batch.dists.dtype for batch in filled]))
        for row, batch in enumerate(batches):
            pks[row, :len(batch)] = batch.pks
            dists[row, :len(batch)] = batch.dists
        return cls(pks, dists)

    def __len__(self) -> int:
        return self.dists.shape[0]

    def __getitem__(self, q: int) -> HitBatch:
        dists = self.dists[q]
        n = np.count_nonzero(dists < np.inf)
        return HitBatch(self.pks[q, :n], dists[:n])

    def __iter__(self):
        counts = (self.dists < np.inf).sum(axis=1).tolist()
        return (HitBatch(pks[:n], dists[:n])
                for pks, dists, n in zip(self.pks, self.dists, counts))

    def __repr__(self) -> str:
        return f"HitBlock(nq={len(self)}, width={self.dists.shape[1]})"


@dataclass
class ReduceStats:
    """Work counters of one (or several accumulated) top-k merges.

    ``hits_deduped`` counts duplicates over the *full* candidate set, not
    just the first ``k``.
    """

    batches_merged: int = 0
    candidates_in: int = 0
    hits_deduped: int = 0
    hits_out: int = 0

    def as_dict(self) -> dict:
        return {"batches_merged": self.batches_merged,
                "candidates_in": self.candidates_in,
                "hits_deduped": self.hits_deduped,
                "hits_out": self.hits_out}


@dataclass(slots=True)
class NodeWork:
    """What one query node did for one read (DESIGN.md §6h), counted once
    per node scan.

    ``counts`` is the scan's counter array, ``(fields, segments,
    STAT_FIELDS)``: per searched field a row per scanned segment, in scan
    order.  ``ends`` is the cost model's virtual ms of the scan's work up
    to and including each segment (its last entry the whole scan's, each
    field charged at its own dimension), ``ids`` / ``held`` are the
    scanned segments' ids and the segments, and ``reduce`` the node-local
    merge's counters — None for a point read, which consults ``segments``
    segments and scans none.  ``totals`` and ``scans`` read the array as
    :class:`SearchStats`, for EXPLAIN."""

    segments: int
    counts: Optional[np.ndarray] = None
    ends: Sequence[float] = ()
    ids: Sequence[str] = ()
    held: Sequence = ()
    reduce: Optional[ReduceStats] = field(default_factory=ReduceStats)

    @property
    def totals(self) -> list[SearchStats]:
        """The node's counters, a :class:`SearchStats` per field."""
        return [SearchStats.from_row(row)
                for row in self.counts.sum(axis=1).tolist()]

    @property
    def scans(self) -> list[tuple]:
        """Per scanned segment, in order, ``(id, path, rows, [SearchStats
        per field])``: its path is ``growing``, or ``index`` where an
        index scanned it, else ``brute``."""
        per_segment = self.counts.transpose(1, 0, 2).tolist()
        return [(segment.segment_id,
                 "growing" if not segment.is_sealed
                 else "index" if any(row[INDEX_SCANS] for row in rows)
                 else "brute",
                 segment.num_rows,
                 [SearchStats.from_row(row) for row in rows])
                for segment, rows in zip(self.held, per_segment)]


@dataclass
class SearchResult:
    """Top-k hits for one query plus execution metadata.

    ``hits`` is the merged :class:`HitBatch` itself — a *read-only
    sequence view* over two parallel arrays: ``len`` / iteration /
    indexing make :class:`SearchHit` objects on access, nothing is stored
    per hit, and there is no ``+`` / ``.sort()`` / ``.append`` (take
    ``list(result.hits)`` for a mutable copy).  A list of hits handed to
    the constructor is packed into a batch.  ``pks`` / ``distances`` /
    ``scores`` read the arrays directly and return plain lists.  Callers
    keep whole result sets alive, and two small arrays per query are a
    third of the size of ten hit objects.

    ``profile`` is the request's :class:`repro.profiling.QueryProfile`
    when the read ran with ``explain=True`` (all results of one batched
    request share the same profile object), else None.
    """

    hits: HitBatch
    metric: MetricType
    latency_ms: float = 0.0
    consistency_wait_ms: float = 0.0
    segments_searched: int = 0
    profile: object = None

    def __post_init__(self) -> None:
        if not isinstance(self.hits, HitBatch):
            self.hits = HitBatch.from_hits(self.hits)

    @property
    def pks(self) -> list:
        return self.hits.pks.tolist()

    @property
    def scores(self) -> list[float]:
        """User-facing scores (L2 distance or similarity)."""
        return to_user_score(self.hits.dists, self.metric).tolist()

    @property
    def distances(self) -> list[float]:
        """Adjusted distances (internal convention)."""
        return self.hits.dists.tolist()

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self):
        return iter(self.hits)


Partial = Union[HitBatch, Iterable[SearchHit]]


def _repeats(pks: np.ndarray, live: np.ndarray) -> Optional[np.ndarray]:
    """Which live entries repeat a pk found earlier in their row, or None
    when none does (the common case: nothing to drop).

    Rows are sorted by ascending distance with the padding last, so
    "earlier" is "a better copy".  Homogeneous pk arrays (int64 / unicode
    — the only dtypes a typed pk column produces) are ranked by a stable
    sort, in which an entry repeats a pk exactly when it follows an equal
    one; object arrays (heterogeneous pks, not sortable by numpy) fall
    back to a set walk.
    """
    if pks.dtype.kind != "O":
        # Equal pks are ranked best first and any padding last, as the
        # sort is stable: a live entry that follows an equal pk follows a
        # live one.
        again = repeated(pks)
        if again is None:
            return None
        again &= live
    else:
        again = np.zeros(pks.shape, dtype=bool)
        for row, (row_pks, n) in enumerate(zip(
                pks.tolist(), np.count_nonzero(live, axis=1).tolist())):
            seen: set = set()
            for col, pk in enumerate(row_pks[:n]):
                again[row, col] = pk in seen
                seen.add(pk)
    return again if again.any() else None


def _reordered(pks: np.ndarray, dists: np.ndarray, order: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays with every row's entries in the row's ``order``."""
    nq, width = order.shape
    if nq > 1:      # to flat indices
        order += np.arange(0, nq * width, width)[:, None]
    return pks.reshape(-1)[order], dists.reshape(-1)[order]


def merge_topk(partials: Sequence[Union[HitBlock, Partial]],
               k: Optional[int], stats: Optional[ReduceStats] = None
               ) -> Union[HitBlock, HitBatch]:
    """Merge partial results into deduplicated global top-k's (``k=None``:
    keep every unique hit — range search has no k).

    ``partials`` are :class:`HitBlock`s of one row count, merged row by
    row into one block: the reduce of a whole request, at the node (its
    segments' blocks) and at the proxy (its nodes').  Partials of a
    single query — :class:`HitBatch`es, or iterables of sorted
    :class:`SearchHit`s — are one-row blocks and come back as the merged
    row, a :class:`HitBatch`.  When the same primary key appears in
    several partials (hot replicas, segment copies during
    redistribution), only its best hit survives.

    The merge is array-native: concatenate side by side, one stable sort
    by distance along the rows (ties resolve to partial order then
    within-partial order, exactly like a stable streaming merge of sorted
    partials), first-occurrence dedup on pk, truncate to ``k``.  A full
    stable sort — not an ``argpartition`` preselection — is used on
    purpose: partition boundaries are unstable under distance ties, and
    the reduce must stay hit-for-hit identical to the streaming
    reference in ``tests/test_core_results.py``.

    With ``stats`` the merge additionally accumulates its work counters
    (profiling plane); the default None keeps the hot path untouched.
    """
    if not partials:
        return HitBatch.empty()
    if not isinstance(partials[0], HitBlock):
        rows = [p if isinstance(p, HitBatch) else HitBatch.from_hits(p)
                for p in partials]
        return merge_topk([HitBlock(row.pks[None, :], row.dists[None, :])
                           for row in rows], k, stats)[0]
    nq = len(partials[0])
    if stats is not None:
        stats.batches_merged += len(partials) * nq
    filled = [block for block in partials if block.dists.shape[1]]
    if not filled or (k is not None and k <= 0):
        return HitBlock.empty(nq)
    if len(filled) == 1:
        pks, dists = filled[0].pks, filled[0].dists
    else:
        pks = np.concatenate([block.pks for block in filled], axis=1)
        dists = np.concatenate([block.dists for block in filled], axis=1)
    width = dists.shape[1]
    pks, dists = _reordered(
        pks, dists, np.argsort(dists, axis=1, kind="stable"))
    live = dists < np.inf          # the padding is sorted last
    again = _repeats(pks, live)
    if stats is not None:
        stats.candidates_in += int(np.count_nonzero(live))
    if again is not None:
        if stats is not None:
            stats.hits_deduped += int(np.count_nonzero(again))
        # Survivors to the front, order kept; the copies become padding.
        dists[again] = np.inf
        pks, dists = _reordered(
            pks, dists, np.argsort(again, axis=1, kind="stable"))
        live = dists < np.inf
    if k is not None and k < width:
        # Copies: a result must not keep the whole candidate row alive.
        pks, dists, live = pks[:, :k].copy(), dists[:, :k].copy(), \
            live[:, :k]
    if stats is not None:
        stats.hits_out += int(np.count_nonzero(live))
    return HitBlock(pks, dists)


def hits_from_arrays(pks: Sequence, adjusted: Sequence[float]
                     ) -> list[SearchHit]:
    """Build a sorted hit list from parallel pk / distance arrays."""
    hits = [SearchHit(float(d), pk) for pk, d in zip(pks, adjusted)]
    hits.sort()
    return hits
