"""Search results and the two-phase top-k reduce (Section 3.6).

Query nodes produce *segment-wise* top-k lists, merge them into *node-wise*
lists, and the proxy merges node lists into the global answer.  All three
steps are the same operation — :func:`merge_topk` — which also removes
duplicate primary keys, because "a segment can reside on more than one
query node ... the proxies remove duplicate result vectors for a query".

Partial results travel the whole reduce path as :class:`HitBatch`es —
parallel ``pks`` / ``dists`` ndarrays sorted by ascending adjusted
distance — so merging is numpy concatenation + stable sorting instead of
per-hit Python-object churn.  User-facing :class:`SearchHit` objects only
materialize through a batch's sequence protocol, when the holder of a
:class:`SearchResult` (or a test) looks at its hits.

Hits carry *adjusted distances* (smaller = more similar) internally and
expose the user-facing score through :meth:`SearchHit.score_for`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.schema import MetricType
from repro.index.distances import to_user_score


@dataclass(frozen=True, order=True)
class SearchHit:
    """One result entity: adjusted distance first so hits sort naturally."""

    adjusted_distance: float
    pk: object = field(compare=False)

    def score_for(self, metric: MetricType) -> float:
        """User-facing score (L2 distance or similarity) for this hit."""
        return float(to_user_score(self.adjusted_distance, metric))


class HitBatch:
    """One partial top-k result as parallel ndarrays, sorted ascending.

    The contract every producer (segment searches) and consumer (node and
    proxy merges) relies on:

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

    @classmethod
    def concat(cls, batches: Sequence["HitBatch"]) -> "HitBatch":
        """Stably merge sorted batches (no dedup), ordered by distance.

        Ties keep batch order then within-batch order — the same order a
        stable streaming merge of the sorted inputs would produce.
        """
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        pks = np.concatenate([b.pks for b in batches])
        dists = np.concatenate([b.dists for b in batches])
        order = np.argsort(dists, kind="stable")
        return cls(pks[order], dists[order])

    def topk(self, k: int) -> "HitBatch":
        """The first ``k`` hits (the batch is already sorted)."""
        if k >= len(self):
            return self
        k = max(k, 0)
        return HitBatch(self.pks[:k], self.dists[:k])

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


@dataclass
class ReduceStats:
    """Work counters of one (or several accumulated) top-k merges.

    ``hits_deduped`` counts duplicates over the *full* candidate set, not
    just the first ``k`` — the definition both the vectorized and the
    reference reduce agree on (see :func:`merge_topk_reference`).
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


def _first_occurrence(pks: np.ndarray):
    """Indices keeping the first occurrence of each pk, order preserved.

    ``pks`` is already sorted by ascending distance, so "first" is "best
    copy".  Homogeneous pk arrays (int64 / unicode — the only dtypes a
    typed pk column produces) use ``np.unique``, whose ``return_index``
    points at first occurrences; object arrays (heterogeneous pks, not
    sortable by numpy) fall back to a set walk.  Returns None when every
    pk is already unique (the common case — no copy needed).
    """
    n = len(pks)
    if n <= 1:
        return None
    if pks.dtype.kind == "O":
        seen: set = set()
        keep = [i for i, pk in enumerate(pks.tolist())
                if pk not in seen and not seen.add(pk)]
        if len(keep) == n:
            return None
        return np.asarray(keep, dtype=np.int64)
    unique_first = np.unique(pks, return_index=True)[1]
    if len(unique_first) == n:
        return None
    unique_first.sort()
    return unique_first


def merge_topk(partials: Sequence[Partial], k: Optional[int],
               stats: Optional[ReduceStats] = None) -> HitBatch:
    """Merge sorted partial results into a deduplicated global top-k
    (``k=None``: keep every unique hit — range search has no k).

    Each partial (a :class:`HitBatch`, or an iterable of sorted
    :class:`SearchHit`s) must be sorted by adjusted distance ascending —
    the contract of segment/node searches.  When the same primary key
    appears in several partials (hot replicas, segment copies during
    redistribution), only its best hit survives.

    The merge is array-native: concatenate, one stable sort by distance
    (ties resolve to partial order then within-partial order, exactly like
    a stable streaming merge), first-occurrence dedup on pk, truncate to
    ``k``.  A full stable sort — not an ``argpartition`` preselection — is
    used on purpose: partition boundaries are unstable under distance
    ties, and the reduce must stay hit-for-hit identical to
    :func:`merge_topk_reference`.

    With ``stats`` the merge additionally accumulates its work counters
    (profiling plane); the default None keeps the hot path untouched.
    """
    if k is not None and k <= 0:
        if stats is not None:
            stats.batches_merged += len(partials)
        return HitBatch.empty()
    batches = [p if isinstance(p, HitBatch) else HitBatch.from_hits(p)
               for p in partials]
    merged = HitBatch.concat(batches)
    if stats is not None:
        stats.batches_merged += len(batches)
        stats.candidates_in += len(merged)
    if not merged:
        return merged
    keep = _first_occurrence(merged.pks)
    if keep is not None:
        if stats is not None:
            stats.hits_deduped += len(merged) - len(keep)
        merged = HitBatch(merged.pks[keep], merged.dists[keep])
    out = merged if k is None else merged.topk(k)
    if stats is not None:
        stats.hits_out += len(out)
    return out


def merge_topk_reference(partials: Sequence[Iterable[SearchHit]],
                         k: int,
                         stats: Optional[ReduceStats] = None
                         ) -> list[SearchHit]:
    """Object-based reduce, retained as the oracle for the vectorized path.

    This is the pre-HitBatch implementation (``heapq.merge`` over
    :class:`SearchHit` objects with a seen-set dedup).  The equivalence
    suite asserts :func:`merge_topk` matches it hit-for-hit, and
    ``benchmarks/bench_reduce_path.py`` measures the speedup against it.

    With ``stats`` the merge is consumed past the ``k``-th unique hit so
    ``hits_deduped`` counts duplicates over the full candidate set — the
    vectorized path dedups before truncating, and the short-circuit would
    otherwise undercount duplicates that sort after the cutoff.  The
    returned hits are unchanged either way; without ``stats`` the merge
    still stops at ``k`` (the fast oracle the benches time).
    """
    if k <= 0:
        if stats is not None:
            stats.batches_merged += len(list(partials))
        return []
    partials = [list(p) for p in partials] if stats is not None \
        else list(partials)
    merged = heapq.merge(*partials)
    out: list[SearchHit] = []
    seen: set = set()
    dupes = 0
    for hit in merged:
        if hit.pk in seen:
            dupes += 1
            continue
        seen.add(hit.pk)
        if len(out) < k:
            out.append(hit)
            if len(out) >= k and stats is None:
                break
    if stats is not None:
        stats.batches_merged += len(partials)
        stats.candidates_in += sum(len(p) for p in partials)
        stats.hits_deduped += dupes
        stats.hits_out += len(out)
    return out


def hits_from_arrays(pks: Sequence, adjusted: Sequence[float]
                     ) -> list[SearchHit]:
    """Build a sorted hit list from parallel pk / distance arrays."""
    hits = [SearchHit(float(d), pk) for pk, d in zip(pks, adjusted)]
    hits.sort()
    return hits
