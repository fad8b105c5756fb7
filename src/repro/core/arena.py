"""The node arena: a query node's sealed segments, searched as one.

The segment is Manu's unit of storage, placement, sealing, indexing and
accounting (Sections 3.1, 3.6) — nothing makes it the unit of kernel
invocation.  A :class:`SegmentArena` is what a query node derives from the
sealed segments of one ``(collection, vector field, metric)`` whose index
is a plain bucketed one (:meth:`~repro.index.ivf.ArenaIndex.admits`): one
:class:`~repro.index.ivf.ArenaIndex` over their indexes and their primary
keys laid end to end.  A request then pays one coarse step and one
list-major scan for all of them, per-segment work counters fall out of the
block, and a member whose bitmap or filter excludes anything hands its slab
to its segment's own post-filter (:meth:`Segment.filter_block`: the arena
holds no second copy of it).  Where nothing is excluded, no pk is held
twice and the scan is one padded pass (:meth:`SegmentArena.selects_once`),
one selection over every member's rows is the node's reduce
(:meth:`SegmentArena.select`).

The arena copies no vector: the members' code matrices stay in their
indexes.  It reads each segment's deletion bitmap live, so deletions need
no rebuild; whatever changes the member set — load, release, a re-attached
index, a growing-to-sealed handoff, a crash — does, and the owner asks
:meth:`SegmentArena.holds` before every search instead of being told.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.results import HitBlock, ReduceStats
from repro.core.schema import MetricType
from repro.core.segment import Segment, amplified_k
from repro.index.base import SearchStats
from repro.index.distances import repeated
from repro.index.ivf import ArenaIndex


class SegmentArena:
    """Sealed segments of one vector field and metric behind one index."""

    def __init__(self, field: str, metric: MetricType,
                 segments: Sequence[Segment]) -> None:
        self.field = field
        self.metric = metric
        self.segments = tuple(segments)
        self.index = ArenaIndex([segment.index_for(field)
                                 for segment in segments])
        if self.index.metric is not metric:
            raise ValueError(
                f"an arena for {metric.value} searches cannot hold "
                f"{self.index.metric.value} indexes")
        #: The members' primary keys, in the index's row numbering.
        self.pks = np.concatenate([segment.pk_array
                                   for segment in segments])
        self.slot = {segment.segment_id: number
                     for number, segment in enumerate(segments)}

    @staticmethod
    def admits(segment: Segment, field: str, metric: MetricType) -> bool:
        """Whether a segment is searched through an arena: sealed, with a
        plain bucketed index of the metric on the field."""
        index = segment.index_for(field)
        return (index is not None and index.metric is metric
                and segment.is_sealed and ArenaIndex.admits(index))

    def holds(self, segments: Mapping[str, Segment]) -> bool:
        """Whether the arena is what these segments (by segment id), as
        they are indexed now, would be derived into: every member still
        among them with the index it had, and nobody else admitted."""
        found = 0
        for sid, segment in segments.items():
            number = self.slot.get(sid)
            if number is None:
                if self.admits(segment, self.field, self.metric):
                    return False
            elif self.segments[number] is segment and segment.index_for(
                    self.field) is self.index.members[number]:
                found += 1
            else:
                return False
        return found == len(self.segments)

    @cached_property
    def distinct_pks(self) -> bool:
        """Whether no primary key is held twice among the members: the
        witness that a selection over their rows has nothing to dedup.
        Computed once per arena, by the first request that asks."""
        return repeated(self.pks[None, :]) is None

    def selects_once(self, members: Sequence[int], nq: int) -> bool:
        """Whether an unfiltered request of ``nq`` rows over ``members``
        (arena slots, ascending) is answered by :meth:`select`: no member
        has a deletion, the scan is one padded pass, and no pk is held
        twice (asked last: it is the only one that can cost more than a
        look)."""
        return (not any(self.segments[number].num_deleted
                        for number in members)
                and self.index.scans_once(members, nq)
                and self.distinct_pks)

    def select(self, members: Sequence[int], queries: np.ndarray, k: int,
               stats: Sequence[SearchStats],
               reduce: ReduceStats) -> HitBlock:
        """The top-``k`` over every row of ``members`` of a request that
        :meth:`selects_once` admits — the node-wise reduce of their
        partials, done by the scan's one selection.

        Adds each member's work to its entry of ``stats``, and to
        ``reduce`` what :func:`~repro.core.results.merge_topk` would have
        counted over their partials: a (member, query) partial holds
        ``min(k, rows scored)`` hits, and none repeats a pk.
        """
        before = [entry.float_comparisons + entry.quantized_comparisons
                  for entry in stats]
        ids, dists, rows = self.index.search(queries, k, members, stats,
                                             together=True)
        found = np.minimum(rows, k)
        visited = found.sum(axis=1).tolist()
        for entry, was, seen in zip(stats, before, visited):
            entry.index_scans += 1
            entry.rows_scanned += (entry.float_comparisons
                                   + entry.quantized_comparisons - was)
            entry.candidates_visited += seen
        reduce.batches_merged += int(np.count_nonzero(found))
        reduce.candidates_in += sum(visited)
        reduce.hits_out += int(np.count_nonzero(dists < np.inf))
        return HitBlock(self.pks[ids], dists)

    def search(self, members: Sequence[int], queries: np.ndarray, k: int,
               masks: Sequence[Optional[np.ndarray]],
               stats: Sequence[SearchStats]) -> HitBlock:
        """Top-``k`` over live, filter-passing rows of every member in
        ``members`` (arena slots, ascending), as one block: the members'
        partials side by side in that order, each as wide as the widest
        and holding the rows of what ``Segment.search`` returns for its
        member, padded with ``+inf``.

        ``masks`` holds each member's filter mask (None: no filter) and
        ``stats`` the counters its work is added to.  Every member's index
        is asked for its own amplified ``k`` in one search; only the
        members that exclude anything are post-filtered, each by its
        segment (where a row that filtering starves escalates to the
        exact scan on its own).
        """
        nq = queries.shape[0]
        scope, asked, excluding = [], [], {}
        for i, (number, mask) in enumerate(zip(members, masks)):
            segment = self.segments[number]
            stats[i].delete_filter_hits += segment.num_deleted
            allowed, n_excluded = segment.exclusions(mask)
            if n_excluded == segment.num_rows:
                continue    # nothing allowed: nothing to find
            if allowed is not None:
                excluding[len(scope)] = allowed, n_excluded
            scope.append(i)
            asked.append(amplified_k(k, segment.num_rows, n_excluded))
        if not scope:
            return HitBlock.empty(nq)
        width = max(asked)
        scanned = [stats[i] for i in scope]
        before = [entry.float_comparisons + entry.quantized_comparisons
                  for entry in scanned]
        ids, dists = self.index.search(
            queries, width, [members[i] for i in scope], scanned)
        for j, want in enumerate(asked):
            if want < width:
                dists[j, :, want:] = np.inf    # past the member's own k
        pks = self.pks[ids]
        real = dists < np.inf
        visited = real.sum(axis=(1, 2)).tolist()
        for j, i in enumerate(scope):
            entry = scanned[j]
            entry.index_scans += 1
            # Indexes report work as comparison counts; at the scan layer
            # one comparison examines one stored row, which is the
            # rows-scanned unit the read-unit metering charges for.
            entry.rows_scanned += (entry.float_comparisons
                                   + entry.quantized_comparisons
                                   - before[j])
            if j not in excluding:
                entry.candidates_visited += visited[j]
                continue
            segment, want = self.segments[members[i]], asked[j]
            allowed, n_excluded = excluding[j]
            rows, kept = segment.filter_block(
                self.field, queries, k, self.metric, allowed, n_excluded,
                0, segment.num_rows,
                np.maximum(ids[j, :, :want]
                           - self.index.row_base[members[i]], 0),
                dists[j, :, :want], real[j, :, :want], entry)
            found = kept.shape[1]
            pks[j, :, :found] = segment.pk_array[rows]
            dists[j, :, :found] = kept
            dists[j, :, found:] = np.inf
        if len(scope) < len(members):   # the others: padding only
            shape = (len(members), nq, width)
            all_pks = np.empty(shape, dtype=pks.dtype)
            all_dists = np.full(shape, np.inf, dtype=dists.dtype)
            all_pks[scope], all_dists[scope] = pks, dists
            pks, dists = all_pks, all_dists
        # Member-major to query-major: a view when there is one query.
        shape = nq, len(members) * width
        return HitBlock(pks.transpose(1, 0, 2).reshape(shape),
                        dists.transpose(1, 0, 2).reshape(shape))
