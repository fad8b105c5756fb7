"""The node arena: a query node's sealed segments, searched as one.

The segment is Manu's unit of storage, placement, sealing, indexing and
accounting (Sections 3.1, 3.6) — nothing makes it the unit of kernel
invocation.  A :class:`SegmentArena` is what a query node derives from the
sealed segments of one ``(collection, vector field, metric)`` whose index
is a flat k-means one (:meth:`~repro.index.ivf.ArenaIndex.admits`): one
:class:`~repro.index.ivf.ArenaIndex` over their indexes and their primary
keys laid end to end.  A request then pays one coarse step and one
list-major scan for all of them, and per-segment work counters fall out
of the block.  The arena scans only rows that nothing excludes: a member
whose bitmap or filter excludes anything is searched by its own
:meth:`Segment.search`, the one post-filter, and joins the node merge.

An unfiltered one-query request is answered by one selection instead
(:meth:`SegmentArena.select`), fresh data included: the full slices of
the node's segments that have no index of their own (growing, or sealed
and waiting for theirs) join the arena once a search has built them, the
arena growing by them without deriving its members again, and their other
rows are exact columns of the same selection.  A member with deletions
stays in: its deleted rows are dropped from the selection, which stands
only where its own amplified cut provably keeps what its post-filter
would.  Where that, or one scan pass, or no pk held twice cannot be had,
the node merges the members' partials as before.

The arena copies no vector: the members' code matrices stay in their
indexes.  It reads each segment's deletion bitmap live, so deletions need
no rebuild; whatever changes the member set — load, release, a re-attached
index, a growing-to-sealed handoff, a crash — moves
:attr:`Segment.generation <repro.core.segment.Segment.generation>`, and
the owner asks :meth:`SegmentArena.holds` once it has moved instead of
being told.

The work of a search is counted into the node scan's counter array, a row
per segment in scope and a column per counter
(:data:`~repro.index.base.STAT_FIELDS`), column by column from the arrays
the selection already holds.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.results import HitBlock, ReduceStats
from repro.core.schema import MetricType
from repro.core.segment import Segment, amplified_k
from repro.index.base import CANDIDATES_PRUNED, CANDIDATES_VISITED, \
    DELETE_FILTER_HITS, FLOAT_COMPARISONS, INDEX_SCANS, ROWS_SCANNED, \
    STAT_FIELDS, SearchStats
from repro.index.distances import repeated
from repro.index.ivf import ArenaIndex


class SegmentArena:
    """Sealed segments of one vector field and metric behind one index,
    and the full slices of the node's fresh segments that joined it."""

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
        self._sealed_rows = len(self.pks)
        self.slot = {segment.segment_id: number
                     for number, segment in enumerate(segments)}
        #: Fresh segment id -> (the segment, the member numbers of its
        #: full slices that joined, in slice order).
        self.slices: dict[str, tuple[Segment, list[int]]] = {}
        # Fresh segment id -> (the segment, how many of its first rows'
        # pks are known to be held nowhere else on the node, how many rows
        # it held when last looked up).
        self._checked: dict[str, tuple[Segment, int, int]] = {}

    @staticmethod
    def admits(segment: Segment, field: str, metric: MetricType) -> bool:
        """Whether a segment is searched through an arena: sealed, with a
        flat k-means index of the metric on the field."""
        index = segment.index_for(field)
        return (index is not None and index.metric is metric
                and segment.is_sealed and ArenaIndex.admits(index))

    def holds(self, segments: Mapping[str, Segment]) -> bool:
        """Whether the arena is what these segments (by segment id), as
        they are indexed now, would be derived into and grown from: every
        sealed member still among them with the index it had, nobody else
        admitted, and every fresh segment whose slices joined still there
        and still searched through at least as many slices.  Asked once
        per move of ``Segment.generation``, which any segment's change
        moves, not only a change to these."""
        found = joined = 0
        for sid, segment in segments.items():
            number = self.slot.get(sid)
            if number is None:
                if self.admits(segment, self.field, self.metric):
                    return False
                fresh = self.slices.get(sid)
                if fresh is not None:
                    if fresh[0] is not segment or len(fresh[1]) \
                            > segment.num_temp_indexes(self.field):
                        return False
                    joined += 1
            elif self.segments[number] is segment and segment.index_for(
                    self.field) is self.index.members[number]:
                found += 1
            else:
                return False
        return found == len(self.segments) and joined == len(self.slices)

    @cached_property
    def distinct_pks(self) -> bool:
        """Whether no primary key is held twice among the sealed members:
        the witness that a selection over their rows has nothing to
        dedup.  Computed once per arena, by the first request that asks."""
        return repeated(self.pks[None, :self._sealed_rows]) is None

    def _grow(self, fresh: Sequence[Segment]) -> bool:
        """Let the full slices of ``fresh`` segments that are not members
        yet join: the index grows by them, the members' derived state is
        kept.  False where a full slice's index is not built yet (a
        search builds it, in slice order; the arena builds nothing)."""
        more, joining = [], []
        for segment in fresh:
            known = self.slices.get(segment.segment_id)
            have = len(known[1]) if known is not None else 0
            indexes = segment.built_slice_indexes(self.field, self.metric,
                                                  have)
            if indexes is None:
                return False
            if indexes:
                more.extend(indexes)
                joining.append((segment, have, len(indexes)))
        if not more:
            return True
        first = len(self.index.members)
        self.index = self.index.grown(more)
        pks = [self.pks]
        for segment, have, count in joining:
            size = segment.config.slice_size
            pks.append(segment.pk_array[have * size:(have + count) * size])
            known = self.slices.setdefault(segment.segment_id,
                                           (segment, []))
            known[1].extend(range(first, first + count))
            first += count
        self.pks = np.concatenate(pks)
        return True

    def _distinct(self, fresh: Sequence[Segment],
                  held: Mapping[str, Segment]) -> bool:
        """Whether no pk of the members or of the ``fresh`` segments is
        held twice on the node (``held``): the sealed members' witness,
        and the pks appended to a fresh segment since they were last
        looked up in every other segment held.  A failed lookup is kept
        too: it is looked up again only once more rows arrive."""
        if not self.distinct_pks:
            return False
        for segment in fresh:
            sid = segment.segment_id
            passed, seen = 0, -1
            known = self._checked.get(sid)
            if known is not None and known[0] is segment:
                _segment, passed, seen = known
            if seen == segment.num_rows:
                if passed < seen:
                    return False
                continue
            new = set(segment.pks_from(passed))
            ok = segment.holds_each_pk_once() and not any(
                other is not segment and other.holds_any_pk(new)
                for other in held.values())
            self._checked[sid] = (segment,
                                  segment.num_rows if ok else passed,
                                  segment.num_rows)
            if not ok:
                return False
        return True

    def _join(self, fresh: Sequence[Segment], held: Mapping[str, Segment]
              ) -> Optional[list[list[tuple[int, int]]]]:
        """For each of the ``fresh`` segments, ``(arena number, first
        row)`` of its joined slices, in slice order, once every full slice
        has joined and no pk is held twice on the node; None where that
        cannot be had."""
        if not self._grow(fresh) or not self._distinct(fresh, held):
            return None
        return [[(number, slice_no * segment.config.slice_size)
                 for slice_no, number in enumerate(
                     self.slices.get(segment.segment_id, (None, ()))[1])]
                for segment in fresh]

    def layout(self, segments: Sequence[Segment]) -> Optional[tuple]:
        """Where each of ``segments`` (a node's scope, in segment order)
        is in a selection over them: ``(sealed members' arena numbers,
        their positions, the fresh segments' positions)``, or None where
        a segment is searched by an index of its own.  A node's scan plan
        derives it once: it holds while the segments and the arena do."""
        numbers, owners, fresh = [], [], []
        for at, segment in enumerate(segments):
            number = self.slot.get(segment.segment_id)
            if number is not None:
                numbers.append(number)
                owners.append(at)
            elif segment.index_for(self.field) is not None:
                return None
            else:
                fresh.append(at)
        return numbers, owners, fresh

    def select(self, segments: Sequence[Segment], layout: Optional[tuple],
               queries: np.ndarray, k: int, counts: np.ndarray,
               reduce: ReduceStats, held: Mapping[str, Segment]
               ) -> Optional[HitBlock]:
        """The node-wise top-``k`` of an unfiltered one-query request over
        ``segments`` (the node's scope, in segment order, laid out as
        ``layout`` says), done by one selection over every member's rows
        and the fresh segments' tails — or None, having counted nothing,
        where the request is not one.

        It is one where ``queries`` is one row, every segment is a sealed
        member or fresh (no index of its own: its full slices join the
        arena, built by earlier searches, and its other rows are an exact
        column), no pk is held twice on the node (``held``), the members'
        scan is one pass, and every member with deletions keeps what its
        own answer would (``ListArena.select``'s cuts).  Counts each
        segment's work into its row of ``counts`` (``(len(segments),
        STAT_FIELDS)``, the scan's first count: nothing is counted in it
        yet) — a fresh segment's slices and tail, as ``Segment.search``
        counts them — and adds to ``reduce`` what
        :func:`~repro.core.results.merge_topk` would have counted over the
        segments' partials: none repeats a pk.  A scope of sealed members
        with nothing deleted takes none of the fresh or deleting steps.
        """
        if k <= 0 or queries.shape[0] != 1 or layout is None:
            return None
        numbers, owners, fresh = layout
        deleting = [at for at, segment in enumerate(segments)
                    if segment.num_deleted]
        if not fresh and not deleting:
            # Sealed members and nothing deleted: the members' rows are
            # the counter rows, no cut to prove and no tail.
            if not self.distinct_pks or not self.index.scans_once(numbers):
                return None
            ids, dists, probed, _pruned = self.index.search(
                queries, k, numbers, counts, together=True)
            visited = np.minimum(probed, k)
            self._counted(counts, visited)
            reduce.batches_merged += int(np.count_nonzero(visited))
            reduce.candidates_in += sum(visited.tolist())
            reduce.hits_out += int(np.count_nonzero(dists < np.inf))
            return HitBlock(self.pks[ids], dists)

        field = self.field
        # The members in scope: arena number, segment position, first
        # row; a member with no row left alive has nothing to find.
        gone = {at for at in deleting if not segments[at].num_live_rows}
        scope = [number for number, at in zip(numbers, owners)
                 if at not in gone]
        owners = [at for at in owners if at not in gone]
        fresh = [at for at in fresh if at not in gone]
        firsts = [0] * len(scope)
        if fresh:
            joined = self._join([segments[at] for at in fresh], held)
            if joined is None:
                return None
            members = sorted([*zip(scope, owners, firsts), *(
                (number, at, first) for at, slices in zip(fresh, joined)
                for number, first in slices)])   # numbers are unique
            scope, owners, firsts = ([member[j] for member in members]
                                     for j in range(3))
        elif not self.distinct_pks:
            return None
        if not self.index.scans_once(scope):
            return None

        tails = []
        for at in fresh:
            segment = segments[at]
            rows, dists = segment.exact_block(
                field, queries, self.metric, segment.exclusions(None)[0],
                segment.num_temp_indexes(field) * segment.config.slice_size,
                segment.num_rows)
            if len(rows):
                tails.append((at, segment, rows, dists))
        # A member with deletions: its own answer takes its amplified
        # ``k`` best probed rows and drops the deleted ones.
        cuts = {}
        for i, (number, at, first) in enumerate(zip(scope, owners, firsts)):
            segment = segments[at]
            if segment.num_deleted:
                covered = self.index.members[number].ntotal
                excluded = segment.deletions(first, first + covered)
                n_excluded = int(np.count_nonzero(excluded))
                if n_excluded:
                    cuts[i] = excluded, amplified_k(k, covered, n_excluded)
        # The work is counted a row per member (a fresh segment's slices
        # are added to its row), once the selection stands.
        work = np.zeros((len(scope), len(STAT_FIELDS)), dtype=np.int64)
        found = self.index.search(
            queries, k, scope, work, together=True, cuts=cuts,
            columns=[dists for *_, dists in tails],
            ranks=owners + [at for at, *_ in tails])
        if found is None:
            return None
        ids, dists, probed, pruned = found

        # No member probes more rows than it holds: its own answer takes
        # its ``k`` best, or its cut's.
        visited = np.minimum(probed, k)
        for i, (_excluded, asked) in cuts.items():
            visited[i] = min(probed[i], asked)
        self._counted(work, visited)
        work[:, CANDIDATES_PRUNED] += pruned
        np.add.at(counts, owners, work)
        for at in deleting:
            counts[at, DELETE_FILTER_HITS] += segments[at].num_deleted
        # A segment's partial — a fresh one's slices' and tail's together
        # — holds its ``k`` best live hits, none twice.
        kept = np.zeros(len(segments), dtype=np.int64)
        np.add.at(kept, owners, np.minimum(visited - pruned, k))
        for at, segment, rows, _dists in tails:
            charged = SearchStats()     # an exact scan reports its own
            segment.charge_exact(field, 1, len(rows), charged)
            counts[at] += charged.as_row()
            kept[at] += len(rows)
        np.minimum(kept, k, out=kept)
        reduce.batches_merged += int(np.count_nonzero(kept))
        reduce.candidates_in += int(kept.sum())
        reduce.hits_out += int(np.count_nonzero(dists < np.inf))
        ntotal = self.index.ntotal
        pks = self.pks[np.minimum(ids, ntotal - 1)]
        if tails:
            outside = ids >= ntotal
            if outside.any():
                tail_pks = np.concatenate([
                    segment.pk_array[rows]
                    for _at, segment, rows, _d in tails])
                pks[outside] = tail_pks[ids[outside] - ntotal]
        return HitBlock(pks, dists)

    @staticmethod
    def _counted(work: np.ndarray, visited: np.ndarray) -> None:
        """The scan-layer counters of rows in which one index search, and
        nothing else yet, counted its comparisons: one index scan each,
        one stored row examined per comparison, ``visited``
        candidates."""
        work[:, INDEX_SCANS] = 1
        work[:, ROWS_SCANNED] = work[:, FLOAT_COMPARISONS]
        work[:, CANDIDATES_VISITED] = visited

    def search(self, members: Sequence[int], queries: np.ndarray, k: int,
               counts: np.ndarray, at: Sequence[int]) -> HitBlock:
        """Top-``k`` over every row of every member in ``members`` (arena
        slots, ascending), as one block: the members' partials side by
        side in that order, each as wide as the widest and holding the
        rows of what ``Segment.search`` returns for its member, padded
        with ``+inf``.  Member ``i``'s work is added to row ``at[i]`` of
        ``counts``.

        No member deletes anything and no filter asks: a member that
        excludes rows is searched by its own ``Segment.search``, the one
        post-filter.  Every member's index is asked for ``k`` (no more
        than the largest member's rows, as its own search caps it) in one
        search.
        """
        nq = queries.shape[0]
        width = min(k, max(self.segments[number].num_rows
                           for number in members))
        work = np.zeros((len(members), len(STAT_FIELDS)), dtype=np.int64)
        ids, dists = self.index.search(queries, width, members, work)
        # Indexes report work as comparison counts; at the scan layer one
        # comparison examines one stored row, which is the rows-scanned
        # unit the read-unit metering charges for.
        self._counted(work, np.count_nonzero(dists < np.inf, axis=(1, 2)))
        counts[at] += work
        # Member-major to query-major: a view when there is one query.
        shape = nq, len(members) * width
        return HitBlock(self.pks[ids].transpose(1, 0, 2).reshape(shape),
                        dists.transpose(1, 0, 2).reshape(shape))
