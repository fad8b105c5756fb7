"""Query nodes: serve vector search (Section 3.6).

A query node draws data from the three sources the paper lists:

* the **WAL** — for shard channels the node *owns* it materializes growing
  segments (with temporary slice indexes) so fresh inserts are searchable
  within one log-delivery delay; from channels it does not own it consumes
  only deletions and time-ticks (deletions may target sealed segments it
  hosts, and ticks drive the consistency gate);
* **index files** — sealed-segment indexes built by index nodes, loaded
  from the object store and attached to the local segment copy;
* the **binlog** — sealed segments assigned by the query coordinator are
  loaded column-by-column from the object store.

Search runs the node-local phase of the two-phase reduce: segment-wise
top-k (honoring deletion bitmaps and attribute filters via the cost-based
strategy), merged into the node-wise top-k.  The node, not the segment, is
the unit of scanning: its sealed inverted-list segments are searched as
one arena (:mod:`repro.core.arena`) and every segment's candidates meet in
one block, reduced by one merge — or, for an unfiltered request, by the
arena scan's own selection, which the growing segments' built slices and
their tails join.
``busy_until_ms`` accounting turns concurrent requests into queueing
delay, which is what the elasticity and scalability figures measure.  A
read verb reports its work (:class:`~repro.core.results.NodeWork`) and
observes nothing: the proxy turns the report into every plane (DESIGN.md
§6h).  What a scan derives from the node's segments alone — which are in
scope, in which order, the fields' dimensions, the arena — is a scan plan,
derived again only when :attr:`Segment.generation` has moved; the work is
counted into one counter array per scan.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config import ManuConfig
from repro.core.consistency import ConsistencyGate
from repro.core.arena import SegmentArena
from repro.core.expr import FilterExpression
from repro.core.filtering import choose_strategy, compute_mask, \
    planned_search
from repro.core.multivector import MultiVectorQuery, search_segment
from repro.core.results import HitBlock, NodeWork, ReduceStats, \
    merge_topk
from repro.core.schema import CollectionSchema, MetricType
from repro.core.segment import Segment
from repro.core.segment_set import SegmentSet
from repro.errors import ClusterStateError
from repro.index.base import STAT_FIELDS, SearchStats, index_from_bytes
from repro.log.binlog import BinlogReader
from repro.log.broker import LogBroker, LogEntry, Subscription
from repro.log.wal import InsertRecord, TimeTickRecord, data_records
from repro.sim.costmodel import CostModel
from repro.sim.events import EventLoop
from repro.storage.object_store import ObjectStore
from repro.tracing import NOOP_TRACER, TraceCollector


class _ScanPlan:
    """What a node scan derives from the node's segments alone: the
    segments in scope in segment-id order, their ids, the searched
    fields' dimensions and, for a vector search, the arena and where each
    segment sits in its selection (``SegmentArena.layout``).  Derived
    once per ``Segment.generation``."""

    __slots__ = ("segments", "ids", "dims", "arena", "layout")

    def __init__(self, segments: tuple[Segment, ...], dims: list[int],
                 arena: Optional[SegmentArena]) -> None:
        self.segments = segments
        self.ids = tuple(segment.segment_id for segment in segments)
        self.dims = dims
        self.arena = arena
        self.layout = arena.layout(segments) if arena is not None else None


class QueryNode:
    """One search worker."""

    def __init__(self, name: str, loop: EventLoop, broker: LogBroker,
                 store: ObjectStore, config: ManuConfig,
                 cost_model: CostModel, schema_provider,
                 tracer: Optional[TraceCollector] = None) -> None:
        self.name = name
        self._loop = loop
        self._broker = broker
        self._store = store
        self._config = config
        self._cost = cost_model
        self._schema_provider = schema_provider
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._component = f"query-node:{name}"
        self._reader = BinlogReader(store)

        self._subs: dict[str, Subscription] = {}
        self._owned_channels: set[str] = set()
        # collection -> its segments, growing and sealed together, and the
        # deletes seen (applied to late loads).  A query node never seals
        # a growing copy: "growing" is ``not segment.is_sealed``.
        self._sets: dict[str, SegmentSet] = {}
        self._gates: dict[str, ConsistencyGate] = {}  # per collection
        # (collection, vector field, metric) -> the arena over the sealed
        # segments searched as one, and the fresh segments' slices that
        # joined it (None: there are no sealed ones).  Derived, and
        # checked against the segments it was derived from whenever
        # ``Segment.generation`` moves: nothing that loads, releases or
        # re-indexes a segment has to remember it.
        self._arenas: dict[tuple, Optional[SegmentArena]] = {}
        # (collection, scope, fields, metric) -> its scan plan, derived
        # at ``Segment.generation`` ``_planned``.
        self._plans: dict[tuple, _ScanPlan] = {}
        self._planned = -1
        self.busy_until_ms = 0.0
        self.searches_served = 0
        # Cumulative virtual service time of local search work; the
        # rebalancer's load reports and the skew bench read deltas of
        # this to measure per-node serving load.
        self.service_ms_total = 0.0
        self.alive = True

    # ------------------------------------------------------------------
    # log consumption
    # ------------------------------------------------------------------

    def subscribe(self, collection: str, channel: str, owned: bool,
                  from_offset: int = 0) -> None:
        """Consume one WAL shard channel.

        ``owned`` channels materialize growing segments; non-owned channels
        contribute only deletions and the consistency watermark.
        """
        if channel in self._subs:
            if owned:
                self._owned_channels.add(channel)
            return
        if owned:
            self._owned_channels.add(channel)
        self._gates.setdefault(collection, ConsistencyGate())
        self._subs[channel] = self._broker.subscribe(
            channel, f"query-node:{self.name}", from_offset,
            callback=lambda entry, c=collection: self._on_entry(c, entry))

    def retire_segments(self, collection: str, segment_ids) -> None:
        """Ids a replay of the collection's channels must not grow again
        (compaction merged them away)."""
        self._segments(collection).retire(segment_ids)

    def unsubscribe(self, channel: str) -> None:
        sub = self._subs.pop(channel, None)
        self._owned_channels.discard(channel)
        if sub is not None:
            sub.cancel()

    def disown_channel(self, channel: str) -> None:
        """Fence this node off a channel it owned.

        The subscription stays (deletions and time-ticks must keep
        applying everywhere) but post-fence inserts are no longer
        materialized — the migration target owns them now.  The node's
        existing growing copies keep serving until the coordinator
        releases them after the new owner catches up.
        """
        self._owned_channels.discard(channel)

    def channel_position(self, channel: str) -> int:
        """Next offset this node's subscription will consume."""
        sub = self._subs.get(channel)
        return sub.offset if sub is not None else 0

    def growing_of_shard(self, collection: str, shard: int) -> list[str]:
        """Growing segment ids this node built from one WAL shard."""
        return self._segments(collection).growing_of_shard(shard)

    @property
    def owned_channels(self) -> set[str]:
        return set(self._owned_channels)

    def _on_entry(self, collection: str, entry: LogEntry) -> None:
        if not self.alive:
            return
        record = entry.payload
        gate = self._gates.setdefault(collection, ConsistencyGate())
        if isinstance(record, TimeTickRecord):
            gate.observe_tick(record.ts)
            return
        gate.observe(record.ts)
        # The entry's ts, a commit group's max inner LSN, moved the gate.
        segments = self._segments(collection)
        for inner in data_records(record):
            if isinstance(inner, InsertRecord) \
                    and entry.channel not in self._owned_channels:
                continue  # only deletions apply from a non-owned channel
            segments.apply(inner, entry.offset, now_ms=self._loop.now())

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------

    def _segments(self, collection: str) -> SegmentSet:
        if collection not in self._sets:
            self._sets[collection] = SegmentSet(
                collection, self._schema_provider(collection),
                self._config.segment, self._store,
                temp_index=self._config.segment.enable_temp_index)
        return self._sets[collection]

    def _held(self, collection: str) -> dict[str, Segment]:
        """The collection's segments by id (empty when none are held)."""
        segments = self._sets.get(collection)
        return segments.segments if segments is not None else {}

    def load_segment(self, collection: str, segment_id: str) -> float:
        """Load a sealed segment from its binlog; returns load duration.

        Deletions consumed before the load are re-applied so late loads
        converge with live copies.
        """
        held = self.segment(collection, segment_id)
        if held is not None and held.is_sealed:
            return 0.0
        with self._tracer.span("query_node.load_segment", self._component,
                               collection=collection, segment=segment_id):
            manifest = self._reader.read_manifest(collection, segment_id)
            columns = self._reader.read_fields(collection, segment_id,
                                               manifest.fields)
            self._segments(collection).load(manifest, columns)
            nbytes = sum(v.nbytes if isinstance(v, np.ndarray)
                         else sum(len(str(x)) for x in v)
                         for v in columns.values())
            return self._cost.object_read(nbytes)

    def release_segment(self, collection: str, segment_id: str) -> bool:
        """Drop a segment copy (handoff done, rebalance, or release)."""
        return self._segments(collection).release(segment_id) is not None

    def attach_index(self, collection: str, segment_id: str, field: str,
                     path: str) -> float:
        """Load an index blob and attach it; returns load duration."""
        segment = self.segment(collection, segment_id)
        if segment is None:
            raise ClusterStateError(
                f"{self.name} does not hold segment {segment_id}")
        with self._tracer.span("query_node.attach_index", self._component,
                               collection=collection, segment=segment_id,
                               field=field):
            raw = self._store.get(path)
            index = index_from_bytes(raw)
            segment.attach_index(field, index)
        return self._cost.object_read(len(raw))

    def segments_of(self, collection: str) -> list[str]:
        return sorted(self._held(collection))

    def sealed_segments_of(self, collection: str) -> list[str]:
        return sorted(sid for sid, segment in self._held(collection).items()
                      if segment.is_sealed)

    def segment(self, collection: str, segment_id: str) -> Optional[Segment]:
        return self._held(collection).get(segment_id)

    def holds_collection(self, collection: str) -> bool:
        """Whether any segment of the collection lives on this node."""
        return bool(self._held(collection))

    def is_growing(self, collection: str, segment_id: str) -> bool:
        """Whether the local copy of a segment is still growing."""
        segment = self.segment(collection, segment_id)
        return segment is not None and not segment.is_sealed

    def num_rows(self, collection: Optional[str] = None) -> int:
        names = self._sets if collection is None else (collection,)
        return sum(seg.num_rows for name in names
                   for seg in self._held(name).values())

    def memory_bytes(self) -> int:
        return sum(seg.memory_bytes() for segments in self._sets.values()
                   for seg in segments.segments.values())

    # ------------------------------------------------------------------
    # consistency
    # ------------------------------------------------------------------

    def gate(self, collection: str) -> ConsistencyGate:
        return self._gates.setdefault(collection, ConsistencyGate())

    def ready(self, collection: str, guarantee_ts: int) -> bool:
        return self.gate(collection).ready(guarantee_ts)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _scoped_segments(self, collection: str,
                         scope: Optional[set[str]]) -> list[Segment]:
        """Local segments participating in a request, in segment-id order.

        ``scope`` is the proxy's replica plan: the sealed segment ids this
        node should cover (None = everything).  Growing segments are
        always in scope — they exist only on their channel's owner.
        """
        return [segment for sid, segment
                in sorted(self._held(collection).items())
                if segment.num_rows > 0
                and (scope is None or sid in scope
                     or not segment.is_sealed)]

    def _arena(self, collection: str, field: str,
               metric: MetricType) -> Optional[SegmentArena]:
        """The arena over the node's sealed segments that are searched as
        one under ``metric`` — all of them, whatever a request's scope —
        derived again when they are not the ones it was derived from."""
        held = self._held(collection)
        key = (collection, field, metric)
        arena = self._arenas.get(key)
        if arena is None or not arena.holds(held):
            members = [segment for _sid, segment in sorted(held.items())
                       if SegmentArena.admits(segment, field, metric)]
            arena = self._arenas[key] = SegmentArena(
                field, metric, members) if members else None
        return arena

    def _plan(self, collection: str, scope: Optional[set[str]],
              fields: tuple[str, ...],
              metric: Optional[MetricType]) -> _ScanPlan:
        """The scan plan of ``fields`` (and, under ``metric``, of the one
        field's arena) over the segments in ``scope``: kept while
        ``Segment.generation`` stands, all plans derived again once it
        has moved."""
        if self._planned != Segment.generation:
            self._plans.clear()
            self._planned = Segment.generation
        key = (collection, None if scope is None else frozenset(scope),
               fields, metric)
        plan = self._plans.get(key)
        if plan is None:
            schema: CollectionSchema = self._schema_provider(collection)
            plan = self._plans[key] = _ScanPlan(
                tuple(self._scoped_segments(collection, scope)),
                [schema.field(name).dim for name in fields],
                self._arena(collection, fields[0], metric)
                if metric is not None else None)
        return plan

    def _scan(self, collection: str, scope: Optional[set[str]],
              fields: tuple[str, ...], nq: int, k: Optional[int],
              scan: Callable, metric: Optional[MetricType] = None
              ) -> tuple[HitBlock, float, NodeWork]:
        """The one scan and node-local reduce behind every scan verb;
        returns ``(node-wise top-k block, virtual service ms, the work
        done)``.

        ``scan(plan, counts, reduce)`` scans the segments in scope (the
        scan plan's, ``_plan``) and returns their ``nq``-row partials as
        ``(block, n)`` pairs in segment order, a block holding the
        partials of ``n`` consecutive segments side by side at one width
        (the arena's come stacked), counting what it did for segment
        ``i`` into ``counts[f, i]`` — one int64 counter array,
        ``(len(fields), segments, STAT_FIELDS)``, so each vector field is
        charged at its own dimension.  The blocks are merged side by side:
        one concatenation and one stable sort for the whole request.  A
        scan whose own selection was the reduce returns the node-wise
        block itself, its counters added to ``reduce``.

        Work is measured once, per segment, and reported as measured: the
        counter array, what the cost model makes of the work up to and
        including each segment (one ``scan_cost``, whose last is the
        service time's), and the reduce's counters.
        """
        plan = self._plan(collection, scope, fields, metric)
        segments = plan.segments
        counts = np.zeros((len(fields), len(segments), len(STAT_FIELDS)),
                          dtype=np.int64)
        reduce = ReduceStats()
        parts = scan(plan, counts, reduce) if segments else []
        if isinstance(parts, HitBlock):
            merged = parts
        else:
            merged = merge_topk([block for block, _n in parts], k,
                                stats=reduce) \
                if parts else HitBlock.empty(nq)
            # A segment that found nothing for a query hands that query's
            # reduce no partial (a row sorts its hits first): the first
            # column of each of a block's partials.
            reduce.batches_merged = sum(
                int(np.count_nonzero(
                    block.dists[:, ::block.dists.shape[1] // n] < np.inf))
                for block, n in parts if block.dists.shape[1])
        # The fixed message overhead is paid once per (possibly batched)
        # request plus a small per-row term — the amortization that makes
        # Section 3.6's request batching worthwhile.  (Summed left to
        # right, not as work + overhead: virtual times are compared to
        # the last digit across commits.)
        cost = self._cost
        ends = cost.scan_cost(counts, plan.dims)
        service_ms = (ends[-1] if segments else 0.0) \
            + cost.request_overhead_ms + nq * cost.batch_row_overhead_ms
        self.searches_served += nq
        self.service_ms_total += service_ms
        return merged, service_ms, NodeWork(
            len(segments), counts, ends, plan.ids, segments, reduce)

    @staticmethod
    def _each(scan_one: Callable) -> Callable:
        """``scan`` for a single-query verb that scans segment by segment:
        ``scan_one(segment, stats)`` returns the query's hit batch, its
        work added to ``stats``, a :class:`SearchStats` per field."""
        def scan(plan: _ScanPlan, counts: np.ndarray,
                 _reduce: ReduceStats) -> list[tuple[HitBlock, int]]:
            parts = []
            for i, segment in enumerate(plan.segments):
                stats = [SearchStats() for _ in plan.dims]
                parts.append((HitBlock.from_batches(
                    [scan_one(segment, stats)]), 1))
                counts[:, i] += [entry.as_row() for entry in stats]
            return parts
        return scan

    def search(self, collection: str, field: str, queries: np.ndarray,
               k: int, metric: MetricType,
               expr: Optional[FilterExpression] = None,
               scope: Optional[set[str]] = None,
               ) -> tuple[HitBlock, float, NodeWork]:
        """Node-local two-phase reduce: segment-wise top-k (cost-based
        filter strategy per segment) merged into the node-wise top-k.

        Without a filter, :meth:`SegmentArena.select` first tries to
        answer with one selection over the sealed members, the fresh
        segments' built slices and their tails (every segment in scope
        one of those, no pk twice, one scan pass, every deleting
        member's cut proven): that is the node-wise top-k, and nothing
        is merged.  Otherwise the sealed segments the arena holds that
        exclude no row (nothing deleted, no filter) are searched through
        it, all in one scan; every other segment (growing, unindexed, an
        index outside the arena, a deleting or filtered member) is
        searched on its own, its filter planned per segment, and feeds
        the same merge.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]

        def scan(plan: _ScanPlan, counts: np.ndarray, reduce: ReduceStats
                 ) -> list[tuple[HitBlock, int]] | HitBlock:
            segments = plan.segments
            # Under a filter every segment is searched on its own: the
            # arena holds no post-filter.
            arena = plan.arena if expr is None else None
            if arena is not None:
                found = arena.select(segments, plan.layout, queries, k,
                                     counts[0], reduce,
                                     self._held(collection))
                if found is not None:
                    return found
            parts: list = [None] * len(segments)
            members, at = [], []
            for i, segment in enumerate(segments):
                number = arena.slot.get(segment.segment_id) \
                    if arena is not None else None
                if number is not None and not segment.num_deleted:
                    members.append(number)
                    at.append(i)
                    continue
                strategy = choose_strategy(segment, field, k, expr) \
                    if expr is not None else None
                stats = SearchStats()   # a segment reports its own work
                parts[i] = planned_search(
                    segment, field, queries, k, metric, strategy,
                    stats=stats), 1
                counts[0, i] += stats.as_row()
            if members:
                found = arena.search(members, queries, k, counts[0], at)
                # Each run of consecutive segments is one view of it.
                width = found.dists.shape[1] // len(members)
                first = 0
                for last in range(1, len(at) + 1):
                    if last == len(at) or at[last] != at[last - 1] + 1:
                        cols = slice(first * width, last * width)
                        parts[at[first]] = HitBlock(
                            found.pks[:, cols], found.dists[:, cols]), \
                            last - first
                        first = last
            return [part for part in parts if part is not None]

        return self._scan(collection, scope, (field,), queries.shape[0], k,
                          scan, metric)

    def search_multivector(self, collection: str, query: MultiVectorQuery,
                           k: int, scope: Optional[set[str]] = None,
                           ) -> tuple[HitBlock, float, NodeWork]:
        """Node-local multi-vector search (single query vector set)."""
        return self._scan(
            collection, scope, tuple(query.fields), 1, k,
            self._each(lambda segment, stats: search_segment(
                segment, query, k, stats=stats)))

    def range_search(self, collection: str, field: str, query: np.ndarray,
                     threshold: float, metric: MetricType,
                     expr: Optional[FilterExpression] = None,
                     scope: Optional[set[str]] = None,
                     ) -> tuple[HitBlock, float, NodeWork]:
        """All local rows within the adjusted-distance threshold."""

        def scan_one(segment: Segment, stats: list[SearchStats]):
            mask = compute_mask(segment, expr) if expr is not None else None
            return segment.range_search(field, query, threshold, metric,
                                        filter_mask=mask, stats=stats[0])

        return self._scan(collection, scope, (field,), 1, None,
                          self._each(scan_one))

    def fetch(self, collection: str, pks, scope: Optional[set[str]] = None,
              ) -> tuple[dict, float, NodeWork]:
        """Field values for the given pks held live on this node, as
        ``(pk -> row, virtual service ms, the segments consulted)``.  A
        point read pays the message overhead and no distance work, and
        whichever copy answers will do, so ``scope`` does not narrow it.
        """
        out: dict = {}
        per_coll = self._held(collection)
        for _sid, segment in sorted(per_coll.items()):
            out.update(segment.fetch_rows(pks))
        service_ms = self._cost.request_overhead_ms \
            + len(pks) * self._cost.batch_row_overhead_ms
        return out, service_ms, NodeWork(len(per_coll), reduce=None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Simulate a crash: stop consuming and drop all state."""
        self._tracer.mark_incomplete(self._component)
        self.alive = False
        for channel in list(self._subs):
            self.unsubscribe(channel)
        self._sets.clear()
        self._arenas.clear()
        self._plans.clear()
        self._gates.clear()
