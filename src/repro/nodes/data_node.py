"""Data nodes: WAL -> binlog archiving (Section 3.3).

A data node subscribes to WAL shard channels and materializes the growing
segments referenced by insert records.  When the data coordinator publishes
a seal message (size rollover or idle timeout), the node converts the
segment's rows to a column-based binlog, persists it to the object store,
and announces ``segment_flushed`` on the coordination channel — carrying
the channel offset reached, which checkpointing and failure recovery use as
the WAL replay position.

The node's :class:`~repro.core.segment_set.SegmentSet` per collection
applies the records: deletions that hit a growing segment are applied to
its bitmap before the flush; deletions whose rows live in already-flushed
segments wait in the set until housekeeping appends them to per-shard
delete delta logs (consumed by query nodes' loads and time travel).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ManuConfig
from repro.core.segment_set import SegmentSet
from repro.log.binlog import BinlogWriter
from repro.log.broker import LogBroker, LogEntry, Subscription
from repro.log.wal import (
    CoordRecord,
    InsertRecord,
    channel_shard,
    data_records,
    shard_channel,
)
from repro.sim.costmodel import CostModel
from repro.sim.events import EventLoop
from repro.storage.object_store import ObjectStore
from repro.tracing import NOOP_TRACER, TraceCollector, TraceContext

#: Rows per column chunk when converting a sealed segment to binlog
#: (pipelined conversion instead of a whole-segment stall).
BINLOG_CHUNK_ROWS = 1024


class DataNode:
    """One log-archiving worker."""

    def __init__(self, name: str, loop: EventLoop, broker: LogBroker,
                 store: ObjectStore, config: ManuConfig,
                 cost_model: CostModel,
                 schema_provider,
                 tracer: Optional[TraceCollector] = None,
                 metrics=None) -> None:
        self.name = name
        self._loop = loop
        self._broker = broker
        self._store = store
        self._config = config
        self._cost = cost_model
        self._schema_provider = schema_provider  # (collection) -> schema
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._component = f"data-node:{name}"
        self._writer = BinlogWriter(store)
        self._subs: dict[str, Subscription] = {}
        # collection -> its growing segments and the deletes that missed
        # them (archiving needs no search: no temporary indexes).
        self._sets: dict[str, SegmentSet] = {}
        # Seal decisions that arrived before (or while) the segment's rows
        # were still in flight on the shard channel:
        # (coll, seg) -> (shard, wire trace context of the seal delivery).
        self._pending_seals: dict[tuple[str, str],
                                  tuple[int, Optional[tuple]]] = {}
        self.segments_flushed = 0
        self._coord_sub: Subscription | None = None
        # Optional repro.monitoring.MetricsRegistry (duck-typed): virtual
        # object-store write duration per flushed segment.
        self._flush_hist = None
        if metrics is not None:
            self._flush_hist = metrics.histogram_family(
                "data_node_flush", ("node",),
                help="binlog flush (object write) duration",
                unit="ms").labels(node=name)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, channel: str, from_offset: int = 0) -> None:
        """Start consuming a WAL shard channel."""
        if channel in self._subs:
            return
        collection, shard = channel_shard(channel)
        self._subs[channel] = self._broker.subscribe(
            channel, f"data-node:{self.name}", from_offset,
            callback=lambda entry, c=collection, s=shard:
                self._on_entry(c, s, entry))

    def unsubscribe(self, channel: str) -> None:
        sub = self._subs.pop(channel, None)
        if sub is not None:
            sub.cancel()

    def subscribe_coord(self) -> None:
        """Consume seal decisions from the coordination channel."""
        if self._coord_sub is not None:
            return
        channel = self._config.log.coord_channel
        self._broker.create_channel(channel)
        self._coord_sub = self._broker.subscribe(
            channel, f"data-node-coord:{self.name}",
            from_offset=self._broker.end_offset(channel),
            callback=self._on_coord)

    def _on_coord(self, entry: LogEntry) -> None:
        record = entry.payload
        if isinstance(record, CoordRecord) \
                and record.kind_name == "seal_segment":
            payload = record.payload
            self.handle_seal(payload["collection"], payload["segment_id"],
                             payload["shard"])

    @property
    def channels(self) -> list[str]:
        return sorted(self._subs)

    def _segments(self, collection: str) -> SegmentSet:
        if collection not in self._sets:
            self._sets[collection] = SegmentSet(
                collection, self._schema_provider(collection),
                self._config.segment, self._store, archive=True)
        return self._sets[collection]

    def _on_entry(self, collection: str, shard: int,
                  entry: LogEntry) -> None:
        segments = self._segments(collection)
        segments.advance(shard, entry.offset)
        for record in data_records(entry.payload):
            applied = segments.apply(record, entry.offset,
                                     now_ms=self._loop.now())
            if applied == 0:
                continue  # a delete, or a replayed insert
            self._rotate(segments, record)

    def _rotate(self, segments: SegmentSet, record: InsertRecord) -> None:
        """Rotation signal: the shard channel is FIFO, so rows for any
        *other* pending-seal segment of this shard are fully delivered
        once a newer segment's rows arrive — flush them now."""
        for (coll, sid), (shard, wire) in list(self._pending_seals.items()):
            if coll == record.collection and shard == record.shard \
                    and sid != record.segment_id \
                    and sid in segments.segments:
                del self._pending_seals[(coll, sid)]
                self.seal_and_flush(coll, sid, shard, trace_parent=wire)

    def flush_delta_logs(self) -> None:
        """Persist buffered sealed-segment deletions (periodic event)."""
        for segments in self._sets.values():
            segments.persist_deltas()

    # ------------------------------------------------------------------
    # sealing & flushing
    # ------------------------------------------------------------------

    #: quiescence window before a pending seal is flushed (must exceed
    #: the broker's delivery delay by a wide margin)
    SEAL_SETTLE_MS = 10.0

    def handle_seal(self, collection: str, segment_id: str,
                    shard: int, _retries: int = 0) -> None:
        """React to a seal decision for a shard this node archives.

        Seal messages travel on the coordination channel and are published
        by the allocator *before* the logger publishes the rows that fill
        the segment, so they routinely overtake those rows.  Flushing
        immediately would persist a partial binlog and strand the late
        rows; instead the seal is parked and resolved by either

        * the **rotation signal** in :meth:`_rotate` — the shard
          channel is FIFO, so a row for a *newer* segment proves the
          sealed one is complete; or
        * this **quiescence retry**: the segment is flushed once no row
          has arrived for it for :data:`SEAL_SETTLE_MS`.
        """
        channel = shard_channel(collection, shard)
        if channel not in self._subs:
            return  # another data node archives this shard
        key = (collection, segment_id)
        # Capture the seal delivery's context now: the flush runs from a
        # deferred callback where no span is ambient anymore.
        self._pending_seals[key] = (shard, self._tracer.current_wire())
        self._loop.call_after(
            self.SEAL_SETTLE_MS,
            lambda: self._retry_seal(collection, segment_id, shard,
                                     _retries + 1),
            name=f"seal-retry:{segment_id}")

    def _retry_seal(self, collection: str, segment_id: str, shard: int,
                    retries: int) -> None:
        key = (collection, segment_id)
        if key not in self._pending_seals:
            return  # already flushed via the rotation signal
        # The captured wire context is the only causal parent.
        _shard, wire = self._pending_seals[key]
        segment = self._segments(collection).segments.get(segment_id)
        quiet = (segment is not None
                 and self._loop.now() - segment.last_insert_at_ms
                 >= self.SEAL_SETTLE_MS * 0.5)
        if quiet:
            del self._pending_seals[key]
            self.seal_and_flush(collection, segment_id, shard,
                                trace_parent=wire)
            return
        if retries >= 200:
            # The rows never arrived (lost upstream); flush what exists.
            del self._pending_seals[key]
            if segment is not None:
                self.seal_and_flush(collection, segment_id, shard,
                                    trace_parent=wire)
            return
        self._loop.call_after(
            self.SEAL_SETTLE_MS,
            lambda: self._retry_seal(collection, segment_id, shard,
                                     retries + 1),
            name=f"seal-retry:{segment_id}")

    def seal_and_flush(self, collection: str, segment_id: str,
                       shard: int,
                       trace_parent: Optional[tuple] = None,
                       ) -> Optional[str]:
        """Convert a growing segment to a binlog; returns the segment id.

        The ``segment_flushed`` announcement is published after the virtual
        write duration, so downstream indexing starts at the correct time.
        The flush span covers the whole window up to the announcement;
        ``trace_parent`` carries the wire context of the seal decision
        across the parked-seal deferral.
        """
        segments = self._segments(collection)
        segment = segments.release(segment_id)
        if segment is None or segment.num_rows == 0:
            return None
        parent = TraceContext.from_wire(trace_parent) \
            if trace_parent is not None else self._tracer.current()
        segment.seal()
        pks, columns, max_lsn = segment.flush_payload()
        # Drop rows deleted while growing so the binlog holds live data.
        if segment.num_deleted:
            keep = np.flatnonzero(~segment.deleted_mask())
            pks = _take(pks, keep)
            columns = {name: _take(values, keep)
                       for name, values in columns.items()}
        if not pks:
            return None
        write_ms = self._cost.object_write(
            sum(_nbytes(v) for v in columns.values()))
        channel_offset = segments.replay_offset(shard)
        flush_span = self._tracer.start_span(
            "data_node.flush", self._component, parent=parent,
            collection=collection, segment=segment_id, rows=len(pks))

        # Pipelined conversion: rows reach the binlog sink in fixed-size
        # chunks spread across the virtual write window, so the node
        # keeps draining WAL deliveries between steps instead of
        # stalling on a whole-segment conversion.  The final step writes
        # the manifest (the segment becomes readable atomically) and
        # announces — total virtual duration stays ``write_ms``.
        chunks = [slice(start, start + BINLOG_CHUNK_ROWS)
                  for start in range(0, len(pks), BINLOG_CHUNK_ROWS)]
        step_ms = write_ms / len(chunks)
        sink = self._writer.open_segment(collection, segment_id)

        def convert(index: int) -> None:
            # Slices of the consolidated columns: the sink's blob write
            # is the only copy the rows get on their way out.
            rows = chunks[index]
            sink.add_chunk(pks[rows], {name: values[rows]
                                       for name, values in columns.items()})
            if index + 1 < len(chunks):
                self._loop.call_after(
                    step_ms, lambda: convert(index + 1),
                    name=f"flush-chunk:{segment_id}")
                return
            manifest = sink.finish(max_lsn)
            self.segments_flushed += 1
            with self._tracer.activate(flush_span):
                self._broker.publish(
                    self._config.log.coord_channel, CoordRecord(
                        ts=max_lsn, kind_name="segment_flushed", payload={
                            "collection": collection,
                            "segment_id": segment_id,
                            "shard": shard,
                            "num_rows": manifest.num_rows,
                            "max_lsn": max_lsn,
                            "channel_offset": channel_offset,
                            "data_node": self.name,
                        }))
            self._tracer.finish_span(flush_span)

        self._loop.call_after(step_ms, lambda: convert(0),
                              name=f"flush-chunk:{segment_id}")
        if self._flush_hist is not None:
            self._flush_hist.observe(write_ms)
        return segment_id

    def growing_segments(self) -> list[tuple[str, str, int]]:
        """(collection, segment_id, rows) of in-memory growing segments."""
        return sorted((c, s, seg.num_rows)
                      for c, segments in self._sets.items()
                      for s, seg in segments.segments.items())

    def flush_backlog(self) -> int:
        """Work waiting to reach the object store: parked seals plus
        growing segments still accumulating rows (telemetry signal)."""
        return len(self._pending_seals) + sum(
            len(segments.segments) for segments in self._sets.values())


def _take(values, keep: np.ndarray):
    if isinstance(values, np.ndarray):
        return values[keep]
    return [values[i] for i in keep.tolist()]


def _nbytes(values) -> int:
    if isinstance(values, np.ndarray):
        return values.nbytes
    return sum(len(str(v)) for v in values)
