"""Data coordinator: segment allocation, sealing, binlog routes, checkpoints.

The data coordinator is the :class:`repro.log.logger_node.SegmentAllocator`
the loggers consult.  It tracks one active growing segment per (collection,
shard); when the active segment would exceed the seal threshold the
allocator rolls over to a fresh segment id and publishes ``seal_segment``
on the coordination channel — the data node archiving the shard then flushes
the sealed segment to a binlog.  Idle sealing (no insert for a configured
period) is enforced by :meth:`check_idle`, driven by a periodic event.

It also records detailed collection state (segment routes, flushed
offsets) in the metastore and writes the time-travel checkpoints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.config import ManuConfig
from repro.core.checkpoint import Checkpoint, CheckpointManager
from repro.core.tso import TimestampOracle
from repro.log.broker import LogBroker, LogEntry
from repro.log.wal import CoordRecord, shard_channel
from repro.storage.metastore import MetaStore
from repro.storage.object_store import ObjectStore
from repro.tracing import NOOP_TRACER, TraceCollector


@dataclass
class _ActiveSegment:
    segment_id: str
    assigned_rows: int = 0
    last_assign_ms: float = field(default=0.0)


class DataCoordinator:
    """Segment lifecycle authority."""

    def __init__(self, metastore: MetaStore, broker: LogBroker,
                 store: ObjectStore, tso: TimestampOracle,
                 config: ManuConfig, clock_ms,
                 tracer: Optional[TraceCollector] = None) -> None:
        self._meta = metastore
        self._broker = broker
        self._store = store
        self._tso = tso
        self._config = config
        self._clock_ms = clock_ms
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._seq = itertools.count(1)
        self._active: dict[tuple[str, int], _ActiveSegment] = {}
        self._checkpoints = CheckpointManager(store)
        broker.create_channel(config.log.coord_channel)
        self._coord_sub = broker.subscribe(
            config.log.coord_channel, "data-coord",
            callback=self._on_coord)

    # ------------------------------------------------------------------
    # segment allocation (SegmentAllocator protocol)
    # ------------------------------------------------------------------

    def assign_segments(self, collection: str, shard: int,
                        num_rows: int) -> list[tuple[str, int]]:
        """Partition ``num_rows`` across growing segments.

        Fills the active segment up to the seal threshold, sealing and
        opening fresh segments as needed, so one big insert batch produces
        correctly sized segments.  Returns ``(segment_id, row_count)``
        chunks in order.
        """
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        key = (collection, shard)
        limit = self._config.segment.seal_entity_count
        out: list[tuple[str, int]] = []
        remaining = num_rows
        while remaining > 0:
            active = self._active.get(key)
            if active is None:
                active = self._open_segment(collection, shard)
            capacity = limit - active.assigned_rows
            if capacity <= 0:
                self._seal(collection, shard, active.segment_id)
                continue
            take = min(remaining, capacity)
            active.assigned_rows += take
            active.last_assign_ms = self._clock_ms()
            out.append((active.segment_id, take))
            remaining -= take
            if active.assigned_rows >= limit:
                self._seal(collection, shard, active.segment_id)
        return out

    def _open_segment(self, collection: str, shard: int) -> _ActiveSegment:
        active = _ActiveSegment(self._new_segment_id(collection, shard))
        self._active[(collection, shard)] = active
        self._meta.put(f"segments/{collection}/{active.segment_id}",
                       {"shard": shard, "state": "growing"})
        return active

    def _new_segment_id(self, collection: str, shard: int) -> str:
        return f"seg-{shard}-{next(self._seq):06d}"

    def _seal(self, collection: str, shard: int, segment_id: str) -> None:
        """Publish the seal decision; data nodes perform the flush."""
        # The seal often fires mid-insert (allocator rollover); its span
        # attributes the coordination publish to this coordinator while
        # keeping the causal link to the triggering request.
        with self._tracer.span("data_coord.seal", "data-coord",
                               collection=collection, shard=shard,
                               segment=segment_id):
            self._active.pop((collection, shard), None)
            self._meta.put(f"segments/{collection}/{segment_id}",
                           {"shard": shard, "state": "sealed"})
            self._broker.publish(self._config.log.coord_channel, CoordRecord(
                ts=self._tso.allocate_packed(), kind_name="seal_segment",
                payload={"collection": collection, "shard": shard,
                         "segment_id": segment_id}))

    def seal_all(self, collection: str) -> list[str]:
        """Force-seal every active growing segment (explicit flush)."""
        sealed = []
        for (coll, shard), active in list(self._active.items()):
            if coll == collection and active.assigned_rows > 0:
                sealed.append(active.segment_id)
                self._seal(coll, shard, active.segment_id)
        return sealed

    def check_idle(self) -> list[str]:
        """Seal growing segments idle past the configured period."""
        now = self._clock_ms()
        idle_limit = self._config.segment.seal_idle_ms
        sealed = []
        for (coll, shard), active in list(self._active.items()):
            if active.assigned_rows > 0 \
                    and now - active.last_assign_ms >= idle_limit:
                sealed.append(active.segment_id)
                self._seal(coll, shard, active.segment_id)
        return sealed

    # ------------------------------------------------------------------
    # flushed-segment bookkeeping
    # ------------------------------------------------------------------

    def _on_coord(self, entry: LogEntry) -> None:
        record = entry.payload
        if not isinstance(record, CoordRecord):
            return
        if record.kind_name == "segment_flushed":
            payload = record.payload
            collection = payload["collection"]
            segment_id = payload["segment_id"]
            self._meta.put(f"segments/{collection}/{segment_id}", {
                "shard": payload["shard"], "state": "flushed",
                "num_rows": payload["num_rows"],
                "max_lsn": payload["max_lsn"],
                "channel_offset": payload["channel_offset"],
            })
            channel = shard_channel(collection, payload["shard"])
            self._meta.put(f"flushed_offsets/{collection}/{channel}",
                           payload["channel_offset"])

    def flushed_segments(self, collection: str) -> list[str]:
        """Segment ids with a persisted binlog."""
        return self._segments_in(collection, "flushed")

    def compacted_segments(self, collection: str) -> list[str]:
        """Segment ids merged away by compaction (their rows live on in
        the merged segment, so a WAL replay must not bring them back)."""
        return self._segments_in(collection, "compacted")

    def _segments_in(self, collection: str, wanted: str) -> list[str]:
        return sorted(
            key.rsplit("/", 1)[1] for key, state in self._meta.field_values(
                f"segments/{collection}/", "state") if state == wanted)

    def segment_info(self, collection: str,
                     segment_id: str) -> Optional[dict]:
        return self._meta.get_value(f"segments/{collection}/{segment_id}")

    def growing_backlog(self, collection: str) -> int:
        """Rows assigned to still-growing segments (Fig. 6 diagnostics)."""
        return sum(a.assigned_rows for (coll, _), a in self._active.items()
                   if coll == collection)

    # ------------------------------------------------------------------
    # checkpoints (time travel)
    # ------------------------------------------------------------------

    def checkpoint_collection(self, collection: str,
                              num_shards: int) -> Checkpoint:
        """Write a segment-map checkpoint for the collection."""
        channel_offsets = {}
        for shard in range(num_shards):
            channel = shard_channel(collection, shard)
            channel_offsets[channel] = self._meta.get_value(
                f"flushed_offsets/{collection}/{channel}", 0)
        checkpoint = Checkpoint(
            collection=collection,
            ts=self._tso.allocate_packed(),
            flushed_segments=tuple(self.flushed_segments(collection)),
            channel_offsets=channel_offsets,
        )
        self._checkpoints.write(checkpoint)
        return checkpoint
