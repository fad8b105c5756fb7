"""Time travel: checkpoints + WAL replay (Section 4.3).

"Manu allows users to specify a target physical time T for database
restore, and jointly uses checkpoint and log replay for rollback.  We mark
each segment with its progress L and periodically checkpoint the segment
map for a collection ... To restore the database at time T, we read the
closest checkpoint before T, load all segments in the segment map and
replay the WAL log for each segment from its local progress L."

Pieces:

* :class:`CheckpointManager` — periodically persists the collection's
  *segment map* (segment routes + progress, and per-channel replay
  offsets), never the data itself, so checkpoints are tiny and segments
  are shared between checkpoints;
* :class:`TimeTravel` — performs the restore through one
  :class:`~repro.core.segment_set.SegmentSet`, the applier the data and
  query nodes use too: load the flushed binlogs of the checkpointed
  segment map, sealed, with the persisted delete deltas (the per-shard
  ``delta/`` blobs of deletions that missed every growing segment) up to
  T; replay each WAL channel from the recorded offset, applying records
  with LSN <= T; and return the reconstructed segments;
* :func:`apply_retention` — drops checkpoints and WAL entries older than
  a configured expiration period (delete delta logs are kept: nothing
  truncates them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.config import SegmentConfig
from repro.core.schema import CollectionSchema
from repro.core.segment import Segment
from repro.core.segment_set import SegmentSet
from repro.core.tso import Timestamp
from repro.errors import TimeTravelError
from repro.log.binlog import BinlogReader
from repro.log.broker import LogBroker
from repro.log.wal import data_records, shard_channel
from repro.storage.object_store import ObjectStore


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Checkpoint:
    """One checkpoint of a collection's segment map."""

    collection: str
    ts: int  # packed timestamp of the checkpoint
    flushed_segments: tuple[str, ...]
    channel_offsets: Mapping[str, int]  # WAL replay start per channel

    def to_json(self) -> bytes:
        return json.dumps({
            "collection": self.collection,
            "ts": self.ts,
            "flushed_segments": list(self.flushed_segments),
            "channel_offsets": dict(self.channel_offsets),
        }).encode()

    @staticmethod
    def from_json(raw: bytes) -> "Checkpoint":
        data = json.loads(raw.decode())
        return Checkpoint(
            collection=data["collection"],
            ts=data["ts"],
            flushed_segments=tuple(data["flushed_segments"]),
            channel_offsets=data["channel_offsets"],
        )


class CheckpointManager:
    """Writes and looks up segment-map checkpoints in the object store."""

    def __init__(self, store: ObjectStore) -> None:
        self._store = store

    def write(self, checkpoint: Checkpoint) -> str:
        key = (f"checkpoints/{checkpoint.collection}/"
               f"{checkpoint.ts:020d}.json")
        self._store.put(key, checkpoint.to_json())
        return key

    def list_checkpoints(self, collection: str) -> list[Checkpoint]:
        keys = self._store.list(f"checkpoints/{collection}/")
        return [Checkpoint.from_json(self._store.get(k)) for k in keys]

    def latest_before(self, collection: str,
                      ts: int) -> Optional[Checkpoint]:
        """The newest checkpoint with ``checkpoint.ts <= ts``."""
        best: Optional[Checkpoint] = None
        for checkpoint in self.list_checkpoints(collection):
            if checkpoint.ts <= ts and (best is None
                                        or checkpoint.ts > best.ts):
                best = checkpoint
        return best


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

class TimeTravel:
    """Restores a collection's state at a target time from checkpoints."""

    def __init__(self, store: ObjectStore, broker: LogBroker,
                 num_shards: int,
                 segment_config: Optional[SegmentConfig] = None) -> None:
        self._store = store
        self._broker = broker
        self._num_shards = num_shards
        self._reader = BinlogReader(store)
        self._checkpoints = CheckpointManager(store)
        self._segment_config = segment_config

    def restore(self, collection: str, schema: CollectionSchema,
                target_ms: float) -> dict[str, Segment]:
        """Collection state at physical time ``target_ms`` as segments.

        Raises :class:`TimeTravelError` when no checkpoint precedes the
        target or when the WAL needed for replay has been expired.
        """
        target_ts = Timestamp.from_physical(target_ms).pack()
        checkpoint = self._checkpoints.latest_before(collection, target_ts)
        if checkpoint is None:
            raise TimeTravelError(
                f"no checkpoint of {collection!r} at or before "
                f"{target_ms}ms")

        # 1. Load flushed segments from their binlogs (shared snapshots),
        # sealed, with the persisted delete deltas up to the target.
        segments = SegmentSet(collection, schema, self._segment_config,
                              self._store)
        for segment_id in checkpoint.flushed_segments:
            manifest = self._reader.read_manifest(collection, segment_id)
            columns = self._reader.read_fields(collection, segment_id,
                                               manifest.fields)
            segments.load(manifest, columns, until_ts=target_ts)

        # 2. Replay the WAL tail of each shard channel from its progress,
        # up to the target.
        for shard in range(self._num_shards):
            channel = shard_channel(collection, shard)
            if not self._broker.has_channel(channel):
                continue
            start = checkpoint.channel_offsets.get(channel, 0)
            if start < self._broker.begin_offset(channel):
                raise TimeTravelError(
                    f"WAL of {channel} expired past offset {start}; "
                    "cannot replay")
            tail = self._broker.end_offset(channel) - start
            for entry in self._broker.read(channel, start, tail):
                for record in data_records(entry.payload):
                    if record.ts <= target_ts:
                        segments.apply(record, entry.offset)

        for segment in segments.segments.values():
            segment.seal()
        return segments.segments


def apply_retention(store: ObjectStore, broker: LogBroker, collection: str,
                    num_shards: int, expire_before_ms: float,
                    live_segments: Optional[set[str]] = None) -> int:
    """Expire checkpoints and WAL entries older than a physical time;
    returns the number of expired objects.

    "Users can also specify an expiration period to delete outdated log and
    segments to reduce storage consumption."  WAL channels are truncated up
    to the replay offset of the oldest *surviving* checkpoint, so every
    remaining checkpoint stays restorable.  When ``live_segments`` (the
    collection's current flushed set) is given, binlogs of segments that
    are neither live nor referenced by a surviving checkpoint — i.e.
    compaction inputs kept only for old checkpoints — are deleted too.
    No ``delta/`` blob is ever deleted: the delete delta log only grows.
    """
    expire_ts = Timestamp.from_physical(expire_before_ms).pack()
    manager = CheckpointManager(store)
    checkpoints = manager.list_checkpoints(collection)
    survivors = [c for c in checkpoints if c.ts >= expire_ts]
    dropped = 0
    for checkpoint in checkpoints:
        if checkpoint.ts < expire_ts:
            store.delete(f"checkpoints/{collection}/{checkpoint.ts:020d}.json")
            dropped += 1
    if survivors:
        for shard in range(num_shards):
            channel = shard_channel(collection, shard)
            if not broker.has_channel(channel):
                continue
            safe = min(c.channel_offsets.get(channel, 0) for c in survivors)
            dropped += broker.truncate(channel, safe)
    if live_segments is not None:
        referenced = set(live_segments)
        for checkpoint in survivors:
            referenced.update(checkpoint.flushed_segments)
        reader = BinlogReader(store)
        for segment_id in reader.list_segments(collection):
            if segment_id not in referenced:
                reader.delete_segment(collection, segment_id)
                dropped += 1
    return dropped
