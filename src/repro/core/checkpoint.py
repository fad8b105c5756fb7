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
* **delete delta logs** — deletions that target already-flushed segments
  are appended (pk, ts) to per-shard delta blobs by the data nodes, so a
  restore can re-apply them without replaying the whole WAL;
* :class:`TimeTravel` — performs the restore: load flushed binlogs from
  the checkpointed segment map, replay each WAL channel from the recorded
  offset applying records with LSN <= T, apply delete deltas, and return
  the reconstructed segments;
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
from repro.core.tso import Timestamp
from repro.errors import TimeTravelError
from repro.log.binlog import BinlogReader
from repro.log.broker import LogBroker
from repro.log.wal import InsertRecord, data_records, shard_channel
from repro.storage.object_store import ObjectStore


# ---------------------------------------------------------------------------
# delete delta logs
# ---------------------------------------------------------------------------

def write_delete_delta(store: ObjectStore, collection: str, shard: int,
                       entries: list[tuple[object, int]]) -> None:
    """Append deletions (pk, packed ts) that missed every growing segment.

    The blob is keyed by the batch's largest delete timestamp, zero-padded
    like a checkpoint's: what the log itself numbers, so a restarted
    process cannot write over an earlier batch, and a shard's blobs list
    in write order.  A batch that ends where a persisted one does (a WAL
    replay) is merged into it.
    """
    if not entries:
        return
    newest = max(ts for _pk, ts in entries)
    key = f"delta/{collection}/shard-{shard}/{newest:020d}.json"
    if store.exists(key):
        held = {(pk, ts) for pk, ts in json.loads(store.get(key).decode())}
        entries = sorted(held.union(entries), key=lambda entry: entry[1])
    store.put(key, json.dumps([[pk, ts] for pk, ts in entries]).encode())


def read_delete_deltas(store: ObjectStore,
                       collection: str) -> list[tuple[object, int]]:
    """All persisted delete deltas for a collection, in write order."""
    out: list[tuple[object, int]] = []
    for key in store.list(f"delta/{collection}/"):
        for pk, ts in json.loads(store.get(key).decode()):
            out.append((pk, ts))
    return out


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

        segments: dict[str, Segment] = {}

        def get_segment(segment_id: str) -> Segment:
            if segment_id not in segments:
                segment = Segment(segment_id, collection, schema,
                                  self._segment_config)
                segment.temp_index_enabled = False
                segments[segment_id] = segment
            return segments[segment_id]

        # 1. Load flushed segments from their binlogs (shared snapshots),
        # noting each one's progress.
        loaded: dict[str, int] = {}
        for segment_id in checkpoint.flushed_segments:
            manifest = self._reader.read_manifest(collection, segment_id)
            columns = self._reader.read_fields(collection, segment_id,
                                               manifest.fields)
            segment = get_segment(segment_id)
            segment.append(list(manifest.pks), columns, manifest.max_lsn)
            loaded[segment_id] = manifest.max_lsn

        # 2. Replay the WAL tail of each shard channel from its progress.
        for shard in range(self._num_shards):
            channel = shard_channel(collection, shard)
            if not self._broker.has_channel(channel):
                continue
            start = checkpoint.channel_offsets.get(channel, 0)
            if start < self._broker.begin_offset(channel):
                raise TimeTravelError(
                    f"WAL of {channel} expired past offset {start}; "
                    "cannot replay")
            offset = start
            while True:
                entries = self._broker.read(channel, offset, 1024)
                if not entries:
                    break
                for entry in entries:
                    offset = entry.offset + 1
                    for record in data_records(entry.payload):
                        if record.ts > target_ts:
                            continue
                        if isinstance(record, InsertRecord):
                            segment = get_segment(record.segment_id)
                            if record.ts <= segment.max_insert_lsn:
                                continue  # already covered by the binlog
                            segment.append(list(record.pks),
                                           dict(record.columns), record.ts)
                        else:
                            for segment in segments.values():
                                segment.apply_delete(record.pks, record.ts)

        # 3. Apply persisted delete deltas with ts <= target.  Like a query
        # node's sealed load, a loaded segment takes only the ones newer
        # than its binlog (which holds no deleted row, and may hold a
        # newer version of a deleted pk); a replayed segment took its
        # deletions from the WAL tail, in order.
        for pk, ts in read_delete_deltas(self._store, collection):
            if ts <= target_ts:
                for segment_id, max_lsn in loaded.items():
                    if ts > max_lsn:
                        segments[segment_id].apply_delete([pk], ts)

        for segment in segments.values():
            segment.seal()
        return segments


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
        from repro.log.binlog import BinlogReader
        reader = BinlogReader(store)
        for segment_id in reader.list_segments(collection):
            if segment_id not in referenced:
                reader.delete_segment(collection, segment_id)
                dropped += 1
    return dropped
