"""One log applier: WAL records and binlogs into segments (§3.3, §4.3).

Every consumer of a shard channel — a data node archiving it, a query node
serving it, a time-travel restore replaying it — holds one
:class:`SegmentSet` per collection.  The set owns the collection's
segments and turns records and binlogs into them by one set of rules:

* an insert its segment's ``max_insert_lsn`` covers is a replay, skipped;
* a delete reaches a sealed segment through ``Segment.apply_delete``'s
  sealed rule and a growing one only where it holds the pk live from an
  older insert, so a miss never raises the ``max_lsn`` a flush writes into
  the binlog, and a replayed delete never hits an upsert's newer row; a
  delete no newer than the last one from its shard is a replay, and keeps
  nothing (the rows it hit are no longer live, not missed);
* a binlog-loaded segment is sealed on load, and takes the deletes the set
  kept and the persisted ones through that same sealed rule.

The delete delta log (``delta/``: the deletions that missed every growing
segment, ``(pk, ts)`` in per-shard blobs) is written and read here too.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.config import SegmentConfig
from repro.core.schema import CollectionSchema
from repro.core.segment import Segment
from repro.log.binlog import BinlogManifest
from repro.log.wal import DeleteRecord, InsertRecord
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
# the applier
# ---------------------------------------------------------------------------

class SegmentSet:
    """One collection's segments on one consumer of its shard channels.

    Growing segments built from the log get ``temp_index`` as their
    ``temp_index_enabled`` (a loaded one never has it).  ``archive`` marks
    a data node's set, whose missed deletes wait for the ``delta/`` log.
    """

    def __init__(self, collection: str, schema: CollectionSchema,
                 config: Optional[SegmentConfig], store: ObjectStore,
                 temp_index: bool = False, archive: bool = False) -> None:
        self.collection = collection
        self.schema = schema
        self._config = config
        self._store = store
        self._temp_index = temp_index
        self._archive = archive
        # segment id -> Segment; growing and sealed together.
        self.segments: dict[str, Segment] = {}
        # Growing segment -> (its shard, offset of the first entry that
        # fed it): a replay must start there for its rows to come back.
        self._origin: dict[str, tuple[int, int]] = {}
        # shard -> {pk: newest delete ts}, and the offset of the entry that
        # opened each shard's map (cleared when the map is persisted).
        self._deletes: dict[int, dict] = {}
        self._deletes_from: dict[int, int] = {}
        # shard -> ts of the newest delete applied from it (LSNs only
        # grow on a shard channel, so an older one is a replay).
        self._deleted_to: dict[int, int] = {}
        self._consumed: dict[int, int] = {}
        # The persisted delete-delta log, read once for a bulk load of N
        # segments; dropped whenever a new delete flows in.
        self._persisted: Optional[list[tuple[object, int]]] = None

    def _new(self, segment_id: str, temp_index: bool) -> Segment:
        segment = Segment(segment_id, self.collection, self.schema,
                          self._config)
        segment.temp_index_enabled = temp_index
        self.segments[segment_id] = segment
        Segment.changed()
        return segment

    def apply(self, record: InsertRecord | DeleteRecord, offset: int,
              now_ms: float = 0.0) -> int:
        """Apply one WAL data record delivered in the entry at ``offset``;
        returns how many rows it appended (none for a delete or for a
        replayed insert)."""
        if isinstance(record, DeleteRecord):
            self._delete(record, offset)
            return 0
        segment = self.segments.get(record.segment_id)
        if segment is None:
            segment = self._new(record.segment_id, self._temp_index)
            self._origin[record.segment_id] = (record.shard, offset)
        if record.ts <= segment.max_insert_lsn:
            return 0  # WAL replay of a batch this segment already holds
        segment.append(list(record.pks), dict(record.columns), record.ts,
                       now_ms=now_ms)
        return len(record.pks)

    def _delete(self, record: DeleteRecord, offset: int) -> None:
        remaining = set(record.pks)
        for segment in self.segments.values():
            if segment.is_sealed:
                segment.apply_delete(record.pks, record.ts)
            elif remaining:
                hit = [pk for pk in remaining
                       if segment.live_before(pk, record.ts)]
                if hit:
                    segment.apply_delete(hit, record.ts)
                    remaining -= set(hit)
        kept = remaining if self._archive else record.pks
        if record.ts <= self._deleted_to.get(record.shard, 0):
            kept = ()
        else:
            self._deleted_to[record.shard] = record.ts
        if kept:
            self._deletes_from.setdefault(record.shard, offset)
            newest = self._deletes.setdefault(record.shard, {})
            for pk in kept:
                if record.ts > newest.get(pk, 0):
                    newest[pk] = record.ts
        self._persisted = None

    def load(self, manifest: BinlogManifest, columns: dict,
             until_ts: Optional[int] = None) -> Segment:
        """Install a segment from its binlog, sealed, in place of any
        growing copy; it takes the kept deletes and the persisted ones (at
        or before ``until_ts``) through the sealed rule."""
        segment = self._new(manifest.segment_id, temp_index=False)
        self._origin.pop(manifest.segment_id, None)
        segment.append(list(manifest.pks), columns, manifest.max_lsn)
        segment.seal()
        for newest in self._deletes.values():
            for pk, ts in newest.items():
                segment.apply_delete([pk], ts)
        if self._persisted is None:
            self._persisted = read_delete_deltas(self._store,
                                                 self.collection)
        for pk, ts in self._persisted:
            if until_ts is None or ts <= until_ts:
                segment.apply_delete([pk], ts)
        return segment

    def advance(self, shard: int, offset: int) -> None:
        """The shard channel's entry at ``offset`` has been consumed."""
        self._consumed[shard] = offset + 1

    def replay_offset(self, shard: int) -> int:
        """Where a replay of the shard channel must start for this set's
        state to come back: the first entry of its oldest growing segment
        or of its oldest delete not yet persisted, else the consumed
        offset (a flush may fire while a newer segment's rows arrive)."""
        consumed = self._consumed.get(shard, 0)
        return min([offset for of, offset in self._origin.values()
                    if of == shard]
                   + [self._deletes_from.get(shard, consumed)])

    def release(self, segment_id: str) -> Optional[Segment]:
        """Drop a segment (flushed, handed off or released)."""
        self._origin.pop(segment_id, None)
        Segment.changed()
        return self.segments.pop(segment_id, None)

    def growing_of_shard(self, shard: int) -> list[str]:
        """Ids of the growing segments built from one shard channel."""
        return sorted(sid for sid, (of, _offset) in self._origin.items()
                      if of == shard)

    def persist_deltas(self) -> None:
        """Write the kept deletes to the ``delta/`` log, oldest first per
        shard, and forget them (a data node's periodic event)."""
        for shard, newest in self._deletes.items():
            write_delete_delta(self._store, self.collection, shard,
                               sorted(newest.items(), key=lambda kv: kv[1]))
        self._deletes = {}
        self._deletes_from = {}
