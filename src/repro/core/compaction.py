"""Segment compaction (Section 3.1).

"As some segments may be small (e.g., when insertion has a low arrival
rate), Manu merges small segments into larger ones for search efficiency."
Compaction also purges rows whose deletion ratio crossed the rebuild
threshold (Section 3.5: the index is rebuilt "when a sufficient number of
its entities have been deleted").

:class:`CompactionPolicy` groups sealed segments worth merging;
:func:`compact_segments` performs one merge at the binlog level: read the
group's columns, drop deleted rows, write a fresh segment binlog, and
return its manifest so coordinators can swap routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.config import SegmentConfig
from repro.log.binlog import BinlogManifest, BinlogReader, BinlogWriter
from repro.storage.object_store import ObjectStore


@dataclass(frozen=True)
class SegmentMeta:
    """What the policy needs to know about one sealed segment."""

    segment_id: str
    num_rows: int
    num_deleted: int = 0

    @property
    def live_rows(self) -> int:
        return self.num_rows - self.num_deleted

    @property
    def delete_ratio(self) -> float:
        return self.num_deleted / self.num_rows if self.num_rows else 0.0


class CompactionPolicy:
    """Chooses groups of sealed segments to merge."""

    def __init__(self, config: SegmentConfig | None = None,
                 delete_rebuild_ratio: float = 0.2) -> None:
        self.config = config if config is not None else SegmentConfig()
        self.delete_rebuild_ratio = delete_rebuild_ratio

    def plan(self, segments: Iterable[SegmentMeta]) -> list[list[str]]:
        """Groups of segment ids to merge (possibly singleton groups).

        Small segments are packed together up to the target size; a segment
        past the delete-ratio threshold is compacted alone (rewritten
        without its dead rows).
        """
        groups: list[list[str]] = []
        small: list[SegmentMeta] = []
        for meta in sorted(segments, key=lambda m: m.segment_id):
            if meta.num_rows == 0:
                continue
            if meta.delete_ratio >= self.delete_rebuild_ratio:
                groups.append([meta.segment_id])
            elif meta.num_rows < self.config.compaction_min_size:
                small.append(meta)

        bucket: list[SegmentMeta] = []
        total = 0
        for meta in small:
            if bucket and total + meta.live_rows > \
                    self.config.compaction_target_size:
                if len(bucket) > 1:
                    groups.append([m.segment_id for m in bucket])
                bucket = []
                total = 0
            bucket.append(meta)
            total += meta.live_rows
        if len(bucket) > 1:
            groups.append([m.segment_id for m in bucket])
        return groups


def compact_segments(store: ObjectStore, collection: str,
                     segment_ids: Sequence[str],
                     deleted_pks: Mapping[str, set] | set = frozenset(),
                     keep_inputs: Sequence[str] = (),
                     retired: Iterable[str] = (),
                     ) -> Optional[BinlogManifest]:
    """Merge segments' binlogs into one new segment, dropping deletions.

    ``deleted_pks`` is either a flat set of primary keys or a mapping
    segment-id -> set.  The new segment id is ``compacted-<seq>``, numbered
    after the newest compacted binlog the store holds (a restarted process
    must not write over a live one); input binlogs are deleted after the
    merged one is durably written — except those listed in ``keep_inputs``
    (typically because a time-travel checkpoint still references them;
    retention removes them later).  A group with no live row writes no
    segment and returns ``None``; its inputs are deleted all the same.
    ``retired`` lists compacted ids whose binlogs are gone: they are not
    numbered again, because an index route may outlive its binlog.
    """
    if not segment_ids:
        raise ValueError("compaction needs at least one segment")
    reader = BinlogReader(store)
    writer = BinlogWriter(store)

    def dead_for(segment_id: str) -> set:
        if isinstance(deleted_pks, Mapping):
            return set(deleted_pks.get(segment_id, ()))
        return set(deleted_pks)

    all_pks: list = []
    merged: dict[str, list] = {}
    max_lsn = 0
    fields: tuple[str, ...] | None = None
    for segment_id in segment_ids:
        manifest = reader.read_manifest(collection, segment_id)
        if fields is None:
            fields = manifest.fields
            merged = {name: [] for name in fields}
        dead = dead_for(segment_id)
        keep = [i for i, pk in enumerate(manifest.pks) if pk not in dead]
        columns = reader.read_fields(collection, segment_id, manifest.fields)
        all_pks.extend(manifest.pks[i] for i in keep)
        for name in manifest.fields:
            values = columns[name]
            if isinstance(values, np.ndarray):
                merged[name].append(values[keep])
            else:
                merged[name].append([values[i] for i in keep])
        max_lsn = max(max_lsn, manifest.max_lsn)

    assert fields is not None
    out_columns: dict[str, object] = {}
    for name in fields:
        chunks = merged[name]
        if chunks and isinstance(chunks[0], np.ndarray):
            out_columns[name] = np.concatenate(chunks, axis=0)
        else:
            out_columns[name] = [x for chunk in chunks for x in chunk]

    taken = [int(segment_id.rsplit("-", 1)[1])
             for segment_id in (*reader.list_segments(collection), *retired)
             if segment_id.startswith("compacted-")]
    new_id = f"compacted-{max(taken, default=0) + 1:06d}"
    compacted = writer.write_segment(collection, new_id, all_pks,
                                     out_columns, max_lsn) \
        if all_pks else None
    protected = set(keep_inputs)
    for segment_id in segment_ids:
        if segment_id not in protected:
            reader.delete_segment(collection, segment_id)
    return compacted
