"""Column-based binlog files (Section 3.3).

Data nodes convert row-based WAL batches into column-based binlogs: all
values of one field live together in one object-store blob, so a reader
(for example an index node building a vector index) fetches exactly the
field it needs and pays no read amplification.

Layout under the object store for a sealed segment::

    binlog/<collection>/<segment_id>/manifest.json
    binlog/<collection>/<segment_id>/<field>.col

``manifest.json`` records the row count, the primary keys, the field list
and the WAL progress (max LSN) of the segment, which time travel uses as the
segment's replay start position.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.object_store import ObjectStore

_COL_MAGIC = b"BCOL"
_HEAD_LEN = struct.Struct("<I")


def _column_to_bytes(chunks: list) -> bytes:
    """Encode one column from its row chunks, in order: float32 matrices
    raw (each chunk's buffer copied once, into the blob), everything
    else JSON."""
    chunks = [np.asarray(chunk) for chunk in chunks]
    if all(chunk.ndim == 2 for chunk in chunks) \
            and np.result_type(*chunks).kind == "f":
        rows = sum(chunk.shape[0] for chunk in chunks)
        head = json.dumps({"kind": "f32mat",
                           "shape": [rows, chunks[0].shape[1]]}).encode()
        body = [np.ascontiguousarray(chunk, dtype=np.float32).data
                for chunk in chunks]
    else:
        head = json.dumps({"kind": "json"}).encode()
        body = [json.dumps(np.concatenate(chunks).tolist()).encode()]
    return b"".join([_COL_MAGIC, _HEAD_LEN.pack(len(head)), head, *body])


def _column_from_bytes(raw: bytes) -> Any:
    """Inverse of :func:`_column_to_bytes`; a blob that is not one —
    wrong magic, cut short, a header that does not describe its body —
    is a :class:`StorageError` naming the offset."""
    if raw[:4] != _COL_MAGIC:
        raise StorageError("not a binlog column blob (bad magic at offset 0)")
    offset = 4
    try:
        (head_len,) = _HEAD_LEN.unpack_from(raw, offset)
        offset = 8
        head = json.loads(raw[8:8 + head_len].decode())
        kind = head["kind"]
        offset = 8 + head_len
        if kind != "f32mat":
            return json.loads(raw[offset:].decode())
        rows, dim = head["shape"]
        if len(raw) - offset != 4 * rows * dim:
            raise ValueError(f"{rows}x{dim} float32 matrix declared")
        return np.frombuffer(raw, dtype=np.float32, offset=offset
                             ).reshape(rows, dim).copy()
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise StorageError(f"binlog column blob unreadable at offset "
                           f"{offset} of {len(raw)}: {exc}") from None


@dataclass(frozen=True)
class BinlogManifest:
    """Metadata of one segment's binlog."""

    collection: str
    segment_id: str
    num_rows: int
    fields: tuple[str, ...]
    max_lsn: int
    pks: tuple

    def to_json(self) -> bytes:
        return json.dumps({
            "collection": self.collection,
            "segment_id": self.segment_id,
            "num_rows": self.num_rows,
            "fields": list(self.fields),
            "max_lsn": self.max_lsn,
            "pks": list(self.pks),
        }).encode()

    @staticmethod
    def from_json(raw: bytes) -> "BinlogManifest":
        data = json.loads(raw.decode())
        return BinlogManifest(
            collection=data["collection"],
            segment_id=data["segment_id"],
            num_rows=data["num_rows"],
            fields=tuple(data["fields"]),
            max_lsn=data["max_lsn"],
            pks=tuple(data["pks"]),
        )


def binlog_prefix(collection: str, segment_id: str) -> str:
    return f"binlog/{collection}/{segment_id}"


class BinlogSegmentSink:
    """Incremental conversion of one sealed segment, chunk by chunk.

    Data nodes feed fixed-size row chunks through :meth:`add_chunk`
    (each call converts just that slice — the pipelined alternative to a
    whole-segment stall), then :meth:`finish` concatenates the per-field
    chunks, writes the column blobs and the manifest, and returns the
    manifest.  The segment only becomes readable at :meth:`finish`:
    readers key off ``manifest.json``, so a crash mid-conversion leaves
    no partially-visible binlog.
    """

    def __init__(self, store: ObjectStore, collection: str,
                 segment_id: str) -> None:
        self._store = store
        self._collection = collection
        self._segment_id = segment_id
        self._pks: list = []
        self._chunks: dict[str, list] = {}
        self._finished = False

    @property
    def num_rows(self) -> int:
        return len(self._pks)

    def add_chunk(self, pks: Sequence,
                  columns: Mapping[str, Any]) -> None:
        """Convert one row chunk (all columns, aligned with ``pks``)."""
        if self._finished:
            raise StorageError("segment sink already finished")
        num_rows = len(pks)
        for name in sorted(columns):
            arr = np.asarray(columns[name])
            if arr.shape[0] != num_rows:
                raise StorageError(
                    f"column {name!r} has {arr.shape[0]} rows, "
                    f"chunk has {num_rows}")
            self._chunks.setdefault(name, []).append(arr)
        self._pks.extend(pks)

    def finish(self, max_lsn: int) -> BinlogManifest:
        """Write the column blobs plus the manifest; returns the manifest."""
        if self._finished:
            raise StorageError("segment sink already finished")
        self._finished = True
        prefix = binlog_prefix(self._collection, self._segment_id)
        fields = tuple(sorted(self._chunks))
        for name in fields:
            self._store.put(f"{prefix}/{name}.col",
                            _column_to_bytes(self._chunks[name]))
        manifest = BinlogManifest(self._collection, self._segment_id,
                                  len(self._pks), fields, max_lsn,
                                  tuple(self._pks))
        self._store.put(f"{prefix}/manifest.json", manifest.to_json())
        return manifest


class BinlogWriter:
    """Writes one sealed segment's columns to the object store."""

    def __init__(self, store: ObjectStore) -> None:
        self._store = store

    def open_segment(self, collection: str,
                     segment_id: str) -> BinlogSegmentSink:
        """Start a chunked conversion of one sealed segment."""
        return BinlogSegmentSink(self._store, collection, segment_id)

    def write_segment(self, collection: str, segment_id: str,
                      pks: Sequence, columns: Mapping[str, Any],
                      max_lsn: int) -> BinlogManifest:
        """Persist all columns plus the manifest; returns the manifest."""
        sink = self.open_segment(collection, segment_id)
        sink.add_chunk(pks, columns)
        return sink.finish(max_lsn)


class BinlogReader:
    """Reads segment manifests and individual field columns."""

    def __init__(self, store: ObjectStore) -> None:
        self._store = store

    def read_manifest(self, collection: str,
                      segment_id: str) -> BinlogManifest:
        prefix = binlog_prefix(collection, segment_id)
        return BinlogManifest.from_json(
            self._store.get(f"{prefix}/manifest.json"))

    def read_field(self, collection: str, segment_id: str,
                   field: str) -> Any:
        """Fetch exactly one column (no read amplification)."""
        prefix = binlog_prefix(collection, segment_id)
        return _column_from_bytes(self._store.get(f"{prefix}/{field}.col"))

    def read_fields(self, collection: str, segment_id: str,
                    fields: Sequence[str]) -> dict[str, Any]:
        return {name: self.read_field(collection, segment_id, name)
                for name in fields}

    def segment_exists(self, collection: str, segment_id: str) -> bool:
        prefix = binlog_prefix(collection, segment_id)
        return self._store.exists(f"{prefix}/manifest.json")

    def list_segments(self, collection: str) -> list[str]:
        """Segment ids with a persisted binlog for ``collection``."""
        prefix = f"binlog/{collection}/"
        found: set[str] = set()
        for key in self._store.list(prefix):
            rest = key[len(prefix):]
            segment_id = rest.split("/", 1)[0]
            found.add(segment_id)
        return sorted(found)

    def delete_segment(self, collection: str, segment_id: str) -> None:
        """Drop all blobs of one segment (compaction / retention)."""
        prefix = binlog_prefix(collection, segment_id)
        for key in self._store.list(prefix + "/"):
            self._store.delete(key)
