"""WAL record types and serialization (Section 3.3).

Manu records every state-changing request to the log: data manipulation
(insert/delete), data definition (create/drop collection), and system
coordination messages; search requests are read-only and never logged.  The
log is *logical* — records describe events, not page modifications — so each
subscriber consumes them its own way.

Data reaches a shard channel in one shape, the :class:`BatchRecord` of one
commit-group flush; outside serialisation only :func:`data_records` knows
the envelope exists, and every subscriber reads through it.

Records carry the packed hybrid timestamp (LSN) the logger obtained from the
TSO.  ``to_bytes``/``record_from_bytes`` give a compact binary encoding
(JSON envelope + raw little-endian float32 vector payloads) used when WAL
segments are archived to the object store.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class WalRecord:
    """Base class: every record has the issuing LSN (packed timestamp)."""

    ts: int

    trace: Optional[tuple] = None
    """Wire-form :class:`repro.tracing.TraceContext` of the publishing
    span (None = untraced): a commit group's batch is built with it, and
    the broker stamps any other record with ``dataclasses.replace``
    (records are frozen)."""

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class InsertRecord(WalRecord):
    """A batch of entities routed to one segment of one shard."""

    collection: str = ""
    shard: int = 0
    segment_id: str = ""
    pks: tuple = ()
    columns: Mapping[str, Any] = field(default_factory=dict)
    """Field name -> list/array of values, aligned with ``pks``."""

    @property
    def num_rows(self) -> int:
        return len(self.pks)


@dataclass(frozen=True)
class DeleteRecord(WalRecord):
    """Deletion of entities by primary key."""

    collection: str = ""
    shard: int = 0
    pks: tuple = ()


@dataclass(frozen=True)
class BatchRecord(WalRecord):
    """A group-commit envelope: one WAL publish, N logical records.

    Loggers coalesce insert/delete records buffered in a commit group
    into one ``BatchRecord`` per (collection, shard) flush.  Inner
    records keep their own distinct LSNs (ascending, allocated at flush
    time) so replay guards keyed on per-record ``ts`` keep working; the
    envelope's ``ts`` is the *last* (= max) inner LSN, which satisfies
    the broker's per-channel monotonicity check for the batch as a
    whole.
    """

    collection: str = ""
    shard: int = 0
    records: tuple = ()
    """Inner :class:`InsertRecord`/:class:`DeleteRecord` instances in
    commit order."""

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def num_rows(self) -> int:
        return sum(len(r.pks) for r in self.records)


def data_records(payload: WalRecord) -> tuple:
    """The insert/delete records one shard-channel entry carries, in
    commit order: a commit group's inner records (each with its own LSN),
    a bare data record as itself, nothing for any other entry.  Expand
    *before* comparing LSNs: the envelope's ``ts`` is the max inner LSN,
    so a group straddling a cut still holds records below it."""
    if isinstance(payload, BatchRecord):
        return payload.records
    if isinstance(payload, (InsertRecord, DeleteRecord)):
        return (payload,)
    return ()


@dataclass(frozen=True)
class TimeTickRecord(WalRecord):
    """Periodic watermark: all records with LSN <= ts have been published."""

    source: str = ""


@dataclass(frozen=True)
class DdlRecord(WalRecord):
    """Data definition: create/drop collection, create index, ..."""

    op: str = ""
    collection: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CoordRecord(WalRecord):
    """System coordination broadcast (segment sealed, index built, ...)."""

    kind_name: str = ""
    payload: Mapping[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:  # keep .kind uniform across record types
        return self.kind_name


_RECORD_TYPES = {
    "InsertRecord": InsertRecord,
    "DeleteRecord": DeleteRecord,
    "BatchRecord": BatchRecord,
    "TimeTickRecord": TimeTickRecord,
    "DdlRecord": DdlRecord,
    "CoordRecord": CoordRecord,
}

_MAGIC = b"WALR"


def _encode_columns(columns: Mapping[str, Any]) -> tuple[dict, list[bytes]]:
    """Split columns into a JSON-safe header and raw vector blobs."""
    header: dict[str, Any] = {}
    blobs: list[bytes] = []
    for name in sorted(columns):
        values = columns[name]
        arr = np.asarray(values)
        if arr.dtype.kind == "f" and arr.ndim == 2:
            data = np.ascontiguousarray(arr, dtype=np.float32)
            header[name] = {"vector": True, "shape": list(data.shape),
                            "blob": len(blobs)}
            blobs.append(data.tobytes())
        else:
            header[name] = {"vector": False, "values": arr.tolist()}
    return header, blobs


def _decode_columns(header: Mapping[str, Any],
                    blobs: list[bytes]) -> dict[str, Any]:
    columns: dict[str, Any] = {}
    for name, spec in header.items():
        if spec["vector"]:
            shape = tuple(spec["shape"])
            arr = np.frombuffer(blobs[spec["blob"]],
                                dtype=np.float32).reshape(shape)
            columns[name] = arr.copy()
        else:
            columns[name] = spec["values"]
    return columns


def record_to_bytes(record: WalRecord) -> bytes:
    """Serialize any WAL record into a self-describing binary blob."""
    envelope: dict[str, Any] = {"type": record.kind
                                if not isinstance(record, CoordRecord)
                                else "CoordRecord",
                                "ts": record.ts}
    if record.trace is not None:
        envelope["trace"] = list(record.trace)
    blobs: list[bytes] = []
    if isinstance(record, InsertRecord):
        header, blobs = _encode_columns(record.columns)
        envelope.update(collection=record.collection, shard=record.shard,
                        segment_id=record.segment_id, pks=list(record.pks),
                        columns=header)
    elif isinstance(record, DeleteRecord):
        envelope.update(collection=record.collection, shard=record.shard,
                        pks=list(record.pks))
    elif isinstance(record, BatchRecord):
        # Each inner record is itself a full WALR blob; the envelope only
        # carries the routing header and the blob count.
        envelope.update(collection=record.collection, shard=record.shard,
                        num_records=len(record.records))
        blobs = [record_to_bytes(inner) for inner in record.records]
    elif isinstance(record, TimeTickRecord):
        envelope.update(source=record.source)
    elif isinstance(record, DdlRecord):
        envelope.update(op=record.op, collection=record.collection,
                        payload=dict(record.payload))
    elif isinstance(record, CoordRecord):
        envelope.update(kind_name=record.kind_name,
                        payload=dict(record.payload))
    else:
        raise TypeError(f"unknown record type {type(record).__name__}")

    head = json.dumps(envelope, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<II", len(head), len(blobs)), head]
    for blob in blobs:
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def record_from_bytes(raw: bytes) -> WalRecord:
    """Inverse of :func:`record_to_bytes`."""
    if raw[:4] != _MAGIC:
        raise ValueError("not a WAL record blob")
    head_len, num_blobs = struct.unpack_from("<II", raw, 4)
    offset = 12
    envelope = json.loads(raw[offset:offset + head_len].decode())
    offset += head_len
    blobs: list[bytes] = []
    for _ in range(num_blobs):
        (blen,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        blobs.append(raw[offset:offset + blen])
        offset += blen

    rtype = envelope.pop("type")
    ts = envelope.pop("ts")
    trace = envelope.pop("trace", None)
    if trace is not None:
        trace = tuple(trace)
    if rtype == "InsertRecord":
        columns = _decode_columns(envelope.pop("columns"), blobs)
        return InsertRecord(ts=ts, trace=trace,
                            collection=envelope["collection"],
                            shard=envelope["shard"],
                            segment_id=envelope["segment_id"],
                            pks=tuple(envelope["pks"]), columns=columns)
    if rtype == "DeleteRecord":
        return DeleteRecord(ts=ts, trace=trace,
                            collection=envelope["collection"],
                            shard=envelope["shard"],
                            pks=tuple(envelope["pks"]))
    if rtype == "BatchRecord":
        return BatchRecord(ts=ts, trace=trace,
                           collection=envelope["collection"],
                           shard=envelope["shard"],
                           records=tuple(record_from_bytes(blob)
                                         for blob in blobs))
    if rtype == "TimeTickRecord":
        return TimeTickRecord(ts=ts, trace=trace,
                              source=envelope["source"])
    if rtype == "DdlRecord":
        return DdlRecord(ts=ts, trace=trace, op=envelope["op"],
                         collection=envelope["collection"],
                         payload=envelope["payload"])
    if rtype == "CoordRecord":
        return CoordRecord(ts=ts, trace=trace,
                           kind_name=envelope["kind_name"],
                           payload=envelope["payload"])
    raise ValueError(f"unknown record type {rtype!r}")


def shard_channel(collection: str, shard: int) -> str:
    """Name of the WAL channel for one shard of one collection."""
    return f"wal/{collection}/shard-{shard}"


def channel_shard(channel: str) -> tuple[str, int]:
    """The (collection, shard) a WAL shard channel carries."""
    prefix, shard = channel.rsplit("/shard-", 1)
    return prefix.removeprefix("wal/"), int(shard)
