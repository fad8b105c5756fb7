"""Loggers: the entry points for publishing data onto the WAL (Figure 4).

A logger owns one or more shard buckets of the consistent-hash ring.  For an
insert it verifies the request, obtains an LSN from the TSO, asks the data
coordinator's segment allocator which growing segment the rows belong to,
publishes the batch on the shard's WAL channel, and records the entity-id ->
segment-id mapping in the shard's LSM tree (flushed as SSTables to object
storage).  For a delete it consults the mapping to drop keys that were never
inserted, then publishes the deletion.

The :class:`LoggerService` is the routing front: it hashes primary keys to
shards, maps shards to loggers through the ring, and supports adding and
removing loggers at runtime — shard LSM state is keyed by shard (and backed
by the shared object store), so ownership changes never lose the mapping.

Group commit is the only way onto the WAL: every write buffers into a
per-(collection, shard) :class:`CommitGroup` (``LoggerService._write``) and
goes out as one coalesced :class:`~repro.log.wal.BatchRecord` publish
(``flush_group`` -> ``Logger.publish_batch``) when a bound trips (row count,
payload bytes, commit window) or a sync caller flushes the shards it
touched.  Async writers hold an :class:`AckFuture` that resolves with the
batch LSN strictly after the publish returned — acks never precede
durability.  Commit groups are keyed like the mappings, by shard, so logger
churn never strands one.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Callable, Mapping, Optional, Protocol

import numpy as np

from repro.core.entity import EntityBatch
from repro.core.tso import TimestampOracle
from repro.errors import ClusterStateError, FencedWriteError, \
    InvariantViolation
from repro.log.broker import LogBroker
from repro.log.hashring import HashRing
from repro.log.wal import BatchRecord, DeleteRecord, InsertRecord, \
    WalRecord, shard_channel
from repro.sim.events import EventLoop
from repro.storage.bloom import blake2b_digests
from repro.storage.lsm import LsmTree
from repro.storage.object_store import ObjectStore
from repro.tracing import NOOP_TRACER, TraceCollector


class SegmentAllocator(Protocol):
    """Data-coordinator service assigning rows to growing segments."""

    def assign_segments(self, collection: str, shard: int,
                        num_rows: int) -> list[tuple[str, int]]:
        """Partition ``num_rows`` into (segment id, count) chunks so no
        growing segment exceeds the seal threshold."""
        ...


def _encode_pks(pks) -> list[bytes]:
    """Each primary key's routing and mapping key: its string form in
    utf-8.  Encoded once per batch; shard routing, the flush overlay and
    the LSM tree all take these."""
    return [str(pk).encode() for pk in pks]


def _shards_of(keys: list[bytes], num_shards: int) -> np.ndarray:
    """The shard of every encoded key: its 8-byte digest, read as a
    little-endian integer, modulo ``num_shards``."""
    return (np.frombuffer(blake2b_digests(keys, 8), dtype="<u8")
            % np.uint64(num_shards)).astype(np.intp)


def _shard_of_key(key: bytes, num_shards: int) -> int:
    """:func:`_shards_of` of one key, without numpy."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(),
                          "little") % num_shards


def shard_of(pk, num_shards: int) -> int:
    """Deterministic shard of a primary key (hash of its string form)."""
    return _shard_of_key(str(pk).encode(), num_shards)


def shard_bucket_key(collection: str, shard: int) -> str:
    """Ring key of one shard's logical bucket."""
    return f"{collection}/shard-{shard}"


class AckFuture:
    """Single-shot write acknowledgement, resolved at group-commit flush.

    Writers buffered into a :class:`CommitGroup` get one of these back
    immediately; it resolves with the batch publish LSN (and the number
    of rows the write actually affected) only *after* the coalesced WAL
    publish returned — so an ack can never precede durability.  Under
    ``MANU_CHECK`` a future knows its ``(broker, channel)`` and refuses
    an ack of rows whose LSN is not on that channel yet; a zero-row ack
    (a flush whose deletes all missed) publishes nothing and passes.
    """

    __slots__ = ("_lsn", "_rows", "_done", "_callbacks", "_wal")

    def __init__(self, wal: Optional[tuple] = None) -> None:
        self._lsn = 0
        self._rows = 0
        self._done = False
        self._callbacks: list[Callable[["AckFuture"], None]] = []
        self._wal = wal

    @property
    def done(self) -> bool:
        return self._done

    @property
    def rows(self) -> int:
        """Rows the write affected (deletes: keys that existed)."""
        if not self._done:
            raise ClusterStateError("write not yet acknowledged")
        return self._rows

    def result(self) -> int:
        """The durable batch LSN; raises until the flush resolved it."""
        if not self._done:
            raise ClusterStateError("write not yet acknowledged")
        return self._lsn

    def set_result(self, lsn: int, rows: int) -> None:
        """Resolve with the batch publish LSN (flush path only)."""
        if self._done:
            raise ClusterStateError("ack future already resolved")
        if rows and self._wal is not None:
            broker, channel = self._wal
            if broker.checked_ts(channel) < lsn:
                raise InvariantViolation(
                    f"MANU_CHECK: ack of {rows} row(s) at LSN {lsn} before "
                    f"that LSN is on {channel!r}")
        self._lsn = lsn
        self._rows = rows
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self,
                          callback: Callable[["AckFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (immediately if done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)


def merge_acks(children: list[AckFuture]) -> AckFuture:
    """Fan-in: a future resolving once every child resolved.

    The merged LSN is the max child LSN; the merged row count sums the
    children (a multi-shard write is acked when its last shard flush is
    durable).
    """
    children = list(children)
    if len(children) == 1:
        # Single-shard write (the overwhelmingly common case): the
        # child's resolution *is* the merged resolution — no fan-in
        # bookkeeping needed.
        return children[0]
    merged = AckFuture()
    if not children:
        merged.set_result(0, 0)
        return merged
    pending = {"left": len(children)}

    def _on_child(_child: AckFuture) -> None:
        pending["left"] -= 1
        if pending["left"] == 0:
            merged.set_result(max(c.result() for c in children),
                              sum(c.rows for c in children))

    for child in children:
        child.add_done_callback(_on_child)
    return merged


class _PendingOp:
    """One buffered write awaiting group-commit flush."""

    __slots__ = ("kind", "pks", "keys", "columns", "future")

    def __init__(self, kind: str, pks: tuple, keys,
                 columns: Optional[Mapping],
                 future: Optional[AckFuture]) -> None:
        self.kind = kind          # "insert" | "delete"
        self.pks = pks
        self.keys = keys          # _encode_pks(pks)
        self.columns = columns    # insert only
        self.future = future      # None for a sync insert


class CommitGroup:
    """Per-(collection, shard) buffer of not-yet-durable writes.

    Accumulates insert/delete ops until a flush bound trips — row count,
    estimated payload bytes, or the commit window timer — or a sync
    writer forces an explicit flush.  ``epoch`` increments on every
    flush so a stale window timer can recognise that its group already
    went out.
    """

    __slots__ = ("ops", "rows", "nbytes", "first_at", "epoch")

    def __init__(self) -> None:
        self.ops: list[_PendingOp] = []
        self.rows = 0
        self.nbytes = 0
        self.first_at = 0.0
        self.epoch = 0

    def reset(self) -> None:
        self.ops = []
        self.rows = 0
        self.nbytes = 0
        self.epoch += 1


def _estimate_nbytes(pks: tuple, columns: Optional[Mapping]) -> int:
    """Rough payload size of one buffered op (drives the byte bound)."""
    total = 8 * len(pks)
    if columns:
        for values in columns.values():
            if isinstance(values, np.ndarray):
                total += values.nbytes
            else:
                total += 8 * len(values)
    return total


class Logger:
    """One logger node; operates on the shard states handed to it."""

    def __init__(self, name: str, tso: TimestampOracle,
                 broker: LogBroker,
                 tracer: Optional[TraceCollector] = None) -> None:
        self.name = name
        self._tso = tso
        self._broker = broker
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._component = f"logger:{name}"
        # One publish call may carry a whole commit group: count WAL
        # appends and logical rows separately.
        self.batches_published = 0
        self.rows_published = 0
        # Epoch-fencing hook (wired by the LoggerService): called with
        # (collection, shard, logger_name) before every publish; raises
        # FencedWriteError when this logger lost the shard to a
        # migration — a stale cached handle must not append behind the
        # handoff LSN.
        self.fence_guard: Optional[Callable[[str, int, str], None]] = None

    def _check_fence(self, collection: str, shard: int) -> None:
        if self.fence_guard is not None:
            self.fence_guard(collection, shard, self.name)

    def publish_batch(self, collection: str, shard: int,
                      records: tuple) -> int:
        """Publish one coalesced commit group; returns the batch LSN.

        ``records`` are pre-built insert/delete records in commit order
        with flush-time LSNs already assigned; the envelope's ``ts`` is
        the last (max) inner LSN, which is what acks resolve with.
        """
        self._check_fence(collection, shard)
        rows = sum(len(record.pks) for record in records)
        with self._tracer.span("logger.publish_batch", self._component,
                               collection=collection, shard=shard,
                               records=len(records), rows=rows):
            # Stamped here with the span's wire context, so the broker's
            # publish hook finds nothing to copy.
            batch = BatchRecord(ts=records[-1].ts, collection=collection,
                                shard=shard, records=records,
                                trace=self._tracer.current_wire())
            self._broker.publish(shard_channel(collection, shard), batch)
        self.batches_published += 1
        self.rows_published += rows
        return batch.ts


class LoggerService:
    """Routes data-manipulation requests to loggers via the hash ring."""

    def __init__(self, tso: TimestampOracle, broker: LogBroker,
                 store: ObjectStore, allocator: SegmentAllocator,
                 num_shards: int, logger_names: tuple[str, ...] = ("logger-0",),
                 lsm_memtable_limit: int = 1024,
                 tracer: Optional[TraceCollector] = None,
                 loop: Optional[EventLoop] = None,
                 group_commit_rows: int = 64,
                 group_commit_bytes: int = 256 * 1024,
                 group_commit_window_ms: float = 2.0) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self._tso = tso
        self._broker = broker
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._store = store
        self._allocator = allocator
        self.num_shards = num_shards
        self._lsm_memtable_limit = lsm_memtable_limit
        self._ring = HashRing()
        self._loggers: dict[str, Logger] = {}
        # Shard LSM trees are keyed by (collection, shard) and outlive any
        # individual logger, mirroring SSTable persistence in object storage.
        self._mappings: dict[tuple[str, int], LsmTree] = {}
        # Group commit: per-(collection, shard) buffers, keyed like the
        # mappings so logger churn never strands a pending group.
        self._loop = loop
        self._gc_rows = group_commit_rows
        self._gc_bytes = group_commit_bytes
        self._gc_window_ms = group_commit_window_ms
        self._groups: dict[tuple[str, int], CommitGroup] = {}
        # Tenancy hooks, wired by the cluster (the log layer never
        # imports tenancy): ``route_override`` maps a shard bucket key
        # to an explicit logger placement installed by the rebalancer
        # (consulted before the ring); ``fence_epoch_fn`` exposes the
        # directory's per-shard fence epoch so stale Logger handles can
        # be rejected after a bucket migration.
        self.route_override: Optional[
            Callable[[str], Optional[str]]] = None
        self.fence_epoch_fn: Optional[Callable[[str, int], int]] = None
        # Flush telemetry, drained by the cluster's sampler (the log
        # layer stays metrics-import-free): (reason, records, rows,
        # nbytes, window age in virtual ms).
        self._flush_log: list[tuple[str, int, int, int, float]] = []
        for name in logger_names:
            self.add_logger(name)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def logger_names(self) -> list[str]:
        return sorted(self._loggers)

    def loggers(self) -> list[tuple[str, "Logger"]]:
        """(name, logger) pairs in name order, for telemetry export."""
        return sorted(self._loggers.items())

    def add_logger(self, name: str, weight: float = 1.0) -> Logger:
        """Register a logger and place it on the ring.

        ``weight`` scales its virtual-point count (split-shard
        placement: a weightier logger absorbs more buckets).
        """
        if name in self._loggers:
            raise ClusterStateError(f"logger {name!r} already exists")
        logger = Logger(name, self._tso, self._broker,
                        tracer=self._tracer)
        logger.fence_guard = self._fence_guard
        self._loggers[name] = logger
        self._ring.add_node(name, weight=weight)
        return logger

    def remove_logger(self, name: str) -> None:
        """Remove a logger; its shards move to ring successors."""
        if name not in self._loggers:
            raise ClusterStateError(f"logger {name!r} does not exist")
        if len(self._loggers) == 1:
            raise ClusterStateError("cannot remove the last logger")
        del self._loggers[name]
        self._ring.remove_node(name)

    def owner_name(self, collection: str, shard: int) -> str:
        """Current logger for a shard bucket: an explicit directory
        override when one is installed (and still points at a live
        logger), the consistent-hash ring otherwise."""
        key = shard_bucket_key(collection, shard)
        if self.route_override is not None:
            override = self.route_override(key)
            if override is not None and override in self._loggers:
                return override
        return self._ring.owner(key)

    def logger_for_shard(self, collection: str, shard: int) -> Logger:
        return self._loggers[self.owner_name(collection, shard)]

    def _fence_guard(self, collection: str, shard: int,
                     logger_name: str) -> None:
        """Reject publishes from a logger that lost the shard.

        Only fires for shards with a bumped fence epoch (i.e. shards
        the migration protocol has actually touched): a stale cached
        :class:`Logger` handle trying to append behind the handoff LSN
        gets :class:`FencedWriteError` instead of silently forking the
        channel's history.
        """
        if self.fence_epoch_fn is None:
            return
        epoch = self.fence_epoch_fn(collection, shard)
        if epoch <= 0:
            return
        owner = self.owner_name(collection, shard)
        if owner != logger_name:
            raise FencedWriteError(
                f"logger {logger_name!r} is fenced off "
                f"{collection}/shard-{shard} (epoch {epoch}, "
                f"owner {owner!r})")

    def flush_shard(self, collection: str, shard: int) -> int:
        """Drain one shard's pending commit group (migration handoff:
        every pre-fence write becomes WAL-durable under the old owner
        before the bucket moves).  Returns the flush LSN (0 if empty).
        """
        return self.flush_group(collection, shard, reason="migration")

    def _mapping(self, collection: str, shard: int) -> LsmTree:
        key = (collection, shard)
        if key not in self._mappings:
            self._mappings[key] = LsmTree(
                memtable_limit=self._lsm_memtable_limit,
                store=self._store,
                store_prefix=f"mapping/{collection}/shard-{shard}")
        return self._mappings[key]

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def ensure_channels(self, collection: str) -> list[str]:
        """Create the collection's WAL shard channels; returns their names."""
        channels = [shard_channel(collection, s)
                    for s in range(self.num_shards)]
        for channel in channels:
            self._broker.create_channel(channel)
        return channels

    def insert(self, collection: str, batch: EntityBatch) -> int:
        """Publish a validated batch; returns the max LSN.

        The rows join each touched shard's commit group (behind any
        async writes buffered before them) and the call flushes those
        groups before it returns — one coalesced WAL publish per shard.
        """
        return self._write(collection, "insert", batch.pks, batch.columns,
                           sync=True)[0]

    def insert_async(self, collection: str,
                     batch: EntityBatch) -> AckFuture:
        """Buffer a validated batch into its shards' commit groups.

        Returns an :class:`AckFuture` that resolves with the durable
        batch LSN only after every touched shard's group flushed (row or
        byte bound, commit window, or an explicit flush) and its WAL
        publish returned.
        """
        return merge_acks(self._write(
            collection, "insert", batch.pks, batch.columns, sync=False)[1])

    def _rows_by_shard(self, keys: list[bytes]):
        """(shard, row indices) pairs, in shard order, for the encoded
        keys of one write, the rows an index array; ``rows is None``
        means all of them, letting the caller skip the row-subset copy."""
        if not keys:
            return []
        if self.num_shards == 1:
            return [(0, None)]
        if len(keys) == 1:
            return [(_shard_of_key(keys[0], self.num_shards), None)]
        shards = _shards_of(keys, self.num_shards)
        present = np.bincount(shards).nonzero()[0].tolist()
        if len(present) == 1:
            return [(present[0], None)]
        return [(shard, (shards == shard).nonzero()[0])
                for shard in present]

    def _split(self, pks: tuple, columns: Optional[Mapping]):
        """One ``(shard, pks, keys, columns)`` part per shard a write
        touches, in shard order.  The keys are encoded here, once, for
        everything downstream; a write landing whole on one shard is
        passed through uncopied."""
        keys = _encode_pks(pks)
        pks = tuple(pks)
        for shard, rows in self._rows_by_shard(keys):
            if rows is None:
                yield shard, pks, keys, columns
                continue
            take = _taker(rows)
            yield (shard, take(pks), take(keys),
                   columns and {name: values[rows]
                                if isinstance(values, np.ndarray)
                                else list(take(values))
                                for name, values in columns.items()})

    def delete(self, collection: str, pks: tuple) -> tuple[int, int]:
        """Publish deletions of the keys that exist; returns (max LSN,
        deleted count)."""
        lsn, acks = self._write(collection, "delete", pks, None, sync=True)
        return lsn, sum(ack.rows for ack in acks)

    def delete_async(self, collection: str, pks: tuple) -> AckFuture:
        """Buffer deletions into their shards' commit groups.

        The returned :class:`AckFuture` resolves with the durable batch
        LSN; ``rows`` carries how many keys existed at flush time.
        """
        return merge_acks(self._write(collection, "delete", pks, None,
                                      sync=False)[1])

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------

    def _write(self, collection: str, kind: str, pks: tuple,
               columns: Optional[Mapping],
               sync: bool) -> tuple[int, list[AckFuture]]:
        """The one write routine: buffer each shard's part of a write
        into that shard's commit group; the four verbs differ only in who
        flushes.  A sync writer flushes every shard it touched, inline,
        and arms nothing; an async writer leaves the group to the row or
        byte bound, else to the commit window, armed by the op that
        opened the group.  Returns the max LSN of the sync flushes and
        the parts' ack futures — none for a sync insert, whose flush LSN
        is all its caller reads.
        """
        max_ts = 0
        futures = []
        for shard, shard_pks, keys, shard_columns in self._split(pks,
                                                                 columns):
            future = None
            if kind == "delete" or not sync:
                future = AckFuture(
                    (self._broker, shard_channel(collection, shard))
                    if self._broker.manu_check else None)
                futures.append(future)
            group = self._groups.setdefault((collection, shard),
                                            CommitGroup())
            group.ops.append(_PendingOp(kind, shard_pks, keys,
                                        shard_columns, future))
            group.rows += len(shard_pks)
            group.nbytes += _estimate_nbytes(shard_pks, shard_columns)
            if len(group.ops) == 1 and self._loop is not None:
                group.first_at = self._loop.now()
            if sync:
                max_ts = max(max_ts, self.flush_group(collection, shard))
            elif group.rows >= self._gc_rows:
                self.flush_group(collection, shard, reason="rows")
            elif group.nbytes >= self._gc_bytes:
                self.flush_group(collection, shard, reason="bytes")
            elif (len(group.ops) == 1 and self._loop is not None
                    and self._gc_window_ms > 0):
                self._loop.call_after(
                    self._gc_window_ms,
                    lambda shard=shard, epoch=group.epoch:
                    self._window_flush(collection, shard, epoch),
                    name=f"group-commit:{collection}/shard-{shard}")
        return max_ts, futures

    def _window_flush(self, collection: str, shard: int,
                      epoch: int) -> None:
        """Commit-window timer target.  A stale timer — the group it
        armed for flushed through a bound or an explicit call — sees a
        bumped epoch and no-ops."""
        group = self._groups.get((collection, shard))
        if group is not None and group.ops and group.epoch == epoch:
            self.flush_group(collection, shard, reason="window")

    def flush_group(self, collection: str, shard: int,
                    reason: str = "explicit") -> int:
        """Flush one commit group as a single coalesced WAL publish.

        Inner records get their LSNs here, at flush time (allocation and
        publish happen back to back with no event-loop yield, keeping
        the per-channel monotonicity contract); buffered deletes are
        existence-filtered against the mapping *plus* the inserts
        buffered ahead of them in the same group.  Ack futures resolve
        with the batch LSN only after the publish returned.  Returns the
        batch LSN (0 when the group was empty).
        """
        group = self._groups.get((collection, shard))
        if group is None or not group.ops:
            return 0
        ops = group.ops
        rows, nbytes = group.rows, group.nbytes
        age = (self._loop.now() - group.first_at) \
            if self._loop is not None else 0.0
        group.reset()
        mapping = self._mapping(collection, shard)
        records: list[WalRecord] = []
        # Flush-time overlay over the mapping: encoded pk -> encoded
        # segment id, or None once a buffered delete hit it.
        overlay: dict[bytes, Optional[bytes]] = {}
        acks: list[tuple[Optional[AckFuture], int]] = []
        index = 0
        while index < len(ops):
            op = ops[index]
            if op.kind == "insert":
                # Coalesce the run of consecutive inserts into as few
                # inner records as the segment allocator allows — one
                # merged record per assigned (segment, chunk), not one
                # per writer.  Downstream consumers then append whole
                # chunks instead of row-at-a-time.
                run = [op]
                while (index + 1 < len(ops)
                       and ops[index + 1].kind == "insert"):
                    index += 1
                    run.append(ops[index])
                pks, keys, columns = _merge_insert_run(run)
                assigned = self._allocator.assign_segments(
                    collection, shard, len(pks))
                cursor = 0
                for segment_id, count in assigned:
                    chunk = slice(cursor, cursor + count)
                    cursor += count
                    records.append(InsertRecord(
                        ts=self._tso.allocate_packed(),
                        collection=collection, shard=shard,
                        segment_id=segment_id, pks=pks[chunk],
                        columns={name: values[chunk]
                                 for name, values in columns.items()}))
                    overlay.update(
                        dict.fromkeys(keys[chunk], segment_id.encode()))
                for merged in run:
                    acks.append((merged.future, len(merged.pks)))
            else:
                known = [(pk, key) for pk, key in zip(op.pks, op.keys)
                         if (overlay[key] if key in overlay
                             else mapping.get(key)) is not None]
                if known:
                    records.append(DeleteRecord(
                        ts=self._tso.allocate_packed(),
                        collection=collection, shard=shard,
                        pks=tuple(pk for pk, _ in known)))
                    overlay.update(
                        dict.fromkeys([key for _, key in known]))
                acks.append((op.future, len(known)))
            index += 1
        if records:
            logger = self.logger_for_shard(collection, shard)
            batch_ts = logger.publish_batch(collection, shard,
                                            tuple(records))
            if None in overlay.values():
                puts = {key: value for key, value in overlay.items()
                        if value is not None}
                if puts:
                    mapping.put_many(puts)
                mapping.delete_many([key for key, value in overlay.items()
                                     if value is None])
            elif overlay:
                mapping.put_many(overlay)
            self._flush_log.append(
                (reason, len(records), rows, nbytes, age))
            for future, count in acks:
                if future is not None:
                    future.set_result(batch_ts, count)
            return batch_ts
        # Zero-effect group: every buffered delete missed.  Nothing was
        # accepted, so a crash after this ack could lose nothing.
        ts = self._tso.allocate_packed()
        for future, _count in acks:
            if future is not None:
                future.set_result(ts, 0)
        return ts

    def flush_all_groups(self, reason: str = "explicit") -> None:
        """Flush every pending commit group (quiesce/shutdown path)."""
        for collection, shard in sorted(self._groups):
            self.flush_group(collection, shard, reason=reason)

    def pending_group_rows(self) -> int:
        """Rows buffered in commit groups, not yet durable (telemetry)."""
        return sum(group.rows for group in self._groups.values())

    def drain_flush_log(self) -> list[tuple[str, int, int, int, float]]:
        """Group-commit flush telemetry accumulated since the last
        drain: (reason, records, rows, bytes, window age ms) per flush.
        Consumed by the cluster's sampler, keeping this layer
        metrics-import-free."""
        log, self._flush_log = self._flush_log, []
        return log

    def lookup_segment(self, collection: str, pk) -> Optional[str]:
        """Segment currently holding ``pk`` (None when absent)."""
        key = str(pk).encode()
        shard = _shard_of_key(key, self.num_shards)
        value = self._mapping(collection, shard).get(key)
        return value.decode() if value is not None else None

    def flush_mappings(self) -> None:
        """Flush all shard LSM memtables to SSTables (checkpointing)."""
        for mapping in self._mappings.values():
            mapping.flush()


def _merge_insert_run(run: list[_PendingOp]
                      ) -> tuple[tuple, list[bytes], dict]:
    """Concatenate a run of buffered insert ops into one (pks, keys,
    columns).

    Zero-copy for a run of one (the op's own payload is returned); a
    longer run concatenates columns once, so the flush emits one merged
    inner record per segment chunk instead of one per writer.
    """
    if len(run) == 1:
        return run[0].pks, run[0].keys, run[0].columns
    pks = tuple(pk for op in run for pk in op.pks)
    keys = [key for op in run for key in op.keys]
    columns: dict = {}
    for name in run[0].columns:
        parts = [op.columns[name] for op in run]
        if isinstance(parts[0], np.ndarray):
            columns[name] = np.concatenate(parts)
        else:
            merged: list = []
            for part in parts:
                merged.extend(part)
            columns[name] = merged
    return pks, keys, columns


def _taker(rows: np.ndarray) -> Callable:
    """A function taking ``rows`` of a tuple or list, as a tuple."""
    if len(rows) == 1:
        row = int(rows[0])
        return lambda values: (values[row],)
    return operator.itemgetter(*rows.tolist())
