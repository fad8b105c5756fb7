"""Group commit on the WAL append path: bounds, acks, ordering, batches.

The logger service buffers inserts/deletes per (collection, shard) into
commit groups and flushes each group as one coalesced ``BatchRecord``
publish when a bound trips — row count, payload bytes, the virtual-time
commit window, or an explicit flush.  Writers get :class:`AckFuture`
handles resolved with the batch LSN strictly after the publish; under
``MANU_CHECK``, which every tier-1 test arms, an ack of rows whose LSN is
not yet on its channel raises.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, TracingConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.core.entity import reset_auto_id_counter, validate_batch
from repro.core.tso import TimestampOracle
from repro.errors import ClusterStateError
from repro.log.broker import LogBroker
from repro.log.logger_node import (
    AckFuture,
    LoggerService,
    merge_acks,
    shard_of,
)
from repro.log.wal import (
    BatchRecord,
    DeleteRecord,
    InsertRecord,
    record_from_bytes,
    record_to_bytes,
    shard_channel,
)
from repro.sim.events import EventLoop
from repro.storage.lsm import LsmTree
from repro.storage.object_store import ObjectStore

DIM = 4


class _StaticAllocator:
    def assign_segments(self, collection, shard, num_rows):
        return [(f"{collection}-seg-{shard}", num_rows)]


def _service(loop=None, rows=64, nbytes=256 * 1024, window=2.0,
             num_shards=1):
    broker = LogBroker()
    now = loop.now if loop is not None else (lambda: 100.0)
    service = LoggerService(
        TimestampOracle(now), broker, ObjectStore(), _StaticAllocator(),
        num_shards=num_shards, logger_names=("log-a", "log-b"),
        loop=loop, group_commit_rows=rows,
        group_commit_bytes=nbytes, group_commit_window_ms=window)
    service.ensure_channels("coll")
    return broker, service


_SCHEMA = CollectionSchema([
    FieldSchema("pk", DataType.INT64, is_primary=True),
    FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
])


def _batch(pks):
    return validate_batch(_SCHEMA, {
        "pk": list(pks),
        "vector": np.ones((len(pks), DIM), dtype=np.float32)})


def _batches_on(broker, shard=0):
    return [e.payload for e in broker.read(shard_channel("coll", shard), 0)
            if isinstance(e.payload, BatchRecord)]


class TestFlushBounds:
    """One test per flush trigger; the drained flush log names it."""

    def test_row_bound_trips(self):
        broker, service = _service(rows=8, window=0.0)
        ack = service.insert_async("coll", _batch(range(8)))
        assert ack.done and ack.rows == 8
        reasons = [entry[0] for entry in service.drain_flush_log()]
        assert reasons == ["rows"]
        assert len(_batches_on(broker)) == 1

    def test_below_row_bound_stays_buffered(self):
        broker, service = _service(rows=8, window=0.0)
        ack = service.insert_async("coll", _batch(range(7)))
        assert not ack.done
        assert service.pending_group_rows() == 7
        assert _batches_on(broker) == []

    def test_byte_bound_trips(self):
        # 3 rows ~ 3*(8 + 4*4) bytes > 64.
        broker, service = _service(rows=10_000, nbytes=64, window=0.0)
        ack = service.insert_async("coll", _batch(range(3)))
        assert ack.done
        reasons = [entry[0] for entry in service.drain_flush_log()]
        assert reasons == ["bytes"]

    def test_window_bound_trips(self):
        loop = EventLoop()
        broker, service = _service(loop=loop, rows=10_000, window=5.0)
        ack = service.insert_async("coll", _batch(range(3)))
        assert not ack.done
        loop.run_for(4.0)
        assert not ack.done     # window not reached yet
        loop.run_for(2.0)
        assert ack.done and ack.rows == 3
        (reason, records, rows, _nbytes, age) = \
            service.drain_flush_log()[0]
        assert reason == "window"
        assert records == 1 and rows == 3
        assert age == pytest.approx(5.0)

    def test_stale_window_timer_is_ignored(self):
        """A row-bound flush in the middle of the window must invalidate
        the armed timer: when it later fires, the (new) group is either
        empty or a different epoch — no spurious publish."""
        loop = EventLoop()
        broker, service = _service(loop=loop, rows=4, window=5.0)
        service.insert_async("coll", _batch(range(4)))   # rows flush
        loop.run_for(10.0)
        reasons = [entry[0] for entry in service.drain_flush_log()]
        assert reasons == ["rows"]
        assert len(_batches_on(broker)) == 1

    def test_explicit_flush(self):
        broker, service = _service(rows=10_000, window=0.0)
        ack = service.insert_async("coll", _batch(range(3)))
        service.flush_all_groups()
        assert ack.done
        reasons = [entry[0] for entry in service.drain_flush_log()]
        assert reasons == ["explicit"]

    def test_sync_insert_flushes_inline(self):
        broker, service = _service(rows=10_000, window=0.0)
        ts = service.insert("coll", _batch(range(5)))
        [batch] = _batches_on(broker)
        assert ts == batch.ts
        assert service.pending_group_rows() == 0
        reasons = [entry[0] for entry in service.drain_flush_log()]
        assert reasons == ["explicit"]


class TestAckFutures:
    def test_ack_lsn_equals_batch_publish_lsn(self):
        broker, service = _service(rows=4, window=0.0)
        ack = service.insert_async("coll", _batch(range(4)))
        [batch] = _batches_on(broker)
        assert ack.result() == batch.ts
        assert batch.ts == max(r.ts for r in batch.records)

    def test_unresolved_future_raises(self):
        future = AckFuture()
        assert not future.done
        with pytest.raises(ClusterStateError):
            future.result()
        with pytest.raises(ClusterStateError):
            future.rows
        future.set_result(7, 2)
        assert future.result() == 7 and future.rows == 2
        with pytest.raises(ClusterStateError):
            future.set_result(8, 1)   # double resolve

    def test_done_callback_runs_once_resolved(self):
        fired = []
        future = AckFuture()
        future.add_done_callback(lambda f: fired.append(f.result()))
        assert fired == []
        future.set_result(5, 1)
        assert fired == [5]
        future.add_done_callback(lambda f: fired.append(f.result()))
        assert fired == [5, 5]   # immediate when already done

    def test_merge_acks_fans_in(self):
        children = [AckFuture(), AckFuture()]
        merged = merge_acks(children)
        assert not merged.done
        children[0].set_result(10, 3)
        assert not merged.done
        children[1].set_result(20, 4)
        assert merged.done
        assert merged.result() == 20 and merged.rows == 7

    def test_merge_acks_empty_resolves_immediately(self):
        merged = merge_acks([])
        assert merged.done and merged.rows == 0

    def test_multi_shard_async_insert_merges_shard_acks(self):
        broker, service = _service(rows=2, window=0.0, num_shards=2)
        pks = list(range(16))
        ack = service.insert_async("coll", _batch(pks))
        assert ack.done
        assert ack.rows == 16
        per_shard = [_batches_on(broker, s) for s in range(2)]
        assert all(batches for batches in per_shard)
        assert ack.result() == max(b.ts for batches in per_shard
                                   for b in batches)


class TestBatchSemantics:
    def test_buffered_delete_sees_buffered_insert(self):
        """A delete buffered after an insert of the same pk, in the same
        group, must count it as existing (flush-time overlay)."""
        broker, service = _service(rows=10_000, window=0.0)
        service.insert_async("coll", _batch([1, 2, 3]))
        ack = service.delete_async("coll", (2, 99))
        service.flush_all_groups()
        assert ack.rows == 1   # pk 2 existed (buffered), 99 never did
        [batch] = _batches_on(broker)
        kinds = [type(r).__name__ for r in batch.records]
        assert kinds == ["InsertRecord", "DeleteRecord"]
        assert batch.records[1].pks == (2,)
        assert service.lookup_segment("coll", 2) is None
        assert service.lookup_segment("coll", 1) is not None

    def test_all_missing_delete_acks_zero_rows(self):
        broker, service = _service(rows=10_000, window=0.0)
        ack = service.delete_async("coll", (50, 51))
        service.flush_all_groups()
        assert ack.done and ack.rows == 0
        assert _batches_on(broker) == []

    def test_inner_lsns_strictly_ascend(self):
        broker, service = _service(rows=10_000, window=0.0)
        service.insert_async("coll", _batch([1, 2]))
        service.insert_async("coll", _batch([3, 4]))
        service.delete_async("coll", (1,))
        service.flush_all_groups()
        [batch] = _batches_on(broker)
        inner_ts = [r.ts for r in batch.records]
        assert inner_ts == sorted(inner_ts)
        assert len(set(inner_ts)) == len(inner_ts)

    def test_per_shard_ordering_across_flushes(self):
        """Across many small async writes and flush triggers, each shard
        channel's envelopes and inner records stay LSN-ordered (the
        broker's armed MANU_CHECK would raise otherwise; this asserts it
        end to end)."""
        rng = np.random.default_rng(9)
        broker, service = _service(rows=8, window=0.0, num_shards=2)
        next_pk = 0
        for _ in range(20):
            n = int(rng.integers(1, 7))
            service.insert_async(
                "coll", _batch(range(next_pk, next_pk + n)))
            next_pk += n
        service.flush_all_groups()
        for shard in range(2):
            seen = []
            for entry in broker.read(shard_channel("coll", shard), 0):
                payload = entry.payload
                assert isinstance(payload, BatchRecord)
                for record in payload.records:
                    assert all(shard_of(pk, 2) == shard
                               for pk in record.pks)
                    seen.append(record.ts)
                assert payload.ts == max(r.ts for r in payload.records)
            assert seen == sorted(seen)

    def test_counters_split_batches_and_rows(self):
        broker, service = _service(rows=4, window=0.0)
        service.insert_async("coll", _batch(range(4)))
        service.insert_async("coll", _batch(range(4, 8)))
        batches = sum(lg.batches_published
                      for _name, lg in service.loggers())
        rows = sum(lg.rows_published for _name, lg in service.loggers())
        assert batches == 2 and rows == 8


class TestBatchRecordWire:
    def test_round_trip(self):
        inner = (
            InsertRecord(ts=11, collection="c", shard=0, segment_id="s0",
                         pks=(1, 2),
                         columns={"vector": np.ones((2, DIM),
                                                    np.float32)}),
            DeleteRecord(ts=12, collection="c", shard=0, pks=(1,)),
        )
        batch = BatchRecord(ts=12, collection="c", shard=0,
                            records=inner)
        assert batch.num_records == 2 and batch.num_rows == 3
        decoded = record_from_bytes(record_to_bytes(batch))
        assert isinstance(decoded, BatchRecord)
        assert decoded.ts == 12
        assert decoded.num_records == 2
        assert isinstance(decoded.records[0], InsertRecord)
        assert decoded.records[0].pks == (1, 2)
        np.testing.assert_array_equal(
            decoded.records[0].columns["vector"],
            inner[0].columns["vector"])
        assert isinstance(decoded.records[1], DeleteRecord)
        assert decoded.records[1].pks == (1,)


#: sha256 over ``record_to_bytes`` of every shard-channel entry the
#: script below leaves behind, computed on the commit before group commit
#: became the only write path (PR 21, 71710e2).
WAL_GOLDEN = "64ce176f8e3aa4f56e1e42bd98033e889806fddefd6cbc072d1d6542040d3974"


class TestWalGolden:
    def test_default_config_wal_is_byte_identical(self):
        """Every write verb, sync and async, across both shards, through
        every flush trigger: the WAL is the bytes it always was."""
        reset_auto_id_counter()
        cluster = ManuCluster(config=ManuConfig(
            tracing=TracingConfig(enabled=False)))
        cluster.create_collection("auto", CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM)]))
        cluster.create_collection("keyed", CollectionSchema([
            FieldSchema("pk", DataType.INT64, is_primary=True),
            FieldSchema("label", DataType.STRING),
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM)]))
        rng = np.random.default_rng(23)

        def vectors(n):
            return rng.standard_normal((n, DIM)).astype(np.float32)

        # Sync inserts, both shards; one of a single row.
        cluster.insert("auto", {"vector": vectors(10)})
        cluster.insert("auto", {"vector": vectors(1)})
        cluster.run_for(1.0)
        # Async: small writes share a group the commit window flushes.
        _, small_a = cluster.insert_async("auto", {"vector": vectors(3)})
        _, small_b = cluster.insert_async("auto", {"vector": vectors(2)})
        hit_and_miss = cluster.delete_async(
            "auto", "_auto_id in [2, 12, 9999]")
        assert not small_a.done
        cluster.run_for(5.0)
        assert small_a.done and small_b.done and hit_and_miss.rows == 2
        # Async: one write that trips the row bound on both shards.
        _, large = cluster.insert_async("auto", {"vector": vectors(200)})
        assert large.done
        # Sync deletes: hitting, partly missing, wholly missing.
        assert cluster.delete("auto", "_auto_id in [1, 5]") == 2
        assert cluster.delete("auto", "_auto_id in [6, 8888]") == 1
        assert cluster.delete("auto", "_auto_id == 7777") == 0
        missed = cluster.delete_async("auto", "_auto_id in [7776]")
        cluster.run_for(5.0)
        assert missed.rows == 0
        # Explicit keys: a sync insert behind a buffered async one, upsert.
        cluster.insert_async("keyed", {
            "pk": [1, 2, 3], "label": list("abc"), "vector": vectors(3)})
        cluster.insert("keyed", {
            "pk": [4, 5], "label": ["d", "e"], "vector": vectors(2)})
        cluster.upsert("keyed", {
            "pk": [2, 6], "label": ["B", "f"], "vector": vectors(2)})
        cluster.run_for(60.0)

        cluster.sample_telemetry()
        reasons = {labels["reason"] for labels, _ in
                   cluster.metrics.counter_family(
                       "wal_group_commit_flushes", ("reason",)).samples()}
        assert {"explicit", "rows", "window"} <= reasons
        digest = hashlib.sha256()
        for collection in ("auto", "keyed"):
            for shard in range(cluster.config.log.num_shards):
                for entry in cluster.broker.read(
                        shard_channel(collection, shard), 0):
                    digest.update(record_to_bytes(entry.payload))
        assert digest.hexdigest() == WAL_GOLDEN


class TestLsmBatchedOps:
    def test_put_many_single_limit_check(self):
        tree = LsmTree(memtable_limit=4)
        # 6 entries in one batch: the limit is checked once, after the
        # batch, so exactly one flush happens (not one mid-batch).
        tree.put_many((f"k{i}", f"s{i}") for i in range(6))
        assert tree.num_tables == 1
        for i in range(6):
            assert tree.get(f"k{i}") == f"s{i}".encode()

    def test_delete_many_tombstones(self):
        tree = LsmTree(memtable_limit=100)
        tree.put_many((f"k{i}", "v") for i in range(4))
        tree.delete_many(["k1", "k3"])
        assert tree.get("k1") is None and tree.get("k3") is None
        assert tree.get("k0") is not None
