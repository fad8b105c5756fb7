"""Tests for data, index and query nodes in isolation (wired via a real
broker/loop but without the full cluster)."""

import numpy as np
import pytest

from repro.config import LogConfig, ManuConfig, SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.errors import ClusterStateError
from repro.log.binlog import BinlogReader
from repro.log.broker import LogBroker
from repro.log.wal import (
    CoordRecord,
    DeleteRecord,
    InsertRecord,
    TimeTickRecord,
    shard_channel,
)
from repro.nodes.data_node import DataNode
from repro.nodes.index_node import IndexNode, index_blob_key
from repro.nodes.query_node import QueryNode
from repro.sim.costmodel import CostModel
from repro.sim.events import EventLoop
from repro.storage.object_store import ObjectStore


@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("price", DataType.FLOAT),
    ])


@pytest.fixture
def rig(schema):
    loop = EventLoop()
    broker = LogBroker(loop, delivery_delay_ms=0.5)
    store = ObjectStore()
    config = ManuConfig(segment=SegmentConfig(seal_entity_count=100,
                                              slice_size=16,
                                              temp_index_nlist=4),
                        log=LogConfig(num_shards=1))
    broker.create_channel(config.log.coord_channel)
    channel = shard_channel("coll", 0)
    broker.create_channel(channel)
    return loop, broker, store, config, channel


def insert_record(rng, ts, pks, segment_id="seg-1"):
    n = len(pks)
    return InsertRecord(ts=ts, collection="coll", shard=0,
                        segment_id=segment_id, pks=tuple(pks),
                        columns={
                            "vector": rng.standard_normal(
                                (n, 8)).astype(np.float32),
                            "price": list(map(float, range(n)))})


class TestDataNode:
    def test_accumulates_and_flushes(self, rig, schema, rng):
        loop, broker, store, config, channel = rig
        node = DataNode("dn", loop, broker, store, config,
                        CostModel(), lambda c: schema)
        node.subscribe(channel)
        broker.publish(channel, insert_record(rng, 10, [1, 2, 3]))
        broker.publish(channel, insert_record(rng, 20, [4, 5]))
        loop.run_for(10)
        assert node.growing_segments() == [("coll", "seg-1", 5)]
        node.seal_and_flush("coll", "seg-1", shard=0)
        loop.run_for(200)
        reader = BinlogReader(store)
        manifest = reader.read_manifest("coll", "seg-1")
        assert manifest.num_rows == 5
        assert manifest.max_lsn == 20
        # Flush announcement lands on the coordination channel.
        entries = broker.read(config.log.coord_channel, 0)
        kinds = [e.payload.kind_name for e in entries]
        assert "segment_flushed" in kinds

    def test_deletes_in_growing_drop_rows_from_binlog(self, rig, schema,
                                                      rng):
        loop, broker, store, config, channel = rig
        node = DataNode("dn", loop, broker, store, config, CostModel(),
                        lambda c: schema)
        node.subscribe(channel)
        broker.publish(channel, insert_record(rng, 10, [1, 2, 3]))
        broker.publish(channel, DeleteRecord(ts=15, collection="coll",
                                             shard=0, pks=(2,)))
        loop.run_for(10)
        node.seal_and_flush("coll", "seg-1", 0)
        loop.run_for(200)
        manifest = BinlogReader(store).read_manifest("coll", "seg-1")
        assert sorted(manifest.pks) == [1, 3]

    def test_miss_deletes_go_to_delta_log(self, rig, schema, rng):
        loop, broker, store, config, channel = rig
        node = DataNode("dn", loop, broker, store, config, CostModel(),
                        lambda c: schema)
        node.subscribe(channel)
        broker.publish(channel, DeleteRecord(ts=5, collection="coll",
                                             shard=0, pks=(42,)))
        loop.run_for(10)
        node.flush_delta_logs()
        from repro.core.segment_set import read_delete_deltas
        assert read_delete_deltas(store, "coll") == [(42, 5)]

    def test_flush_empty_segment_returns_none(self, rig, schema):
        loop, broker, store, config, channel = rig
        node = DataNode("dn", loop, broker, store, config, CostModel(),
                        lambda c: schema)
        assert node.seal_and_flush("coll", "ghost", 0) is None

    def test_unsubscribe_stops_consumption(self, rig, schema, rng):
        loop, broker, store, config, channel = rig
        node = DataNode("dn", loop, broker, store, config, CostModel(),
                        lambda c: schema)
        node.subscribe(channel)
        node.unsubscribe(channel)
        broker.publish(channel, insert_record(rng, 10, [1]))
        loop.run_for(10)
        assert node.growing_segments() == []


class TestIndexNode:
    def _flushed_segment(self, rig, rng, n=128):
        loop, broker, store, config, channel = rig
        from repro.log.binlog import BinlogWriter
        BinlogWriter(store).write_segment("coll", "seg-1", list(range(n)), {
            "vector": rng.standard_normal((n, 8)).astype(np.float32),
            "price": list(map(float, range(n)))}, 50)

    def test_build_persists_and_announces(self, rig, rng):
        loop, broker, store, config, _ = rig
        self._flushed_segment(rig, rng)
        node = IndexNode("in", loop, broker, store, config, CostModel())
        done = node.submit_build("coll", "seg-1", "vector", "IVF_FLAT",
                                 MetricType.EUCLIDEAN, {"nlist": 8})
        assert done > loop.now()
        assert store.exists(index_blob_key("coll", "seg-1", "vector"))
        loop.run_until(done + 1)
        entries = broker.read(config.log.coord_channel, 0)
        built = [e.payload for e in entries
                 if isinstance(e.payload, CoordRecord)
                 and e.payload.kind_name == "index_built"]
        assert len(built) == 1
        assert built[0].payload["segment_id"] == "seg-1"
        assert node.builds_completed == 1

    def test_tasks_queue_serially(self, rig, rng):
        loop, broker, store, config, _ = rig
        self._flushed_segment(rig, rng)
        node = IndexNode("in", loop, broker, store, config, CostModel())
        first = node.submit_build("coll", "seg-1", "vector", "IVF_FLAT",
                                  MetricType.EUCLIDEAN, {"nlist": 8})
        second = node.submit_build("coll", "seg-1", "vector", "IVF_FLAT",
                                   MetricType.EUCLIDEAN, {"nlist": 8})
        assert second > first  # queued behind the first
        assert node.queue_depth_ms() > 0

    def test_shutdown_suppresses_announcement(self, rig, rng):
        loop, broker, store, config, _ = rig
        self._flushed_segment(rig, rng)
        node = IndexNode("in", loop, broker, store, config, CostModel())
        done = node.submit_build("coll", "seg-1", "vector", "FLAT",
                                 MetricType.EUCLIDEAN)
        node.shutdown()
        loop.run_until(done + 1)
        built = [e for e in broker.read(config.log.coord_channel, 0)
                 if getattr(e.payload, "kind_name", "") == "index_built"]
        assert built == []
        with pytest.raises(RuntimeError):
            node.submit_build("coll", "seg-1", "vector", "FLAT",
                              MetricType.EUCLIDEAN)

    def test_load_index_roundtrip(self, rig, rng):
        loop, broker, store, config, _ = rig
        self._flushed_segment(rig, rng)
        node = IndexNode("in", loop, broker, store, config, CostModel())
        node.submit_build("coll", "seg-1", "vector", "IVF_FLAT",
                          MetricType.EUCLIDEAN, {"nlist": 8})
        index = node.load_index("coll", "seg-1", "vector")
        assert index.ntotal == 128


class TestQueryNode:
    def _node(self, rig, schema):
        loop, broker, store, config, channel = rig
        node = QueryNode("qn", loop, broker, store, config, CostModel(),
                         lambda c: schema)
        node.subscribe("coll", channel, owned=True)
        return node

    def test_growing_segment_searchable(self, rig, schema, rng):
        loop, broker, _store, _config, channel = rig
        node = self._node(rig, schema)
        record = insert_record(rng, 10, [1, 2, 3])
        broker.publish(channel, record)
        loop.run_for(5)
        hits, service_ms, work = node.search(
            "coll", "vector", record.columns["vector"][1], 2,
            MetricType.EUCLIDEAN)
        assert hits[0][0].pk == 2
        assert service_ms > 0
        assert work.segments == len(work.scans) == 1

    def test_non_owned_channel_no_growing_data(self, rig, schema, rng):
        loop, broker, store, config, channel = rig
        node = QueryNode("qn", loop, broker, store, config, CostModel(),
                         lambda c: schema)
        node.subscribe("coll", channel, owned=False)
        broker.publish(channel, insert_record(rng, 10, [1]))
        loop.run_for(5)
        assert node.segments_of("coll") == []
        # ...but the watermark still advances.
        assert node.gate("coll").seen_ts == 10

    def test_timetick_advances_gate(self, rig, schema):
        loop, broker, _store, _config, channel = rig
        node = self._node(rig, schema)
        broker.publish(channel, TimeTickRecord(ts=500, source="t"))
        loop.run_for(5)
        assert node.ready("coll", 400)
        assert not node.ready("coll", 600)

    def test_delete_applied_to_growing(self, rig, schema, rng):
        loop, broker, _store, _config, channel = rig
        node = self._node(rig, schema)
        record = insert_record(rng, 10, [1, 2, 3])
        broker.publish(channel, record)
        broker.publish(channel, DeleteRecord(ts=20, collection="coll",
                                             shard=0, pks=(2,)))
        loop.run_for(5)
        hits, _ms, _n = node.search("coll", "vector",
                                    record.columns["vector"][1], 3,
                                    MetricType.EUCLIDEAN)
        assert 2 not in [h.pk for h in hits[0]]

    def test_load_sealed_segment_applies_late_deletes(self, rig, schema,
                                                      rng):
        loop, broker, store, config, channel = rig
        from repro.log.binlog import BinlogWriter
        BinlogWriter(store).write_segment("coll", "seg-9", [7, 8], {
            "vector": rng.standard_normal((2, 8)).astype(np.float32),
            "price": [1.0, 2.0]}, 30)
        node = self._node(rig, schema)
        # Delete pk 8 at ts 40 (after the binlog's max_lsn 30), before load.
        broker.publish(channel, DeleteRecord(ts=40, collection="coll",
                                             shard=0, pks=(8,)))
        loop.run_for(5)
        load_ms = node.load_segment("coll", "seg-9")
        assert load_ms > 0
        segment = node.segment("coll", "seg-9")
        assert segment.is_sealed
        assert not segment.contains_pk(8)
        assert segment.contains_pk(7)

    def test_bulk_load_reads_delta_log_once(self, rig, schema, rng,
                                            monkeypatch):
        """The persisted delete-delta log is cached per collection."""
        loop, broker, store, config, channel = rig
        from repro.log.binlog import BinlogWriter
        from repro.core import segment_set as applier
        writer = BinlogWriter(store)
        for pk, sid in enumerate(("seg-a", "seg-b", "seg-c")):
            writer.write_segment("coll", sid, [pk], {
                "vector": rng.standard_normal((1, 8)).astype(np.float32),
                "price": [1.0]}, 30)
        node = self._node(rig, schema)
        calls = []
        real = applier.read_delete_deltas
        monkeypatch.setattr(
            applier, "read_delete_deltas",
            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        for sid in ("seg-a", "seg-b", "seg-c"):
            node.load_segment("coll", sid)
        assert len(calls) == 1
        # A newly consumed delete invalidates the cache: the next load
        # re-reads the (possibly extended) persisted log.
        broker.publish(channel, DeleteRecord(ts=50, collection="coll",
                                             shard=0, pks=(999,)))
        loop.run_for(5)
        writer.write_segment("coll", "seg-d", [77], {
            "vector": rng.standard_normal((1, 8)).astype(np.float32),
            "price": [1.0]}, 30)
        node.load_segment("coll", "seg-d")
        assert len(calls) == 2

    def test_collection_registry_tracks_membership(self, rig, schema,
                                                   rng):
        loop, broker, store, _config, channel = rig
        node = self._node(rig, schema)
        assert not node.holds_collection("coll")
        record = insert_record(rng, 10, [1, 2], segment_id="seg-g")
        broker.publish(channel, record)
        loop.run_for(5)
        assert node.holds_collection("coll")
        assert node.is_growing("coll", "seg-g")
        from repro.log.binlog import BinlogWriter
        BinlogWriter(store).write_segment("coll", "seg-s", [7], {
            "vector": rng.standard_normal((1, 8)).astype(np.float32),
            "price": [1.0]}, 30)
        node.load_segment("coll", "seg-s")
        assert not node.is_growing("coll", "seg-s")
        assert node.segments_of("coll") == ["seg-g", "seg-s"]
        assert node.sealed_segments_of("coll") == ["seg-s"]
        assert node.num_rows("coll") == 3
        node.release_segment("coll", "seg-s")
        node.release_segment("coll", "seg-g")
        assert not node.holds_collection("coll")
        assert node.num_rows("coll") == 0

    def test_attach_index_requires_segment(self, rig, schema):
        node = self._node(rig, schema)
        with pytest.raises(ClusterStateError):
            node.attach_index("coll", "ghost", "vector", "index/x")

    def test_release_segment(self, rig, schema, rng):
        loop, broker, store, _config, channel = rig
        from repro.log.binlog import BinlogWriter
        BinlogWriter(store).write_segment("coll", "seg-9", [7], {
            "vector": rng.standard_normal((1, 8)).astype(np.float32),
            "price": [1.0]}, 30)
        node = self._node(rig, schema)
        node.load_segment("coll", "seg-9")
        assert node.release_segment("coll", "seg-9")
        assert not node.release_segment("coll", "seg-9")
        assert node.segments_of("coll") == []

    def test_fail_drops_everything(self, rig, schema, rng):
        loop, broker, _store, _config, channel = rig
        node = self._node(rig, schema)
        broker.publish(channel, insert_record(rng, 10, [1]))
        loop.run_for(5)
        node.fail()
        assert not node.alive
        assert node.num_rows() == 0
        broker.publish(channel, insert_record(rng, 20, [2]))
        loop.run_for(5)
        assert node.num_rows() == 0  # no longer consuming
