"""Tests for the log broker and WAL record serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChannelNotFound
from repro.log.broker import LogBroker
from repro.log.wal import (
    BatchRecord,
    CoordRecord,
    DdlRecord,
    DeleteRecord,
    InsertRecord,
    TimeTickRecord,
    channel_shard,
    data_records,
    record_from_bytes,
    record_to_bytes,
    shard_channel,
)
from repro.sim.events import EventLoop


class TestBrokerBasics:
    def test_publish_read(self):
        broker = LogBroker()
        broker.create_channel("c")
        assert broker.publish("c", "a") == 0
        assert broker.publish("c", "b") == 1
        entries = broker.read("c", 0)
        assert [e.payload for e in entries] == ["a", "b"]
        assert [e.offset for e in entries] == [0, 1]

    def test_unknown_channel_raises(self):
        broker = LogBroker()
        with pytest.raises(ChannelNotFound):
            broker.publish("nope", 1)
        with pytest.raises(ChannelNotFound):
            broker.read("nope", 0)

    def test_create_channel_idempotent(self):
        broker = LogBroker()
        broker.create_channel("c")
        broker.publish("c", 1)
        broker.create_channel("c")
        assert broker.end_offset("c") == 1

    def test_read_from_offset_bounded(self):
        broker = LogBroker()
        broker.create_channel("c")
        for i in range(10):
            broker.publish("c", i)
        entries = broker.read("c", 7, max_entries=2)
        assert [e.payload for e in entries] == [7, 8]

    def test_truncate_moves_begin(self):
        broker = LogBroker()
        broker.create_channel("c")
        for i in range(10):
            broker.publish("c", i)
        dropped = broker.truncate("c", 4)
        assert dropped == 4
        assert broker.begin_offset("c") == 4
        assert broker.end_offset("c") == 10
        assert [e.payload for e in broker.read("c", 0)] == list(range(4, 10))

    def test_truncate_beyond_end_clamped(self):
        broker = LogBroker()
        broker.create_channel("c")
        broker.publish("c", 1)
        assert broker.truncate("c", 100) == 1
        assert broker.begin_offset("c") == broker.end_offset("c") == 1


class TestSubscriptions:
    def test_pull_subscription(self):
        broker = LogBroker()
        broker.create_channel("c")
        sub = broker.subscribe("c", "reader")
        broker.publish("c", "x")
        broker.publish("c", "y")
        assert [e.payload for e in sub.poll()] == ["x", "y"]
        assert sub.poll() == []
        assert sub.lag() == 0

    def test_seek_replays(self):
        broker = LogBroker()
        broker.create_channel("c")
        sub = broker.subscribe("c", "reader")
        for i in range(5):
            broker.publish("c", i)
        sub.poll()
        sub.seek(2)
        assert [e.payload for e in sub.poll()] == [2, 3, 4]

    def test_push_without_loop_is_synchronous(self):
        broker = LogBroker()
        broker.create_channel("c")
        got = []
        broker.subscribe("c", "r", callback=lambda e: got.append(e.payload))
        broker.publish("c", 1)
        broker.publish("c", 2)
        assert got == [1, 2]

    def test_push_backlog_delivered_on_subscribe(self):
        broker = LogBroker()
        broker.create_channel("c")
        broker.publish("c", "old")
        got = []
        broker.subscribe("c", "r", callback=lambda e: got.append(e.payload))
        assert got == ["old"]

    def test_push_with_loop_has_delay(self):
        loop = EventLoop()
        broker = LogBroker(loop, delivery_delay_ms=5.0)
        broker.create_channel("c")
        got = []
        broker.subscribe("c", "r",
                         callback=lambda e: got.append((loop.now(),
                                                        e.payload)))
        broker.publish("c", "x")
        assert got == []  # not yet delivered
        loop.run_until(10)
        assert got == [(5.0, "x")]

    def test_cancel_stops_delivery(self):
        broker = LogBroker()
        broker.create_channel("c")
        got = []
        sub = broker.subscribe("c", "r",
                               callback=lambda e: got.append(e.payload))
        broker.publish("c", 1)
        sub.cancel()
        broker.publish("c", 2)
        assert got == [1]

    def test_subscribe_from_offset(self):
        broker = LogBroker()
        broker.create_channel("c")
        for i in range(5):
            broker.publish("c", i)
        got = []
        broker.subscribe("c", "r", from_offset=3,
                         callback=lambda e: got.append(e.payload))
        assert got == [3, 4]

    def test_ordering_preserved_with_loop(self):
        loop = EventLoop()
        broker = LogBroker(loop, delivery_delay_ms=1.0)
        broker.create_channel("c")
        got = []
        broker.subscribe("c", "r", callback=lambda e: got.append(e.payload))
        for i in range(20):
            broker.publish("c", i)
        loop.run_until(100)
        assert got == list(range(20))


class TestWalSerialization:
    def test_insert_roundtrip(self):
        vectors = np.arange(12, dtype=np.float32).reshape(3, 4)
        record = InsertRecord(ts=77, collection="c", shard=1,
                              segment_id="seg-1", pks=(1, 2, 3),
                              columns={"vector": vectors,
                                       "price": [1.5, 2.5, 3.5],
                                       "label": ["a", "b", "c"]})
        again = record_from_bytes(record_to_bytes(record))
        assert isinstance(again, InsertRecord)
        assert again.ts == 77 and again.pks == (1, 2, 3)
        assert np.array_equal(again.columns["vector"], vectors)
        assert again.columns["price"] == [1.5, 2.5, 3.5]
        assert again.columns["label"] == ["a", "b", "c"]
        assert again.num_rows == 3

    def test_delete_roundtrip(self):
        record = DeleteRecord(ts=5, collection="c", shard=0, pks=(9, 10))
        again = record_from_bytes(record_to_bytes(record))
        assert again == record

    def test_timetick_roundtrip(self):
        record = TimeTickRecord(ts=123, source="tso")
        assert record_from_bytes(record_to_bytes(record)) == record

    def test_ddl_roundtrip(self):
        record = DdlRecord(ts=1, op="create_collection", collection="c",
                           payload={"fields": []})
        again = record_from_bytes(record_to_bytes(record))
        assert again.op == "create_collection"
        assert again.payload == {"fields": []}

    def test_coord_roundtrip(self):
        record = CoordRecord(ts=2, kind_name="segment_flushed",
                             payload={"segment_id": "s"})
        again = record_from_bytes(record_to_bytes(record))
        assert again.kind == "segment_flushed"
        assert again.payload == {"segment_id": "s"}

    def test_bad_blob_rejected(self):
        with pytest.raises(ValueError):
            record_from_bytes(b"garbage")

    def test_shard_channel_naming(self):
        assert shard_channel("coll", 3) == "wal/coll/shard-3"

    def test_channel_shard_inverts_shard_channel(self):
        assert channel_shard(shard_channel("a::x", 3)) == ("a::x", 3)
        with pytest.raises(ValueError):
            channel_shard("wal/coord")

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=20,
                    unique=True),
           st.integers(0, 2**50))
    @settings(max_examples=25)
    def test_insert_roundtrip_property(self, pks, ts):
        vectors = np.random.default_rng(0).standard_normal(
            (len(pks), 8)).astype(np.float32)
        record = InsertRecord(ts=ts, collection="c", shard=0,
                              segment_id="s", pks=tuple(pks),
                              columns={"v": vectors})
        again = record_from_bytes(record_to_bytes(record))
        assert again.pks == tuple(pks)
        assert again.ts == ts
        assert np.allclose(again.columns["v"], vectors)


class TestDataRecords:
    """``data_records`` is how every subscriber reads a shard channel."""

    INSERT = InsertRecord(ts=11, collection="c", shard=0, segment_id="s",
                          pks=(1, 2), columns={"v": [[0.0], [1.0]]})
    DELETE = DeleteRecord(ts=12, collection="c", shard=0, pks=(1,))

    def test_commit_group_yields_inner_records_in_commit_order(self):
        batch = BatchRecord(ts=12, collection="c", shard=0,
                            records=(self.INSERT, self.DELETE))
        assert tuple(data_records(batch)) == (self.INSERT, self.DELETE)
        # The envelope survives the wire; so does what it expands to.
        again = record_from_bytes(record_to_bytes(batch))
        assert [(type(r), r.ts, r.pks) for r in data_records(again)] == \
            [(InsertRecord, 11, (1, 2)), (DeleteRecord, 12, (1,))]

    @pytest.mark.parametrize("record", [INSERT, DELETE])
    def test_bare_data_record_is_itself(self, record):
        assert tuple(data_records(record)) == (record,)

    @pytest.mark.parametrize("record", [
        TimeTickRecord(ts=5, source="tt"),
        DdlRecord(ts=6, op="create_collection", collection="c"),
        CoordRecord(ts=7, kind_name="seal_segment"),
    ])
    def test_control_records_carry_no_data(self, record):
        assert tuple(data_records(record)) == ()
