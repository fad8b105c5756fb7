"""Tests for binlog files and the logger service."""

import numpy as np
import pytest

from repro.core.entity import validate_batch
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.core.tso import TimestampOracle
from repro.errors import ClusterStateError, ObjectNotFound, StorageError
from repro.log.binlog import BinlogReader, BinlogWriter
from repro.log.broker import LogBroker
from repro.log.logger_node import LoggerService, shard_bucket_key, shard_of
from repro.log.wal import BatchRecord, DeleteRecord, InsertRecord, \
    shard_channel
from repro.storage.object_store import ObjectStore


class TestBinlog:
    def test_write_read_roundtrip(self, rng):
        store = ObjectStore()
        writer = BinlogWriter(store)
        reader = BinlogReader(store)
        vectors = rng.standard_normal((20, 8)).astype(np.float32)
        prices = rng.uniform(0, 10, 20).tolist()
        manifest = writer.write_segment("coll", "seg-1", list(range(20)),
                                        {"vector": vectors,
                                         "price": prices}, max_lsn=42)
        assert manifest.num_rows == 20
        assert manifest.max_lsn == 42
        got = reader.read_manifest("coll", "seg-1")
        assert got.pks == tuple(range(20))
        assert np.allclose(reader.read_field("coll", "seg-1", "vector"),
                           vectors)
        assert reader.read_field("coll", "seg-1", "price") == \
            pytest.approx(prices)

    def test_column_isolation_no_read_amplification(self, rng):
        """Reading one field fetches only that field's blob."""
        store = ObjectStore()
        writer = BinlogWriter(store)
        vectors = rng.standard_normal((10, 8)).astype(np.float32)
        writer.write_segment("coll", "s", list(range(10)),
                             {"vector": vectors,
                              "price": list(range(10))}, 1)
        before = store.stats.bytes_read
        BinlogReader(store).read_field("coll", "s", "price")
        read = store.stats.bytes_read - before
        assert read < vectors.nbytes  # far less than the vector column

    def test_ragged_column_rejected(self, rng):
        writer = BinlogWriter(ObjectStore())
        with pytest.raises(StorageError):
            writer.write_segment("c", "s", [1, 2], {
                "vector": rng.standard_normal((3, 4)).astype(np.float32)},
                1)

    def test_list_and_delete_segments(self, rng):
        store = ObjectStore()
        writer = BinlogWriter(store)
        reader = BinlogReader(store)
        for seg in ("s1", "s2"):
            writer.write_segment("coll", seg, [1],
                                 {"v": np.ones((1, 4), np.float32)}, 1)
        assert reader.list_segments("coll") == ["s1", "s2"]
        assert reader.segment_exists("coll", "s1")
        reader.delete_segment("coll", "s1")
        assert reader.list_segments("coll") == ["s2"]
        with pytest.raises(ObjectNotFound):
            reader.read_manifest("coll", "s1")


    def test_truncated_column_blob_is_a_storage_error(self, rng):
        """Every truncation point of a matrix column and of a JSON
        column: a typed error naming the offset, never numpy's
        ``cannot reshape`` or ``struct.error``."""
        store = ObjectStore()
        BinlogWriter(store).write_segment(
            "coll", "s", [1, 2, 3],
            {"vector": rng.standard_normal((3, 4)).astype(np.float32),
             "label": ["a", "bé", "c"]}, 1)
        reader = BinlogReader(store)
        for field in ("vector", "label"):
            key = f"binlog/coll/s/{field}.col"
            blob = store.get(key)
            for cut in range(len(blob)):
                store.put(key, blob[:cut])
                with pytest.raises(StorageError,
                                   match="binlog column blob .* offset"):
                    reader.read_field("coll", "s", field)
            store.put(key, blob + b"\x00\x00\x00\x00")
            with pytest.raises(StorageError, match="binlog column blob"):
                reader.read_field("coll", "s", field)
            store.put(key, blob)
            assert len(reader.read_field("coll", "s", field)) == 3


class _StaticAllocator:
    """Deterministic per-shard segment naming for logger tests."""

    def assign_segments(self, collection, shard, num_rows):
        return [(f"{collection}-seg-{shard}", num_rows)]


@pytest.fixture
def logger_setup():
    broker = LogBroker()
    tso = TimestampOracle(lambda: 100.0)
    store = ObjectStore()
    service = LoggerService(tso, broker, store, _StaticAllocator(),
                            num_shards=2,
                            logger_names=("log-a", "log-b"))
    service.ensure_channels("coll")
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4),
    ])
    return broker, service, schema


def _insert(service, schema, pks):
    batch = validate_batch(schema, {
        "pk": pks,
        "vector": np.ones((len(pks), 4), dtype=np.float32)})
    return service.insert("coll", batch)


def _flatten(entries):
    """Expand group-commit BatchRecord envelopes into logical records."""
    for entry in entries:
        if isinstance(entry.payload, BatchRecord):
            yield from entry.payload.records
        else:
            yield entry.payload


class TestLoggerService:
    def test_insert_publishes_per_shard(self, logger_setup):
        broker, service, schema = logger_setup
        _insert(service, schema, list(range(40)))
        total = 0
        for shard in range(2):
            entries = broker.read(shard_channel("coll", shard), 0)
            for record in _flatten(entries):
                assert isinstance(record, InsertRecord)
                assert record.shard == shard
                assert all(shard_of(pk, 2) == shard
                           for pk in record.pks)
                total += record.num_rows
        assert total == 40

    def test_lsn_monotone_across_inserts(self, logger_setup):
        _broker, service, schema = logger_setup
        ts1 = _insert(service, schema, [1, 2, 3])
        ts2 = _insert(service, schema, [4, 5, 6])
        assert ts2 > ts1

    def test_mapping_lookup(self, logger_setup):
        _broker, service, schema = logger_setup
        _insert(service, schema, [7])
        shard = shard_of(7, 2)
        assert service.lookup_segment("coll", 7) == f"coll-seg-{shard}"
        assert service.lookup_segment("coll", 999) is None

    def test_delete_only_existing_pks(self, logger_setup):
        broker, service, schema = logger_setup
        _insert(service, schema, [1, 2, 3])
        _ts, deleted = service.delete("coll", (2, 999))
        assert deleted == 1
        records = []
        for shard in range(2):
            for record in _flatten(
                    broker.read(shard_channel("coll", shard), 0)):
                if isinstance(record, DeleteRecord):
                    records.append(record)
        assert len(records) == 1 and records[0].pks == (2,)
        assert service.lookup_segment("coll", 2) is None

    def test_delete_all_missing_publishes_nothing(self, logger_setup):
        broker, service, schema = logger_setup
        _insert(service, schema, [1])
        before = sum(broker.end_offset(shard_channel("coll", s))
                     for s in range(2))
        _ts, deleted = service.delete("coll", (50, 51))
        after = sum(broker.end_offset(shard_channel("coll", s))
                    for s in range(2))
        assert deleted == 0 and after == before

    def test_shard_routing_via_ring(self, logger_setup):
        _broker, service, schema = logger_setup
        for shard in range(2):
            owner = service.logger_for_shard("coll", shard)
            assert owner.name in ("log-a", "log-b")

    def test_add_remove_logger(self, logger_setup):
        _broker, service, schema = logger_setup
        service.add_logger("log-c")
        assert "log-c" in service.logger_names
        with pytest.raises(ClusterStateError):
            service.add_logger("log-c")
        service.remove_logger("log-c")
        assert "log-c" not in service.logger_names
        with pytest.raises(ClusterStateError):
            service.remove_logger("log-zzz")

    def test_cannot_remove_last_logger(self):
        broker = LogBroker()
        service = LoggerService(TimestampOracle(lambda: 0.0), broker,
                                ObjectStore(), _StaticAllocator(),
                                num_shards=1, logger_names=("solo",))
        with pytest.raises(ClusterStateError):
            service.remove_logger("solo")

    def test_mapping_survives_logger_churn(self, logger_setup):
        """Shard mapping state is keyed by shard, not by logger."""
        _broker, service, schema = logger_setup
        _insert(service, schema, [11, 12, 13])
        service.add_logger("log-c")
        service.remove_logger("log-a")
        assert service.lookup_segment("coll", 11) is not None

    def test_shard_of_stable(self):
        assert shard_of(123, 4) == shard_of(123, 4)
        assert 0 <= shard_of("string-key", 4) < 4

    def test_bucket_key_format(self):
        assert shard_bucket_key("c", 1) == "c/shard-1"
