"""Tests for time-travel checkpoints and the compaction policy."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import SegmentConfig
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointManager,
    apply_retention,
)
from repro.core.compaction import (
    CompactionPolicy,
    SegmentMeta,
    compact_segments,
)
from repro.core.segment_set import read_delete_deltas, write_delete_delta
from repro.core.tso import Timestamp
from repro.log.binlog import BinlogReader, BinlogWriter
from repro.log.broker import LogBroker
from repro.log.wal import shard_channel
from repro.storage.object_store import FsBackend, ObjectStore


class TestCheckpointManager:
    def test_write_and_lookup(self):
        store = ObjectStore()
        manager = CheckpointManager(store)
        for ts in (100, 200, 300):
            manager.write(Checkpoint("coll", ts, ("s1",), {"ch": ts // 10}))
        assert manager.latest_before("coll", 250).ts == 200
        assert manager.latest_before("coll", 300).ts == 300
        assert manager.latest_before("coll", 50) is None
        assert len(manager.list_checkpoints("coll")) == 3

    def test_json_roundtrip(self):
        checkpoint = Checkpoint("c", 42, ("a", "b"), {"ch1": 7})
        again = Checkpoint.from_json(checkpoint.to_json())
        assert again == checkpoint


class TestDeleteDeltas:
    def test_write_read_ordering(self):
        store = ObjectStore()
        write_delete_delta(store, "coll", 0, [(1, 100), (2, 200)])
        write_delete_delta(store, "coll", 1, [(3, 300)])
        got = read_delete_deltas(store, "coll")
        assert (1, 100) in got and (3, 300) in got
        assert len(got) == 3

    def test_empty_write_noop(self):
        store = ObjectStore()
        write_delete_delta(store, "coll", 0, [])
        assert store.list("delta/") == []

    def test_a_restarted_process_does_not_write_over_persisted_deltas(
            self, tmp_path):
        """Keys come from the log's own timestamps, not from a counter
        that a new process starts again at zero."""
        script = (
            "import sys\n"
            "from repro.core.segment_set import write_delete_delta\n"
            "from repro.storage.object_store import FsBackend, ObjectStore\n"
            "write_delete_delta(ObjectStore(FsBackend(sys.argv[1])), 'coll',"
            " 0, [(int(sys.argv[2]), int(sys.argv[3]))])\n")
        for pk, ts in ((1, 100), (2, 200), (10, 1000)):
            subprocess.run(
                [sys.executable, "-c", script, str(tmp_path), str(pk),
                 str(ts)], check=True, timeout=60,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        store = ObjectStore(FsBackend(str(tmp_path)))
        assert read_delete_deltas(store, "coll") == [
            (1, 100), (2, 200), (10, 1000)]      # write order, by key

    def test_a_replayed_batch_is_merged_not_overwritten(self):
        store = ObjectStore()
        write_delete_delta(store, "coll", 0, [(1, 100), (2, 200)])
        write_delete_delta(store, "coll", 0, [(2, 200)])
        write_delete_delta(store, "coll", 0, [(3, 150), (2, 200)])
        assert read_delete_deltas(store, "coll") == [
            (1, 100), (3, 150), (2, 200)]


class TestRetention:
    def test_expires_old_checkpoints_and_truncates(self):
        store = ObjectStore()
        broker = LogBroker()
        channel = shard_channel("coll", 0)
        broker.create_channel(channel)
        for i in range(20):
            broker.publish(channel, i)
        manager = CheckpointManager(store)
        old_ts = Timestamp.from_physical(100).pack()
        new_ts = Timestamp.from_physical(1000).pack()
        manager.write(Checkpoint("coll", old_ts, (), {channel: 5}))
        manager.write(Checkpoint("coll", new_ts, (), {channel: 12}))
        dropped = apply_retention(store, broker, "coll", 1,
                                  expire_before_ms=500)
        assert dropped == 1 + 12  # one checkpoint + 12 WAL entries
        assert broker.begin_offset(channel) == 12
        remaining = manager.list_checkpoints("coll")
        assert [c.ts for c in remaining] == [new_ts]

    def test_no_survivors_keeps_wal(self):
        store = ObjectStore()
        broker = LogBroker()
        channel = shard_channel("coll", 0)
        broker.create_channel(channel)
        broker.publish(channel, 1)
        dropped = apply_retention(store, broker, "coll", 1, 10_000)
        assert dropped == 0
        assert broker.begin_offset(channel) == 0


class TestCompactionPolicy:
    def test_small_segments_grouped(self):
        config = SegmentConfig(compaction_min_size=100,
                               compaction_target_size=250)
        policy = CompactionPolicy(config)
        metas = [SegmentMeta(f"s{i}", 80) for i in range(5)]
        groups = policy.plan(metas)
        assert groups  # something to merge
        grouped = [sid for group in groups for sid in group]
        assert len(set(grouped)) == len(grouped)
        for group in groups:
            assert len(group) > 1

    def test_large_segments_untouched(self):
        policy = CompactionPolicy(SegmentConfig(compaction_min_size=100))
        assert policy.plan([SegmentMeta("big", 5000)]) == []

    def test_delete_heavy_segment_compacted_alone(self):
        policy = CompactionPolicy(delete_rebuild_ratio=0.2)
        groups = policy.plan([SegmentMeta("dirty", 1000, num_deleted=300)])
        assert groups == [["dirty"]]

    def test_single_small_segment_not_merged(self):
        policy = CompactionPolicy(SegmentConfig(compaction_min_size=100))
        assert policy.plan([SegmentMeta("lonely", 10)]) == []

    def test_empty_segments_skipped(self):
        policy = CompactionPolicy()
        assert policy.plan([SegmentMeta("empty", 0)]) == []


class TestCompactSegments:
    def _write(self, store, rng, segment_id, pks, lsn):
        writer = BinlogWriter(store)
        n = len(pks)
        writer.write_segment("coll", segment_id, pks, {
            "vector": rng.standard_normal((n, 4)).astype(np.float32),
            "price": list(np.arange(n, dtype=float))}, lsn)

    def test_merge_preserves_rows(self, rng):
        store = ObjectStore()
        self._write(store, rng, "s1", [1, 2, 3], 10)
        self._write(store, rng, "s2", [4, 5], 20)
        manifest = compact_segments(store, "coll", ["s1", "s2"])
        assert manifest.num_rows == 5
        assert manifest.max_lsn == 20
        assert sorted(manifest.pks) == [1, 2, 3, 4, 5]
        reader = BinlogReader(store)
        assert reader.list_segments("coll") == [manifest.segment_id]
        vectors = reader.read_field("coll", manifest.segment_id, "vector")
        assert vectors.shape == (5, 4)

    def test_deleted_pks_dropped(self, rng):
        store = ObjectStore()
        self._write(store, rng, "s1", [1, 2, 3], 10)
        manifest = compact_segments(store, "coll", ["s1"],
                                    deleted_pks={2})
        assert sorted(manifest.pks) == [1, 3]

    def test_per_segment_delete_mapping(self, rng):
        store = ObjectStore()
        self._write(store, rng, "s1", [1, 2], 10)
        self._write(store, rng, "s2", [3, 4], 20)
        manifest = compact_segments(store, "coll", ["s1", "s2"],
                                    deleted_pks={"s1": {1}, "s2": {4}})
        assert sorted(manifest.pks) == [2, 3]

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            compact_segments(ObjectStore(), "coll", [])

    def test_ids_are_numbered_after_what_the_store_holds(self, rng):
        """A restarted process (whatever its in-memory state) must not
        write a compacted binlog over a live one."""
        store = ObjectStore()
        self._write(store, rng, "s1", [1, 2], 10)
        self._write(store, rng, "compacted-000007", [3, 4], 20)
        first = compact_segments(store, "coll", ["s1"])
        assert first.segment_id == "compacted-000008"
        reader = BinlogReader(store)
        assert list(reader.read_manifest(
            "coll", "compacted-000007").pks) == [3, 4]
        self._write(store, rng, "s2", [5], 30)
        second = compact_segments(store, "coll", ["s2"])
        assert second.segment_id == "compacted-000009"
        assert sorted(reader.list_segments("coll")) == [
            "compacted-000007", "compacted-000008", "compacted-000009"]

    def test_group_with_no_live_row_writes_nothing(self, rng):
        """Its inputs go all the same, and a retired id is never numbered
        again: an index route may outlive its binlog."""
        store = ObjectStore()
        self._write(store, rng, "compacted-000003", [1, 2], 10)
        assert compact_segments(store, "coll", ["compacted-000003"],
                                deleted_pks={1, 2}) is None
        assert BinlogReader(store).list_segments("coll") == []
        self._write(store, rng, "s1", [3], 20)
        manifest = compact_segments(store, "coll", ["s1"],
                                    retired=["compacted-000003"])
        assert manifest.segment_id == "compacted-000004"


class TestCheckpointFieldRoundTrip:
    """Property: every Checkpoint field survives write -> restore.

    The field list is auto-discovered from the dataclass, so adding a
    recoverable field to ``Checkpoint`` without carrying it through
    ``to_json``/``from_json`` fails here instead of silently dropping
    state on recovery."""

    GENERATORS = {
        "str": lambda rng: f"coll-{int(rng.integers(10_000))}",
        "int": lambda rng: int(rng.integers(1, 2 ** 60)),
        "tuple[str, ...]": lambda rng: tuple(
            f"seg-{int(n)}"
            for n in rng.integers(0, 1_000,
                                  size=int(rng.integers(0, 6)))),
        "Mapping[str, int]": lambda rng: {
            f"wal/c/shard-{k}": int(rng.integers(0, 1 << 40))
            for k in range(int(rng.integers(0, 4)))},
    }

    def test_all_fields_round_trip(self):
        import dataclasses

        rng = np.random.default_rng(1234)
        store = ObjectStore()
        manager = CheckpointManager(store)
        fields = dataclasses.fields(Checkpoint)
        for trial in range(25):
            kwargs = {}
            for f in fields:
                gen = self.GENERATORS.get(str(f.type))
                assert gen is not None, (
                    f"Checkpoint.{f.name}: no generator for type "
                    f"{f.type!r}; extend the round-trip property along "
                    "with the new field")
                kwargs[f.name] = gen(rng)
            kwargs["collection"] = f"{kwargs['collection']}-{trial}"
            checkpoint = Checkpoint(**kwargs)
            manager.write(checkpoint)
            restored = manager.latest_before(checkpoint.collection,
                                             checkpoint.ts)
            assert restored is not None
            for f in fields:
                want = getattr(checkpoint, f.name)
                got = getattr(restored, f.name)
                if isinstance(want, tuple):
                    got = tuple(got)
                elif isinstance(want, dict):
                    got = dict(got)
                assert got == want, \
                    f"Checkpoint.{f.name} did not round-trip"
