"""Tests for the time-travel x compaction x retention interplay.

Compaction must not break restorability of checkpoints taken before it
(input binlogs they reference are preserved), and retention must clean
those orphaned binlogs once the checkpoints expire.
"""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.config import LogConfig, ManuConfig, SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.errors import TimeTravelError
from repro.log.binlog import BinlogReader
from repro.sim.costmodel import CostModel


@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
    ])


def small_cluster():
    config = ManuConfig(segment=SegmentConfig(
        seal_entity_count=32, compaction_min_size=32,
        compaction_target_size=128))
    return ManuCluster(config=config, num_query_nodes=1)


def insert(cluster, rng, pks):
    cluster.insert("c", {
        "pk": list(pks),
        "vector": rng.standard_normal((len(pks), 8)).astype(np.float32)})


class TestCompactionPreservesCheckpoints:
    def test_restore_before_compaction_still_works(self, schema, rng):
        cluster = small_cluster()
        cluster.create_collection("c", schema)
        insert(cluster, rng, range(20))
        cluster.run_for(200)
        cluster.flush("c")
        insert(cluster, rng, range(20, 40))
        cluster.run_for(200)
        cluster.flush("c")
        cluster.checkpoint("c")
        t_before = cluster.now()
        cluster.run_for(100)

        new_ids = cluster.compact("c")
        cluster.run_for(300)
        assert new_ids  # small segments merged

        restored = cluster.time_travel("c", t_before)
        pks = {pk for seg in restored.values() for pk in seg.pks}
        assert pks == set(range(40))

    def test_unreferenced_inputs_are_deleted(self, schema, rng):
        cluster = small_cluster()
        cluster.create_collection("c", schema)
        insert(cluster, rng, range(20))
        cluster.run_for(200)
        cluster.flush("c")
        insert(cluster, rng, range(20, 40))
        cluster.run_for(200)
        cluster.flush("c")
        before = set(BinlogReader(cluster.store).list_segments("c"))
        # No checkpoints reference the inputs: compaction removes them.
        cluster.compact("c")
        cluster.run_for(300)
        after = set(BinlogReader(cluster.store).list_segments("c"))
        assert not (before & after)  # all inputs gone
        assert any(sid.startswith("compacted-") for sid in after)


class TestRetentionCleansOrphans:
    def test_expired_checkpoint_releases_orphaned_binlogs(self, schema,
                                                          rng):
        cluster = small_cluster()
        cluster.create_collection("c", schema)
        insert(cluster, rng, range(20))
        cluster.run_for(200)
        cluster.flush("c")
        insert(cluster, rng, range(20, 40))
        cluster.run_for(200)
        cluster.flush("c")
        cluster.checkpoint("c")
        t_checkpoint = cluster.now()
        inputs = set(BinlogReader(cluster.store).list_segments("c"))

        cluster.run_for(100)
        cluster.compact("c")
        cluster.run_for(300)
        # Inputs preserved for the checkpoint.
        remaining = set(BinlogReader(cluster.store).list_segments("c"))
        assert inputs <= remaining

        # Take a fresh checkpoint so retention has a survivor, then
        # expire everything older than it.
        cluster.run_for(100)
        cluster.checkpoint("c")
        dropped = cluster.apply_retention(
            "c", expire_before_ms=t_checkpoint + 50)
        assert dropped > 0
        final = set(BinlogReader(cluster.store).list_segments("c"))
        assert not (inputs & final)  # orphans cleaned

        # The expired checkpoint is gone; restoring at its time fails
        # loudly rather than returning wrong data.
        with pytest.raises(TimeTravelError):
            cluster.time_travel("c", t_checkpoint - 1000)

    def test_post_compaction_checkpoint_restores(self, schema, rng):
        cluster = small_cluster()
        cluster.create_collection("c", schema)
        insert(cluster, rng, range(20))
        cluster.run_for(200)
        cluster.flush("c")
        insert(cluster, rng, range(20, 40))
        cluster.run_for(200)
        cluster.flush("c")
        cluster.compact("c")
        cluster.run_for(300)
        cluster.checkpoint("c")
        t_after = cluster.now()
        restored = cluster.time_travel("c", t_after)
        pks = {pk for seg in restored.values() for pk in seg.pks}
        assert pks == set(range(40))


class TestUpsertAfterFlush:
    """An upsert whose old version was already flushed: the old version's
    persisted delete delta reaches the binlog it was flushed in, never
    the row that replaced it."""

    @pytest.mark.parametrize("checkpoint_first", [False, True],
                             ids=["new-row-in-a-binlog", "new-row-replayed"])
    def test_the_new_version_is_restored(self, schema, rng,
                                         checkpoint_first):
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", schema)
        insert(cluster, rng, range(100))
        cluster.flush("c")
        if checkpoint_first:
            cluster.checkpoint("c")     # the upsert is replayed from the WAL
        new = rng.standard_normal((1, 8)).astype(np.float32)
        cluster.upsert("c", {"pk": [7], "vector": new})
        cluster.run_for(3_000)          # housekeeping persists the delta
        assert cluster.store.list("delta/c/")
        if not checkpoint_first:
            cluster.flush("c")
            cluster.checkpoint("c")     # the upsert is in a binlog
        assert set(cluster.get("c", [7])) == {7}

        restored = cluster.time_travel("c", cluster.now())
        live = [(segment, row) for segment in restored.values()
                for row, pk in enumerate(segment.pks)
                if pk == 7 and not segment.deleted_mask()[row]]
        assert len(live) == 1
        segment, row = live[0]
        np.testing.assert_array_equal(segment.column("vector")[row], new[0])
        assert sum(segment.num_rows - segment.num_deleted
                   for segment in restored.values()) == 100

    def test_the_new_version_survives_out_of_order_flushes(self, schema,
                                                          rng):
        """The big segment's flush is announced after the small one's, so
        the checkpoint replays the upsert onto both binlogs: its delete
        must not reach the loaded copy that holds the new row (the parent
        restored 67 rows, without pk 7)."""
        config = ManuConfig(segment=SegmentConfig(seal_entity_count=64),
                            log=LogConfig(num_shards=1))
        slow_store = CostModel(object_store_mb_per_ms=1e-4)
        cluster = ManuCluster(config=config, num_query_nodes=1,
                              cost_model=slow_store)
        cluster.create_collection("c", schema)
        insert(cluster, rng, range(64))     # fills S1, sealed by size
        insert(cluster, rng, range(64, 68))  # opens S2
        new = rng.standard_normal((1, 8)).astype(np.float32)
        cluster.upsert("c", {"pk": [7], "vector": new})
        cluster.flush("c")
        cluster.run_for(3_000)
        cluster.checkpoint("c")
        assert set(cluster.get("c", [7])) == {7}

        restored = cluster.time_travel("c", cluster.now())
        live = [(segment, row) for segment in restored.values()
                for row, pk in enumerate(segment.pks)
                if pk == 7 and not segment.deleted_mask()[row]]
        assert len(live) == 1
        segment, row = live[0]
        np.testing.assert_array_equal(segment.column("vector")[row], new[0])
        assert sum(segment.num_live_rows for segment in restored.values()) \
            == 68
