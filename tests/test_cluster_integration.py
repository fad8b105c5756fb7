"""End-to-end cluster integration tests: the full write -> log -> flush ->
index -> search pipeline, consistency levels, failure recovery, time
travel and compaction."""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType


@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16),
        FieldSchema("price", DataType.FLOAT),
    ])


def rows(rng, n, dim=16):
    return {"vector": rng.standard_normal((n, dim)).astype(np.float32),
            "price": rng.uniform(0, 100, n)}


def pk_schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
    ])


def pk_rows(rng, pks):
    return {"pk": list(pks),
            "vector": rng.standard_normal((len(pks), 8)).astype(np.float32)}


def rolling_segments(rng):
    """300 rows in batches of 30 over segments sealed at 64 rows: flushes
    fire while the next segment's first rows are arriving."""
    config = ManuConfig(segment=SegmentConfig(seal_entity_count=64))
    cluster = ManuCluster(config=config, num_query_nodes=2)
    cluster.create_collection("c", pk_schema())
    for start in range(0, 300, 30):
        cluster.insert("c", pk_rows(rng, range(start, start + 30)))
        cluster.run_for(50)
    cluster.run_for(3_000)
    assert cluster.collection_row_count("c") == 300
    return cluster


class TestWriteReadPath:
    def test_insert_then_search_strong(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 200)
        pks = cluster.insert("c", data)
        result = cluster.search("c", data["vector"][17], 5,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[17]
        assert result.latency_ms > 0

    def test_eventual_may_miss_fresh_write(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 50)
        cluster.insert("c", data)
        # Immediately after insert, log delivery has not happened yet.
        result = cluster.search("c", data["vector"][0], 5,
                                consistency=ConsistencyLevel.EVENTUAL)[0]
        assert result.consistency_wait_ms == 0.0

    def test_session_reads_own_writes(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 50)
        pks = cluster.insert("c", data)
        result = cluster.search("c", data["vector"][3], 1,
                                consistency=ConsistencyLevel.SESSION)[0]
        assert result.pks[0] == pks[3]

    def test_bounded_staleness_waits_appropriately(self, cluster, schema,
                                                   rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 50)
        cluster.insert("c", data)
        tight = cluster.search("c", data["vector"][0], 1,
                               consistency=ConsistencyLevel.BOUNDED,
                               staleness_ms=1.0)[0]
        # With 50 ms ticks a 1 ms tolerance must wait for the next tick.
        assert tight.consistency_wait_ms > 0

    def test_multi_batch_inserts_accumulate(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        for _ in range(4):
            cluster.insert("c", rows(rng, 50))
        cluster.run_for(200)
        assert cluster.collection_row_count("c") == 200

    def test_delete_by_pk_list(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 30)
        pks = cluster.insert("c", data)
        assert cluster.delete("c", f"_auto_id in [{pks[4]}, {pks[9]}]") == 2
        result = cluster.search("c", data["vector"][4], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert pks[4] not in result.pks
        assert cluster.collection_row_count("c") == 28

    def test_delete_nonexistent_returns_zero(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 10))
        assert cluster.delete("c", "_auto_id in [99999]") == 0


class TestFlushIndexHandoff:
    def test_flush_moves_data_to_sealed(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 120)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        flushed = cluster.data_coord.flushed_segments("c")
        assert flushed
        # Data remains searchable after handoff, without duplication.
        result = cluster.search("c", data["vector"][11], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[11]
        assert len(set(result.pks)) == len(result.pks)
        assert cluster.collection_row_count("c") == 120

    def test_index_built_and_used(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 150)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN, {"nlist": 8,
                                                    "nprobe": 8})
        assert cluster.wait_for_indexes("c")
        # Indexes attached on the query nodes hosting the segments.
        attached = 0
        for node in cluster.query_coord.live_nodes():
            for sid in node.sealed_segments_of("c"):
                segment = node.segment("c", sid)
                if segment.has_index("vector"):
                    attached += 1
        assert attached == len(cluster.data_coord.flushed_segments("c"))
        result = cluster.search("c", data["vector"][42], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[42]

    def test_deletes_after_flush_respected(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 100)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.delete("c", f"_auto_id in [{pks[7]}]")
        result = cluster.search("c", data["vector"][7], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert pks[7] not in result.pks

    def test_filtered_search_end_to_end(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        vectors = rng.standard_normal((100, 16)).astype(np.float32)
        prices = np.arange(100, dtype=np.float64)
        cluster.insert("c", {"vector": vectors, "price": prices})
        result = cluster.search("c", vectors[5], 5, expr="price >= 50",
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks  # something passes
        # pks are 1-based auto ids; price of pk p is p - 1.
        assert all(pk - 1 >= 50 for pk in result.pks)


class TestFailureRecovery:
    def test_query_node_failure_recovers_sealed(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 150)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        victim = cluster.query_coord.node_names[0]
        cluster.fail_query_node(victim)
        cluster.run_for(500)
        assert cluster.num_query_nodes == 1
        result = cluster.search("c", data["vector"][33], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[33]

    def test_query_node_failure_recovers_growing_via_replay(self, cluster,
                                                            schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 60)
        pks = cluster.insert("c", data)
        cluster.run_for(200)  # data only in growing segments
        victim = cluster.query_coord.node_names[0]
        cluster.fail_query_node(victim)
        cluster.run_for(500)
        result = cluster.search("c", data["vector"][10], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[10]

    def test_scale_down_then_search(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 100)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.remove_query_node()
        cluster.run_for(500)
        result = cluster.search("c", data["vector"][50], 1,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[50]


    def test_scale_out_keeps_upserted_rows(self, rng):
        """A node that joins replays every deletion, an upsert's too; the
        segment it loads already holds the upserted rows (the parent
        returned 5 of the 8 pks and counted 97 rows)."""
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", pk_schema())
        cluster.insert("c", pk_rows(rng, range(100)))
        cluster.flush("c")
        cluster.upsert("c", pk_rows(rng, range(8)))
        cluster.flush("c")
        cluster.add_query_node()
        cluster.run_for(3_000)
        got = cluster.get("c", range(8),
                          consistency=ConsistencyLevel.STRONG)
        assert sorted(got) == list(range(8))
        assert cluster.collection_row_count("c") == 100

    def test_failover_keeps_first_rows_of_growing_segment(self, rng):
        """The channel's new owner replays from where the oldest growing
        segment began (the parent saw 289 of 300 rows)."""
        cluster = rolling_segments(rng)
        cluster.fail_query_node("qn-0")
        cluster.run_for(3_000)
        got = cluster.get("c", range(300),
                          consistency=ConsistencyLevel.STRONG)
        assert len(got) == cluster.collection_row_count("c") == 300

    def test_failover_keeps_a_delete_not_yet_in_the_delta_log(self, rng):
        """A flush announces a replay offset no later than the oldest
        delete still waiting for the delta log: the channel's new owner
        replays it (the parent returned pk 5 and counted 104 rows)."""
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", pk_schema())
        cluster.insert("c", pk_rows(rng, range(100)))
        cluster.flush("c")
        cluster.delete("c", "pk in [5]")    # misses every growing segment
        cluster.insert("c", pk_rows(rng, range(100, 104)))
        cluster.flush("c")                  # before housekeeping persists it
        first = cluster.query_coord.node_names[0]
        cluster.add_query_node()
        cluster.fail_query_node(first)
        cluster.run_for(5_000)
        assert cluster.get("c", [5],
                           consistency=ConsistencyLevel.STRONG) == {}
        assert cluster.collection_row_count("c") == 103


class TestTimeTravel:
    def test_restore_excludes_later_writes(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        first = rows(rng, 60)
        pks_first = cluster.insert("c", first)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.checkpoint("c")
        t_checkpoint = cluster.now()
        cluster.run_for(100)
        second = rows(rng, 40)
        cluster.insert("c", second)
        cluster.run_for(200)

        segments = cluster.time_travel("c", t_checkpoint)
        total = sum(s.num_live_rows for s in segments.values())
        assert total == 60
        restored_pks = {pk for s in segments.values() for pk in s.pks}
        assert restored_pks == set(pks_first)

    def test_restore_includes_wal_tail(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 50))
        cluster.run_for(200)
        cluster.flush("c")
        cluster.checkpoint("c")
        cluster.run_for(50)
        pks_late = cluster.insert("c", rows(rng, 20))
        cluster.run_for(100)
        t_after = cluster.now()

        segments = cluster.time_travel("c", t_after)
        restored = {pk for s in segments.values() for pk in s.pks}
        assert set(pks_late) <= restored
        assert sum(s.num_live_rows for s in segments.values()) == 70

    def test_restore_replays_deletes(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 50)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.checkpoint("c")
        cluster.delete("c", f"_auto_id in [{pks[0]}]")
        cluster.run_for(2000)  # housekeeping flushes delta logs
        t_after = cluster.now()
        segments = cluster.time_travel("c", t_after)
        assert sum(s.num_live_rows for s in segments.values()) == 49

    def test_restore_without_checkpoint_fails(self, cluster, schema):
        from repro.errors import TimeTravelError
        cluster.create_collection("c", schema)
        with pytest.raises(TimeTravelError):
            cluster.time_travel("c", cluster.now())


    def test_restore_keeps_first_rows_of_growing_segment(self, rng):
        """A checkpoint's replay offsets cover the growing segments' rows
        (the parent restored 286 of 300)."""
        cluster = rolling_segments(rng)
        cluster.checkpoint("c")
        cluster.run_for(100)
        segments = cluster.time_travel("c", cluster.now())
        assert sum(s.num_live_rows for s in segments.values()) == 300


class TestCompaction:
    def test_small_segments_merged(self, schema, rng):
        config = ManuConfig(
            segment=SegmentConfig(seal_entity_count=64, slice_size=32,
                                  compaction_min_size=64,
                                  compaction_target_size=256))
        cluster = ManuCluster(config=config, num_query_nodes=2)
        cluster.create_collection("c", schema)
        # Several small flushes -> several small sealed segments.
        for _ in range(3):
            cluster.insert("c", rows(rng, 40))
            cluster.run_for(100)
            cluster.flush("c")
        before = cluster.data_coord.flushed_segments("c")
        assert len(before) >= 2
        new_ids = cluster.compact("c")
        cluster.run_for(500)
        assert new_ids
        assert cluster.collection_row_count("c") == 120

    def test_compaction_purges_deleted_rows(self, schema, rng):
        config = ManuConfig(
            segment=SegmentConfig(seal_entity_count=64,
                                  compaction_min_size=8))
        cluster = ManuCluster(config=config, num_query_nodes=1)
        cluster.create_collection("c", schema)
        data = rows(rng, 40)
        pks = cluster.insert("c", data)
        cluster.run_for(100)
        cluster.flush("c")
        doomed = ", ".join(str(pk) for pk in pks[:20])
        cluster.delete("c", f"_auto_id in [{doomed}]")
        cluster.run_for(200)
        new_ids = cluster.compact("c")
        cluster.run_for(500)
        assert new_ids
        assert cluster.collection_row_count("c") == 20


    @pytest.mark.parametrize("indexed", [True, False])
    def test_group_with_no_live_row_writes_no_segment(self, rng, indexed):
        """The inputs retire and nothing is written (the parent raised
        ``IVF_FLAT: empty build data`` with an index declared, and wrote
        two 0-row segments without one)."""
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", pk_schema())
        if indexed:
            cluster.create_index("c", "vector", "IVF_FLAT",
                                 MetricType.EUCLIDEAN, {"nlist": 2})
        cluster.insert("c", pk_rows(rng, range(10)))
        cluster.flush("c")
        assert cluster.wait_for_indexes("c")
        cluster.delete("c", "pk in [" + ", ".join(map(str, range(10))) + "]")
        cluster.run_for(200)
        assert cluster.compact("c") == []
        assert cluster.data_coord.flushed_segments("c") == []
        assert cluster.wait_for_indexes("c", max_ms=5_000)
        assert cluster.collection_row_count("c") == 0


class TestMultiProxy:
    def test_round_robin_proxies(self, schema, rng):
        cluster = ManuCluster(num_proxies=3, num_query_nodes=1)
        cluster.create_collection("c", schema)
        data = rows(rng, 30)
        cluster.insert("c", data)
        for _ in range(3):
            cluster.search("c", data["vector"][0], 1,
                           consistency=ConsistencyLevel.STRONG)
        ops = cluster.metrics.counter_family("proxy_ops_total",
                                             ("proxy", "verb"))
        fired = [ops.labels(proxy=p.name, verb="search").value
                 for p in cluster.proxies]
        assert fired == [1, 1, 1]
