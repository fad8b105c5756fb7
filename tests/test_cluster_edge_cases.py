"""Edge-case and negative-path integration tests across the cluster."""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.errors import (
    CollectionNotFound,
    ConsistencyTimeout,
    ManuError,
)
from repro.storage.object_store import FsBackend


@pytest.fixture
def schema():
    return CollectionSchema(
        [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])


def rows(rng, n):
    return {"vector": rng.standard_normal((n, 8)).astype(np.float32)}


class TestNegativePaths:
    def test_search_unknown_collection(self, cluster):
        with pytest.raises(CollectionNotFound):
            cluster.search("ghost", np.zeros(8, dtype=np.float32), 1)

    def test_insert_unknown_collection(self, cluster, rng):
        with pytest.raises(CollectionNotFound):
            cluster.insert("ghost", rows(rng, 1))

    def test_index_unknown_collection(self, cluster):
        with pytest.raises(ManuError):
            cluster.create_index("ghost", "vector", "FLAT")

    def test_search_unknown_field(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 5))
        from repro.errors import FieldNotFound
        with pytest.raises(FieldNotFound):
            cluster.search("c", np.zeros(8, dtype=np.float32), 1,
                           field="nope")

    def test_search_empty_collection(self, cluster, schema):
        cluster.create_collection("c", schema)
        result = cluster.search("c", np.zeros(8, dtype=np.float32), 5,
                                consistency=ConsistencyLevel.EVENTUAL)[0]
        assert result.pks == []

    def test_time_travel_unknown_collection(self, cluster):
        with pytest.raises(ManuError):
            cluster.time_travel("ghost", 0.0)

    def test_compact_unknown_collection(self, cluster):
        with pytest.raises(ManuError):
            cluster.compact("ghost")

    def test_consistency_timeout_when_ticks_stop(self, schema, rng):
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 5))
        cluster.run_for(100)
        cluster.timetick.stop()  # strand the watermark
        from dataclasses import replace
        cluster.config = cluster.config.with_overrides(
            query=replace(cluster.config.query,
                          consistency_deadline_ms=500.0))
        with pytest.raises(ConsistencyTimeout):
            cluster.search("c", np.zeros(8, dtype=np.float32), 1,
                           consistency=ConsistencyLevel.STRONG)


class TestLifecycleEdges:
    def test_double_flush_is_idempotent(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 30))
        cluster.run_for(200)
        cluster.flush("c")
        first = cluster.data_coord.flushed_segments("c")
        cluster.flush("c")
        assert cluster.data_coord.flushed_segments("c") == first

    def test_flush_empty_collection(self, cluster, schema):
        cluster.create_collection("c", schema)
        cluster.flush("c")  # no growing data; must not raise
        assert cluster.data_coord.flushed_segments("c") == []

    def test_drop_and_recreate_collection(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 10))
        cluster.run_for(200)
        cluster.drop_collection("c")
        cluster.create_collection("c", schema)
        data = rows(rng, 10)
        pks = cluster.insert("c", data)
        result = cluster.search("c", data["vector"][0], 1,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[0]

    def test_two_collections_are_isolated(self, cluster, rng):
        schema_a = CollectionSchema(
            [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])
        schema_b = CollectionSchema(
            [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4)])
        cluster.create_collection("a", schema_a)
        cluster.create_collection("b", schema_b)
        data_a = {"vector": rng.standard_normal(
            (20, 8)).astype(np.float32)}
        data_b = {"vector": rng.standard_normal(
            (30, 4)).astype(np.float32)}
        cluster.insert("a", data_a)
        cluster.insert("b", data_b)
        cluster.run_for(200)
        assert cluster.collection_row_count("a") == 20
        assert cluster.collection_row_count("b") == 30
        result = cluster.search("a", data_a["vector"][0], 50,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert len(result.pks) == 20  # never sees b's rows

    def test_checkpoint_then_compact_then_search(self, cluster, schema,
                                                 rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 60)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.checkpoint("c")
        cluster.compact("c")
        cluster.run_for(500)
        result = cluster.search("c", data["vector"][5], 1,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[5]

    def test_index_then_more_inserts_then_search(self, cluster, schema,
                                                 rng):
        """Stream indexing: data arriving after create_index is covered."""
        cluster.create_collection("c", schema)
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN, {"nlist": 4})
        first = rows(rng, 50)
        cluster.insert("c", first)
        cluster.run_for(200)
        cluster.flush("c")
        assert cluster.wait_for_indexes("c")
        second = rows(rng, 50)
        pks2 = cluster.insert("c", second)
        result = cluster.search("c", second["vector"][7], 1,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks2[7]


class TestFsBackedCluster:
    def test_full_pipeline_on_filesystem_store(self, schema, rng,
                                               tmp_path):
        """The paper's laptop deployment: object KV = local filesystem."""
        cluster = ManuCluster(num_query_nodes=1,
                              store_backend=FsBackend(str(tmp_path)))
        cluster.create_collection("c", schema)
        data = rows(rng, 80)
        pks = cluster.insert("c", data)
        cluster.run_for(200)
        cluster.flush("c")
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN, {"nlist": 4})
        assert cluster.wait_for_indexes("c")
        result = cluster.search("c", data["vector"][9], 1,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks[0] == pks[9]
        # Binlogs and indexes really are files on disk.
        files = cluster.store.list("binlog/")
        assert files
        assert (tmp_path / files[0]).exists()
        assert cluster.store.list("index/")


class TestMetricsExposure:
    def test_cluster_snapshot_contains_search_stats(self, cluster, schema,
                                                    rng):
        cluster.create_collection("c", schema)
        data = rows(rng, 20)
        cluster.insert("c", data)
        cluster.search("c", data["vector"][0], 3,
                       consistency=ConsistencyLevel.STRONG)
        snap = cluster.stats_snapshot()
        assert snap["proxy_ops_total{proxy=proxy-0,verb=search}.count"] \
            == 1.0
        assert snap["proxy_ops_total{proxy=proxy-0,verb=insert}.count"] \
            == 20.0
        assert "proxy.search_latency.mean_ms" in snap
