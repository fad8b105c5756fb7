"""Tests for the four coordinators against real broker/metastore rigs."""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.errors import (
    ClusterStateError,
    CollectionAlreadyExists,
    CollectionNotFound,
)


@pytest.fixture
def schema():
    return CollectionSchema(
        [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])


def rows(rng, n):
    return {"vector": rng.standard_normal((n, 8)).astype(np.float32)}


class TestRootCoordinator:
    def test_create_and_catalog(self, cluster, schema):
        cluster.root_coord.create_collection("a", schema)
        assert cluster.root_coord.has_collection("a")
        assert cluster.root_coord.list_collections() == ["a"]
        got = cluster.root_coord.get_schema("a")
        assert got == schema

    def test_duplicate_rejected(self, cluster, schema):
        cluster.root_coord.create_collection("a", schema)
        with pytest.raises(CollectionAlreadyExists):
            cluster.root_coord.create_collection("a", schema)

    def test_drop(self, cluster, schema):
        cluster.root_coord.create_collection("a", schema)
        cluster.root_coord.drop_collection("a")
        assert not cluster.root_coord.has_collection("a")
        with pytest.raises(CollectionNotFound):
            cluster.root_coord.drop_collection("a")

    def test_ddl_published_to_log(self, cluster, schema):
        cluster.root_coord.create_collection("a", schema)
        entries = cluster.broker.read(cluster.config.log.ddl_channel, 0)
        assert [e.payload.op for e in entries] == ["create_collection"]

    def test_hooks_fire(self, cluster, schema):
        created, dropped = [], []
        cluster.root_coord.on_create(lambda n, s: created.append(n))
        cluster.root_coord.on_drop(dropped.append)
        cluster.root_coord.create_collection("a", schema)
        cluster.root_coord.drop_collection("a")
        assert created == ["a"] and dropped == ["a"]


class TestDataCoordinator:
    def test_allocator_rolls_over_at_limit(self, cluster, schema):
        limit = cluster.config.segment.seal_entity_count
        [(first, _)] = cluster.data_coord.assign_segments("c", 0, limit - 1)
        [(again, _)] = cluster.data_coord.assign_segments("c", 0, 1)
        assert again == first  # exactly at limit, same segment
        [(rolled, _)] = cluster.data_coord.assign_segments("c", 0, 1)
        assert rolled != first
        # A batch past the room left is split at the limit.
        (same, room), (opened, rest) = cluster.data_coord.assign_segments(
            "c", 0, limit)
        assert (same, room, rest) == (rolled, limit - 1, 1)
        assert opened not in (first, rolled)

    def test_rollover_publishes_seal(self, cluster, schema):
        limit = cluster.config.segment.seal_entity_count

        def seals():
            entries = cluster.broker.read(cluster.config.log.coord_channel, 0)
            return [e.payload.payload["segment_id"] for e in entries
                    if getattr(e.payload, "kind_name", "") == "seal_segment"]

        [(first, _)] = cluster.data_coord.assign_segments("c", 0, limit - 1)
        assert first not in seals()
        cluster.data_coord.assign_segments("c", 0, 1)
        assert first in seals()     # published as the limit is reached

    def test_shards_get_distinct_segments(self, cluster):
        [(a, _)] = cluster.data_coord.assign_segments("c", 0, 1)
        [(b, _)] = cluster.data_coord.assign_segments("c", 1, 1)
        assert a != b

    def test_idle_sealing(self, cluster):
        [(segment, _)] = cluster.data_coord.assign_segments("c", 0, 5)
        idle_ms = cluster.config.segment.seal_idle_ms
        # The cluster's housekeeping timer runs check_idle periodically;
        # after the idle window the segment must have been sealed.
        cluster.loop.run_until(idle_ms * 2)
        cluster.data_coord.check_idle()
        assert cluster.data_coord.growing_backlog("c") == 0
        info = cluster.data_coord.segment_info("c", segment)
        assert info["state"] == "sealed"

    def test_seal_all(self, cluster):
        [(seg_a, _)] = cluster.data_coord.assign_segments("c", 0, 5)
        [(seg_b, _)] = cluster.data_coord.assign_segments("c", 1, 5)
        sealed = cluster.data_coord.seal_all("c")
        assert set(sealed) == {seg_a, seg_b}
        assert cluster.data_coord.growing_backlog("c") == 0

    def test_flushed_segments_tracked(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 50))
        cluster.run_for(100)
        cluster.flush("c")
        flushed = cluster.data_coord.flushed_segments("c")
        assert flushed
        info = cluster.data_coord.segment_info("c", flushed[0])
        assert info["state"] == "flushed"
        assert info["num_rows"] > 0

    def test_checkpoint_records_offsets(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 50))
        cluster.run_for(100)
        cluster.flush("c")
        checkpoint = cluster.checkpoint("c")
        assert checkpoint.flushed_segments
        assert any(v > 0 for v in checkpoint.channel_offsets.values())


class TestIndexCoordinator:
    def _loaded_collection(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, 60))
        cluster.run_for(100)
        cluster.flush("c")

    def test_batch_indexing_existing_segments(self, cluster, schema, rng):
        self._loaded_collection(cluster, schema, rng)
        done = cluster.index_coord.create_index(
            "c", "vector", "IVF_FLAT", MetricType.EUCLIDEAN, {"nlist": 4})
        assert len(done) == len(cluster.data_coord.flushed_segments("c"))
        assert cluster.wait_for_indexes("c")
        for segment_id in cluster.data_coord.flushed_segments("c"):
            assert cluster.index_coord.index_route(
                "c", segment_id, "vector") is not None

    def test_stream_indexing_new_segments(self, cluster, schema, rng):
        cluster.create_collection("c", schema)
        cluster.index_coord.create_index(
            "c", "vector", "IVF_FLAT", MetricType.EUCLIDEAN, {"nlist": 4})
        cluster.insert("c", rows(rng, 60))
        cluster.run_for(100)
        cluster.flush("c")
        assert cluster.wait_for_indexes("c")

    def test_drop_index(self, cluster, schema, rng):
        self._loaded_collection(cluster, schema, rng)
        cluster.index_coord.create_index("c", "vector", "FLAT",
                                         MetricType.EUCLIDEAN)
        cluster.index_coord.drop_index("c", "vector")
        assert cluster.index_coord.index_spec("c", "vector") is None

    def test_node_membership(self, cluster):
        from repro.nodes.index_node import IndexNode
        node = IndexNode("extra", cluster.loop, cluster.broker,
                         cluster.store, cluster.config, cluster.cost_model)
        cluster.index_coord.add_node(node)
        assert "extra" in cluster.index_coord.node_names
        with pytest.raises(ClusterStateError):
            cluster.index_coord.add_node(node)
        cluster.index_coord.remove_node("extra")
        assert "extra" not in cluster.index_coord.node_names

    def test_shutdown_idle_keeps_minimum(self, cluster):
        from repro.nodes.index_node import IndexNode
        for name in ("i1", "i2"):
            cluster.index_coord.add_node(IndexNode(
                name, cluster.loop, cluster.broker, cluster.store,
                cluster.config, cluster.cost_model))
        victims = cluster.index_coord.shutdown_idle(keep=1)
        assert len(victims) == 2  # three idle nodes, keep one


class TestQueryCoordinator:
    def _ready_collection(self, cluster, schema, rng, n=80):
        cluster.create_collection("c", schema)
        cluster.insert("c", rows(rng, n))
        cluster.run_for(100)
        cluster.flush("c")

    def test_channels_assigned_on_load(self, cluster, schema):
        cluster.create_collection("c", schema)
        owners = cluster.query_coord.channel_owners("c")
        assert len(owners) == cluster.config.log.num_shards
        assert set(owners.values()) <= set(cluster.query_coord.node_names)

    def test_flushed_segment_assigned(self, cluster, schema, rng):
        self._ready_collection(cluster, schema, rng)
        distribution = cluster.query_coord.distribution("c")
        assigned = [sid for sids in distribution.values() for sid in sids]
        assert set(assigned) == set(cluster.data_coord.flushed_segments("c"))

    def test_nodes_serving(self, cluster, schema, rng):
        self._ready_collection(cluster, schema, rng)
        serving = cluster.query_coord.nodes_serving("c")
        assert serving

    def test_add_node_rebalances(self, cluster, schema, rng):
        self._ready_collection(cluster, schema, rng)
        cluster.add_query_node()
        cluster.run_for(500)
        assert cluster.num_query_nodes == 3

    def test_remove_node_preserves_data(self, cluster, schema, rng):
        self._ready_collection(cluster, schema, rng)
        before = cluster.collection_row_count("c")
        victim = cluster.query_coord.node_names[-1]
        cluster.remove_query_node(victim)
        cluster.run_for(500)
        assert cluster.collection_row_count("c") == before

    def test_cannot_remove_last_node(self, schema):
        small = ManuCluster(num_query_nodes=1)
        small.create_collection("c", schema)
        with pytest.raises(ClusterStateError):
            small.remove_query_node()

    def test_release_collection_frees_nodes(self, cluster, schema, rng):
        self._ready_collection(cluster, schema, rng)
        cluster.query_coord.release_collection("c")
        assert not cluster.query_coord.is_loaded("c")
        for node in cluster.query_coord.live_nodes():
            assert node.segments_of("c") == []
