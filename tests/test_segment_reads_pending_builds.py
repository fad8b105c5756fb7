"""Unit tests for segment range search / row fetch and the index
coordinator's pending-build queue."""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.config import LogConfig, ManuConfig, SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.core.segment import Segment


@pytest.fixture
def segment(rng):
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=6),
        FieldSchema("label", DataType.STRING),
    ])
    seg = Segment("s", "c", schema, SegmentConfig(slice_size=10**9))
    base = rng.standard_normal(6).astype(np.float32)
    vectors = np.stack([base + 0.1 * i for i in range(10)])
    seg.append(list(range(10)), {
        "vector": vectors,
        "label": [f"item-{i}" for i in range(10)]}, lsn=1)
    return seg, base, vectors


class TestSegmentRangeSearch:
    def test_threshold_exact(self, segment):
        seg, base, vectors = segment
        # adjusted threshold is squared L2.
        exact = ((vectors - base) ** 2).sum(axis=1)
        threshold = float(np.sort(exact)[4]) + 1e-6  # include 5 rows
        batch = seg.range_search("vector", base, threshold,
                                 MetricType.EUCLIDEAN)
        assert batch.pks.tolist() == [0, 1, 2, 3, 4]
        assert (np.diff(batch.dists) >= -1e-6).all()

    def test_respects_deletes_and_mask(self, segment):
        seg, base, _vectors = segment
        seg.apply_delete([0], 9)
        mask = np.ones(10, dtype=bool)
        mask[1] = False
        batch = seg.range_search("vector", base, 1e9,
                                 MetricType.EUCLIDEAN, filter_mask=mask)
        pks = batch.pks.tolist()
        assert 0 not in pks and 1 not in pks
        assert len(pks) == 8

    def test_empty_when_nothing_in_range(self, segment):
        seg, base, _v = segment
        batch = seg.range_search("vector", base + 100.0, 0.001,
                                 MetricType.EUCLIDEAN)
        assert len(batch) == 0


class TestSegmentFetchRows:
    def test_fetch_values(self, segment):
        seg, _base, vectors = segment
        rows = seg.fetch_rows([2, 5, 99])
        assert set(rows) == {2, 5}
        assert rows[2]["label"] == "item-2"
        assert np.allclose(rows[2]["vector"], vectors[2])

    def test_deleted_not_fetched(self, segment):
        seg, _base, _v = segment
        seg.apply_delete([2], 9)
        assert 2 not in seg.fetch_rows([2])

    def test_returned_vectors_are_copies(self, segment):
        seg, _base, vectors = segment
        rows = seg.fetch_rows([0])
        rows[0]["vector"][:] = 0.0
        assert np.allclose(seg.column("vector")[0], vectors[0])


class TestPendingBuilds:
    def test_builds_park_without_nodes_and_drain_on_add(self, rng):
        cluster = ManuCluster(num_query_nodes=1, num_index_nodes=1)
        schema = CollectionSchema(
            [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])
        cluster.create_collection("c", schema)
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN, {"nlist": 4})
        # Kill the only index node, then flush: builds must park.
        cluster.index_coord.remove_node("in-0")
        cluster.insert("c", {"vector": rng.standard_normal(
            (80, 8)).astype(np.float32)})
        cluster.run_for(200)
        cluster.flush("c")
        assert cluster.index_coord.pending_build_count > 0
        # Capacity returns: parked builds drain and complete.
        from repro.nodes.index_node import IndexNode
        node = IndexNode("in-new", cluster.loop, cluster.broker,
                         cluster.store, cluster.config,
                         cluster.cost_model)
        cluster.index_coord.add_node(node)
        assert cluster.index_coord.pending_build_count == 0
        assert cluster.wait_for_indexes("c")

    def test_compaction_parks_merged_builds_without_nodes(self, rng):
        """With every index node down, compaction still retires its
        inputs, places the merged segment and parks its build; the
        build completes once an index node is added."""
        cluster = ManuCluster(
            config=ManuConfig(log=LogConfig(num_shards=1)),
            num_query_nodes=1, num_index_nodes=1)
        schema = CollectionSchema(
            [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])
        cluster.create_collection("c", schema)
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN, {"nlist": 4})
        for _ in range(4):
            cluster.insert("c", {"vector": rng.standard_normal(
                (40, 8)).astype(np.float32)})
            cluster.run_for(100)
            cluster.flush("c")
        assert len(cluster.data_coord.flushed_segments("c")) == 4
        assert cluster.wait_for_indexes("c")
        cluster.index_coord.remove_node("in-0")
        new_ids = cluster.compact("c")
        assert len(new_ids) == 1
        assert cluster.data_coord.flushed_segments("c") == new_ids
        assert cluster.index_coord.pending_build_count == 1
        cluster.run_for(500)
        assert cluster.collection_row_count("c") == 160
        from repro.nodes.index_node import IndexNode
        cluster.index_coord.add_node(IndexNode(
            "in-new", cluster.loop, cluster.broker, cluster.store,
            cluster.config, cluster.cost_model))
        assert cluster.index_coord.pending_build_count == 0
        assert cluster.wait_for_indexes("c", max_ms=5_000)
