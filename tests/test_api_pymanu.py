"""Tests for the PyManu ORM API (Table 2)."""

import numpy as np
import pytest

from repro import (
    Collection,
    CollectionSchema,
    DataType,
    FieldSchema,
    InvalidQuery,
    ManuError,
    connect,
    connections,
    parse_metric,
)
from repro.core.schema import MetricType
from repro.errors import CollectionNotFound


@pytest.fixture(autouse=True)
def fresh_connection():
    cluster = connect("default", num_query_nodes=2)
    yield cluster
    connections.disconnect("default")


@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("price", DataType.FLOAT),
    ])


def make_rows(rng, n):
    return {"vector": rng.standard_normal((n, 8)).astype(np.float32),
            "price": rng.uniform(0, 100, n)}


class TestConnections:
    def test_connect_builds_embedded_cluster(self):
        cluster = connections.get("default")
        assert cluster.num_query_nodes == 2

    def test_unknown_alias_rejected(self):
        with pytest.raises(ManuError):
            connections.get("nope")

    def test_named_aliases(self, fresh_connection):
        other = connect("secondary", cluster=fresh_connection)
        assert connections.get("secondary") is fresh_connection
        connections.disconnect("secondary")
        assert not connections.has_connection("secondary")


class TestMetricParsing:
    @pytest.mark.parametrize("name,expected", [
        ("Euclidean", MetricType.EUCLIDEAN),
        ("L2", MetricType.EUCLIDEAN),
        ("IP", MetricType.INNER_PRODUCT),
        ("inner_product", MetricType.INNER_PRODUCT),
        ("COSINE", MetricType.COSINE),
    ])
    def test_aliases(self, name, expected):
        assert parse_metric(name) is expected

    def test_unknown_metric(self):
        with pytest.raises(ManuError):
            parse_metric("manhattan")


class TestCollectionApi:
    def test_create_and_reopen(self, schema):
        Collection("demo", schema)
        handle = Collection("demo")  # reopen without schema
        assert handle.schema == schema

    def test_missing_collection_without_schema(self):
        with pytest.raises(CollectionNotFound):
            Collection("ghost")

    def test_schema_conflict_rejected(self, schema):
        Collection("demo", schema)
        other = CollectionSchema(
            [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4)])
        with pytest.raises(ManuError):
            Collection("demo", other)

    def test_insert_search_paper_style(self, schema, rng,
                                       fresh_connection):
        coll = Collection("demo", schema)
        data = make_rows(rng, 100)
        pks = coll.insert(data)
        assert len(pks) == 100
        res = coll.search(vec=data["vector"][7],
                          field="vector",
                          param={"metric_type": "Euclidean"},
                          limit=2,
                          consistency_level="strong")
        assert res[0].pks[0] == pks[7]
        assert len(res[0]) == 2

    def test_query_with_expr(self, schema, rng, fresh_connection):
        coll = Collection("demo", schema)
        vectors = rng.standard_normal((60, 8)).astype(np.float32)
        prices = np.arange(60, dtype=np.float64)
        coll.insert({"vector": vectors, "price": prices})
        res = coll.query(vec=vectors[0],
                         param={"metric_type": "Euclidean"},
                         expr="price < 10", limit=5,
                         consistency_level="strong")
        assert all(pk - 1 < 10 for pk in res[0].pks)

    def test_query_requires_expr(self, schema, rng):
        coll = Collection("demo", schema)
        coll.insert(make_rows(rng, 10))
        with pytest.raises(ManuError):
            coll.query(vec=np.zeros(8))

    def test_search_requires_vector(self, schema):
        coll = Collection("demo", schema)
        with pytest.raises(ManuError):
            coll.search(limit=3)

    def test_unknown_search_kwargs_rejected(self, schema, rng):
        coll = Collection("demo", schema)
        with pytest.raises(ManuError):
            coll.search(vec=np.zeros(8), bogus=1)

    @pytest.mark.parametrize("vec,limit", [
        (np.zeros(8), 0),                       # k below 1
        (np.zeros(8), -1),
        (np.zeros(8), 2.5),
        (np.zeros(8), None),
        (np.zeros(5), 3),                       # not the field's dim
        (np.zeros((2, 9)), 3),
        (np.zeros((2, 2, 8)), 3),               # not a block of vectors
        (np.array([0.0] * 7 + [np.nan]), 3),    # non-finite values
        (np.array([[0.0] * 8, [np.inf] * 8]), 3),
    ])
    def test_malformed_search_rejected_typed(self, schema, rng, vec, limit,
                                             fresh_connection):
        """Bad k / width / values fail as InvalidQuery at the proxy, before
        any query node is asked — through PyManu and through the proxy."""
        coll = Collection("demo", schema)
        coll.insert(make_rows(rng, 30))
        nodes = fresh_connection.query_coord.live_nodes()
        for node in nodes:
            node.search = None  # a fan-out would raise TypeError
        with pytest.raises(InvalidQuery):
            coll.search(vec=vec, limit=limit, consistency_level="strong")
        with pytest.raises(InvalidQuery):
            fresh_connection.proxy().search("demo", vec, limit)
        for node in nodes:
            del node.search
        assert len(coll.search(vec=np.zeros(8), limit=3,
                               consistency_level="strong")[0]) == 3

    def test_unknown_consistency_rejected(self, schema, rng):
        coll = Collection("demo", schema)
        coll.insert(make_rows(rng, 5))
        with pytest.raises(ManuError):
            coll.search(vec=np.zeros(8), consistency_level="quantum")

    def test_delete_expr_forms(self, schema, rng, fresh_connection):
        coll = Collection("demo", schema)
        pks = coll.insert(make_rows(rng, 10))
        assert coll.delete(f"_auto_id == {pks[0]}") == 1
        assert coll.delete(f"_auto_id in [{pks[1]}, {pks[2]}]") == 2
        with pytest.raises(ManuError):
            coll.delete("price > 5")  # non-pk expressions unsupported

    def test_create_index_and_flush(self, schema, rng, fresh_connection):
        coll = Collection("demo", schema)
        data = make_rows(rng, 120)
        coll.insert(data)
        fresh_connection.run_for(100)
        coll.flush()
        coll.create_index("vector", {"index_type": "IVF_FLAT",
                                     "metric_type": "L2",
                                     "params": {"nlist": 8}})
        assert fresh_connection.wait_for_indexes("demo")
        res = coll.search(vec=data["vector"][3], limit=1,
                          consistency_level="strong")
        assert len(res[0]) == 1

    def test_num_entities(self, schema, rng, fresh_connection):
        coll = Collection("demo", schema)
        coll.insert(make_rows(rng, 25))
        fresh_connection.run_for(100)
        assert coll.num_entities() == 25

    def test_drop(self, schema):
        coll = Collection("demo", schema)
        coll.drop()
        with pytest.raises(CollectionNotFound):
            Collection("demo")

    def test_multivector_search(self, rng, fresh_connection):
        schema = CollectionSchema([
            FieldSchema("image", DataType.FLOAT_VECTOR, dim=8),
            FieldSchema("text", DataType.FLOAT_VECTOR, dim=4),
        ])
        coll = Collection("mv", schema)
        coll.insert({
            "image": rng.standard_normal((50, 8)).astype(np.float32),
            "text": rng.standard_normal((50, 4)).astype(np.float32)})
        fresh_connection.run_for(200)
        res = coll.search_multivector(
            queries={"image": rng.standard_normal(8),
                     "text": rng.standard_normal(4)},
            weights={"image": 1.0, "text": 0.5},
            limit=5, metric_type="IP")
        assert len(res) == 5
