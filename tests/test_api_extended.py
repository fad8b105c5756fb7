"""Tests for get/upsert/range search and the RESTful API."""

import numpy as np
import pytest

from repro import (
    Collection,
    CollectionSchema,
    DataType,
    FieldSchema,
    ManuError,
    connect,
    connections,
)
from repro.api.rest import RestApi


@pytest.fixture(autouse=True)
def conn():
    cluster = connect("default", num_query_nodes=2)
    yield cluster
    connections.disconnect("default")


@pytest.fixture
def pk_schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("price", DataType.FLOAT),
    ])


def pk_rows(rng, pks):
    return {"pk": list(pks),
            "vector": rng.standard_normal((len(pks), 8)).astype(np.float32),
            "price": [float(pk) * 10 for pk in pks]}


class TestGet:
    def test_fetch_by_pk(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        coll.insert(pk_rows(rng, [1, 2, 3]))
        conn.run_for(200)
        rows = coll.get([1, 3, 99])
        assert set(rows) == {1, 3}
        assert rows[1]["price"] == 10.0
        assert rows[3]["vector"].shape == (8,)

    def test_deleted_rows_not_fetched(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        coll.insert(pk_rows(rng, [1, 2]))
        conn.run_for(200)
        coll.delete("pk == 1")
        conn.run_for(200)
        assert set(coll.get([1, 2])) == {2}

    def test_fetch_spans_growing_and_sealed(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        coll.insert(pk_rows(rng, [1, 2]))
        conn.run_for(200)
        coll.flush()
        coll.insert(pk_rows(rng, [3]))
        conn.run_for(200)
        assert set(coll.get([1, 2, 3])) == {1, 2, 3}


class TestUpsert:
    def test_upsert_replaces(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        coll.insert(pk_rows(rng, [7]))
        conn.run_for(200)
        new = pk_rows(rng, [7])
        new["price"] = [999.0]
        coll.upsert(new)
        conn.run_for(200)
        rows = coll.get([7])
        assert rows[7]["price"] == 999.0
        # Only one live copy exists.
        result = coll.search(vec=new["vector"][0], limit=10,
                             param={"metric_type": "Euclidean"},
                             consistency_level="strong")[0]
        assert result.pks.count(7) == 1

    def test_upsert_inserts_when_absent(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        coll.upsert(pk_rows(rng, [42]))
        conn.run_for(200)
        assert 42 in coll.get([42])

    def test_upsert_requires_explicit_pk(self, rng, conn):
        auto = CollectionSchema(
            [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])
        coll = Collection("auto", auto)
        with pytest.raises(ManuError):
            coll.upsert({"vector": rng.standard_normal(
                (1, 8)).astype(np.float32)})


class TestRangeSearch:
    def test_euclidean_radius_exact(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        base = rng.standard_normal(8).astype(np.float32)
        vectors = np.stack([base,
                            base + 0.1,
                            base + 5.0])
        coll.insert({"pk": [1, 2, 3], "vector": vectors,
                     "price": [1.0, 2.0, 3.0]})
        conn.run_for(200)
        result = coll.range_search(vec=base, radius=1.0,
                                   param={"metric_type": "Euclidean"},
                                   consistency_level="strong")
        assert set(result.pks) == {1, 2}
        # Scores are true L2 distances within the radius.
        assert all(s <= 1.0 for s in result.scores)

    def test_ip_minimum_similarity(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        query = np.zeros(8, dtype=np.float32)
        query[0] = 1.0
        vectors = np.zeros((3, 8), dtype=np.float32)
        vectors[0, 0] = 2.0   # sim 2.0
        vectors[1, 0] = 0.5   # sim 0.5
        vectors[2, 1] = 3.0   # sim 0.0
        coll.insert({"pk": [1, 2, 3], "vector": vectors,
                     "price": [0.0, 0.0, 0.0]})
        conn.run_for(200)
        result = coll.range_search(vec=query, radius=0.4,
                                   param={"metric_type": "IP"},
                                   consistency_level="strong")
        assert set(result.pks) == {1, 2}

    def test_filter_and_limit(self, pk_schema, rng, conn):
        coll = Collection("c", pk_schema)
        base = rng.standard_normal(8).astype(np.float32)
        vectors = np.stack([base + 0.01 * i for i in range(6)])
        coll.insert({"pk": list(range(1, 7)), "vector": vectors,
                     "price": [10.0 * p for p in range(1, 7)]})
        conn.run_for(200)
        result = coll.range_search(vec=base, radius=10.0,
                                   expr="price > 25", limit=2,
                                   consistency_level="strong")
        assert len(result.pks) == 2
        assert all(pk >= 3 for pk in result.pks)

    def test_negative_euclidean_radius_rejected(self, pk_schema, rng,
                                                conn):
        coll = Collection("c", pk_schema)
        coll.insert(pk_rows(rng, [1]))
        with pytest.raises(ManuError):
            coll.range_search(vec=np.zeros(8), radius=-1.0)


class TestRestApi:
    @pytest.fixture
    def api(self, conn):
        return RestApi(conn)

    def _schema_body(self, dim=8):
        return {"name": "rest", "schema": {"fields": [
            {"name": "vector", "dtype": "float_vector", "dim": dim},
            {"name": "price", "dtype": "float"},
        ]}}

    def test_create_describe_drop(self, api):
        status, body = api.handle("POST", "/collections",
                                  self._schema_body())
        assert status == 201
        status, body = api.handle("GET", "/collections")
        assert status == 200 and body["collections"] == ["rest"]
        status, body = api.handle("GET", "/collections/rest")
        assert status == 200
        assert body["loaded"] is True
        status, _ = api.handle("DELETE", "/collections/rest")
        assert status == 200
        status, _ = api.handle("GET", "/collections/rest")
        assert status == 404

    def test_duplicate_create_conflict(self, api):
        api.handle("POST", "/collections", self._schema_body())
        status, body = api.handle("POST", "/collections",
                                  self._schema_body())
        assert status == 409

    def test_insert_search_delete_roundtrip(self, api, rng, conn):
        api.handle("POST", "/collections", self._schema_body())
        vectors = rng.standard_normal((20, 8)).astype(np.float32)
        status, body = api.handle("POST", "/collections/rest/entities", {
            "rows": {"vector": vectors.tolist(),
                     "price": list(range(20))}})
        assert status == 201 and body["insert_count"] == 20
        pks = body["pks"]
        status, body = api.handle("POST", "/collections/rest/search", {
            "vector": vectors[4].tolist(), "limit": 3,
            "metric_type": "Euclidean", "consistency_level": "strong"})
        assert status == 200
        assert body["pks"][0] == pks[4]
        status, body = api.handle(
            "POST", "/collections/rest/entities/delete",
            {"expr": f"_auto_id == {pks[4]}"})
        assert status == 200 and body["delete_count"] == 1

    def test_entities_get(self, api, rng, conn):
        api.handle("POST", "/collections", self._schema_body())
        vectors = rng.standard_normal((3, 8)).astype(np.float32)
        _s, body = api.handle("POST", "/collections/rest/entities", {
            "rows": {"vector": vectors.tolist(), "price": [1, 2, 3]}})
        conn.run_for(200)
        status, got = api.handle("POST", "/collections/rest/entities/get",
                                 {"pks": body["pks"][:2]})
        assert status == 200
        assert len(got["entities"]) == 2
        first = got["entities"][str(body["pks"][0])]
        assert isinstance(first["vector"], list)

    def test_range_search_route(self, api, rng, conn):
        api.handle("POST", "/collections", self._schema_body())
        base = rng.standard_normal(8).astype(np.float32)
        vectors = np.stack([base, base + 0.05, base + 9.0])
        api.handle("POST", "/collections/rest/entities", {
            "rows": {"vector": vectors.tolist(), "price": [1, 2, 3]}})
        conn.run_for(200)
        status, body = api.handle(
            "POST", "/collections/rest/range_search",
            {"vector": base.tolist(), "radius": 1.0,
             "consistency_level": "strong"})
        assert status == 200
        assert len(body["pks"]) == 2

    def test_index_and_flush_routes(self, api, rng, conn):
        api.handle("POST", "/collections", self._schema_body())
        vectors = rng.standard_normal((60, 8)).astype(np.float32)
        api.handle("POST", "/collections/rest/entities", {
            "rows": {"vector": vectors.tolist(),
                     "price": list(range(60))}})
        conn.run_for(200)
        status, _ = api.handle("POST", "/collections/rest/flush", {})
        assert status == 200
        status, _ = api.handle("POST", "/collections/rest/indexes", {
            "field": "vector", "index_type": "IVF_FLAT",
            "metric_type": "L2", "params": {"nlist": 4}})
        assert status == 201
        assert conn.wait_for_indexes("rest")

    def test_system_route(self, api):
        status, body = api.handle("GET", "/system")
        assert status == 200
        assert body["query_nodes"] == 2

    def test_bad_requests(self, api):
        assert api.handle("POST", "/collections", {})[0] == 400
        assert api.handle("GET", "/nope")[0] == 404
        assert api.handle("PATCH", "/collections")[0] == 405
        api.handle("POST", "/collections", self._schema_body())
        assert api.handle("POST", "/collections/rest/search", {})[0] == 400
        assert api.handle("POST", "/collections/rest/entities",
                          {"rows": "junk"})[0] == 400
        assert api.handle("POST", "/collections/rest/search",
                          {"vector": [0] * 8,
                           "consistency_level": "quantum"})[0] == 400


REFUSED_SPECS = [
    ({"index_type": "IVF_SQ8", "params": {"nprobe": 0}}, "nprobe"),
    ({"index_type": "IVF_HNSW", "params": {"nprobe": -1}}, "nprobe"),
    ({"index_type": "COMPOSITE", "params": {"nprobe": 0}}, "nprobe"),
    ({"index_type": "IVF_FLAT", "params": {"nprobee": 4}}, "nprobee"),
    ({"index_type": "IVF_PQ", "params": {"m": 3}}, "divisible"),
    ({"index_type": "IMI", "metric_type": "IP"}, "Euclidean"),
    # The graph constructors took these; the build then raised numpy's or
    # Python's own exception (or, for alpha, accepted it).
    ({"index_type": "NGT", "params": {"num_seeds": 0}}, "num_seeds"),
    ({"index_type": "NGT", "params": {"num_seeds": -1}}, "num_seeds"),
    ({"index_type": "HNSW", "params": {"M": 2.5}}, "M"),
    ({"index_type": "NSG", "params": {"out_degree": 2.5}}, "out_degree"),
    ({"index_type": "NSG", "params": {"alpha": float("nan")}}, "alpha"),
]


class TestIndexSpecRefusedAtTheBoundary:
    """A spec the index would choke on is refused — typed, by name — at
    ``create_index``, before the index coordinator persists it, so the
    collection's next flush finds nothing to trip over."""

    @pytest.mark.parametrize("spec,named", REFUSED_SPECS)
    def test_pymanu(self, pk_schema, rng, conn, spec, named):
        coll = Collection("specs", pk_schema)
        with pytest.raises(ManuError, match=named):
            coll.create_index("vector", spec)
        assert conn.index_coord.index_spec("specs", "vector") is None
        coll.insert(pk_rows(rng, range(40)))
        coll.flush()
        assert coll.get([3])[3]["price"] == 30.0
        # A good spec is still accepted afterwards.
        coll.create_index("vector", {"index_type": spec["index_type"],
                                     "params": {}})
        assert conn.index_coord.index_spec("specs", "vector")[
            "index_type"] == spec["index_type"]

    @pytest.mark.parametrize("spec,named", REFUSED_SPECS)
    def test_rest(self, rng, conn, spec, named):
        api = RestApi(conn)
        api.handle("POST", "/collections", {"name": "rest", "schema": {
            "fields": [{"name": "vector", "dtype": "float_vector",
                        "dim": 8}]}})
        status, body = api.handle("POST", "/collections/rest/indexes",
                                  {"field": "vector", **spec})
        assert status == 400 and named in body["error"]
        assert conn.index_coord.index_spec("rest", "vector") is None
        vectors = rng.standard_normal((40, 8)).astype(np.float32)
        status, _ = api.handle("POST", "/collections/rest/entities",
                               {"rows": {"vector": vectors.tolist()}})
        assert status == 201
        assert api.handle("POST", "/collections/rest/flush", {})[0] == 200

    def test_field_must_exist_and_be_a_vector(self, pk_schema, conn):
        coll = Collection("specs", pk_schema)
        api = RestApi(conn)
        for field, named in (("price", "not a vector field"),
                             ("nope", "nope")):
            with pytest.raises(ManuError, match=named):
                coll.create_index(field, {"index_type": "FLAT"})
            status, body = api.handle(
                "POST", "/collections/specs/indexes",
                {"field": field, "index_type": "FLAT"})
            assert status == 400 and named in body["error"]
            assert conn.index_coord.index_spec("specs", field) is None
