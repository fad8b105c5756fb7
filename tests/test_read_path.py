"""The one read protocol (DESIGN.md §6h).

``search``, ``search_multivector``, ``range_search`` and ``get`` share one
front half (tenant, schema, typed validation, quota, guarantee timestamp,
consistency wait), one fan-out and one back half (merge, timing, every
plane's emission).  These tests hold what the four copies had let drift:
validation, tenancy and metering for every verb however it arrives, reads
that wait for their own writes, the searched field's own dimension in the
cost model, and full plane coverage — spans, EXPLAIN ledger, read units —
for the verbs that had none.
"""

import numpy as np
import pytest

from repro import Collection, Tenant, connect, connections
from repro.api.rest import RestApi
from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, QueryConfig, SegmentConfig, \
    TracingConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.multivector import MultiVectorQuery, search_segment
from repro.core.schema import (
    CollectionSchema, DataType, FieldSchema, MetricType,
)
from repro.errors import ExpressionError, IndexBuildError, InvalidQuery, \
    ManuError, QuotaExceeded
from repro.index.base import SearchStats
from repro.profiling.profile import COUNTERS, StageProfile
from repro.tenancy import TenantQuota
from repro.tenancy.metering import READ_UNIT_BYTES, READ_UNIT_ROWS
from repro.tracing import SPAN_ERROR, Span

STRONG = ConsistencyLevel.STRONG
READ_VERBS = ("search_multivector", "range_search")


def _schema(image_dim=8, text_dim=4):
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("image", DataType.FLOAT_VECTOR, dim=image_dim),
        FieldSchema("text", DataType.FLOAT_VECTOR, dim=text_dim),
        FieldSchema("price", DataType.FLOAT),
    ])


def _rows(rng, pks, image_dim=8, text_dim=4):
    n = len(pks)
    return {"pk": list(pks),
            "image": rng.standard_normal((n, image_dim)).astype(np.float32),
            "text": rng.standard_normal((n, text_dim)).astype(np.float32),
            "price": rng.uniform(0.0, 10.0, n)}


def _mv_query(rng, metric=MetricType.INNER_PRODUCT, **overrides):
    spec = {"fields": ("image", "text"),
            "queries": {"image": rng.standard_normal(8),
                        "text": rng.standard_normal(4)},
            "weights": {"image": 1.0, "text": 0.5}, "metric": metric}
    spec.update(overrides)
    return MultiVectorQuery(**spec)


def _loaded(rng, tenant=None, quota=None, rows=200, **kwargs):
    """Two-node cluster with several sealed segments and a growing tail;
    with ``tenant`` the collection lives in that tenant's namespace."""
    config = ManuConfig().with_overrides(
        segment=SegmentConfig(seal_entity_count=64))
    cluster = ManuCluster(config=config, num_query_nodes=2, **kwargs)
    name = "c"
    if tenant is not None:
        cluster.create_tenant(tenant, quota=quota)
        name = cluster.tenant_create_collection(tenant, "c", _schema())
    else:
        cluster.create_collection("c", _schema())
    for start in range(0, rows, 50):
        cluster.insert(name, _rows(rng, range(start, start + 50)),
                       tenant=tenant)
        cluster.run_for(200)
    cluster.run_for(1_000)
    return cluster


def _read(cluster, verb, rng, **kwargs):
    """One request of ``verb`` against collection ``c``."""
    if verb == "search_multivector":
        return cluster.search_multivector("c", _mv_query(rng), 5, **kwargs)
    if verb == "range_search":
        return cluster.range_search("c", rng.standard_normal(8), 3.0,
                                    field="image", **kwargs)
    if verb == "get":
        return cluster.get("c", [1, 2, 3], **kwargs)
    return cluster.search("c", rng.standard_normal(8), 5, field="image",
                          **kwargs)[0]


# ----------------------------------------------------------------------
# validation once, typed
# ----------------------------------------------------------------------


class _NoFanOut:
    """A fan-out would raise TypeError: the request must fail before."""

    def __init__(self, cluster):
        self.nodes = cluster.query_coord.live_nodes()

    def __enter__(self):
        for node in self.nodes:
            node.search = node.search_multivector = None
            node.range_search = node.fetch = None

    def __exit__(self, *exc):
        for node in self.nodes:
            del node.search, node.search_multivector
            del node.range_search, node.fetch


BAD_RANGE = [
    ({"query": np.zeros(5)}, "5"),                    # not the field's dim
    ({"query": np.zeros((2, 8))}, "one query vector"),
    ({"query": np.array([0.0] * 7 + [np.nan])}, "finite"),
    ({"limit": -1}, "limit"),
    ({"limit": 2.5}, "limit"),
    ({"radius": -1.0}, "radius"),
    ({"radius": float("nan")}, "radius"),
    ({"staleness_ms": -5.0}, "staleness_ms"),
]


def _q():
    return np.zeros(8)


# What a caller can get wrong in a read or an index spec that used to
# surface as numpy's / Python's own exception from some layer below.
MALFORMED = {
    "expr-constant-of-the-wrong-kind": (
        lambda c: c.search("c", _q(), 3, field="image",
                           expr="price < 'a'"), ExpressionError, "compare"),
    "search-expr-int": (
        lambda c: c.search("c", _q(), 3, field="image", expr=5),
        ExpressionError, "text"),
    "delete-expr-int": (
        lambda c: c.delete("c", expr=5), ExpressionError, "text"),
    "search-metric-str": (
        lambda c: c.search("c", _q(), 3, field="image",
                           metric="euclidean"), InvalidQuery, "metric"),
    "range-search-metric-str": (
        lambda c: c.range_search("c", _q(), 1.0, field="image",
                                 metric="ip"), InvalidQuery, "metric"),
    "consistency-str": (
        lambda c: c.search("c", _q(), 3, field="image",
                           consistency="strong"),
        InvalidQuery, "consistency"),
    "get-none": (lambda c: c.get("c", None), InvalidQuery, "pks"),
    "get-int": (lambda c: c.get("c", 5), InvalidQuery, "pks"),
    "index-params-in-the-metric-slot": (
        lambda c: c.create_index("c", "image", "IVF_FLAT", {"nlist": 4}),
        IndexBuildError, "metric"),
    "index-metric-str": (
        lambda c: c.create_index("c", "image", "IVF_FLAT", "euclidean"),
        IndexBuildError, "metric"),
    "index-params-list": (
        lambda c: c.create_index("c", "image", "IVF_FLAT",
                                 MetricType.EUCLIDEAN, [1, 2]),
        IndexBuildError, "params"),
}


class TestValidationOnceTyped:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_reads_and_index_specs_are_manu_errors(self, rng,
                                                             case):
        call, error, needle = MALFORMED[case]
        cluster = _loaded(rng, rows=50)
        with pytest.raises(error, match=needle):
            call(cluster)
        assert cluster.index_coord.index_metric("c", "image") is None
        assert len(cluster.search("c", _q(), 3, field="image",
                                  expr="price < 100",
                                  consistency=STRONG)[0]) == 3

    @pytest.mark.parametrize("bad,needle", BAD_RANGE)
    def test_malformed_range_search_rejected_before_fan_out(self, rng, bad,
                                                            needle):
        cluster = _loaded(rng, rows=50)
        args = {"query": np.zeros(8), "radius": 1.0, "field": "image"}
        args.update(bad)
        with _NoFanOut(cluster):
            with pytest.raises(InvalidQuery, match=needle):
                cluster.range_search("c", **args)
        assert len(cluster.range_search(
            "c", np.zeros(8), 100.0, field="image", consistency=STRONG,
            limit=7)) == 7

    @pytest.mark.parametrize("expr", [0, False, [], ""],
                             ids=["zero", "false", "empty-list", "empty"])
    def test_only_none_means_no_filter(self, rng, expr):
        """A falsy filter of any kind used to read as "no filter" and
        return unfiltered hits; every value but None is parsed."""
        config = ManuConfig().with_overrides(
            query=QueryConfig(batch_window_ms=5.0))
        cluster = ManuCluster(config=config, num_query_nodes=2)
        cluster.create_collection("c", _schema())
        cluster.insert("c", _rows(rng, range(50)))
        cluster.run_for(500)
        proxy = cluster.proxy()
        with _NoFanOut(cluster):
            for call in (
                    lambda: cluster.search("c", _q(), 3, field="image",
                                           expr=expr),
                    lambda: cluster.range_search("c", _q(), 100.0,
                                                 field="image", expr=expr),
                    lambda: proxy.submit_search("c", _q(), 3, field="image",
                                                expr=expr)):
                with pytest.raises(ExpressionError):
                    call()
        assert proxy.flush_batches() == 0
        status, body = RestApi(cluster).handle(
            "POST", "/collections/c/search",
            {"vector": [0.0] * 8, "field": "image", "limit": 3,
             "expr": expr})
        assert status == 400 and "expression" in body["error"]
        assert len(cluster.range_search("c", _q(), 100.0, field="image",
                                        expr=None, consistency=STRONG)) == 50

    @pytest.mark.parametrize("pk", [[1], {}, np.array([1, 2])],
                             ids=["list", "dict", "ndarray"])
    def test_unhashable_pk_refused_before_a_timestamp(self, rng, monkeypatch,
                                                     pk):
        cluster = _loaded(rng, rows=50)
        monkeypatch.setattr(
            cluster.tso, "allocate_packed",
            lambda: pytest.fail("the refused get allocated a timestamp"))
        with _NoFanOut(cluster), pytest.raises(InvalidQuery,
                                               match="hashable"):
            cluster.get("c", [2, pk])

    def test_negative_similarity_threshold_is_a_legal_radius(self, rng):
        cluster = _loaded(rng, rows=50)
        result = cluster.range_search(
            "c", rng.standard_normal(8), -1e9, field="image",
            metric=MetricType.INNER_PRODUCT, consistency=STRONG)
        assert len(result) == 50

    @pytest.mark.parametrize("overrides,k", [
        ({"queries": {"image": np.zeros(5), "text": np.zeros(4)}}, 3),
        ({"queries": {"image": np.zeros((2, 8)), "text": np.zeros(4)}}, 3),
        ({"queries": {"image": np.zeros(8),
                      "text": np.array([0.0, np.inf, 0.0, 0.0])}}, 3),
        ({"weights": {"image": 1.0, "text": float("inf")}}, 3),
        ({"weights": {"image": float("nan"), "text": 1.0}}, 3),
        ({"fields": ("image", "price"),
          "queries": {"image": np.zeros(8), "price": np.zeros(1)},
          "weights": {"image": 1.0, "price": 1.0}}, 3),   # no vector field
        ({}, 0),
        ({}, 2.5),
    ])
    def test_malformed_multivector_rejected_before_fan_out(self, rng,
                                                           overrides, k):
        cluster = _loaded(rng, rows=50)
        with _NoFanOut(cluster):
            with pytest.raises(InvalidQuery):
                cluster.search_multivector("c", _mv_query(rng, **overrides),
                                           k)
            unknown = _mv_query(
                rng, fields=("image", "nope"),
                queries={"image": np.zeros(8), "nope": np.zeros(4)},
                weights={"image": 1.0, "nope": 1.0})
            with pytest.raises(ManuError, match="nope"):
                cluster.search_multivector("c", unknown, 3)
        assert len(cluster.search_multivector("c", _mv_query(rng), 3,
                                              consistency=STRONG)) == 3

    @pytest.mark.parametrize("value", [True, np.True_],
                             ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("call", [
        lambda c, p, v: c.search("c", _q(), v, field="image"),
        lambda c, p, v: c.search("c", _q(), 3, field="image",
                                 staleness_ms=v),
        lambda c, p, v: c.range_search("c", _q(), 100.0, field="image",
                                       limit=v),
        lambda c, p, v: c.range_search("c", _q(), v, field="image"),
        lambda c, p, v: p.submit_search("c", _q(), v, field="image"),
        lambda c, p, v: c.search_multivector(
            "c", _mv_query(np.random.default_rng(0),
                           weights={"image": v, "text": 0.5}), 3),
    ], ids=["search-k", "staleness_ms", "range-limit", "range-radius",
            "submit_search-k", "multivector-weight"])
    def test_a_bool_is_not_a_number(self, rng, call, value):
        """``True`` used to pass as the integer 1 (``bool`` is an
        ``int``): ``k=True`` answered one hit per query and
        ``staleness_ms=True`` waited for 1 ms.  Index parameters refuse
        a bool already; request parameters now do too."""
        config = ManuConfig().with_overrides(
            query=QueryConfig(batch_window_ms=5.0))
        cluster = ManuCluster(config=config, num_query_nodes=2)
        cluster.create_collection("c", _schema())
        cluster.insert("c", _rows(rng, range(50)))
        cluster.run_for(500)
        proxy = cluster.proxy()
        with _NoFanOut(cluster), pytest.raises(InvalidQuery,
                                               match="at least"):
            call(cluster, proxy, value)
        assert proxy.flush_batches() == 0

    def test_negative_staleness_is_typed_for_every_verb(self, rng):
        cluster = _loaded(rng, rows=50)
        for verb in ("search", "get") + READ_VERBS:
            with _NoFanOut(cluster), pytest.raises(InvalidQuery):
                _read(cluster, verb, rng, staleness_ms=-1.0)

    def test_pymanu_and_rest_surface_the_typed_message(self, rng):
        cluster = connect("default", num_query_nodes=1)
        try:
            coll = Collection("c", _schema())
            coll.insert(_rows(rng, range(20)))
            with pytest.raises(InvalidQuery):
                coll.range_search(vec=np.zeros(5), radius=1.0,
                                  field="image")
            with pytest.raises(InvalidQuery):
                coll.range_search(vec=np.zeros(8), radius=1.0,
                                  field="image", limit=-1)
            with pytest.raises(InvalidQuery):
                coll.search_multivector(
                    queries={"image": np.zeros(8), "text": np.zeros(9)},
                    weights={"image": 1.0, "text": 1.0})
            api = RestApi(cluster)
            for body, needle in [
                    ({"vector": [0.0] * 5, "radius": 1.0}, "dim"),
                    ({"vector": [0.0] * 8, "radius": 1.0, "limit": -1},
                     "limit must be an integer of at least 0"),
                    ({"vector": [0.0] * 8, "radius": "wide"}, "radius"),
                    ({"vector": [0.0] * 8, "radius": 1.0,
                      "staleness_ms": -1}, "staleness_ms")]:
                status, payload = api.handle(
                    "POST", "/collections/c/range_search",
                    {"field": "image", **body})
                assert status == 400 and needle in payload["error"], payload
            status, payload = api.handle(
                "POST", "/collections/c/search",
                {"field": "image", "vector": [0.0] * 8, "limit": 0})
            assert status == 400
            assert "k must be an integer of at least 1" in payload["error"]
            for path, body, needle in [
                    ("entities/delete", {"expr": 5}, "expression is text"),
                    ("search", {"field": "image", "vector": [0.0] * 8,
                                "expr": "price < 'a'"}, "cannot compare")]:
                status, payload = api.handle(
                    "POST", f"/collections/c/{path}", body)
                assert status == 400 and needle in payload["error"], payload
        finally:
            connections.disconnect("default")


# ----------------------------------------------------------------------
# tenancy and metering for every read, however it arrives
# ----------------------------------------------------------------------


def _units(totals):
    """CostMeter's formula on a request's scan totals."""
    return (totals["rows_scanned"] / READ_UNIT_ROWS
            + totals["bytes_materialized"] / READ_UNIT_BYTES)


class TestTenancyForEveryRead:
    @pytest.mark.parametrize("verb", READ_VERBS)
    def test_quota_refuses_and_counts(self, rng, verb):
        cluster = _loaded(rng, tenant="t", rows=50,
                          quota=TenantQuota(search_qps=1.0))
        refused = 0
        for _ in range(5):
            try:
                _read(cluster, verb, rng, tenant="t")
            except QuotaExceeded:
                refused += 1
        assert refused == 4
        rejections = cluster.metrics.counter_family(
            "tenant_quota_rejections_total", ("tenant", "verb"))
        assert rejections.labels(tenant="t", verb=verb).value == 4
        admitted = cluster.metrics.counter_family(
            "tenant_requests_total", ("tenant", "qos", "verb"))
        assert admitted.labels(tenant="t", qos="silver",
                               verb=verb).value == 1

    @pytest.mark.parametrize("verb", READ_VERBS)
    def test_read_units_charged_from_measured_work(self, rng, verb):
        cluster = _loaded(rng, tenant="t")
        family = cluster.metrics.counter_family(
            "tenant_read_units_total", ("tenant",))
        before = cluster.cost_meter.usage("t").read_units
        result = _read(cluster, verb, rng, tenant="t", explain=True)
        charged = cluster.cost_meter.usage("t").read_units - before
        assert charged > 0
        assert charged == pytest.approx(_units(result.profile.totals()))
        assert family.labels(tenant="t").value == pytest.approx(
            cluster.cost_meter.usage("t").read_units)

    def test_batched_searches_charge_what_direct_ones_do(self, rng):
        """Admitted once (at submit), metered once (at the flush)."""
        def run(batched):
            config = ManuConfig().with_overrides(
                query=QueryConfig(batch_window_ms=20.0),
                segment=SegmentConfig(seal_entity_count=64))
            cluster = ManuCluster(config=config, num_query_nodes=2,
                                  num_index_nodes=1)
            cluster.create_tenant("t", quota=TenantQuota(search_qps=4.0))
            name = cluster.tenant_create_collection("t", "c", _schema())
            local = np.random.default_rng(5)
            for start in range(0, 256, 64):
                cluster.insert(name, _rows(local, range(start, start + 64)),
                               tenant="t")
                cluster.run_for(200)
            cluster.flush(name)
            cluster.create_index(name, "image", "IVF_FLAT",
                                 MetricType.EUCLIDEAN,
                                 {"nlist": 4, "nprobe": 2})
            assert cluster.wait_for_indexes(name)
            cluster.run_for(500)
            queries = local.standard_normal((4, 8)).astype(np.float32)
            proxy = cluster.proxies[0]
            if batched:
                handles = [proxy.submit_search("c", q, 5, field="image",
                                               tenant="t")
                           for q in queries]
                cluster.run_for(50)
                assert all(h.done for h in handles)
                assert proxy.batches_flushed == 1
            else:
                for q in queries:
                    proxy.search("c", q, 5, field="image", tenant="t")
            usage = cluster.cost_meter.usage("t")
            admitted = cluster.metrics.counter_family(
                "tenant_requests_total", ("tenant", "qos", "verb")).labels(
                    tenant="t", qos="silver", verb="search").value
            # The burst of 4 is spent: a fifth search is refused either way.
            with pytest.raises(QuotaExceeded):
                proxy.submit_search("c", queries[0], 5, field="image",
                                    tenant="t")
            return usage.read_units, usage.rows_scanned, admitted

        direct, batched = run(False), run(True)
        assert direct[0] > 0
        assert batched == direct

    def test_pymanu_tenant_collection_is_admitted_and_metered(self, rng):
        cluster = connect("default", num_query_nodes=1)
        try:
            tenant = Tenant.create("acme",
                                   quota=TenantQuota(search_qps=1.0))
            coll = tenant.create_collection("c", _schema())
            coll.insert(_rows(rng, range(40)))
            cluster.run_for(200)
            assert len(coll.range_search(vec=np.zeros(8), radius=100.0,
                                         field="image")) == 40
            with pytest.raises(QuotaExceeded):
                coll.range_search(vec=np.zeros(8), radius=100.0,
                                  field="image")
            assert len(coll.search_multivector(
                queries={"image": np.zeros(8), "text": np.zeros(4)},
                weights={"image": 1.0, "text": 1.0}, limit=5)) == 5
            with pytest.raises(QuotaExceeded):
                coll.search_multivector(
                    queries={"image": np.zeros(8), "text": np.zeros(4)},
                    weights={"image": 1.0, "text": 1.0}, limit=5)
            assert cluster.cost_meter.usage("acme").read_units > 0
            # ... and the REST layer forwards the tenant the same way.
            api = RestApi(cluster)
            status, payload = api.handle(
                "POST", "/collections/c/range_search",
                {"vector": [0.0] * 8, "radius": 100.0, "field": "image",
                 "tenant": "acme"})
            assert status == 400 and "over quota" in payload["error"]
            cluster.run_for(1_500)
            status, payload = api.handle(
                "POST", "/collections/c/entities/get",
                {"pks": [1, 2], "tenant": "acme"})
            assert status == 200 and len(payload["entities"]) == 2
        finally:
            connections.disconnect("default")

    def test_cluster_search_multivector_forwards_consistency(self, rng):
        cluster = _loaded(rng, rows=50)
        cluster.insert("c", _rows(rng, [900]))
        fresh = cluster.search_multivector("c", _mv_query(rng), 60,
                                           consistency=STRONG)
        assert 900 in fresh.pks and fresh.consistency_wait_ms > 0


# ----------------------------------------------------------------------
# the primary key is a filterable column
# ----------------------------------------------------------------------


class TestPrimaryKeyFilter:
    def test_search_and_range_search_filter_on_the_primary_key(self, rng):
        """``pk < 100`` passed the proxy's schema check and then failed
        inside every query node ("unknown field 'pk'"): the segments'
        filterable columns left the primary key out.  Over sealed
        indexed segments and a growing tail, the hits are now the
        brute-force oracle's over the rows the filter lets through."""
        config = ManuConfig().with_overrides(
            segment=SegmentConfig(seal_entity_count=64))
        cluster = ManuCluster(config=config, num_query_nodes=2)
        cluster.create_collection("c", _schema())
        images = []
        for start in range(0, 320, 40):
            rows = _rows(rng, range(start, start + 40))
            images.append(rows["image"])
            cluster.insert("c", rows)
            cluster.run_for(200)
            if start == 200:
                cluster.flush("c")
                cluster.create_index("c", "image", "IVF_FLAT",
                                     MetricType.EUCLIDEAN,
                                     {"nlist": 4, "nprobe": 4})
                assert cluster.wait_for_indexes("c")
        images = np.concatenate(images)
        for query in rng.standard_normal((3, 8)).astype(np.float32):
            got = cluster.search("c", query, 10, field="image",
                                 expr="pk < 100", consistency=STRONG)[0]
            dists = ((images[:100] - query) ** 2).sum(axis=1)
            want = np.argsort(dists)[:10]
            assert got.pks == want.tolist()
            assert got.distances == pytest.approx(dists[want].tolist(),
                                                  rel=1e-5)
            within = cluster.range_search("c", query, 3.0, field="image",
                                          consistency=STRONG)
            filtered = cluster.range_search("c", query, 3.0, field="image",
                                            expr="pk < 100",
                                            consistency=STRONG)
            assert sorted(filtered.pks) == sorted(
                pk for pk in within.pks if pk < 100)
            assert len(filtered) > 0


# ----------------------------------------------------------------------
# get is a read like the others
# ----------------------------------------------------------------------


class TestGetIsARead:
    def test_reads_its_own_writes(self, rng):
        cluster = ManuCluster(num_query_nodes=2)
        cluster.create_collection("c", _schema())
        cluster.insert("c", _rows(rng, [7, 8]))
        # No run_for: the rows are in the log, not yet on a query node.
        rows = cluster.get("c", [7, 8, 9],
                           consistency=ConsistencyLevel.SESSION)
        assert set(rows) == {7, 8}
        assert rows[7]["image"].shape == (8,)

    def test_unserved_collection_is_an_error_not_an_empty_dict(self, rng):
        cluster = _loaded(rng, rows=50)
        cluster.query_coord.release_collection("c")
        for node in cluster.query_coord.live_nodes():
            node.fail()
        with pytest.raises(ManuError, match="not loaded"):
            cluster.get("c", [1])

    def test_traced_windowed_and_counted(self, rng):
        cluster = _loaded(rng, rows=50)
        before = set(cluster.tracer.trace_ids())
        assert set(cluster.get("c", [1, 2, 777], consistency=STRONG)) \
            == {1, 2}
        (tid,) = [t for t in cluster.tracer.trace_ids() if t not in before]
        root = cluster.tracer.root(tid)
        assert root.name == "proxy.get"
        children = cluster.tracer.span_tree(tid)[root.span_id]
        assert [s.name for s in children] == [
            "proxy.consistency_wait", "query_node.scan",
            "query_node.scan", "proxy.merge"]
        assert cluster.tracer.trace_complete(tid)
        window = cluster.metrics.latency("proxy.get_latency")
        assert window.count(cluster.now()) == 1
        ops = cluster.metrics.counter_family("proxy_ops_total",
                                             ("proxy", "verb"))
        assert ops.labels(proxy="proxy-0", verb="get").value == 1


# ----------------------------------------------------------------------
# the searched collection's (and field's) own dimension is charged
# ----------------------------------------------------------------------


class TestChargesTheSearchedFieldsDimension:
    def test_two_collections_of_different_width_on_one_node(self, rng):
        cluster = ManuCluster(num_query_nodes=1)
        cost = cluster.cost_model
        for name, dim in (("narrow", 8), ("wide", 64)):
            cluster.create_collection(name, CollectionSchema(
                [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=dim)]))
            cluster.insert(name, {"vector": rng.standard_normal(
                (40, dim)).astype(np.float32)})
        cluster.run_for(300)
        for name, dim in (("narrow", 8), ("wide", 64)):
            result = cluster.search(name, rng.standard_normal(dim), 5,
                                    consistency=STRONG, explain=True)[0]
            compared = result.profile.totals()["float_comparisons"]
            assert compared == 40
            (stage,) = result.profile.node_stages()
            assert stage.meta["service_ms"] == (
                cost.distance_cost(compared, dim)
                + cost.request_overhead_ms + cost.batch_row_overhead_ms)

    def test_multivector_charges_each_field_at_its_own_width(self, rng):
        cluster = ManuCluster(num_query_nodes=1)
        cost = cluster.cost_model
        cluster.create_collection("c", _schema(image_dim=32, text_dim=4))
        cluster.insert("c", _rows(rng, range(40), image_dim=32, text_dim=4))
        cluster.run_for(300)
        query = MultiVectorQuery(
            fields=("image", "text"),
            queries={"image": rng.standard_normal(32).astype(np.float32),
                     "text": rng.standard_normal(4).astype(np.float32)},
            weights={"image": 1.0, "text": 1.0},
            metric=MetricType.INNER_PRODUCT)
        result = cluster.search_multivector("c", query, 5,
                                            consistency=STRONG, explain=True)
        (node,) = cluster.query_coord.live_nodes()
        per_field = [SearchStats(), SearchStats()]
        for sid in node.segments_of("c"):
            search_segment(node.segment("c", sid), query, 5,
                           stats=per_field)
        assert per_field[0].float_comparisons > 0
        assert result.profile.totals()["float_comparisons"] == sum(
            stats.float_comparisons for stats in per_field)
        (stage,) = result.profile.node_stages()
        assert stage.meta["service_ms"] == (
            cost.distance_cost(per_field[0].float_comparisons, 32)
            + cost.distance_cost(per_field[1].float_comparisons, 4)
            + cost.request_overhead_ms + cost.batch_row_overhead_ms)


# ----------------------------------------------------------------------
# plane coverage for the verbs that had none
# ----------------------------------------------------------------------


@pytest.mark.parametrize("verb", READ_VERBS)
class TestPlaneCoverage:
    def _traced_read(self, rng, verb):
        cluster = _loaded(rng, tenant="t")
        cluster.insert("t::c", _rows(rng, [5_000]), tenant="t")
        before = set(cluster.tracer.trace_ids())
        units = cluster.cost_meter.usage("t").read_units
        result = _read(cluster, verb, rng, tenant="t", explain=True,
                       consistency=ConsistencyLevel.BOUNDED,
                       staleness_ms=1.0)
        (tid,) = [t for t in cluster.tracer.trace_ids() if t not in before]
        charged = cluster.cost_meter.usage("t").read_units - units
        return cluster, result, tid, charged

    def test_span_tree_and_breakdown(self, rng, verb):
        cluster, result, tid, _ = self._traced_read(rng, verb)
        tracer = cluster.tracer
        root = tracer.root(tid)
        assert root.name == f"proxy.{verb}"
        assert tracer.trace_complete(tid)
        tree = tracer.span_tree(tid)
        children = tree[root.span_id]
        assert [s.name for s in children] == [
            "proxy.consistency_wait", "query_node.scan", "query_node.scan",
            "proxy.merge"]
        segment_scans = 0
        for scan in children[1:3]:
            names = [s.name for s in tree[scan.span_id]]
            assert names[-1] == "query_node.reduce"
            assert names[:-1] and set(names[:-1]) == {"segment.scan"}
            assert scan.tags["segments"] == len(names) - 1
            segment_scans += len(names) - 1
            # Segment windows and the reduce tile the node's service time.
            covered = sum(s.duration_ms for s in tree[scan.span_id])
            assert covered == pytest.approx(scan.tags["service_ms"])
        # segments_searched counts segments scanned, not nodes asked.
        assert result.segments_searched == segment_scans > 2

        # The root is closed at the computed done time, and the three
        # phases cover it: the identity test_tracing holds for search.
        assert root.duration_ms == result.latency_ms
        breakdown = tracer.breakdown(tid)
        assert breakdown["consistency_wait_ms"] == \
            pytest.approx(result.consistency_wait_ms)
        assert breakdown["consistency_wait_ms"] > 0
        assert breakdown["scan_ms"] > 0 and breakdown["merge_ms"] > 0
        total = (breakdown["consistency_wait_ms"] + breakdown["scan_ms"]
                 + breakdown["merge_ms"])
        assert total == pytest.approx(result.latency_ms, abs=1e-9)
        assert breakdown["other_ms"] == pytest.approx(0.0, abs=1e-9)

    def test_latency_is_the_cost_models(self, rng, verb):
        """What the parent commit computed, spelled from the parts."""
        cluster, result, tid, _ = self._traced_read(rng, verb)
        cost, profile = cluster.cost_model, result.profile
        finish = max(s.end_ms for s in cluster.tracer.spans(tid)
                     if s.name == "query_node.scan")
        merge_ms = cost.topk_merge_cost(2, 5) \
            if verb == "search_multivector" else 0.0
        root = cluster.tracer.root(tid)
        assert root.end_ms == finish + merge_ms + cost.rpc_hop()
        for stage in profile.node_stages():
            assert stage.meta["queue_ms"] == pytest.approx(cost.rpc_hop())
        assert profile.latency_ms == result.latency_ms
        assert profile.trace_id == tid and profile.verb == verb

    def test_ledger_sums_and_read_units(self, rng, verb):
        _cluster, result, _tid, charged = self._traced_read(rng, verb)
        profile = result.profile
        assert profile.verify() == []
        assert profile.root.name == f"proxy.{verb}"
        segments = [seg for node in profile.node_stages()
                    for seg in node.stages("segment.scan")]
        assert len(segments) == result.segments_searched
        assert {seg.meta["path"] for seg in segments} >= {"growing"}
        totals = profile.totals()
        for key in ("rows_scanned", "float_comparisons",
                    "bytes_materialized", "brute_scans"):
            assert totals[key] == sum(seg.counters[key]
                                      for seg in segments) > 0
        merge = profile.root.stages("proxy.merge")[0]
        assert merge.counters["hits_out"] == len(result)
        assert merge.counters["batches_merged"] == 2
        assert charged == pytest.approx(_units(totals))
        assert f"EXPLAIN ANALYZE {verb}" in profile.explain()

    def test_error_mid_fan_out_closes_the_root_as_error(self, rng, verb):
        cluster = _loaded(rng, rows=100)
        victim = cluster.query_coord.live_nodes()[1]

        def boom(*args, **kwargs):
            raise RuntimeError("node fell over")

        setattr(victim, verb, boom)
        before = set(cluster.tracer.trace_ids())
        with pytest.raises(RuntimeError):
            _read(cluster, verb, rng)
        (tid,) = [t for t in cluster.tracer.trace_ids() if t not in before]
        root = cluster.tracer.root(tid)
        assert root.name == f"proxy.{verb}"
        assert root.finished and root.status == SPAN_ERROR
        # Nothing was recorded for the request that did not finish.
        window = {"search_multivector": "proxy.multivector_latency",
                  "range_search": "proxy.range_search_latency"}[verb]
        assert cluster.metrics.latency(window).count(cluster.now()) == 0


class TestOneCounterFamily:
    def test_every_verb_feeds_proxy_ops_total(self, rng):
        cluster = _loaded(rng, rows=50)
        for verb in ("search", "get") + READ_VERBS:
            _read(cluster, verb, rng)
        cluster.delete("c", "pk in [1, 2]")
        cluster.upsert("c", _rows(rng, [3]))
        ops = cluster.metrics.counter_family("proxy_ops_total",
                                             ("proxy", "verb"))
        values = {labels["verb"]: metric.value
                  for labels, metric in ops.samples()}
        assert values == {"insert": 50, "delete": 2, "upsert": 1,
                          "batched_search": 0,
                          "search": 1, "search_multivector": 1,
                          "range_search": 1, "get": 1}
        cluster.sample_telemetry()
        assert cluster.stats_snapshot()["cluster_query_nodes.value"] == 2
        # Every read is serving load for the rebalancer's attribution.
        assert cluster.proxies[0].search_counts == {"c": 4}


# ----------------------------------------------------------------------
# the planes agree: one report per node, one emitter
# ----------------------------------------------------------------------


def _observed_cluster(rng, **sections):
    """Two nodes holding sealed (indexed) and growing segments of the
    tenant collection ``t::c``, every request traced."""
    config = ManuConfig().with_overrides(
        segment=SegmentConfig(seal_entity_count=64), **sections)
    cluster = ManuCluster(config=config, num_query_nodes=2)
    cluster.create_tenant("t")
    name = cluster.tenant_create_collection("t", "c", _schema())
    for start in range(0, 200, 50):
        cluster.insert(name, _rows(rng, range(start, start + 50)),
                       tenant="t")
        cluster.run_for(200)
    cluster.create_index(name, "image", "IVF_FLAT", MetricType.EUCLIDEAN,
                         {"nlist": 4, "nprobe": 2})
    assert cluster.wait_for_indexes(name)
    cluster.insert(name, _rows(rng, range(500, 530)), tenant="t")
    cluster.run_for(500)
    return cluster


class TestPlanesAgree:
    def _requests(self, cluster, rng):
        """(verb, call) for every read shape: filtered and unfiltered
        searches of one and five rows, a multi-vector search, a range
        search and a point read."""
        options = {"tenant": "t", "consistency": STRONG}
        for nq in (1, 5):
            for expr in (None, "price < 6"):
                yield "search", lambda nq=nq, expr=expr: cluster.search(
                    "c", rng.standard_normal((nq, 8)), 5, field="image",
                    expr=expr, **options)
        yield "search_multivector", lambda: cluster.search_multivector(
            "c", _mv_query(rng), 5, **options)
        yield "range_search", lambda: cluster.range_search(
            "c", rng.standard_normal(8), 3.0, field="image", **options)
        yield "get", lambda: cluster.get("c", [1, 2, 3, 505], **options)

    def test_spans_stages_and_read_units_name_the_same_work(self, rng):
        """A profiled read's stages are its trace's spans, matched by span
        id: each stage's parent, name and counters are its span's, and
        every span of the read but a node's wait is a stage."""
        cluster = _observed_cluster(rng)
        cluster.slowlog.threshold_ms = 1e-9     # captures every read
        tracer, meter = cluster.tracer, cluster.cost_meter
        paths = set()
        for verb, call in self._requests(cluster, rng):
            before = set(tracer.trace_ids())
            usage = meter.usage("t")
            was = (usage.read_units, usage.rows_scanned,
                   usage.bytes_materialized)
            call()
            (tid,) = [t for t in tracer.trace_ids() if t not in before]
            profile = cluster.slowlog.entries()[-1].profile
            assert profile.trace_id == tid and profile.verb == verb
            spans = {span.span_id: span for span in tracer.spans(tid)}
            assert {stage.span_id for stage in profile.root.walk()} == {
                span_id for span_id, span in spans.items()
                if span.name != "query_node.wait_ready"}
            for stage in profile.root.walk():
                span = spans[stage.span_id]
                assert span.name == ("proxy.consistency_wait"
                                     if stage.name == "consistency_wait"
                                     else stage.name)
                assert [spans[child.span_id].parent_id
                        for child in stage.children] == \
                    [span.span_id] * len(stage.children)
                if stage is not profile.root:
                    assert stage.counters == {
                        key: value for key, value in span.tags.items()
                        if key in COUNTERS}
            stages = profile.node_stages()
            assert len(stages) == 2
            for stage in stages:
                if verb == "get":       # a point read scans nothing
                    assert stage.children == []
                    assert set(stage.meta) == {"node", "queue_ms"}
                else:
                    assert [s.name for s in stage.children] == \
                        ["segment.scan"] * (len(stage.children) - 1) \
                        + ["query_node.reduce"]
                    paths.update(s.meta["path"] for s in stage.children[:-1])
            totals = profile.totals()
            usage = meter.usage("t")
            assert usage.rows_scanned - was[1] == totals["rows_scanned"]
            assert usage.bytes_materialized - was[2] == \
                totals["bytes_materialized"]
            assert usage.read_units - was[0] == pytest.approx(
                _units(totals), rel=1e-12)
        assert {"growing", "index"} <= paths

    def test_unobserved_reads_build_no_segment_span_or_stage(self, rng,
                                                             monkeypatch):
        cluster = _observed_cluster(rng,
                                    tracing=TracingConfig(enabled=False))
        assert not cluster.slowlog.enabled
        made = []
        for cls in (Span, StageProfile):
            real = cls.__init__

            def counted(self, *args, real=real, **kwargs):
                real(self, *args, **kwargs)
                made.append((type(self).__name__, self.name))

            monkeypatch.setattr(cls, "__init__", counted)
        for _verb, call in self._requests(cluster, rng):
            call()
        assert made and {kind for kind, _name in made} == {"Span"}
        names = {name for _kind, name in made}
        # An unsampled node scan mints no span: its id is reserved
        # (``TraceCollector.record_tree``), so later ids stay where they
        # were (``tests/test_tracing_reference.py`` at ``sample_every`` 3).
        assert not names & {"segment.scan", "query_node.reduce",
                            "query_node.scan"}
