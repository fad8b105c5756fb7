"""A node scan counts its work once, into one counter array, and the proxy
makes every plane of it from that array: the service time and every
``segment.scan`` window from one ``CostModel.scan_cost`` call, a node's
span and its children from one ``TraceCollector.record_tree`` call, the
EXPLAIN stages, the slow log and the read units.

The oracle is the former accounting (``tests/reference/accounting.py``):
a ``SearchStats`` ledger entry per scanned segment, the proxy's former
observation of it — a ``scan_cost`` per segment prefix, a ``record_span``
per span — behind the per-segment node scan of
``tests/reference/reduce.py`` (``reference_path``).  Two clusters run one
lifecycle each, one as shipped and one through the oracle, and every
plane must come out byte-equal: the exported traces, the EXPLAIN texts,
the slow-log JSON, the tenant's read units and the virtual latencies.
"""

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.config import LogConfig, ManuConfig, SegmentConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.index.base import SearchStats
from repro.sim.costmodel import CostModel
from tests.reference.compare import DIM, clustered
from tests.reference.reduce import reference_path

TENANT = "t"


def _schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM)])


def _insert(cluster, name, rng, lo, hi):
    vectors = clustered(rng, hi - lo)
    cluster.insert(name, {"pk": np.arange(lo, hi, dtype=np.int64),
                          "vector": vectors}, tenant=TENANT)
    return vectors


def _cluster(rng, config, rows, batch):
    """A tenant collection of ``rows`` rows in ``batch``-row inserts,
    flushed and indexed on two query nodes, every read captured by the
    slow log; returns the cluster and the collection's name."""
    cluster = ManuCluster(config=config, num_query_nodes=2)
    cluster.create_tenant(TENANT)
    name = cluster.tenant_create_collection(TENANT, "c", _schema())
    for lo in range(0, rows, batch):
        _insert(cluster, name, rng, lo, lo + batch)
        cluster.run_for(20)
    cluster.flush(name)
    cluster.create_index(name, "vector", "IVF_FLAT", MetricType.EUCLIDEAN,
                         {"nlist": 16, "nprobe": 4})
    assert cluster.wait_for_indexes(name)
    cluster.run_for(1_000)
    cluster.slowlog.threshold_ms = 1e-9
    return cluster, name


def _sealed(rng, search):
    """The sealed one-query shape: single-vector BOUNDED reads."""
    config = ManuConfig().with_overrides(
        segment=SegmentConfig(seal_entity_count=300))
    cluster, name = _cluster(rng, config, 2400, 100)
    for i in range(24):
        cluster.run_for(100)
        search(cluster, clustered(rng, 1), ConsistencyLevel.BOUNDED,
               explain=i % 4 == 0)
    return cluster


def _mixed(rng, search):
    """The mixed_fresh shape: each step a 16-row insert and a STRONG read
    of its last row (growing segments, their slices and tails in every
    scan), two preloaded pks deleted every 8th step."""
    config = ManuConfig().with_overrides(
        segment=SegmentConfig(seal_entity_count=1000, slice_size=128,
                              temp_index_nlist=4, seal_idle_ms=1e12),
        log=LogConfig(num_shards=2))
    cluster, name = _cluster(rng, config, 3000, 500)
    for step in range(96):
        lo = 10_000 + 16 * step
        vectors = _insert(cluster, name, rng, lo, lo + 16)
        search(cluster, vectors[-1], ConsistencyLevel.STRONG,
               explain=step % 3 == 0)
        cluster.run_for(1)
        if step % 8 == 7:
            first = 2 * (step // 8)
            cluster.delete("c", f"pk in [{first}, {first + 1}]",
                           tenant=TENANT)
    return cluster


def _planes(shape, reference, monkeypatch):
    """Every plane of one lifecycle of ``shape``, as shipped or through
    the former accounting."""
    rng = np.random.default_rng(5)
    seen = {"latency_ms": [], "explain": []}

    def search(cluster, queries, consistency, explain):
        if reference:
            with reference_path(monkeypatch):
                results = cluster.search("c", queries, 10, tenant=TENANT,
                                         consistency=consistency,
                                         explain=explain)
        else:
            results = cluster.search("c", queries, 10, tenant=TENANT,
                                     consistency=consistency,
                                     explain=explain)
        seen["latency_ms"].append([r.latency_ms for r in results])
        if explain:
            seen["explain"].append(results[0].profile.explain())

    cluster = shape(rng, search)
    usage = cluster.cost_meter.usage(TENANT)
    seen["read_units"] = (usage.read_units, usage.rows_scanned,
                          usage.bytes_materialized)
    seen["slowlog"] = cluster.slowlog.to_json()
    seen["trace"] = cluster.tracer.export_chrome_trace()
    seen["served"] = [(node.searches_served, node.service_ms_total)
                      for node in cluster.query_coord.live_nodes()]
    return seen


def _assert_planes_equal(shape, monkeypatch):
    shipped = _planes(shape, False, monkeypatch)
    former = _planes(shape, True, monkeypatch)
    assert shipped["explain"] and shipped["read_units"][1] > 0
    assert '"segment.scan"' in shipped["trace"]
    for plane in ("latency_ms", "explain", "read_units", "slowlog",
                  "served", "trace"):
        assert shipped[plane] == former[plane], plane


class TestPlanesFromOneCounterArray:
    def test_sealed_one_query_lifecycle(self, monkeypatch):
        _assert_planes_equal(_sealed, monkeypatch)

    def test_mixed_fresh_lifecycle(self, monkeypatch):
        _assert_planes_equal(_mixed, monkeypatch)

    def test_one_cost_call_and_no_stats_per_segment(self, monkeypatch):
        """An unfiltered one-query read of sealed segments that nothing
        asks to explain charges each node scan with one ``scan_cost``
        call and builds no ``SearchStats``: the counters live in the
        scan's array."""
        rng = np.random.default_rng(3)
        config = ManuConfig().with_overrides(
            segment=SegmentConfig(seal_entity_count=300))
        cluster, _name = _cluster(rng, config, 2400, 100)
        cluster.slowlog.threshold_ms = 0.0      # no EXPLAIN stage wanted
        cluster.search("c", clustered(rng, 1), 10, tenant=TENANT)
        calls = {"scan_cost": 0, "SearchStats": 0, "node scans": 0}
        real_cost, real_stats = CostModel.scan_cost, SearchStats.__init__

        def scan_cost(self, *args, **kwargs):
            calls["scan_cost"] += 1
            return real_cost(self, *args, **kwargs)

        def stats(self, *args, **kwargs):
            calls["SearchStats"] += 1
            real_stats(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "scan_cost", scan_cost)
        monkeypatch.setattr(SearchStats, "__init__", stats)
        for _ in range(4):
            cluster.run_for(100)
            cluster.search("c", clustered(rng, 1), 10, tenant=TENANT)
            calls["node scans"] += len(cluster.query_coord.search_plan(
                f"{TENANT}::c"))
        assert calls["node scans"] == 8
        assert calls["scan_cost"] == calls["node scans"]
        assert calls["SearchStats"] == 0
