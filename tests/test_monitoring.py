"""Direct unit tests for monitoring/metrics.py plus a smoke test of the
Attu-style text dashboard against a live cluster."""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.monitoring import dashboard
from repro.monitoring.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyWindow,
    MetricFamily,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1.0)
        assert counter.value == 0.0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(10)
        assert gauge.value == 10.0
        gauge.add(-3.5)
        assert gauge.value == 6.5


class TestHistogram:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((5.0, 1.0))

    def test_observe_buckets_and_overflow(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 1.0, 3.0, 50.0):
            hist.observe(value)
        assert hist.bucket_counts == [2, 1, 1]  # le=1, le=10, +inf
        assert hist.count == 4
        assert hist.sum == pytest.approx(54.5)
        assert hist.mean == pytest.approx(54.5 / 4)

    def test_empty_percentile_is_none(self):
        hist = Histogram()
        assert hist.percentile(99) is None
        assert hist.mean is None

    def test_percentile_clamps_to_observed_range(self):
        hist = Histogram((2.5, 5.0))
        hist.observe(3.0)  # lone sample in the (2.5, 5] bucket
        assert hist.percentile(99) == pytest.approx(3.0)
        assert hist.percentile(0) == pytest.approx(3.0)

    def test_percentile_orders_buckets(self):
        hist = Histogram((10.0, 20.0, 30.0))
        for value in [5.0] * 90 + [25.0] * 10:
            hist.observe(value)
        p50 = hist.percentile(50)
        p99 = hist.percentile(99)
        assert p50 <= 10.0
        assert 20.0 <= p99 <= 25.0

    def test_merge_adds_counts(self):
        a, b = Histogram((1.0, 10.0)), Histogram((1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(100.0)
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.sum == pytest.approx(105.5)
        assert merged.bucket_counts == [1, 1, 1]
        # operands are untouched
        assert a.count == 1 and b.count == 2

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram((1.0,)).merge(Histogram((2.0,)))

    def test_merged_of_none(self):
        assert Histogram.merged([]) is None

    def test_cumulative_buckets_end_with_inf(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(0.5)
        hist.observe(99.0)
        buckets = hist.cumulative_buckets()
        assert buckets == [(1.0, 1), (10.0, 1), (float("inf"), 2)]


class TestMetricFamily:
    def test_labels_get_or_create(self):
        family = MetricFamily("lag", "gauge", ("channel",))
        child = family.labels(channel="wal/c/shard-0")
        assert family.labels(channel="wal/c/shard-0") is child
        assert len(family) == 1
        family.labels(channel="wal/c/shard-1")
        assert len(family) == 2

    def test_label_schema_enforced(self):
        family = MetricFamily("lag", "gauge", ("channel",))
        with pytest.raises(ValueError):
            family.labels(chan="x")
        with pytest.raises(ValueError):
            family.labels()

    def test_samples_sorted(self):
        family = MetricFamily("lag", "gauge", ("channel",))
        family.labels(channel="b").set(2.0)
        family.labels(channel="a").set(1.0)
        rows = list(family.samples())
        assert [labels["channel"] for labels, _ in rows] == ["a", "b"]

    def test_set_gauges_drops_stale_series(self):
        family = MetricFamily("lag", "gauge", ("channel", "subscriber"))
        family.set_gauges({("c1", "s1"): 5.0, ("c1", "s2"): 7.0})
        assert len(family) == 2
        family.set_gauges({("c1", "s1"): 3.0})
        rows = list(family.samples())
        assert len(rows) == 1
        assert rows[0][1].value == 3.0

    def test_set_gauges_rejected_on_counter(self):
        with pytest.raises(ValueError):
            MetricFamily("n", "counter").set_gauges({(): 1.0})

    def test_aggregate_counter_and_gauge(self):
        counters = MetricFamily("reqs", "counter", ("proxy",))
        assert counters.aggregate() is None
        counters.labels(proxy="p0").inc(3)
        counters.labels(proxy="p1").inc(5)
        assert counters.aggregate() == 8.0          # default: sum
        assert counters.aggregate("max") == 5.0
        gauges = MetricFamily("depth", "gauge", ("channel",))
        gauges.labels(channel="a").set(2.0)
        gauges.labels(channel="b").set(9.0)
        assert gauges.aggregate() == 9.0            # default: max
        assert gauges.aggregate("mean") == pytest.approx(5.5)

    def test_aggregate_histogram_percentile(self):
        family = MetricFamily("lat", "histogram", ("node",))
        for i in range(10):
            family.labels(node="n0").observe(1.0 + i * 0.1)
        family.labels(node="n1").observe(400.0)
        p99 = family.aggregate("p99")
        assert p99 > 100.0  # the cross-node merge sees the outlier
        assert family.aggregate("count") == 11.0

    def test_remove(self):
        family = MetricFamily("lag", "gauge", ("channel",))
        family.labels(channel="a")
        assert family.remove(channel="a") is True
        assert family.remove(channel="a") is False
        assert len(family) == 0


class TestLatencyWindow:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            LatencyWindow(window_ms=0.0)

    def test_count_prunes_old_samples(self):
        window = LatencyWindow(window_ms=100.0)
        window.record(0.0, 5.0)
        window.record(50.0, 7.0)
        window.record(120.0, 9.0)
        assert window.count(130.0) == 2   # the t=0 sample fell out
        assert window.count(500.0) == 0

    def test_qps_over_window(self):
        window = LatencyWindow(window_ms=1_000.0)
        for t in range(10):
            window.record(float(t), 1.0)
        assert window.qps(10.0) == pytest.approx(10.0)

    def test_mean_and_empty(self):
        window = LatencyWindow(window_ms=1_000.0)
        assert window.mean(0.0) is None
        window.record(0.0, 2.0)
        window.record(1.0, 4.0)
        assert window.mean(1.0) == pytest.approx(3.0)

    def test_percentile_rank_math(self):
        window = LatencyWindow(window_ms=10_000.0)
        for i, lat in enumerate([10.0, 20.0, 30.0, 40.0, 50.0]):
            window.record(float(i), lat)
        assert window.percentile(5.0, 0) == 10.0
        assert window.percentile(5.0, 50) == 30.0
        assert window.percentile(5.0, 100) == 50.0
        # Out-of-range percentiles clamp instead of indexing out of bounds.
        assert window.percentile(5.0, 200) == 50.0
        assert LatencyWindow().percentile(0.0, 99) is None

    def test_record_prunes_without_reads(self):
        """Regression: a window that is written but never queried used to
        grow without bound; record() itself must prune expired samples."""
        window = LatencyWindow(window_ms=100.0)
        for t in range(10_000):
            window.record(float(t), 1.0)
        # Only the samples inside the trailing 100 ms survive.
        assert len(window) <= 101

    def test_max_samples_caps_burst_within_window(self):
        window = LatencyWindow(window_ms=1e9, max_samples=16)
        for _ in range(1_000):
            window.record(0.0, 1.0)
        assert len(window) == 16


class TestMetricsRegistry:
    def test_namespacing_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter_family("a.b").labels() \
            is registry.counter_family("a.b").labels()
        assert registry.gauge_family("g").labels() \
            is registry.gauge_family("g").labels()
        assert registry.latency("l") is registry.latency("l")
        assert registry.counter_family("a.b").labels() \
            is not registry.counter_family("a.c").labels()

    def test_snapshot_keys(self):
        registry = MetricsRegistry()
        registry.counter_family("reqs").labels().inc(3)
        registry.gauge_family("mem").labels().set(42.0)
        registry.latency("lat").record(0.0, 8.0)
        snap = registry.snapshot(1.0)
        assert snap["reqs.count"] == 3.0
        assert snap["mem.value"] == 42.0
        assert snap["lat.mean_ms"] == pytest.approx(8.0)
        assert "lat.qps" in snap

    def test_snapshot_omits_empty_window_mean(self):
        registry = MetricsRegistry()
        registry.latency("lat")
        snap = registry.snapshot(0.0)
        assert "lat.mean_ms" not in snap
        assert snap["lat.qps"] == 0.0


class TestRequestLatencyWindows:
    """Every proxy request type records into its own metric window."""

    @pytest.fixture
    def loaded_cluster(self, rng):
        cluster = ManuCluster(num_query_nodes=2)
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16),
            FieldSchema("price", DataType.FLOAT),
        ])
        cluster.create_collection("c", schema)
        data = {"vector": rng.standard_normal((80, 16)).astype(np.float32),
                "price": rng.uniform(0, 100, 80)}
        cluster.insert("c", data)
        cluster.run_for(200)
        return cluster, data

    def test_search_latency_recorded(self, loaded_cluster):
        cluster, data = loaded_cluster
        cluster.search("c", data["vector"][0], 5,
                       consistency=ConsistencyLevel.STRONG)
        window = cluster.metrics.latency("proxy.search_latency")
        assert window.count(cluster.now()) == 1

    def test_range_search_latency_recorded(self, loaded_cluster):
        cluster, data = loaded_cluster
        cluster.proxies[0].range_search("c", data["vector"][0], radius=50.0,
                                        consistency=ConsistencyLevel.STRONG)
        window = cluster.metrics.latency("proxy.range_search_latency")
        assert window.count(cluster.now()) == 1

    def test_multivector_latency_recorded(self, loaded_cluster):
        cluster, data = loaded_cluster
        from repro.core.multivector import MultiVectorQuery
        query = MultiVectorQuery(fields=("vector",),
                                 queries={"vector": data["vector"][1]},
                                 weights={"vector": 1.0},
                                 metric=MetricType.EUCLIDEAN)
        cluster.proxies[0].search_multivector(
            "c", query, 5, consistency=ConsistencyLevel.STRONG)
        window = cluster.metrics.latency("proxy.multivector_latency")
        assert window.count(cluster.now()) == 1


class TestDashboardSmoke:
    def test_render_live_cluster(self, rng):
        cluster = ManuCluster(num_query_nodes=2, num_index_nodes=1)
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16)])
        cluster.create_collection("c", schema)
        cluster.insert("c", {
            "vector": rng.standard_normal((120, 16)).astype(np.float32)})
        cluster.run_for(300)
        cluster.flush("c")
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN,
                             {"nlist": 4, "nprobe": 4})
        cluster.wait_for_indexes("c")
        cluster.search("c", rng.standard_normal(16).astype(np.float32), 3,
                       consistency=ConsistencyLevel.STRONG)

        text = dashboard.render(cluster)
        assert "MANU SYSTEM VIEW" in text
        assert "QUERY NODES" in text
        assert "INDEX NODES" in text
        assert "COLLECTIONS" in text
        assert "c" in text
        assert "IVF_FLAT" in text
        # Telemetry-plane panels: cluster health plus the backbone view.
        assert "cluster health: healthy" in text
        assert "BACKBONE" in text
        assert "wal/c/shard-" in text
        assert "backlog" in text
        # Every line stays within a terminal-ish width.
        assert all(len(line) < 100 for line in text.splitlines())

    def test_render_empty_cluster(self):
        cluster = ManuCluster()
        text = dashboard.render(cluster)
        assert "MANU SYSTEM VIEW" in text
        assert "COLLECTIONS" in text
        assert "cluster health: healthy" in text

    def test_render_shows_down_node_and_firing_alert(self, rng):
        cluster = ManuCluster(num_query_nodes=2)
        cluster.alerts.add_rule_text(
            "node-down", "component_health.max >= 2")
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16)])
        cluster.create_collection("c", schema)
        cluster.insert("c", {
            "vector": rng.standard_normal((40, 16)).astype(np.float32)})
        cluster.run_for(300)
        victim = cluster.query_coord.node_names[0]
        cluster.fail_query_node(victim)
        cluster.run_for(300)
        text = dashboard.system_view(cluster)
        assert "cluster health: down" in text
        assert "FIRING: node-down" in text
        assert f"{victim:8s} DOWN" in text
