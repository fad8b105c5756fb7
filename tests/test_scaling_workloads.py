"""Tests for the autoscaler, workload generators and monitoring metrics."""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.cluster.scaling import Autoscaler
from repro.config import ManuConfig, ScalingConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.monitoring.metrics import (
    Counter,
    Gauge,
    LatencyWindow,
    MetricsRegistry,
)
from repro.sim.workloads import (
    InsertDriver,
    SearchDriver,
    diurnal_traffic,
    poisson_arrivals,
)


@pytest.fixture
def schema():
    return CollectionSchema(
        [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])


class TestMetrics:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_latency_window_pruning(self):
        window = LatencyWindow(window_ms=100)
        window.record(0, 10)
        window.record(50, 20)
        window.record(140, 30)
        assert window.count(150) == 2  # first sample pruned
        assert window.mean(150) == 25

    def test_qps(self):
        window = LatencyWindow(window_ms=1000)
        for t in range(10):
            window.record(t * 10, 1.0)
        assert window.qps(100) == pytest.approx(10.0)

    def test_percentile(self):
        window = LatencyWindow(window_ms=1000)
        for lat in range(1, 101):
            window.record(0, float(lat))
        assert window.percentile(10, 50) == pytest.approx(50, abs=2)
        assert window.percentile(10, 99) == pytest.approx(99, abs=2)
        assert LatencyWindow().percentile(0, 50) is None

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.counter_family("a").labels().inc()
        registry.gauge_family("b").labels().set(3)
        registry.latency("c").record(0, 5.0)
        snap = registry.snapshot(now_ms=1.0)
        assert snap["a.count"] == 1
        assert snap["b.value"] == 3
        assert snap["c.mean_ms"] == 5.0


class TestWorkloads:
    def test_diurnal_shape(self):
        hours = np.arange(0, 24, 0.5)
        qps = diurnal_traffic(hours)
        assert qps.min() > 0
        peak_hour = hours[qps.argmax()]
        valley_hour = hours[qps.argmin()]
        assert 18 <= peak_hour <= 23  # evening peak
        assert 4 <= valley_hour <= 12  # morning valley
        assert qps.max() / qps.min() > 4  # violent fluctuation

    def test_promo_spike_visible(self):
        hours = np.arange(0, 24, 0.25)
        base = diurnal_traffic(hours, promo_hours=())
        promo = diurnal_traffic(hours, promo_hours=(10.0,))
        at_ten = np.argmin(np.abs(hours - 10.0))
        assert promo[at_ten] > base[at_ten] * 1.5

    def test_poisson_arrivals_rate(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(100.0, 10_000.0, rng)
        assert 800 <= len(times) <= 1200  # ~1000 expected
        assert (np.diff(times) >= 0).all()
        assert len(poisson_arrivals(0.0, 1000, rng)) == 0

    def test_insert_driver_schedules(self, schema, rng):
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", schema)
        vectors = rng.standard_normal((500, 8)).astype(np.float32)
        driver = InsertDriver(cluster, "c", vectors, rate_per_s=1000,
                              batch_size=50)
        driver.start(duration_ms=400)
        cluster.run_for(1000)
        assert driver.inserted == 400  # 1000/s * 0.4s
        assert cluster.collection_row_count("c") == 400

    def test_search_driver_records_latencies(self, schema, rng):
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", schema)
        cluster.insert("c", {"vector": rng.standard_normal(
            (100, 8)).astype(np.float32)})
        cluster.run_for(200)
        driver = SearchDriver(cluster, "c",
                              rng.standard_normal((10, 8)).astype(
                                  np.float32), k=5)
        driver.run_at(np.array([300.0, 350.0, 400.0]))
        assert len(driver.latencies_ms) == 3
        assert driver.mean_latency() > 0


class TestAutoscaler:
    def _cluster(self):
        policy = ScalingConfig(latency_high_ms=100, latency_low_ms=20,
                               min_query_nodes=1, max_query_nodes=8,
                               evaluation_interval_ms=1000)
        config = ManuConfig(scaling=policy)
        return ManuCluster(config=config, num_query_nodes=2)

    def test_scales_up_on_high_latency(self, schema):
        cluster = self._cluster()
        scaler = Autoscaler(cluster)
        cluster.metrics.latency("proxy.search_latency").record(
            cluster.now(), 500.0)
        event = scaler.evaluate()
        assert event is not None and event.action == "up"
        assert cluster.num_query_nodes == 4

    def test_scales_down_on_low_latency(self, schema):
        cluster = self._cluster()
        cluster.create_collection("c", schema)
        scaler = Autoscaler(cluster)
        cluster.metrics.latency("proxy.search_latency").record(
            cluster.now(), 5.0)
        event = scaler.evaluate()
        assert event is not None and event.action == "down"
        assert cluster.num_query_nodes == 1

    def test_no_signal_no_action(self):
        cluster = self._cluster()
        scaler = Autoscaler(cluster)
        assert scaler.evaluate() is None
        assert cluster.num_query_nodes == 2

    def test_in_band_no_action(self):
        cluster = self._cluster()
        scaler = Autoscaler(cluster)
        cluster.metrics.latency("proxy.search_latency").record(
            cluster.now(), 50.0)
        assert scaler.evaluate() is None

    def test_respects_max(self):
        cluster = self._cluster()
        scaler = Autoscaler(cluster)
        for _ in range(5):
            cluster.metrics.latency("proxy.search_latency").record(
                cluster.now(), 500.0)
            scaler.evaluate()
        assert cluster.num_query_nodes <= 8

    def test_periodic_evaluation(self, schema):
        cluster = self._cluster()
        scaler = Autoscaler(cluster)
        scaler.start()
        cluster.metrics.latency("proxy.search_latency").record(
            cluster.now(), 500.0)
        cluster.run_for(1500)
        scaler.stop()
        assert scaler.events and scaler.events[0].action == "up"
