"""Telemetry plane: exposition round-trip, health states, SLO alerts,
the flight recorder, the REST observability routes and the cluster
telemetry sampler."""

import json

import numpy as np
import pytest

from repro.api.rest import RestApi
from repro.cluster.manu import ManuCluster
from repro.cluster.scaling import Autoscaler
from repro.config import ManuConfig, MonitoringConfig, ScalingConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.monitoring.alerts import (
    AlertEngine,
    AlertRule,
    resolve_signal,
)
from repro.monitoring.exposition import (
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
)
from repro.monitoring.flight_recorder import FlightRecorder
from repro.monitoring.health import HealthState, HealthTracker
from repro.monitoring.metrics import MetricsRegistry


class FakeClock:
    def __init__(self, now_ms: float = 0.0) -> None:
        self.now_ms = now_ms

    def __call__(self) -> float:
        return self.now_ms

    def advance(self, ms: float) -> None:
        self.now_ms += ms


def loaded_cluster(rng, **kwargs) -> ManuCluster:
    cluster = ManuCluster(num_query_nodes=2, **kwargs)
    schema = CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16)])
    cluster.create_collection("c", schema)
    cluster.insert("c", {
        "vector": rng.standard_normal((60, 16)).astype(np.float32)})
    cluster.run_for(300)
    return cluster


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------

class TestExposition:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("proxy.p0.searches") \
            == "proxy_p0_searches"
        assert sanitize_metric_name("wal/c/shard-0") == "wal_c_shard_0"
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_round_trip_counters_gauges(self):
        registry = MetricsRegistry()
        registry.counter_family("proxy.p0.searches").labels().inc(7)
        registry.gauge_family("wal_subscriber_lag",
                              ("channel", "subscriber")) \
            .labels(channel="wal/c/shard-0", subscriber="qn-0").set(12.0)
        text = registry.expose_text(0.0)
        assert text == render_exposition(registry, 0.0)
        series = parse_exposition(text)
        assert series[("proxy_p0_searches", ())] == 7.0
        assert series[("wal_subscriber_lag",
                       (("channel", "wal/c/shard-0"),
                        ("subscriber", "qn-0")))] == 12.0

    def test_histogram_exposition_shape(self):
        registry = MetricsRegistry()
        family = registry.histogram_family("search_latency", ("proxy",))
        child = family.labels(proxy="p0")
        for value in (1.0, 3.0, 700.0):
            child.observe(value)
        series = parse_exposition(registry.expose_text(0.0))
        labels = (("proxy", "p0"),)
        assert series[("search_latency_count", labels)] == 3.0
        assert series[("search_latency_sum", labels)] \
            == pytest.approx(704.0)
        # The +Inf bucket carries the total count.
        assert series[("search_latency_bucket",
                       tuple(sorted(labels + (("le", "+Inf"),))))] == 3.0
        # Per-child labeled percentile and the unlabeled aggregate.
        assert ("search_latency_p99", labels) in series
        assert ("search_latency_p99", ()) in series

    def test_windows_rendered(self):
        registry = MetricsRegistry()
        registry.latency("proxy.search_latency").record(0.0, 8.0)
        series = parse_exposition(registry.expose_text(1.0))
        assert series[("proxy_search_latency_count", ())] == 1.0
        assert series[("proxy_search_latency_mean_ms", ())] \
            == pytest.approx(8.0)
        assert ("proxy_search_latency_p99", ()) in series

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        registry.gauge_family("g", ("k",)).labels(k=tricky).set(1.0)
        series = parse_exposition(registry.expose_text(0.0))
        assert series[("g", (("k", tricky),))] == 1.0

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_exposition("# BOGUS comment\n")
        with pytest.raises(ValueError):
            parse_exposition('name{k="v" 1.0\n')


# ----------------------------------------------------------------------
# health
# ----------------------------------------------------------------------

class TestHealthTracker:
    def make(self):
        clock = FakeClock()
        tracker = HealthTracker(clock, heartbeat_interval_ms=100,
                                degraded_after_beats=2, down_after_beats=4)
        return clock, tracker

    def test_states_decay_with_staleness(self):
        clock, tracker = self.make()
        tracker.beat("query-node:qn-0")
        assert tracker.state("query-node:qn-0") is HealthState.HEALTHY
        clock.advance(250)   # > 2 beats, <= 4 beats
        assert tracker.state("query-node:qn-0") is HealthState.DEGRADED
        clock.advance(250)   # > 4 beats
        assert tracker.state("query-node:qn-0") is HealthState.DOWN
        assert tracker.worst() is HealthState.DOWN

    def test_mark_down_is_immediate_and_beat_revives(self):
        clock, tracker = self.make()
        tracker.beat("qn-0")
        tracker.mark_down("qn-0")
        assert tracker.state("qn-0") is HealthState.DOWN
        assert tracker.down_components() == ["qn-0"]
        tracker.beat("qn-0")
        assert tracker.state("qn-0") is HealthState.HEALTHY

    def test_mark_down_on_never_seen_component(self):
        _, tracker = self.make()
        tracker.mark_down("ghost")
        assert tracker.state("ghost") is HealthState.DOWN

    def test_forget_is_not_an_outage(self):
        _, tracker = self.make()
        tracker.beat("qn-0")
        tracker.forget("qn-0")
        assert tracker.state("qn-0") is None
        assert tracker.worst() is HealthState.HEALTHY

    def test_worst_of_empty_is_healthy(self):
        _, tracker = self.make()
        assert tracker.worst() is HealthState.HEALTHY

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            HealthTracker(FakeClock(), heartbeat_interval_ms=0)
        with pytest.raises(ValueError):
            HealthTracker(FakeClock(), degraded_after_beats=4,
                          down_after_beats=2)


# ----------------------------------------------------------------------
# alerts
# ----------------------------------------------------------------------

class TestAlertRuleParse:
    def test_full_form(self):
        rule = AlertRule.parse("slow", "search_latency.p99 > 20 for 5s")
        assert rule.signal == "search_latency"
        assert rule.agg == "p99"
        assert rule.op == ">"
        assert rule.threshold == 20.0
        assert rule.sustained_for_ms == 5000.0

    def test_no_agg_no_duration(self):
        rule = AlertRule.parse("lag", "wal_subscriber_lag >= 100")
        assert rule.agg is None
        assert rule.sustained_for_ms == 0.0

    def test_dotted_signal_keeps_its_dots(self):
        # Only a known aggregation name splits off the tail.
        rule = AlertRule.parse("w", "proxy.search_latency.mean > 5")
        assert rule.signal == "proxy.search_latency"
        assert rule.agg == "mean"

    def test_ms_duration(self):
        rule = AlertRule.parse("r", "x.max > 1 for 250ms")
        assert rule.sustained_for_ms == 250.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            AlertRule.parse("r", "no comparison here")
        with pytest.raises(ValueError):
            AlertRule.parse("r", "x == 5")

    def test_condition_text_round_trips(self):
        rule = AlertRule.parse("r", "sig.p95 > 10 for 2s")
        again = AlertRule.parse("r", rule.condition_text())
        assert again == rule


class TestResolveSignal:
    def test_missing_signal_is_none(self):
        assert resolve_signal(MetricsRegistry(), "nope", None, 0.0) is None

    def test_family_and_window(self):
        registry = MetricsRegistry()
        registry.gauge_family("lag", ("c",)).labels(c="x").set(9.0)
        registry.latency("w").record(0.0, 4.0)
        assert resolve_signal(registry, "lag", "max", 0.0) == 9.0
        assert resolve_signal(registry, "w", "mean", 1.0) \
            == pytest.approx(4.0)
        assert resolve_signal(registry, "w", "count", 1.0) == 1.0
        assert resolve_signal(registry, "w", "p99", 1.0) \
            == pytest.approx(4.0)

    def test_empty_family_is_none(self):
        registry = MetricsRegistry()
        registry.gauge_family("lag", ("c",))
        assert resolve_signal(registry, "lag", "max", 0.0) is None


class TestAlertEngine:
    def make(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        engine = AlertEngine(registry=registry, clock_ms=clock)
        return clock, registry, engine

    def test_fires_once_per_episode_and_rearms(self):
        clock, registry, engine = self.make()
        engine.add_rule_text("hot", "depth.max > 10")
        gauge = registry.gauge_family("depth", ("c",)).labels(c="x")

        gauge.set(50.0)
        assert [e.rule.name for e in engine.evaluate()] == ["hot"]
        assert engine.firing() == ["hot"]
        # Still breached: no duplicate event.
        assert engine.evaluate() == []
        # Clears, re-arms, fires again on the next breach.
        gauge.set(0.0)
        assert engine.evaluate() == []
        assert engine.firing() == []
        gauge.set(99.0)
        fired = engine.evaluate()
        assert len(fired) == 1 and fired[0].value == 99.0
        assert len(engine.history) == 2

    def test_sustained_for_defers_firing(self):
        clock, registry, engine = self.make()
        engine.add_rule_text("slow", "depth.max > 10 for 500ms")
        gauge = registry.gauge_family("depth", ("c",)).labels(c="x")
        gauge.set(50.0)
        assert engine.evaluate() == []      # breach starts the clock
        clock.advance(400)
        assert engine.evaluate() == []      # not sustained yet
        clock.advance(200)
        assert len(engine.evaluate()) == 1  # 600 ms > 500 ms
        # A dip resets the sustain clock.
        gauge.set(0.0)
        engine.evaluate()
        gauge.set(50.0)
        clock.advance(100)
        assert engine.evaluate() == []

    def test_missing_signal_never_fires(self):
        _, _, engine = self.make()
        engine.add_rule_text("ghost", "does_not_exist.max > 0")
        assert engine.evaluate() == []
        assert engine.firing() == []
        assert engine.status()["ghost"]["value"] is None

    def test_duplicate_rule_name_rejected(self):
        _, _, engine = self.make()
        engine.add_rule_text("r", "x.max > 1")
        with pytest.raises(ValueError):
            engine.add_rule_text("r", "y.max > 2")

    def test_on_fire_callback(self):
        _, registry, engine = self.make()
        events = []
        engine.on_fire(events.append)
        engine.add_rule_text("hot", "depth.max > 10")
        registry.gauge_family("depth", ("c",)).labels(c="x").set(11.0)
        engine.evaluate()
        assert len(events) == 1
        assert events[0].rule.name == "hot"


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_bundle_contents_and_ring(self, tmp_path):
        clock = FakeClock(1234.0)
        registry = MetricsRegistry()
        registry.counter_family("reqs").labels().inc(5)
        health = HealthTracker(clock)
        health.beat("qn-0")
        recorder = FlightRecorder(clock, registry, health=health,
                                  capacity=2)
        recorder.record("manual", extra={"note": "hi"})
        bundle = recorder.last()
        assert bundle["reason"] == "manual"
        assert bundle["at_ms"] == 1234.0
        assert bundle["metrics"]["reqs.count"] == 5.0
        assert bundle["health"] == {"qn-0": "healthy"}
        assert bundle["extra"] == {"note": "hi"}
        # Ring keeps only the newest `capacity` bundles.
        recorder.record("second")
        recorder.record("third")
        assert [b["reason"] for b in recorder.bundles] \
            == ["second", "third"]
        path = tmp_path / "flight.json"
        recorder.dump(str(path))
        assert json.loads(path.read_text())[1]["reason"] == "third"

    def test_traces_included(self, rng):
        cluster = loaded_cluster(rng)
        cluster.search("c", np.zeros(16, dtype=np.float32), 3,
                       consistency=ConsistencyLevel.STRONG)
        bundle = cluster.flight_recorder.record("manual")
        assert bundle["traces"]
        spans = next(iter(bundle["traces"].values()))
        assert {"name", "component", "start_ms", "status"} \
            <= set(spans[0])
        assert bundle["topology"]
        # The whole bundle is JSON-serializable.
        json.dumps(bundle)


# ----------------------------------------------------------------------
# cluster sampler + REST routes
# ----------------------------------------------------------------------

class TestClusterTelemetry:
    def test_sample_telemetry_populates_gauges(self, rng):
        cluster = loaded_cluster(rng)
        cluster.sample_telemetry()
        snap = cluster.metrics.snapshot(cluster.now())
        assert any(key.startswith("wal_subscriber_lag{")
                   for key in snap)
        assert any(key.startswith("timetick_staleness_ms{")
                   for key in snap)
        assert any(key.startswith("watermark_lag_ms{") for key in snap)
        assert any(key.startswith("component_health{") for key in snap)
        assert any(key.startswith("flush_backlog{") for key in snap)

    def test_dead_subscriber_series_disappear(self, rng):
        cluster = loaded_cluster(rng)
        cluster.sample_telemetry()
        family = cluster.metrics.families["wal_subscriber_lag"]
        before = len(family)
        assert before > 0
        cluster.fail_query_node(cluster.query_coord.node_names[0])
        cluster.run_for(200)
        cluster.sample_telemetry()
        # Handoff rewired the channels; no series is frozen at a stale
        # value for a subscriber that no longer exists.
        live = {sub.name for sub in cluster.broker.subscriptions()}
        for labels, _ in family.samples():
            assert labels["subscriber"] in live

    def test_heartbeat_tracks_all_component_kinds(self, rng):
        cluster = loaded_cluster(rng)
        components = cluster.health.components()
        for prefix in ("query-node:", "data-node:", "index-node:",
                       "proxy:", "logger:"):
            assert any(c.startswith(prefix) for c in components), prefix
        assert cluster.health.worst() is HealthState.HEALTHY

    def test_health_snapshot_shape(self, rng):
        cluster = loaded_cluster(rng)
        snapshot = cluster.health_snapshot()
        assert snapshot["status"] == "healthy"
        assert all(state in ("healthy", "degraded", "down")
                   for state in snapshot["components"].values())
        assert snapshot["firing"] == []

    def test_rest_system_metrics_healthz(self, rng):
        cluster = loaded_cluster(rng)
        cluster.search("c", np.zeros(16, dtype=np.float32), 3,
                       consistency=ConsistencyLevel.STRONG)
        api = RestApi(cluster)

        status, body = api.handle("GET", "/system")
        assert status == 200
        assert body["query_nodes"] == 2
        assert "metrics" in body

        status, body = api.handle("GET", "/metrics")
        assert status == 200
        series = parse_exposition(body["text"])
        assert ("search_latency_p99", ()) in series
        assert any(name == "wal_subscriber_lag"
                   and any(k == "channel" for k, _ in labels)
                   for name, labels in series)

        status, body = api.handle("GET", "/healthz")
        assert status == 200
        assert body["status"] == "healthy"

    def test_rest_healthz_503_when_down(self, rng):
        cluster = loaded_cluster(rng)
        cluster.fail_query_node(cluster.query_coord.node_names[0])
        status, body = RestApi(cluster).handle("GET", "/healthz")
        assert status == 503
        assert body["status"] == "down"

    def test_configured_alert_rules_installed(self, rng):
        config = ManuConfig(monitoring=MonitoringConfig(
            alert_rules=(("slow-search",
                          "search_latency.p99 > 0.001 for 100ms"),)))
        cluster = ManuCluster(config=config, num_query_nodes=2)
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16)])
        cluster.create_collection("c", schema)
        cluster.insert("c", {"vector": np.random.default_rng(0)
                             .standard_normal((40, 16))
                             .astype(np.float32)})
        cluster.run_for(300)
        cluster.search("c", np.zeros(16, dtype=np.float32), 3,
                       consistency=ConsistencyLevel.STRONG)
        # Any real search latency breaches the absurd threshold; the
        # telemetry timer evaluates and trips the flight recorder.
        cluster.run_for(1_000)
        assert "slow-search" in cluster.alerts.firing()
        bundle = cluster.flight_recorder.last()
        assert bundle is not None
        assert bundle["reason"] == "alert:slow-search"


# ----------------------------------------------------------------------
# lag-aware autoscaler
# ----------------------------------------------------------------------

class TestLagAwareAutoscaler:
    def _cluster(self, **scaling_kwargs):
        policy = ScalingConfig(latency_high_ms=100, latency_low_ms=20,
                               min_query_nodes=1, max_query_nodes=8,
                               evaluation_interval_ms=1000,
                               **scaling_kwargs)
        return ManuCluster(config=ManuConfig(scaling=policy),
                           num_query_nodes=2)

    def test_lag_breach_scales_up(self):
        cluster = self._cluster(lag_high_records=10.0)
        scaler = Autoscaler(cluster)
        cluster.metrics.gauge_family(
            "wal_subscriber_lag", ("channel", "subscriber")) \
            .labels(channel="wal/c/shard-0", subscriber="qn-0").set(500.0)
        event = scaler.evaluate()
        assert event is not None
        assert event.action == "up"
        assert event.reason == "lag"
        assert cluster.num_query_nodes == 4

    def test_lag_breach_vetoes_scale_down(self):
        cluster = self._cluster(lag_high_records=10.0)
        scaler = Autoscaler(cluster)
        cluster.metrics.latency("proxy.search_latency").record(
            cluster.now(), 5.0)   # well under the low band
        cluster.metrics.gauge_family(
            "wal_subscriber_lag", ("channel", "subscriber")) \
            .labels(channel="wal/c/shard-0", subscriber="qn-0").set(500.0)
        event = scaler.evaluate()
        # Lag forces up, not down, even with rosy latency.
        assert event is not None and event.action == "up"

    def test_lag_disabled_by_default(self):
        cluster = self._cluster()   # lag_high_records=0 → ignored
        scaler = Autoscaler(cluster)
        cluster.metrics.gauge_family(
            "wal_subscriber_lag", ("channel", "subscriber")) \
            .labels(channel="wal/c/shard-0", subscriber="qn-0").set(1e9)
        assert scaler.evaluate() is None
        assert cluster.num_query_nodes == 2

    def test_custom_latency_signal_from_config(self):
        cluster = self._cluster(latency_signal="custom.window",
                                latency_agg="p99")
        scaler = Autoscaler(cluster)
        cluster.metrics.latency("custom.window").record(
            cluster.now(), 500.0)
        event = scaler.evaluate()
        assert event is not None and event.action == "up"

    def test_empty_registry_is_noop(self):
        cluster = self._cluster(lag_high_records=10.0)
        scaler = Autoscaler(cluster)
        assert scaler.evaluate() is None
        assert cluster.num_query_nodes == 2
