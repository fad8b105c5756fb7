"""Tests for the query profiling & cost accounting plane (DESIGN.md §6g).

Four pillars:

* **EXPLAIN ANALYZE exactness** — per-segment scan counters sum to each
  node stage, node stages sum to the request totals, on a multi-segment
  multi-node collection;
* **slow-query capture** — the virtual-time threshold ring captures an
  injected slow scan with a trace id resolvable in the TraceCollector,
  and evicts FIFO at capacity;
* **per-tenant read/write units** — cumulative metering across inserts
  and searches, surviving ``/metrics`` exposition;
* **zero-overhead off switch** — with ``explain=False`` and the slow
  log disarmed, the serving path builds no profile objects at all.

Plus the metric↔trace exemplar linkage: latency-histogram buckets carry
the most recent sampled trace id and round-trip through the exposition
parser.
"""

import json

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, ProfilingConfig, SegmentConfig, \
    TracingConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.index.base import STAT_FIELDS, SearchStats
from repro.monitoring.exposition import parse_exemplars, parse_exposition
from repro.monitoring.metrics import Histogram, MetricsRegistry
from repro.profiling import (
    SCAN_COUNTERS,
    QueryProfile,
    SlowQueryLog,
    sum_counters,
)
from repro.tenancy.metering import (
    CostMeter,
    READ_UNIT_BYTES,
    READ_UNIT_ROWS,
)
from repro.tracing import NOOP_TRACER, TraceCollector

DIM = 8


def _schema() -> CollectionSchema:
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
    ])


def _vectors(rng, n):
    return rng.standard_normal((n, DIM)).astype(np.float32)


def _profiled_cluster(threshold_ms=0.0, capacity=32,
                      tracing=TracingConfig(), **kwargs):
    cfg = ManuConfig().with_overrides(
        profiling=ProfilingConfig(slow_query_threshold_ms=threshold_ms,
                                  slow_query_capacity=capacity),
        segment=SegmentConfig(seal_entity_count=128), tracing=tracing)
    kwargs.setdefault("num_query_nodes", 2)
    return ManuCluster(config=cfg, **kwargs)


def _fill(cluster, rng, rows=320, collection="c", tenant=None):
    """Insert across several sealing rounds so search spans segments."""
    pk = 0
    for _ in range(max(1, rows // 64)):
        data = {"pk": list(range(pk, pk + 64)),
                "vector": _vectors(rng, 64)}
        if tenant is None:
            cluster.insert(collection, data)
        else:
            cluster.insert(collection, data, tenant=tenant)
        pk += 64
        cluster.run_for(200)
    cluster.flush(collection)
    cluster.run_for(2_000)


# ----------------------------------------------------------------------
# unit: profile tree
# ----------------------------------------------------------------------


def _profile(nodes=(), latency_ms=1.0, wait_ms=0.0, collection="c", nq=1,
             k=5):
    """A profile read off a hand-made trace of one search: ``nodes`` is
    ``(node, its counters, [(segment, its counters)])`` per node."""
    tracer = TraceCollector(lambda: 0.0)
    root = tracer.start_span("proxy.search", "proxy:p0", start_ms=0.0,
                             collection=collection, nq=nq, k=k)
    tracer.record_span("proxy.consistency_wait", "proxy:p0", parent=root,
                       start_ms=0.0, end_ms=wait_ms)
    for name, counters, segments in nodes:
        children = [("segment.scan", wait_ms, wait_ms,
                     {"segment": segment, "path": "brute", "rows": 10,
                      **own}) for segment, own in segments]
        children.append(("query_node.reduce", wait_ms, wait_ms,
                         {"segments": len(segments)}))
        tracer.record_tree(
            "query_node.scan", f"query-node:{name}", root, wait_ms,
            latency_ms, {"queue_ms": 0.0, "service_ms": 0.5,
                         "segments": len(segments), **counters},
            len(children), lambda children=children: children)
    tracer.record_tree("proxy.merge", "proxy:p0", root, latency_ms,
                       latency_ms, {"nodes": len(nodes), "merge_ms": 0.0,
                                    "batches_merged": len(nodes)})
    tracer.finish_span(root, end_ms=latency_ms)
    return QueryProfile(tracer.span_tree(root.trace_id))


class TestQueryProfileUnit:
    def test_scan_counters_mirror_search_stats(self):
        assert SCAN_COUNTERS == STAT_FIELDS
        stats = SearchStats()
        assert set(stats.as_dict()) == set(SCAN_COUNTERS)

    def test_sum_counters(self):
        prof = _profile([("qn-0", {"rows_scanned": 3, "cache_hits": 1}, []),
                         ("qn-1", {"rows_scanned": 4}, [])])
        total = sum_counters(prof.node_stages())
        assert total["rows_scanned"] == 7
        assert total["cache_hits"] == 1
        assert total["graph_hops"] == 0

    def test_verify_catches_lost_work(self):
        prof = _profile([("qn-0", {"rows_scanned": 12},   # 2 rows vanished
                          [("s0", {"rows_scanned": 10})])])
        problems = prof.verify()
        assert any("rows_scanned" in p and "qn-0" in p for p in problems)

    def test_verify_passes_on_consistent_tree(self):
        counters = {"rows_scanned": 10, "brute_scans": 1}
        prof = _profile([("qn-0", counters, [("s0", counters)])])
        assert prof.verify() == []
        assert prof.totals()["rows_scanned"] == 10

    def test_explain_renders_tree_and_totals(self):
        prof = _profile([("qn-1", {"rows_scanned": 42},
                          [("s7", {"rows_scanned": 42})])],
                        latency_ms=1.25, wait_ms=0.5, collection="docs",
                        nq=2, k=3)
        text = prof.explain()
        assert text.startswith("EXPLAIN ANALYZE search collection='docs' "
                               "nq=2 k=3 latency=1.25ms trace=t000000")
        assert "segment.scan  segment=s7  path=brute  rows=10" in text
        assert "rows_scanned=42" in text
        assert "consistency_wait  wait_ms=0.50" in text
        assert "totals: rows_scanned=42" in text
        assert prof.consistency_wait_ms == 0.5
        assert prof.segments_searched == 1

    def test_to_dict_round_trips_structure(self):
        prof = _profile([("qn-0", {"rows_scanned": 1}, [])], k=1)
        d = prof.to_dict()
        assert d["tree"]["stage"] == "proxy.search"
        assert [child["stage"] for child in d["tree"]["children"]] == [
            "query_node.scan", "consistency_wait", "proxy.merge"]
        assert d["tree"]["children"][2]["counters"] == {"batches_merged": 1}


# ----------------------------------------------------------------------
# unit: slow-query ring
# ----------------------------------------------------------------------


def _profile_with_latency(latency_ms, collection="c"):
    return _profile([("qn-0", {}, [])], latency_ms=latency_ms,
                    collection=collection)


class TestSlowQueryLogUnit:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.observe(0.0, _profile_with_latency(999.0))
        assert len(log) == 0

    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0)
        assert not log.observe(1.0, _profile_with_latency(9.99))
        assert log.observe(2.0, _profile_with_latency(10.0))
        assert len(log) == 1

    def test_fifo_eviction_at_capacity(self):
        log = SlowQueryLog(threshold_ms=1.0, capacity=2)
        for i, latency in enumerate((5.0, 6.0, 7.0)):
            log.observe(float(i), _profile_with_latency(latency))
        assert len(log) == 2
        assert log.captured_total == 3
        # Oldest capture (latency 5.0) evicted; order oldest-first.
        assert [e.latency_ms for e in log.entries()] == [6.0, 7.0]

    def test_top_ranks_slowest_first(self):
        log = SlowQueryLog(threshold_ms=1.0, capacity=8)
        for i, latency in enumerate((5.0, 9.0, 7.0)):
            log.observe(float(i), _profile_with_latency(latency))
        assert [e.latency_ms for e in log.top(2)] == [9.0, 7.0]

    def test_json_dump(self, tmp_path):
        import json
        log = SlowQueryLog(threshold_ms=1.0, capacity=2)
        log.observe(3.0, _profile_with_latency(4.0, collection="docs"))
        path = tmp_path / "slowlog.json"
        log.dump(str(path))
        payload = json.loads(path.read_text())
        assert payload["threshold_ms"] == 1.0
        assert payload["entries"][0]["profile"]["collection"] == "docs"

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_ms=1.0, capacity=0)


# ----------------------------------------------------------------------
# unit: cost meter
# ----------------------------------------------------------------------


class TestCostMeterUnit:
    def test_read_unit_formula(self):
        meter = CostMeter()
        units = meter.charge_read("t", int(READ_UNIT_ROWS),
                                  int(READ_UNIT_BYTES))
        assert units == pytest.approx(2.0)
        usage = meter.usage("t")
        assert usage.rows_scanned == int(READ_UNIT_ROWS)
        assert usage.bytes_materialized == int(READ_UNIT_BYTES)

    def test_write_unit_is_per_row(self):
        meter = CostMeter()
        assert meter.charge_write("t", 7) == pytest.approx(7.0)
        assert meter.usage("t").rows_appended == 7

    def test_accumulates_across_charges(self):
        meter = CostMeter()
        meter.charge_read("t", 512)
        meter.charge_read("t", 512)
        assert meter.usage("t").read_units == pytest.approx(1.0)

    def test_top_by_cost_ranks_and_breaks_ties_by_name(self):
        meter = CostMeter()
        meter.charge_write("b", 5)
        meter.charge_write("a", 5)
        meter.charge_write("z", 50)
        ranked = [name for name, _ in meter.top_by_cost(3)]
        assert ranked == ["z", "a", "b"]

    def test_snapshot_is_json_ready(self):
        meter = CostMeter()
        meter.charge_read("t", 100, 200)
        snap = meter.snapshot()
        assert set(snap["t"]) == {"read_units", "write_units",
                                  "rows_scanned", "bytes_materialized",
                                  "rows_appended"}


# ----------------------------------------------------------------------
# unit: histogram exemplars + exposition round-trip
# ----------------------------------------------------------------------


class TestExemplars:
    def test_histogram_keeps_latest_exemplar_per_bucket(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5)
        assert hist.exemplars is None  # lazy: plain observes stay cheap
        hist.observe(0.7, exemplar="t000001")
        hist.observe(0.9, exemplar="t000002")
        hist.observe(5.0, exemplar="t000003")
        assert hist.exemplars[0] == ("t000002", 0.9)
        assert hist.exemplars[1] == ("t000003", 5.0)

    def test_merge_carries_exemplars(self):
        a = Histogram(buckets=(1.0,))
        b = Histogram(buckets=(1.0,))
        a.observe(0.5, exemplar="tA")
        b.observe(2.0, exemplar="tB")
        merged = a.merge(b)
        assert merged.exemplars[0] == ("tA", 0.5)
        assert merged.exemplars[1] == ("tB", 2.0)

    def test_exposition_renders_and_round_trips(self):
        registry = MetricsRegistry()
        family = registry.histogram_family(
            "search_latency", ("proxy",), help="latency", unit="ms",
            buckets=(1.0, 10.0))
        child = family.labels(proxy="p0")
        child.observe(0.5, exemplar="t000042")
        child.observe(5.0)
        text = registry.expose_text(0.0)
        assert '# {trace_id="t000042"} 0.5' in text
        # The series map is unchanged by the exemplar suffix...
        series = parse_exposition(text)
        key = ("search_latency_ms_bucket",
               (("le", "1.0"), ("proxy", "p0")))
        fallback = ("search_latency_bucket",
                    (("le", "1.0"), ("proxy", "p0")))
        assert series.get(key, series.get(fallback)) == 1.0
        # ...and the linkage is recoverable.
        exemplars = parse_exemplars(text)
        [(name_labels, (ex_labels, value))] = [
            (k, v) for k, v in exemplars.items()]
        assert dict(ex_labels) == {"trace_id": "t000042"}
        assert value == 0.5

    def test_parser_rejects_malformed_exemplar(self):
        bad = 'm_bucket{le="1.0"} 1.0 # {trace_id=oops} 0.5'
        with pytest.raises(ValueError):
            parse_exposition(bad)


# ----------------------------------------------------------------------
# end to end: EXPLAIN exactness
# ----------------------------------------------------------------------


class TestExplainEndToEnd:
    def test_counters_sum_exactly_multi_segment_multi_node(self):
        cluster = _profiled_cluster()
        rng = np.random.default_rng(0)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=384)
        result = cluster.search("c", _vectors(rng, 3), 5,
                                explain=True)[0]
        prof = result.profile
        assert prof is not None
        assert prof.verify() == []
        node_stages = prof.node_stages()
        assert len(node_stages) == 2  # both query nodes fanned out
        seg_stages = [s for stage in node_stages
                      for s in stage.stages("segment.scan")]
        assert len(seg_stages) >= 2  # several segments actually scanned
        # Manual re-check of the invariant, independent of verify().
        for key in SCAN_COUNTERS:
            seg_total = sum(s.counters.get(key, 0) for s in seg_stages)
            node_total = sum(s.counters.get(key, 0) for s in node_stages)
            assert seg_total == node_total == prof.totals()[key]
        # Real work was measured, not a tree of zeros.
        assert prof.totals()["rows_scanned"] > 0
        assert prof.totals()["float_comparisons"] > 0

    def test_all_results_of_batch_share_profile(self):
        cluster = _profiled_cluster()
        rng = np.random.default_rng(1)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=128)
        results = cluster.search("c", _vectors(rng, 4), 5, explain=True)
        assert len(results) == 4
        assert all(r.profile is results[0].profile for r in results)
        assert results[0].profile.nq == 4

    def test_indexed_path_reports_index_scans(self):
        cluster = _profiled_cluster()
        rng = np.random.default_rng(2)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=256)
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN,
                             {"nlist": 4, "nprobe": 4})
        assert cluster.wait_for_indexes("c")
        prof = cluster.search("c", _vectors(rng, 1), 5,
                              explain=True)[0].profile
        assert prof.verify() == []
        assert prof.totals()["index_scans"] > 0
        paths = {s.meta.get("path") for stage in prof.node_stages()
                 for s in stage.stages("segment.scan")}
        assert "index" in paths

    def test_filtered_search_profile_still_sums(self):
        """A filter expression must not break the sum invariant."""
        cluster = _profiled_cluster()
        rng = np.random.default_rng(3)
        schema = CollectionSchema([
            FieldSchema("pk", DataType.INT64, is_primary=True),
            FieldSchema("price", DataType.FLOAT),
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
        ])
        cluster.create_collection("c", schema)
        pk = 0
        for _ in range(4):
            cluster.insert("c", {
                "pk": list(range(pk, pk + 64)),
                "price": np.arange(pk, pk + 64, dtype=np.float64),
                "vector": _vectors(rng, 64)})
            pk += 64
            cluster.run_for(200)
        cluster.flush("c")
        cluster.run_for(2_000)
        result = cluster.search("c", _vectors(rng, 1), 5,
                                expr="price < 50", explain=True)[0]
        prof = result.profile
        assert prof.verify() == []
        assert prof.totals()["rows_scanned"] > 0
        assert all(hit.pk < 50 for hit in result)

    def test_post_filter_counts_pruned_candidates(self):
        """The post-filter index path charges candidate visit/prune work."""
        from repro.core.expr import FilterExpression
        from repro.core.filtering import FilterStrategy, filtered_search
        from repro.core.segment import Segment
        from repro.index.ivf import IvfFlatIndex

        rng = np.random.default_rng(3)
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
            FieldSchema("price", DataType.FLOAT),
        ])
        segment = Segment("s", "c", schema, SegmentConfig(slice_size=64))
        n = 256
        segment.append(list(range(n)), {
            "vector": _vectors(rng, n),
            "price": np.arange(n, dtype=np.float64)}, 1)
        segment.seal()
        index = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=8, nprobe=8)
        index.build(segment.column("vector"))
        segment.attach_index("vector", index)

        stats = SearchStats()
        filtered_search(segment, "vector", _vectors(rng, 1), 5,
                        MetricType.EUCLIDEAN,
                        FilterExpression("price >= 100 and price < 200"),
                        stats=stats, forced=FilterStrategy.POST_FILTER)
        assert stats.candidates_visited > 0
        assert stats.candidates_pruned > 0
        assert stats.index_scans > 0

    def test_deleted_rows_count_filter_hits(self):
        cluster = _profiled_cluster(num_query_nodes=1)
        rng = np.random.default_rng(4)
        cluster.create_collection("c", _schema())
        cluster.insert("c", {"pk": list(range(64)),
                             "vector": _vectors(rng, 64)})
        cluster.run_for(200)
        cluster.delete("c", "pk in [1, 2, 3]")
        cluster.run_for(200)
        prof = cluster.search("c", _vectors(rng, 1), 5,
                              explain=True)[0].profile
        assert prof.verify() == []
        assert prof.totals()["delete_filter_hits"] > 0

    def test_deleted_rows_profile_slowlog_and_flight_bundle_are_json(self):
        """Counters that went through the deletion bitmap used to be
        numpy integers, which ``json`` refuses."""
        cluster = _profiled_cluster(threshold_ms=0.05, num_query_nodes=1)
        rng = np.random.default_rng(4)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=192)
        cluster.create_index("c", "vector", "IVF_FLAT",
                             params={"nlist": 4, "nprobe": 4})
        assert cluster.wait_for_indexes("c")
        cluster.delete("c", "pk in [1, 2, 3, 130]")
        cluster.run_for(200)
        prof = cluster.search("c", _vectors(rng, 3), 5,
                              explain=True)[0].profile
        assert prof.totals()["candidates_visited"] > 0
        assert prof.totals()["delete_filter_hits"] > 0
        assert all(type(v) is int for v in prof.totals().values())
        assert json.loads(json.dumps(prof.to_dict()))["collection"] == "c"
        assert len(cluster.slowlog) == 1
        assert json.loads(cluster.slowlog.to_json())
        cluster.flight_recorder.record("test")
        assert json.loads(cluster.flight_recorder.to_json())[0][
            "slow_queries"]

    def test_explain_false_returns_no_profile(self):
        cluster = _profiled_cluster(num_query_nodes=1)
        rng = np.random.default_rng(5)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        result = cluster.search("c", _vectors(rng, 1), 5)[0]
        assert result.profile is None


# ----------------------------------------------------------------------
# end to end: a profile is its read's trace
# ----------------------------------------------------------------------


class TestProfiledReadsAreTraced:
    """A profiled read keeps its trace whatever the sampling and the
    retention say, and its profile is read off that trace."""

    def _explained(self, tracing):
        """After a plain search, an explained STRONG search over sealed
        segments and a growing tail, issued right after an
        unacknowledged insert."""
        cluster = _profiled_cluster(tracing=tracing)
        rng = np.random.default_rng(17)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=192)
        cluster.search("c", _vectors(rng, 1), 5)
        cluster.insert_async("c", {"pk": list(range(1000, 1010)),
                                   "vector": _vectors(rng, 10)})
        dropped = cluster.tracer.dropped_traces
        profile = cluster.search("c", _vectors(rng, 2), 5, explain=True,
                                 consistency=ConsistencyLevel.STRONG,
                                 )[0].profile
        return cluster, profile, cluster.tracer.dropped_traces - dropped

    def _assert_read_off_its_trace(self, cluster, profile):
        tracer = cluster.tracer
        assert profile.verify() == [] and profile.totals()["rows_scanned"]
        assert profile.trace_id in tracer.trace_ids()
        assert tracer.trace_complete(profile.trace_id)
        spans = {span.span_id: span for span in tracer.spans(
            profile.trace_id)}
        assert {stage.span_id for stage in profile.root.walk()} <= \
            set(spans)
        assert len(profile.node_stages()) == 2

    def test_explained_read_is_traced_under_any_sampling(self):
        _cluster, default, _dropped = self._explained(TracingConfig())
        for tracing in (TracingConfig(enabled=False),
                        TracingConfig(sample_every=3)):
            cluster, profile, _dropped = self._explained(tracing)
            # The head decision sampled this read out: it was promoted.
            assert int(profile.trace_id[1:]) % 3 != 0
            self._assert_read_off_its_trace(cluster, profile)
            assert profile.explain().replace(profile.trace_id, "") == \
                default.explain().replace(default.trace_id, "")
        assert NOOP_TRACER.trace_ids() == []

    def test_a_wait_that_overflows_retention_keeps_the_reads_trace(self):
        cluster, profile, dropped = self._explained(
            TracingConfig(max_traces=1))
        assert dropped > 0       # traces opened and dropped in the wait
        self._assert_read_off_its_trace(cluster, profile)


# ----------------------------------------------------------------------
# end to end: slow-query capture
# ----------------------------------------------------------------------


class TestSlowLogEndToEnd:
    def test_slow_scan_captured_with_resolvable_trace(self):
        # Threshold far below any real request latency: every search is
        # an offender, including the seeded "slow" one over extra rows.
        cluster = _profiled_cluster(threshold_ms=0.05)
        rng = np.random.default_rng(6)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=384)
        assert len(cluster.slowlog) == 0
        cluster.search("c", _vectors(rng, 2), 5)
        assert len(cluster.slowlog) == 1
        entry = cluster.slowlog.entries()[0]
        assert entry.latency_ms >= cluster.slowlog.threshold_ms
        assert entry.rows_scanned > 0
        assert entry.profile.verify() == []
        # The capture's trace id resolves to a real span tree.
        assert entry.trace_id is not None
        spans = cluster.tracer.spans(entry.trace_id)
        assert spans
        assert any(s.name == "proxy.search" for s in spans)

    def test_ring_evicts_fifo(self):
        cluster = _profiled_cluster(threshold_ms=0.05, capacity=2,
                                    num_query_nodes=1)
        rng = np.random.default_rng(7)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        for _ in range(3):
            cluster.search("c", _vectors(rng, 1), 5)
        assert cluster.slowlog.captured_total == 3
        assert len(cluster.slowlog) == 2
        first, second = cluster.slowlog.entries()
        assert first.at_ms <= second.at_ms  # oldest-first, newest kept

    def test_flight_recorder_bundles_slow_queries(self):
        cluster = _profiled_cluster(threshold_ms=0.05, num_query_nodes=1)
        rng = np.random.default_rng(8)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        cluster.search("c", _vectors(rng, 1), 5)
        bundle = cluster.flight_recorder.record("test")
        assert bundle["slow_queries"]
        assert bundle["slow_queries"][0]["profile"]["collection"] == "c"

    def test_threshold_zero_never_captures(self):
        cluster = _profiled_cluster(threshold_ms=0.0, num_query_nodes=1)
        rng = np.random.default_rng(9)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        cluster.search("c", _vectors(rng, 1), 5)
        assert len(cluster.slowlog) == 0


# ----------------------------------------------------------------------
# end to end: tenant cost accounting
# ----------------------------------------------------------------------


class TestTenantCostEndToEnd:
    def _tenant_cluster(self):
        cluster = _profiled_cluster(num_query_nodes=1)
        cluster.create_tenant("acme")
        cluster.tenant_create_collection("acme", "docs", _schema())
        return cluster

    def test_units_accumulate_across_inserts_and_searches(self):
        cluster = self._tenant_cluster()
        rng = np.random.default_rng(10)
        cluster.insert("docs", {"pk": list(range(64)),
                                "vector": _vectors(rng, 64)},
                       tenant="acme")
        cluster.run_for(300)
        usage = cluster.cost_meter.usage("acme")
        assert usage.rows_appended == 64
        assert usage.write_units == pytest.approx(64.0)
        assert usage.read_units == 0.0
        cluster.search("docs", _vectors(rng, 1), 5, tenant="acme")
        first_read = cluster.cost_meter.usage("acme").read_units
        assert first_read > 0
        assert cluster.cost_meter.usage("acme").rows_scanned > 0
        cluster.search("docs", _vectors(rng, 1), 5, tenant="acme")
        assert cluster.cost_meter.usage("acme").read_units > first_read

    def test_units_survive_metrics_exposition(self):
        cluster = self._tenant_cluster()
        rng = np.random.default_rng(11)
        cluster.insert("docs", {"pk": list(range(64)),
                                "vector": _vectors(rng, 64)},
                       tenant="acme")
        cluster.run_for(300)
        cluster.search("docs", _vectors(rng, 1), 5, tenant="acme")
        series = parse_exposition(
            cluster.metrics.expose_text(cluster.now()))
        write_key = ("tenant_write_units_total", (("tenant", "acme"),))
        read_key = ("tenant_read_units_total", (("tenant", "acme"),))
        assert series[write_key] == pytest.approx(64.0)
        assert series[read_key] == pytest.approx(
            cluster.cost_meter.usage("acme").read_units)

    def test_untenanted_requests_are_not_metered(self):
        cluster = _profiled_cluster(num_query_nodes=1)
        rng = np.random.default_rng(12)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        cluster.search("c", _vectors(rng, 1), 5)
        assert cluster.cost_meter.tenants() == []

    def test_dashboard_shows_cost_panels(self):
        from repro.monitoring.dashboard import system_view
        cluster = self._tenant_cluster()
        rng = np.random.default_rng(13)
        cluster.insert("docs", {"pk": list(range(64)),
                                "vector": _vectors(rng, 64)},
                       tenant="acme")
        cluster.run_for(300)
        cluster.search("docs", _vectors(rng, 1), 5, tenant="acme")
        view = system_view(cluster)
        assert "TOP COST" in view
        assert "SLOW QUERIES" in view
        assert "RU" in view and "WU" in view
        assert "acme" in view


# ----------------------------------------------------------------------
# end to end: exemplar linkage
# ----------------------------------------------------------------------


class TestExemplarEndToEnd:
    def test_search_latency_bucket_links_to_sampled_trace(self):
        cluster = _profiled_cluster(num_query_nodes=1)
        rng = np.random.default_rng(14)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        cluster.search("c", _vectors(rng, 1), 5)
        text = cluster.metrics.expose_text(cluster.now())
        exemplars = parse_exemplars(text)
        latency_exemplars = {
            key: value for key, value in exemplars.items()
            if key[0].startswith("search_latency")}
        assert latency_exemplars
        ex_labels, _value = next(iter(latency_exemplars.values()))
        trace_id = dict(ex_labels)["trace_id"]
        assert cluster.tracer.spans(trace_id)


# ----------------------------------------------------------------------
# the off switch: no profile objects on the un-explained hot path
# ----------------------------------------------------------------------


class TestProfilingOffOverhead:
    def test_no_profile_allocated_when_disabled(self, monkeypatch):
        cluster = _profiled_cluster(num_query_nodes=1)  # threshold 0
        rng = np.random.default_rng(15)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        constructed = []

        class CountingProfile(QueryProfile):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        import repro.nodes.proxy as proxy_mod
        monkeypatch.setattr(proxy_mod, "QueryProfile", CountingProfile)
        result = cluster.search("c", _vectors(rng, 1), 5)[0]
        assert result.profile is None
        assert constructed == []
        # ...and the same request with explain builds exactly one.
        cluster.search("c", _vectors(rng, 1), 5, explain=True)
        assert len(constructed) == 1

    def test_armed_slowlog_builds_profile_without_returning_it(self,
                                                               monkeypatch):
        cluster = _profiled_cluster(threshold_ms=0.05, num_query_nodes=1)
        rng = np.random.default_rng(16)
        cluster.create_collection("c", _schema())
        _fill(cluster, rng, rows=64)
        result = cluster.search("c", _vectors(rng, 1), 5)[0]
        assert result.profile is None       # not asked for
        assert len(cluster.slowlog) == 1    # but the offender was kept
