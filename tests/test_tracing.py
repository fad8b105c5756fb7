"""Causal tracing subsystem: collector unit behaviour, end-to-end span
trees through the log backbone, critical-path attribution and the
observed-vs-declared topology cross-check (DESIGN.md §6c)."""

import json

import numpy as np
import pytest

from repro.analysis.topology import (
    ALLOW_DYNAMIC,
    classify_channel_name,
    declared_edges,
)
from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig, TracingConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.tracing import TraceCollector, TraceContext
from repro.tracing.collector import component_module
from repro.tracing.span import SPAN_ERROR, SPAN_INCOMPLETE, SPAN_OK


# ----------------------------------------------------------------------
# collector unit tests
# ----------------------------------------------------------------------


class TestCollectorUnit:
    def test_deterministic_ids_and_nesting(self):
        clock = [0.0]
        tracer = TraceCollector(lambda: clock[0])
        with tracer.span("root", "proxy:p0") as root:
            clock[0] = 5.0
            with tracer.span("child", "logger:l0") as child:
                clock[0] = 7.0
        assert root.trace_id == "t000000"
        assert root.span_id == "s000000"
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.start_ms == 5.0 and child.end_ms == 7.0
        assert root.end_ms == 7.0
        assert root.status == SPAN_OK
        # A replay of the same schedule mints identical ids.
        tracer2 = TraceCollector(lambda: 0.0)
        with tracer2.span("root", "proxy:p0") as again:
            pass
        assert (again.trace_id, again.span_id) == ("t000000", "s000000")

    def test_ambient_stack_restored_after_block(self):
        tracer = TraceCollector(lambda: 0.0)
        assert tracer.current() is None
        with tracer.span("outer", "proxy") as outer:
            assert tracer.current().span_id == outer.span_id
            with tracer.span("inner", "proxy") as inner:
                assert tracer.current().span_id == inner.span_id
            assert tracer.current().span_id == outer.span_id
        assert tracer.current() is None
        assert tracer.current_wire() is None

    def test_head_based_sampling_every_nth_root(self):
        tracer = TraceCollector(lambda: 0.0, sample_every=3)
        roots = [tracer.start_span("r", "proxy") for _ in range(9)]
        assert sum(1 for s in roots if s.sampled) == 3
        assert tracer.unsampled_roots == 6
        # Children inherit the head decision through the context.
        child = tracer.start_span("c", "proxy", parent=roots[1].context)
        assert not child.sampled
        assert tracer.spans(roots[1].trace_id) == []
        assert len(tracer.trace_ids()) == 3

    def test_disabled_collector_records_nothing(self):
        tracer = TraceCollector(enabled=False)
        with tracer.span("root", "proxy") as span:
            assert not span.sampled
        assert tracer.trace_ids() == []
        assert tracer.observed_edges() == set()

    def test_exception_marks_span_error(self):
        tracer = TraceCollector(lambda: 0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("root", "proxy") as span:
                raise RuntimeError("boom")
        assert span.finished
        assert span.status == SPAN_ERROR

    def test_finish_span_is_idempotent(self):
        tracer = TraceCollector(lambda: 10.0)
        span = tracer.start_span("op", "proxy", start_ms=2.0)
        tracer.finish_span(span, end_ms=4.0)
        tracer.finish_span(span, end_ms=99.0, status=SPAN_ERROR)
        assert span.end_ms == 4.0
        assert span.status == SPAN_OK

    def test_mark_incomplete_closes_component_spans(self):
        tracer = TraceCollector(lambda: 1.0)
        victim = tracer.start_span("scan", "query-node:qn-0")
        other = tracer.start_span("scan", "query-node:qn-1",
                                  parent=victim.context)
        marked = tracer.mark_incomplete("query-node:qn-0")
        assert marked == [victim]
        assert victim.status == SPAN_INCOMPLETE
        assert not other.finished
        assert not tracer.trace_complete(victim.trace_id)

    def test_fifo_eviction_keeps_newest_traces(self):
        tracer = TraceCollector(lambda: 0.0, max_traces=2)
        spans = [tracer.record_span(f"r{i}", "proxy", start_ms=float(i),
                                    end_ms=float(i)) for i in range(4)]
        assert tracer.dropped_traces == 2
        assert tracer.trace_ids() == [spans[2].trace_id, spans[3].trace_id]
        assert tracer.spans(spans[0].trace_id) == []

    def test_child_of_unretained_trace_is_not_recorded(self):
        tracer = TraceCollector(lambda: 0.0, max_traces=1)
        old = tracer.start_span("r0", "proxy")
        live = tracer.start_span("r1", "proxy")
        assert tracer.dropped_traces == 1
        child = tracer.start_span("c", "proxy", parent=old.context)
        assert child.sampled and child.trace_id == old.trace_id
        # Only a sampled root opens a trace: the late child neither
        # re-creates the evicted trace nor evicts the live one.
        assert tracer.trace_ids() == [live.trace_id]
        assert tracer.dropped_traces == 1
        assert tracer.mark_incomplete("proxy") == [live]

    def test_wire_context_round_trip(self):
        ctx = TraceContext(trace_id="t000001", span_id="s000005",
                           parent_id="s000004", sampled=True)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire(None) is None

    def test_component_module_mapping(self):
        assert component_module("proxy:proxy-0") == "nodes/proxy.py"
        assert component_module("data-node-coord:dn-0") == \
            "nodes/data_node.py"
        assert component_module("query-coord") == "coord/query.py"
        assert component_module("unknown-thing:x") is None


# ----------------------------------------------------------------------
# end-to-end traces through the cluster
# ----------------------------------------------------------------------


def _schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=16),
        FieldSchema("price", DataType.FLOAT),
    ])


def _rows(rng, n):
    return {"vector": rng.standard_normal((n, 16)).astype(np.float32),
            "price": rng.uniform(0.0, 100.0, n)}


@pytest.fixture
def traced_cluster():
    config = ManuConfig(segment=SegmentConfig(seal_entity_count=64,
                                              slice_size=32))
    return ManuCluster(config=config, num_query_nodes=2, num_index_nodes=1,
                       num_loggers=2)


def _new_trace_after(cluster, before):
    new = [t for t in cluster.tracer.trace_ids() if t not in before]
    assert len(new) == 1, new
    return new[0]


class TestEndToEndTraces:
    def test_insert_to_index_is_one_connected_tree(self, traced_cluster,
                                                   rng):
        cluster = traced_cluster
        cluster.create_collection("c", _schema())
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN,
                             {"nlist": 4, "nprobe": 4})
        before = set(cluster.tracer.trace_ids())
        cluster.insert("c", _rows(rng, 200))
        # The insert (and the seals it triggered) opened exactly one trace.
        tid = _new_trace_after(cluster, before)
        cluster.run_for(400)
        cluster.flush("c")
        assert cluster.wait_for_indexes("c")
        cluster.run_for(200)

        spans = cluster.tracer.spans(tid)
        root = cluster.tracer.root(tid)
        assert root is not None and root.name == "proxy.insert"
        # Single connected tree: one root, every parent id resolves.
        ids = {s.span_id for s in spans}
        assert sum(1 for s in spans if s.parent_id is None) == 1
        assert all(s.parent_id in ids for s in spans
                   if s.parent_id is not None)
        # The causal chain crosses every hop of the write path.
        components = {s.component.split(":")[0] for s in spans}
        assert {"proxy", "logger", "data-node",
                "query-node"} <= components
        names = {s.name for s in spans}
        # Group commit wraps the insert in a coalesced batch publish.
        assert "logger.publish_batch" in names
        assert "data_coord.seal" in names
        assert "data_node.flush" in names
        assert "index_node.build" in names
        assert "query_node.attach_index" in names
        assert cluster.tracer.trace_complete(tid)
        # Virtual time only moves forward along every span.
        assert all(s.end_ms >= s.start_ms for s in spans)

    def test_search_breakdown_sums_to_latency(self, traced_cluster, rng):
        cluster = traced_cluster
        cluster.create_collection("c", _schema())
        data = _rows(rng, 150)
        cluster.insert("c", data)
        cluster.run_for(200)
        before = set(cluster.tracer.trace_ids())
        result = cluster.search("c", data["vector"][7], 5,
                                consistency=ConsistencyLevel.BOUNDED,
                                staleness_ms=1.0)[0]
        tid = _new_trace_after(cluster, before)
        root = cluster.tracer.root(tid)
        assert root.name == "proxy.search"
        assert cluster.tracer.trace_complete(tid)

        breakdown = cluster.tracer.breakdown(tid)
        assert breakdown["latency_ms"] == pytest.approx(result.latency_ms)
        assert breakdown["consistency_wait_ms"] == \
            pytest.approx(result.consistency_wait_ms)
        # A 1 ms staleness bound forces a wait for the next 50 ms tick.
        assert breakdown["consistency_wait_ms"] > 0
        assert breakdown["scan_ms"] > 0
        assert breakdown["merge_ms"] > 0
        total = (breakdown["consistency_wait_ms"] + breakdown["scan_ms"]
                 + breakdown["merge_ms"])
        assert total == pytest.approx(breakdown["latency_ms"], abs=1e-6)
        assert breakdown["other_ms"] == pytest.approx(0.0, abs=1e-6)

    def test_search_trace_spans_every_hop(self, traced_cluster, rng):
        cluster = traced_cluster
        cluster.create_collection("c", _schema())
        data = _rows(rng, 150)
        cluster.insert("c", data)
        cluster.run_for(200)
        before = set(cluster.tracer.trace_ids())
        cluster.search("c", data["vector"][0], 5,
                       consistency=ConsistencyLevel.STRONG)
        tid = _new_trace_after(cluster, before)
        names = {s.name for s in cluster.tracer.spans(tid)}
        assert "proxy.consistency_wait" in names
        assert "query_node.scan" in names
        assert "segment.scan" in names
        assert "query_node.reduce" in names
        assert "proxy.merge" in names
        # Per-node scans hang off the proxy root, not off each other.
        tree = cluster.tracer.span_tree(tid)
        root = cluster.tracer.root(tid)
        child_names = {s.name for s in tree.get(root.span_id, ())}
        assert {"proxy.consistency_wait", "query_node.scan",
                "proxy.merge"} <= child_names

    def test_observed_topology_subset_of_declared(self, traced_cluster,
                                                  rng):
        cluster = traced_cluster
        cluster.create_collection("c", _schema())
        data = _rows(rng, 200)
        cluster.insert("c", data)
        cluster.run_for(300)
        cluster.flush("c")
        cluster.create_index("c", "vector", "IVF_FLAT",
                             MetricType.EUCLIDEAN,
                             {"nlist": 4, "nprobe": 4})
        assert cluster.wait_for_indexes("c")
        cluster.search("c", data["vector"][3], 5,
                       consistency=ConsistencyLevel.STRONG)

        observed = cluster.tracer.observed_edges()
        assert observed
        declared = declared_edges()
        for component, action, channel in observed:
            module = component_module(component)
            assert module is not None, component
            group = classify_channel_name(channel)
            assert (module in ALLOW_DYNAMIC
                    or (module, action, group) in declared), \
                (component, action, channel)
        # The run exercised both data and control channels, both ways.
        groups = {(action, classify_channel_name(channel))
                  for _, action, channel in observed}
        assert ("publish", "wal-shard") in groups
        assert ("subscribe", "wal-shard") in groups
        assert ("publish", "coord") in groups
        assert ("subscribe", "coord") in groups
        assert ("publish", "ddl") in groups

    def test_chrome_export_round_trips(self, traced_cluster, rng):
        cluster = traced_cluster
        cluster.create_collection("c", _schema())
        data = _rows(rng, 100)
        cluster.insert("c", data)
        cluster.run_for(200)
        cluster.search("c", data["vector"][0], 3,
                       consistency=ConsistencyLevel.STRONG)

        doc = json.loads(cluster.tracer.export_chrome_trace())
        events = doc["traceEvents"]
        assert events
        assert {event["ph"] for event in events} <= {"X", "M"}
        for event in events:
            if event["ph"] != "X":
                continue
            assert isinstance(event["ts"], (int, float))
            assert event["dur"] >= 0
            assert event["name"]
            assert "span_id" in event["args"]
        # Single-trace export puts everything in one process.
        tid = cluster.tracer.trace_ids()[0]
        single = json.loads(cluster.tracer.export_chrome_trace(tid))
        pids = {event["pid"] for event in single["traceEvents"]}
        assert pids == {1}

    def test_sampling_config_thins_request_traces(self, rng):
        config = ManuConfig(tracing=TracingConfig(sample_every=2))
        cluster = ManuCluster(config=config, num_query_nodes=1)
        cluster.create_collection("c", _schema())
        data = _rows(rng, 30)
        cluster.insert("c", data)
        cluster.run_for(200)
        for _ in range(4):
            cluster.search("c", data["vector"][0], 3,
                           consistency=ConsistencyLevel.STRONG)
        assert cluster.tracer.unsampled_roots > 0
        recorded = cluster.tracer.spans_named("proxy.search")
        assert 0 < len(recorded) < 4

    def test_tracing_disabled_is_inert(self, rng):
        config = ManuConfig(tracing=TracingConfig(enabled=False))
        cluster = ManuCluster(config=config, num_query_nodes=1)
        cluster.create_collection("c", _schema())
        data = _rows(rng, 50)
        cluster.insert("c", data)
        cluster.run_for(200)
        result = cluster.search("c", data["vector"][0], 3,
                                consistency=ConsistencyLevel.STRONG)[0]
        assert result.pks
        assert cluster.tracer.trace_ids() == []
        assert cluster.tracer.observed_edges() == set()


# ----------------------------------------------------------------------
# retention and open spans under churn
# ----------------------------------------------------------------------


class TestRetentionAndOpenSpans:
    def test_replayed_deliveries_do_not_reopen_evicted_traces(self, rng):
        cluster = ManuCluster(num_query_nodes=1)
        cluster.create_collection("c", _schema())
        for _ in range(400):
            cluster.insert("c", _rows(rng, 4))
        cluster.search("c", _rows(rng, 1)["vector"][0], 3,
                       consistency=ConsistencyLevel.STRONG)
        tracer = cluster.tracer
        search = tracer.spans_named("proxy.search")[-1].trace_id
        dropped, retained = tracer.dropped_traces, tracer.trace_ids()
        assert len(retained) == 256 and search == retained[-1]
        # The new node replays the retained WAL: every replayed record
        # still carries the trace of the insert that wrote it, most of
        # them long evicted.
        cluster.add_query_node()
        cluster.run_for(3000)
        assert tracer.dropped_traces == dropped
        assert tracer.trace_ids() == retained
        assert all(tracer.root(trace_id) is not None
                   for trace_id in tracer.trace_ids())
        assert any(span.component == "query-node:qn-1"
                   for span in tracer.spans_named("log.deliver"))

    def test_raising_event_in_strong_wait_closes_wait_spans(self, rng):
        cluster = ManuCluster(num_query_nodes=2)
        cluster.create_collection("c", _schema())
        cluster.insert("c", _rows(rng, 100))
        cluster.run_for(200)
        cluster.insert("c", _rows(rng, 10))

        def fail():
            raise RuntimeError("event failed")

        cluster.loop.call_after(0.5, fail)
        with pytest.raises(RuntimeError, match="event failed"):
            cluster.search("c", _rows(rng, 1)["vector"][0], 3,
                           consistency=ConsistencyLevel.STRONG)
        waits = cluster.tracer.spans_named("query_node.wait_ready")
        assert {span.component for span in waits} == {
            "query-node:qn-0", "query-node:qn-1"}
        assert all(span.finished and span.status == SPAN_INCOMPLETE
                   for span in waits)
        # None is left open: a later node failure marks nothing of them.
        for name in ("query-node:qn-0", "query-node:qn-1"):
            assert not set(cluster.tracer.mark_incomplete(name)) & set(waits)
        wait = cluster.tracer.spans_named("proxy.consistency_wait")[-1]
        assert wait.status == SPAN_ERROR
