"""The span collector records what its former hot path recorded.

Every script runs twice, once on a cluster built with
:class:`TraceCollector` and once with :class:`ReferenceTraceCollector`
(``tests/reference/tracing.py``), and the two must agree on every
output of the tracing plane: the Chrome export byte for byte (ids,
parents, components, tags, virtual times, statuses), the observed
pub/sub edges, the sampling and retention counters and the breakdown of
every search trace.  ``max_traces`` stays above the number of traces a
script creates, where the two collectors' retention rules coincide.
"""

import numpy as np
import pytest

import repro.cluster.manu as manu_module
from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, QueryConfig, SegmentConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.multivector import MultiVectorQuery
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.errors import ConsistencyTimeout
from repro.race.runner import run_chaos_scenario
from repro.sim.clock import FIFO_POLICY
from repro.tracing import TraceCollector
from tests.reference.tracing import ReferenceTraceCollector

MAX_TRACES = 100_000
STRONG = ConsistencyLevel.STRONG


def _schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("image", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("text", DataType.FLOAT_VECTOR, dim=4),
        FieldSchema("price", DataType.FLOAT),
    ])


def _rows(rng, pks):
    n = len(pks)
    return {"pk": list(pks),
            "image": rng.standard_normal((n, 8)).astype(np.float32),
            "text": rng.standard_normal((n, 4)).astype(np.float32),
            "price": rng.uniform(0.0, 10.0, n)}


def _read_write_script():
    """Every write verb, flush and index build, every read shape, and a
    node killed inside a STRONG wait; returns the cluster."""
    rng = np.random.default_rng(11)
    config = ManuConfig(segment=SegmentConfig(seal_entity_count=64),
                        query=QueryConfig(consistency_deadline_ms=400.0))
    cluster = ManuCluster(config=config, num_query_nodes=2,
                          num_index_nodes=1, num_loggers=2)
    cluster.create_collection("c", _schema())
    for start in range(0, 160, 40):
        cluster.insert("c", _rows(rng, range(start, start + 40)))
        cluster.run_for(150)
    _pks, acks = zip(*(cluster.insert_async("c", _rows(rng, range(
        start, start + 8))) for start in range(200, 232, 8)))
    cluster.run_for(50)
    assert all(ack.done for ack in acks)
    cluster.delete("c", "pk in [1, 2, 3]")
    cluster.delete_async("c", "pk in [4, 205]")
    cluster.upsert("c", _rows(rng, [10, 11, 300]))
    cluster.flush("c")
    cluster.create_index("c", "image", "IVF_FLAT", MetricType.EUCLIDEAN,
                         {"nlist": 4, "nprobe": 2})
    assert cluster.wait_for_indexes("c")
    cluster.insert("c", _rows(rng, range(400, 430)))
    cluster.run_for(100)
    for nq, expr, explain in ((1, None, False), (5, None, True),
                              (3, "price < 6", False),
                              (1, "price < 6", True)):
        cluster.search("c", rng.standard_normal((nq, 8)), 5, field="image",
                       expr=expr, explain=explain, consistency=STRONG)
    cluster.search_multivector("c", MultiVectorQuery(
        fields=("image", "text"),
        queries={"image": rng.standard_normal(8),
                 "text": rng.standard_normal(4)},
        weights={"image": 1.0, "text": 0.5},
        metric=MetricType.INNER_PRODUCT), 5, consistency=STRONG)
    cluster.range_search("c", rng.standard_normal(8), 3.0, field="image",
                         consistency=STRONG)
    cluster.get("c", [5, 6, 300, 999], consistency=STRONG)
    # A node dies 1 virtual ms into a STRONG wait: its open spans close
    # incomplete and the search times out; the retry succeeds.
    cluster.insert("c", _rows(rng, range(500, 510)))
    victim = cluster.query_coord.node_names[0]
    cluster.loop.call_after(1.0, lambda: cluster.fail_query_node(victim))
    with pytest.raises(ConsistencyTimeout):
        cluster.search("c", rng.standard_normal(8), 5, field="image",
                       consistency=STRONG)
    cluster.search("c", rng.standard_normal(8), 5, field="image",
                   consistency=STRONG)
    cluster.run_for(500)
    return cluster


def _chaos_script(ops_seed):
    def run():
        cluster, _model = run_chaos_scenario(FIFO_POLICY, steps=40,
                                             ops_seed=ops_seed)
        return cluster
    return run


def _planes(monkeypatch, collector, sample_every, script):
    """Run ``script`` on clusters whose tracer is a ``collector``; returns
    every output of the tracing plane."""
    def build(clock_ms, enabled=True, **_tracing_config):
        return collector(clock_ms, enabled=enabled,
                         sample_every=sample_every, max_traces=MAX_TRACES)

    with monkeypatch.context() as patch:
        patch.setattr(manu_module, "TraceCollector", build)
        tracer = script().tracer
    assert type(tracer) is collector
    searches = [trace_id for trace_id in tracer.trace_ids()
                if tracer.root(trace_id) is not None
                and tracer.root(trace_id).name.startswith("proxy.search")]
    return {"chrome": tracer.export_chrome_trace(),
            "edges": tracer.observed_edges(),
            "unsampled_roots": tracer.unsampled_roots,
            "dropped_traces": tracer.dropped_traces,
            "breakdowns": {trace_id: tracer.breakdown(trace_id)
                           for trace_id in searches}}


@pytest.mark.parametrize("sample_every", [1, 3])
@pytest.mark.parametrize("script", [
    pytest.param(_read_write_script, id="read-write"),
    pytest.param(_chaos_script(3), id="chaos-3"),
    pytest.param(_chaos_script(8), id="chaos-8"),
])
def test_collector_records_what_the_reference_records(monkeypatch, script,
                                                      sample_every):
    current = _planes(monkeypatch, TraceCollector, sample_every, script)
    reference = _planes(monkeypatch, ReferenceTraceCollector, sample_every,
                        script)
    # The scripts exercise what they claim to: searches are traced and
    # sampled out, and no trace was evicted (the retention rules differ
    # only for spans of an evicted trace).
    assert current["breakdowns"] and current["edges"]
    assert (current["unsampled_roots"] > 0) == (sample_every > 1)
    assert reference["dropped_traces"] == 0
    for plane in ("unsampled_roots", "dropped_traces", "edges",
                  "breakdowns"):
        assert current[plane] == reference[plane], plane
    assert current["chrome"] == reference["chrome"]
