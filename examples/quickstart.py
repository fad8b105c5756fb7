"""Quickstart: create a collection, insert, index, and search.

Mirrors the paper's PyManu walkthrough (Table 2 / Section 4.2): an
embedded cluster is started with ``connect()``, a Figure-1-style schema is
declared, vectors are inserted through the WAL, an IVF-Flat index is built
by the index nodes, and a filtered top-k search runs with strong
consistency.

Run: ``python examples/quickstart.py``
"""

import os
from pathlib import Path

import numpy as np

from repro import (
    Collection,
    CollectionSchema,
    DataType,
    FieldSchema,
    connect,
)
from repro.config import ManuConfig, ProfilingConfig


def main() -> None:
    # 1. Connect: builds an embedded in-process cluster (the paper's
    #    personal-computer deployment mode; same API as cluster mode).
    #    MANU_SLOWLOG arms the slow-query ring: any search slower than
    #    the (virtual-time) threshold is captured with its full profile.
    slowlog_path = os.environ.get("MANU_SLOWLOG")
    config = ManuConfig()
    if slowlog_path:
        config = config.with_overrides(
            profiling=ProfilingConfig(slow_query_threshold_ms=0.1))
    cluster = connect(num_query_nodes=2, num_index_nodes=1, config=config)

    # 2. Declare the schema of Figure 1: primary key (auto), a feature
    #    vector, a label, and a numerical attribute.
    schema = CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=64,
                    description="product embedding"),
        FieldSchema("label", DataType.STRING,
                    description="product category"),
        FieldSchema("price", DataType.FLOAT,
                    description="product price"),
    ], description="products of an e-commerce platform")
    products = Collection("products", schema)

    # 3. Insert 2 000 products.
    rng = np.random.default_rng(7)
    n = 2_000
    vectors = rng.standard_normal((n, 64)).astype(np.float32)
    labels = [["book", "food", "cloth"][i % 3] for i in range(n)]
    prices = rng.uniform(1.0, 200.0, n)
    pks = products.insert({"vector": vectors, "label": labels,
                           "price": prices})
    print(f"inserted {len(pks)} products")

    # 4. Flush growing segments and build an IVF-Flat index on them.
    cluster.run_for(500)           # let the log propagate (virtual time)
    products.flush()
    products.create_index("vector", {
        "index_type": "IVF_FLAT",
        "metric_type": "Euclidean",
        "params": {"nlist": 32, "nprobe": 8},
    })
    cluster.wait_for_indexes("products")
    print("index built for all sealed segments")

    # 5. Top-5 search with an attribute filter (Section 3.6), exactly the
    #    query-parameter style of the paper's Section 4.2 listing.
    query_param = {
        "vec": vectors[10],
        "field": "vector",
        "param": {"metric_type": "Euclidean"},
        "limit": 5,
        "expr": "price > 0 and label in ['book', 'food']",
    }
    results = products.query(**query_param,
                             consistency_level="strong")[0]
    print(f"search latency: {results.latency_ms:.2f} virtual ms "
          f"(consistency wait {results.consistency_wait_ms:.2f} ms)")
    for hit in results:
        print(f"  product pk={hit.pk}  "
              f"L2 distance={hit.score_for(results.metric):.3f}")

    # 5b. EXPLAIN ANALYZE: the same search with ``explain=True`` returns
    #     a work-accounting tree whose per-stage counters sum exactly to
    #     the request totals (DESIGN.md §6g).
    explained = products.search(vec=vectors[10], limit=5,
                                param={"metric_type": "Euclidean"},
                                consistency_level="strong",
                                explain=True)[0]
    profile = explained.profile
    assert profile.verify() == []
    print(f"explain: {profile.totals()['rows_scanned']} rows scanned "
          f"across {profile.segments_searched} segment scans")

    # 6. Deletes are visible to strong-consistency reads immediately.
    products.delete(f"_auto_id == {results.pks[0]}")
    after = products.search(vec=vectors[10], limit=5,
                            param={"metric_type": "Euclidean"},
                            consistency_level="strong")[0]
    assert results.pks[0] not in after.pks
    print(f"deleted top hit; new top result pk={after.pks[0]}")

    # 7. Optional: dump the session's causal traces as Chrome trace-event
    #    JSON (open in chrome://tracing or https://ui.perfetto.dev).
    trace_path = os.environ.get("MANU_TRACE")
    if trace_path:
        # Every retained trace is one tree with nothing left open (the
        # export cannot show it: an open span is a zero-length slice).
        for trace_id in cluster.tracer.trace_ids():
            spans = cluster.tracer.spans(trace_id)
            assert sum(span.parent_id is None for span in spans) == 1, \
                trace_id
            assert all(span.finished for span in spans), trace_id
        Path(trace_path).write_text(cluster.tracer.export_chrome_trace())
        traces = len(cluster.tracer.trace_ids())
        print(f"wrote {traces} traces to {trace_path}")

    # 8. Optional: dump the telemetry plane — the Prometheus-style metric
    #    exposition (MANU_METRICS) and a flight-recorder debug bundle
    #    (MANU_FLIGHT) capturing metrics + health + topology + traces.
    metrics_path = os.environ.get("MANU_METRICS")
    if metrics_path:
        cluster.sample_telemetry()
        text = cluster.metrics.expose_text(cluster.now())
        Path(metrics_path).write_text(text)
        print(f"wrote {len(text.splitlines())} exposition lines "
              f"to {metrics_path}")
    flight_path = os.environ.get("MANU_FLIGHT")
    if flight_path:
        cluster.flight_recorder.record("quickstart")
        cluster.flight_recorder.dump(flight_path)
        print(f"wrote flight-recorder bundle to {flight_path}")

    # 9. Optional: dump the slow-query ring armed in step 1
    #    (MANU_SLOWLOG) — full profiles of every capture, trace ids
    #    resolvable against the MANU_TRACE export.
    if slowlog_path:
        cluster.slowlog.dump(slowlog_path)
        print(f"wrote {len(cluster.slowlog)} slow-query captures "
              f"to {slowlog_path}")


if __name__ == "__main__":
    main()
