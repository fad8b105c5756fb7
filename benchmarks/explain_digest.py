"""Digests of every read's EXPLAIN text, the slow-log JSON and the trace
export over a fixed script: one line per plane, so two trees compare
with ``diff``.

    PYTHONPATH=src python benchmarks/explain_digest.py

The script reads every shape — ``search`` at nq 1 and 5 with and without
``expr``, ``search_multivector``, ``range_search`` and ``get`` — over
sealed (indexed) and growing segments, three ways:

* ``profiled``: the slow log armed and every verb that takes ``explain``
  explained.  ``trace-base`` is the export with the counter tags a
  profiled read's spans carry dropped (the spans' other tags are kept);
* ``plain-1`` / ``plain-3``: nothing profiled, at ``sample_every`` 1 and
  3 — the raw export.

Exit 0 always; the digests are the output.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig, TracingConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.multivector import MultiVectorQuery
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType

#: The tags each span of a read's scan and merge carries when nothing
#: profiles the read.
BASE_TAGS = {"query_node.scan": {"queue_ms", "service_ms", "segments"},
             "segment.scan": {"segment"},
             "query_node.reduce": {"segments"},
             "proxy.merge": {"nodes"}}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows(rng, pks):
    n = len(pks)
    return {"pk": list(pks),
            "image": rng.standard_normal((n, 8)).astype(np.float32),
            "text": rng.standard_normal((n, 4)).astype(np.float32),
            "price": rng.uniform(0.0, 10.0, n)}


def _cluster(rng, sample_every):
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("image", DataType.FLOAT_VECTOR, dim=8),
        FieldSchema("text", DataType.FLOAT_VECTOR, dim=4),
        FieldSchema("price", DataType.FLOAT)])
    cluster = ManuCluster(config=ManuConfig(
        segment=SegmentConfig(seal_entity_count=64),
        tracing=TracingConfig(sample_every=sample_every)),
        num_query_nodes=2)
    cluster.create_collection("c", schema)
    for start in range(0, 200, 50):
        cluster.insert("c", _rows(rng, range(start, start + 50)))
        cluster.run_for(200)
    cluster.create_index("c", "image", "IVF_FLAT", MetricType.EUCLIDEAN,
                         {"nlist": 4, "nprobe": 2})
    assert cluster.wait_for_indexes("c")
    return cluster


def _reads(cluster, rng, explain):
    """Every read shape twice: once on sealed segments and a growing
    tail, once more after a fresh insert; returns the EXPLAIN texts."""
    strong = ConsistencyLevel.STRONG
    texts = []
    for round_ in range(2):
        cluster.insert("c", _rows(rng, range(500 + 40 * round_,
                                             540 + 40 * round_)))
        for nq in (1, 5):
            for expr in (None, "price < 6"):
                results = cluster.search(
                    "c", rng.standard_normal((nq, 8)), 5, field="image",
                    expr=expr, consistency=strong, explain=explain)
                texts.append(results[0].profile)
        texts.append(cluster.search_multivector("c", MultiVectorQuery(
            fields=("image", "text"),
            queries={"image": rng.standard_normal(8),
                     "text": rng.standard_normal(4)},
            weights={"image": 1.0, "text": 0.5},
            metric=MetricType.INNER_PRODUCT), 5, consistency=strong,
            explain=explain).profile)
        texts.append(cluster.range_search(
            "c", rng.standard_normal(8), 3.0, field="image",
            consistency=strong, explain=explain).profile)
        cluster.get("c", [1, 2, 3, 505], consistency=strong)
        cluster.run_for(300)
    return [profile.explain() for profile in texts if profile is not None]


def _base_trace(export: str) -> str:
    trace = json.loads(export)
    for event in trace["traceEvents"]:
        keep = BASE_TAGS.get(event["name"])
        if keep is not None and event["ph"] == "X":
            event["args"] = {key: value for key, value
                             in event["args"].items()
                             if key in keep or key in ("span_id",
                                                       "parent_id",
                                                       "status")}
    return json.dumps(trace, indent=1)


def main() -> None:
    cluster = _cluster(np.random.default_rng(7), 1)
    cluster.slowlog.threshold_ms = 1e-9
    texts = _reads(cluster, np.random.default_rng(8), True)
    export = cluster.tracer.export_chrome_trace()
    print("profiled explain", len(texts), _digest("\n\n".join(texts)))
    print("profiled slowlog", len(cluster.slowlog),
          _digest(cluster.slowlog.to_json()))
    print("profiled trace-base", _digest(_base_trace(export)))
    for sample_every in (1, 3):
        cluster = _cluster(np.random.default_rng(7), sample_every)
        _reads(cluster, np.random.default_rng(8), False)
        print(f"plain-{sample_every} trace",
              _digest(cluster.tracer.export_chrome_trace()))


if __name__ == "__main__":
    main()
