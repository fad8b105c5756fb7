"""Table 2: the PyManu API — every command exercised and timed.

The paper's Table 2 lists the main PyManu commands (Collection, insert,
delete, create_index, search, query).  This benchmark drives each command
end-to-end through the embedded cluster and reports both wall time and the
virtual latency the cluster charges, demonstrating the full public API
surface in one pass.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Collection, CollectionSchema, DataType, FieldSchema, \
    connect, connections

from conftest import print_series


def test_table2_pymanu_api(benchmark, rng):
    rows = []

    def timed(label, fn):
        t0 = time.perf_counter()
        out = fn()
        rows.append((label, (time.perf_counter() - t0) * 1000.0))
        return out

    def run() -> None:
        cluster = connect("bench", num_query_nodes=2)
        try:
            schema = CollectionSchema([
                FieldSchema("vector", DataType.FLOAT_VECTOR, dim=32),
                FieldSchema("price", DataType.FLOAT),
            ])
            coll = timed("Collection(name, schema)",
                         lambda: Collection("products", schema,
                                            using="bench"))
            data = {"vector": rng.standard_normal(
                (1_000, 32)).astype(np.float32),
                "price": rng.uniform(0, 100, 1_000)}
            pks = timed("Collection.insert(vec) x1000",
                        lambda: coll.insert(data))
            cluster.run_for(300)
            timed("Collection.delete(expr)",
                  lambda: coll.delete(f"_auto_id in [{pks[0]}, {pks[1]}]"))
            timed("Collection.flush()", coll.flush)
            timed("Collection.create_index(field, params)",
                  lambda: coll.create_index("vector", {
                      "index_type": "IVF_FLAT",
                      "metric_type": "Euclidean",
                      "params": {"nlist": 16}}))
            cluster.wait_for_indexes("products")
            search_result = timed(
                "Collection.search(vec, params)",
                lambda: coll.search(vec=data["vector"][5],
                                    param={"metric_type": "Euclidean"},
                                    limit=2,
                                    consistency_level="strong"))
            assert search_result[0].pks[0] == pks[5]
            query_result = timed(
                "Collection.query(vec, params, expr)",
                lambda: coll.query(vec=data["vector"][5],
                                   param={"metric_type": "Euclidean"},
                                   expr="price > 0", limit=2,
                                   consistency_level="strong"))
            assert len(query_result[0]) == 2
            rows.append(("search virtual latency (ms)",
                         search_result[0].latency_ms))
        finally:
            connections.disconnect("bench")

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series("Table 2: PyManu commands, wall time per call",
                 ["command", "ms"], rows)
    assert len(rows) >= 7
