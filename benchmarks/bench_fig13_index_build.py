"""Figure 13: index construction time scales linearly with data volume.

Paper setup: measure index build time while growing the collection;
"index building time scales linearly with data volume ... because Manu
builds index for each segment and larger data volume leads to more
segments".

Reproduction: 1x-8x volumes (1k-8k vectors) in fixed 512-row segments;
the collection is flushed and a batch index build is requested; the
reported duration is the virtual time from the request until every
segment's index is announced, on one index node (so segment builds
serialize, exactly the linear mechanism of the paper).  IVF_FLAT and
IVF_PQ stand in for the paper's IVF-FLAT/HNSW pair — both real builds.
The wall time of the same interval is printed beside it: what the builds
cost the Python, where the virtual column is what the cost model charges.
"""

from __future__ import annotations

import time

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.datasets.synthetic import make_sift_like

from conftest import print_series

VOLUMES = (1_000, 2_000, 4_000, 8_000)
INDEXES = {
    "IVF_FLAT": {"nlist": 32, "nprobe": 8},
    "IVF_PQ": {"nlist": 32, "nprobe": 8, "m": 16},
}


def test_fig13_index_build_time(benchmark):
    full = make_sift_like(n=VOLUMES[-1], nq=10)
    table: dict[tuple[str, int], float] = {}
    wall_ms: dict[tuple[str, int], float] = {}

    def run() -> None:
        for index_type, params in INDEXES.items():
            for volume in VOLUMES:
                config = ManuConfig(
                    segment=SegmentConfig(seal_entity_count=512))
                cluster = ManuCluster(config=config, num_query_nodes=1,
                                      num_index_nodes=1)
                schema = CollectionSchema([
                    FieldSchema("vector", DataType.FLOAT_VECTOR,
                                dim=full.dim)])
                cluster.create_collection("c", schema)
                cluster.insert("c", {"vector": full.vectors[:volume]})
                cluster.run_for(500)
                cluster.flush("c")
                start = cluster.now()
                t0 = time.perf_counter()
                cluster.create_index("c", "vector", index_type,
                                     full.metric, params)
                assert cluster.wait_for_indexes("c", max_ms=10_000_000)
                wall_ms[(index_type, volume)] = (time.perf_counter() - t0) * 1e3
                table[(index_type, volume)] = cluster.now() - start

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [(index_type, volume, table[(index_type, volume)],
             wall_ms[(index_type, volume)])
            for index_type in INDEXES for volume in VOLUMES]
    print_series("Figure 13: index build time vs data volume",
                 ["index", "volume", "build time (virtual ms)",
                  "build time (wall ms)"], rows)

    for index_type in INDEXES:
        series = [table[(index_type, v)] for v in VOLUMES]
        # Monotone increase, and roughly linear: time per vector stays
        # within a 2x band across an 8x volume range.
        assert all(b > a for a, b in zip(series, series[1:])), index_type
        per_vector = [t / v for t, v in zip(series, VOLUMES)]
        assert max(per_vector) <= 2.0 * min(per_vector), \
            f"{index_type}: build time should be ~linear, got {series}"
