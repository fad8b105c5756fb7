"""Table 1: the index catalog — every family built, searched and profiled.

The paper's Table 1 lists the supported indexes (vector quantization,
inverted indexes, proximity graphs, attribute indexes).  This benchmark
builds every registered vector index on the same clustered dataset and
reports recall@10, build wall time, and the latency of a top-10 search in
both clocks — the cost model's virtual ms/query and the wall us/query the
numpy kernels actually take for the 30-query block (best of three) — the
catalog's functional proof plus each family's trade-off profile (VQ: low
memory / lower recall; IVF: balanced; graphs: high recall / high build
cost; SSD: block-budgeted).
"""

from __future__ import annotations

import time


from repro.datasets.synthetic import ground_truth, make_sift_like, \
    recall_at_k
from repro.index import available_indexes, create_index
from repro.sim.costmodel import CostModel

from conftest import print_series

PARAMS = {
    "IVF_FLAT": {"nlist": 32, "nprobe": 8},
    "IVF_PQ": {"nlist": 32, "nprobe": 8, "m": 16},
    "IVF_SQ8": {"nlist": 32, "nprobe": 8},
    "IVF_HNSW": {"nlist": 64, "nprobe": 16},
    "PQ": {"m": 16},
    "OPQ": {"m": 16, "train_iters": 3},
    "RQ": {"stages": 6},
    "IMI": {"ksub": 16, "candidate_factor": 16},
    "HNSW": {"M": 16, "ef_search": 64},
    "NSG": {"knn": 24, "ef_search": 64},
    "NGT": {"edge_size": 24, "ef_search": 64},
    "SSD": {"nprobe": 16, "replicas": 2},
}


def wall_s(work) -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def test_table1_index_catalog(benchmark):
    dataset = make_sift_like(n=2_000, nq=30)
    truth = ground_truth(dataset, 10)
    cost = CostModel()
    rows = []
    recalls: dict[str, float] = {}

    def run() -> None:
        for name in sorted(available_indexes()):
            index = create_index(name, dataset.metric, dataset.dim,
                                 **PARAMS.get(name, {}))
            build_s = wall_s(lambda: index.build(dataset.vectors))
            ids, _ = index.search(dataset.queries, 10)
            recall = recall_at_k(ids, truth)
            recalls[name] = recall
            wall_us = min(wall_s(lambda: index.search(dataset.queries, 10))
                          for _ in range(3)) * 1e6 / len(dataset.queries)
            stats = index.stats
            virtual_ms = (cost.distance_cost(stats.float_comparisons,
                                             dataset.dim)
                          + cost.distance_cost(stats.quantized_comparisons,
                                               dataset.dim, quantized=True)
                          + cost.ssd_read(stats.ssd_blocks_read)) \
                / len(dataset.queries)
            rows.append((name, recall, build_s, virtual_ms, wall_us,
                         stats.ssd_blocks_read))

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series("Table 1: index catalog on SIFT-like 2k (top-10)",
                 ["index", "recall@10", "build (wall s)",
                  "search (virtual ms/query)", "search (wall us/query)",
                  "ssd blocks"], rows)

    assert recalls["FLAT"] == 1.0
    # Every family is functional; exact expectations live in the tests.
    assert all(recall > 0.4 for recall in recalls.values()), recalls
    # The catalog covers all four Table-1 vector families.
    assert {"PQ", "OPQ", "RQ", "SQ8"} <= set(recalls)          # VQ
    assert {"IVF_FLAT", "IVF_PQ", "IVF_SQ8", "IVF_HNSW",
            "IMI"} <= set(recalls)                             # inverted
    assert {"HNSW", "NSG", "NGT"} <= set(recalls)              # graphs
    assert "SSD" in recalls                                    # SSD index
