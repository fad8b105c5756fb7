"""Probe: interpreter opcodes per read request and per write step, by module.

The end-to-end benchmark's one-query workloads are dominated by what the
Python around the kernel costs per request, its stream by what it costs
per write, and wall time on a shared box moves by 20 % from run to run.
An opcode count of one request does not: it repeats exactly on one
CPython version.  This probe builds three shapes of the end-to-end
benchmark (``benchmarks/e2e``):

* ``search_sealed_nq1`` — 49 152 SIFT-like 128-d rows streamed in 64-row
  inserts into two query nodes, flushed and indexed ``IVF_FLAT`` (nlist
  64, nprobe 8), then single-vector BOUNDED searches;
* ``mixed_fresh`` — the same rows preloaded, flushed and indexed, then
  steps of a 16-row insert and a STRONG search of the last row (growing
  segments and their slices in every scan), two pks deleted every 8th
  step;
* ``ingest_step`` — the ``ingest_stream`` step: one 64-row sync insert
  and its 3.2 virtual-ms advance (deliveries, appends, memtable flushes
  and seals included), counted over ``INGEST_STEPS`` steps after
  ``INGEST_WARM`` rows;

and counts, with ``sys.settrace`` and ``f_trace_opcodes``, the opcodes a
traced search or step executes, per module (``repro/...`` by path;
``numpy``; everything else ``other``), as the mean over the counted
requests or steps.  The consistency wait of a STRONG search runs
event-loop work (deliveries, appends) and is counted with it.

Each shape is built twice, identically: one copy runs the script plain,
the other under the tracer, and the probe exits 1 unless the traced
copy's outputs equal the plain copy's: every request's hits (pks and
distances), or every step's last ack LSN and the final row count.  The counts
gate nothing: they differ between CPython versions.  Results land in
``BENCH_request_opcodes.json`` at the repo root (a full-mode run is
committed).  Run it as ``PYTHONPATH=src:. python
benchmarks/bench_request_opcodes.py``; ``MANU_BENCH_QUICK=1`` shrinks the
corpus to a quarter, the requests to 4 and the ingest steps to 32 (a
different shape: its counts are not the committed ones).
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.datasets.synthetic import make_sift_like

from conftest import print_series

QUICK = os.environ.get("MANU_BENCH_QUICK", "") not in ("", "0")

ROWS = 12_288 if QUICK else 49_152
REQUESTS = 4 if QUICK else 16
#: mixed_fresh steps run before the counted ones (every segment kind
#: present: sealed, growing with full slices, growing tails, deletions).
WARM_STEPS = 24 if QUICK else 96
INGEST_WARM = 4_096 if QUICK else 16_384
INGEST_STEPS = 32 if QUICK else 256
DIM, K, SEED = 128, 10, 7
COLLECTION, FIELD = "bench", "vector"
STREAM_BATCH, PRELOAD_BATCH, MIXED_BATCH, DELETE_EVERY = 64, 1024, 16, 8
ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro") + os.sep


def _module(filename: str) -> str:
    if filename.startswith(SRC):
        return "repro/" + filename[len(SRC):].replace(os.sep, "/")
    return "numpy" if f"{os.sep}numpy{os.sep}" in filename else "other"


class OpcodeCounter:
    """Opcodes executed inside ``with counter:`` blocks, by module."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._modules: dict = {}

    def _local(self, frame, event, _arg):
        if event == "opcode":
            code = frame.f_code
            module = self._modules.get(code)
            if module is None:
                module = self._modules[code] = _module(code.co_filename)
            self.counts[module] += 1
        return self._local

    def _global(self, frame, _event, _arg):
        frame.f_trace_opcodes = True
        return self._local

    def __enter__(self) -> "OpcodeCounter":
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def _cluster() -> ManuCluster:
    cluster = ManuCluster(num_query_nodes=2, num_index_nodes=1,
                          num_loggers=2)
    cluster.create_collection(COLLECTION, CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema(FIELD, DataType.FLOAT_VECTOR, dim=DIM)]))
    return cluster


def _insert(cluster: ManuCluster, vectors: np.ndarray, lo: int,
            hi: int) -> None:
    cluster.insert(COLLECTION, {"pk": np.arange(lo, hi, dtype=np.int64),
                                FIELD: vectors[lo:hi]})


def _index(cluster: ManuCluster) -> None:
    cluster.flush(COLLECTION)
    cluster.create_index(COLLECTION, FIELD, "IVF_FLAT",
                         MetricType.EUCLIDEAN, {"nlist": 64, "nprobe": 8})
    while not cluster.wait_for_indexes(COLLECTION, max_ms=0):
        cluster.run_for(10.0)
    cluster.run_for(200.0)


def _search(cluster: ManuCluster, query: np.ndarray,
            consistency: ConsistencyLevel) -> list:
    return cluster.search(COLLECTION, query, K, metric=MetricType.EUCLIDEAN,
                          consistency=consistency, staleness_ms=100.0)


def sealed(vectors: np.ndarray, queries: np.ndarray,
           counter: OpcodeCounter | None) -> list:
    """The sealed nq=1 script; every search under ``counter``."""
    cluster = _cluster()
    for lo in range(0, ROWS, STREAM_BATCH):
        _insert(cluster, vectors, lo, lo + STREAM_BATCH)
        cluster.run_for(STREAM_BATCH / 20)
    _index(cluster)
    hits = []
    for i in range(REQUESTS + 1):       # the first one warms up
        cluster.run_for(100.0)
        if counter is None or i == 0:
            found = _search(cluster, queries[i], ConsistencyLevel.BOUNDED)
        else:
            with counter:
                found = _search(cluster, queries[i],
                                ConsistencyLevel.BOUNDED)
        hits.append(found)
    return hits


def mixed(vectors: np.ndarray, counter: OpcodeCounter | None) -> list:
    """The mixed_fresh script; the last ``REQUESTS`` searches under
    ``counter``."""
    cluster = _cluster()
    for lo in range(0, ROWS, PRELOAD_BATCH):
        _insert(cluster, vectors, lo, lo + PRELOAD_BATCH)
        cluster.run_for(10.0)
    _index(cluster)
    hits = []
    for i in range(WARM_STEPS + REQUESTS):
        lo = ROWS + i * MIXED_BATCH
        _insert(cluster, vectors, lo, lo + MIXED_BATCH)
        query = vectors[lo + MIXED_BATCH - 1]
        if counter is None or i < WARM_STEPS:
            found = _search(cluster, query, ConsistencyLevel.STRONG)
        else:
            with counter:
                found = _search(cluster, query, ConsistencyLevel.STRONG)
        hits.append(found)
        cluster.run_for(1.0)
        if i % DELETE_EVERY == DELETE_EVERY - 1:
            first = 2 * (i // DELETE_EVERY)
            cluster.delete(COLLECTION, f"pk in [{first}, {first + 1}]")
    return hits


def ingest(vectors: np.ndarray, counter: OpcodeCounter | None) -> list:
    """The ingest_stream script; the last ``INGEST_STEPS`` steps under
    ``counter``.  Returns each step's last ack LSN (the proxy's session
    timestamp after the sync insert), then the collection's row count."""
    cluster = _cluster()
    outputs = []
    for lo in range(0, INGEST_WARM + INGEST_STEPS * STREAM_BATCH,
                    STREAM_BATCH):
        counted = counter is not None and lo >= INGEST_WARM
        with counter if counted else nullcontext():
            _insert(cluster, vectors, lo, lo + STREAM_BATCH)
            cluster.run_for(STREAM_BATCH / 20)
        outputs.append(cluster.proxy()._session_ts)
    outputs.append(cluster.collection_row_count(COLLECTION))
    return outputs


def _same(plain: list, traced: list) -> bool:
    return len(plain) == len(traced) and all(
        a == b if not isinstance(a, list) else len(a) == len(b) and all(
            x.pks == y.pks and x.distances == y.distances
            for x, y in zip(a, b))
        for a, b in zip(plain, traced))


def run() -> dict:
    extra = WARM_STEPS + REQUESTS
    data = make_sift_like(n=ROWS + extra * MIXED_BATCH, nq=REQUESTS + 1,
                          dim=DIM, seed=SEED)
    shapes = {}
    for name, unit, units, script in (
            ("search_sealed_nq1", "request", REQUESTS,
             lambda counter: sealed(data.vectors, data.queries, counter)),
            ("mixed_fresh", "request", REQUESTS,
             lambda counter: mixed(data.vectors, counter)),
            ("ingest_step", "step", INGEST_STEPS,
             lambda counter: ingest(data.vectors, counter))):
        plain = script(None)
        counter = OpcodeCounter()
        traced = script(counter)
        total = sum(counter.counts.values())
        shapes[name] = {
            "unit": unit,
            "outputs_equal": _same(plain, traced),
            "opcodes_per_unit": total / units,
            "by_module": {module: count / units for module, count
                          in counter.counts.most_common()}}
    doc = {"quick": QUICK, "python": sys.version.split()[0], "rows": ROWS,
           "requests": REQUESTS, "warm_steps": WARM_STEPS,
           "ingest_warm_rows": INGEST_WARM, "ingest_steps": INGEST_STEPS,
           "shapes": shapes}
    with open(ROOT / "BENCH_request_opcodes.json", "w",
              encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    for name, shape in shapes.items():
        print_series(
            "%s: %.0f opcodes per %s (mean; outputs equal to a plain run: "
            "%s)" % (name, shape["opcodes_per_unit"], shape["unit"],
                     shape["outputs_equal"]),
            ["module", "opcodes per " + shape["unit"]],
            [(module, round(count, 1)) for module, count
             in list(shape["by_module"].items())[:20]])
    return doc


def _passed(doc: dict) -> bool:
    return all(shape["outputs_equal"] for shape in doc["shapes"].values())


def test_request_opcodes(benchmark):
    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert _passed(doc), doc


if __name__ == "__main__":
    sys.exit(0 if _passed(run()) else 1)
