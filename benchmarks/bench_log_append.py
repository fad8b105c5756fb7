"""Group commit on the WAL append path: throughput and ack latency.

The worst case for a log-first write path is a stream of tiny writes: a
synchronous single-row insert flushes its own one-op commit group, so
record-at-a-time publishing pays one broker publish, one tracer span, one
delivery fan-out and one LSM mapping write *per row*.  Async writers
(Section 3.3's "logger nodes batch requests" in this codebase) share
per-(collection, shard) commit groups that go out as one ``BatchRecord``
publish when a bound trips, and their ``AckFuture``s resolve only after
the batch is durable.

Four measurements:

* **throughput** (wall-clock, the deliverable of the optimisation):
  single-row appends into the full cluster, record-at-a-time (sync
  ``insert``) vs coalesced (``insert_async``) across batch-window sizes;
  at a window of >= 32 rows the coalesced path must ingest at least
  ``MIN_SPEEDUP``x faster;
* **ack latency** (virtual time): writes arriving at a fixed rate are
  acked when their group flushes — p50/p99 of submit-to-ack virtual ms
  quantify the latency the commit window trades for throughput
  (record-at-a-time acks are 0 ms by construction);
* **memtable flush** (wall-clock): the entity->segment LSM tree turning a
  full memtable into an SSTable blob, microseconds per key, against the
  per-key reference kept in ``tests/reference/build.py`` — and
  ``blob_equal``: the two blobs are the same bytes.  The ``ROWS`` appends
  above trip one flush between them, so the throughput series never saw
  this cost;
* **stream** (wall-clock): ``STREAM_ROWS`` rows in synchronous
  ``STREAM_BATCH``-row inserts — the end-to-end benchmark's
  ``ingest_stream`` shape, every memtable flush included.

Wall-clock timer reads are sanctioned deviations from the virtual-clock
rule — interpreter overhead is exactly what the batching removes.
Results land in ``BENCH_log_append.json`` at the repo root.
``MANU_BENCH_QUICK=1`` (CI smoke) trims row counts and the sweep but
keeps the headline window and every assert; of the flush and stream
series it drops only repeats.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.config import LogConfig, ManuConfig, SegmentConfig
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.storage.lsm import LsmTree
from repro.storage.object_store import ObjectStore

from conftest import print_series
from tests.reference.build import reference_sstable_bytes

QUICK = os.environ.get("MANU_BENCH_QUICK", "") not in ("", "0")

DIM = 16
ROWS = 400 if QUICK else 1600          # single-row appends per run
WINDOWS = (8, 32) if QUICK else (8, 32, 128)
REPEATS = 2                            # best-of, both modes: noise guard
HEADLINE_WINDOW = 32                   # acceptance: >= 3x at this bound
MIN_SPEEDUP = 3.0
ARRIVAL_GAP_MS = 0.25                  # latency section: 4 rows/virtual ms
COMMIT_WINDOW_MS = 2.0
FLUSH_KEYS = (1024, 8192)              # memtable sizes of the flush series
FLUSH_REPEATS = 3 if QUICK else 15     # best-of
STREAM_ROWS = 16_384                   # 16 memtable flushes at 2 shards
STREAM_BATCH = 64
STREAM_REPEATS = 1 if QUICK else 3     # best-of


def _wall() -> float:
    # manu-lint: disable=determinism -- wall-clock is the measured
    # quantity of this benchmark, not simulation time.
    return time.perf_counter()


def _schema() -> CollectionSchema:
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
    ])


def _cluster(group_rows: int = 64, window_ms: float = 0.0) -> ManuCluster:
    """Cluster tuned so the append path dominates: no seals mid-run;
    ``group_rows`` is the row bound of the commit window."""
    log = LogConfig(
        group_commit_rows=group_rows,
        group_commit_bytes=1 << 30,
        group_commit_window_ms=window_ms)
    config = ManuConfig(
        segment=SegmentConfig(seal_entity_count=1_000_000),
        log=log)
    cluster = ManuCluster(config=config, num_query_nodes=2,
                          num_index_nodes=1, num_loggers=2)
    cluster.create_collection("bench", _schema())
    return cluster


def _ingest_rows_per_s(group_rows, vectors) -> float:
    """Wall-clock rows/s for ``ROWS`` single-row appends + drain:
    async into a ``group_rows`` commit window, or — ``None``, the
    record-at-a-time baseline — sync, each row its own commit group."""
    cluster = _cluster() if group_rows is None else _cluster(group_rows)
    start = _wall()
    acks = []
    for i in range(ROWS):
        row = {"pk": [i], "vector": vectors[i:i + 1]}
        if group_rows is None:
            cluster.insert("bench", row)
        else:
            acks.append(cluster.insert_async("bench", row)[1])
    if group_rows is not None:
        cluster.logger_service.flush_all_groups()
    cluster.run_for(2_000)   # drain deliveries / gates in virtual time
    elapsed = _wall() - start
    assert cluster.collection_row_count("bench") == ROWS
    assert all(ack.done for ack in acks)
    return ROWS / elapsed


def _ack_latency_ms(group_rows, vectors) -> tuple[float, float, float]:
    """Virtual-time submit-to-ack latency (p50, p99, mean) under a fixed
    arrival rate with a ``COMMIT_WINDOW_MS`` commit window."""
    cluster = _cluster(group_rows, window_ms=COMMIT_WINDOW_MS)
    n = min(ROWS, 600)
    latencies: list[float] = []

    def submit(i: int) -> None:
        _pks, ack = cluster.insert_async(
            "bench", {"pk": [i], "vector": vectors[i:i + 1]})
        submitted = cluster.now()
        ack.add_done_callback(
            lambda _f: latencies.append(cluster.now() - submitted))

    for i in range(n):
        cluster.loop.call_after(i * ARRIVAL_GAP_MS,
                                lambda i=i: submit(i),
                                name=f"bench-submit:{i}")
    cluster.run_for(n * ARRIVAL_GAP_MS + 1_000)
    cluster.logger_service.flush_all_groups()
    assert len(latencies) == n
    p50, p99 = np.percentile(latencies, [50, 99])
    return float(p50), float(p99), float(np.mean(latencies))


def _memtable_flush(num_keys: int) -> dict:
    """One full memtable -> one SSTable blob: best-of wall-clock per key
    for the reference serialiser and for ``LsmTree.flush``, and whether
    the two blobs are the same bytes."""
    # What the logger writes: utf-8 decimal pks, a run of keys per
    # segment id.
    items = [(str(i * 7919 % 1_000_003).encode(),
              f"seg-{i // 32:06d}".encode()) for i in range(num_keys)]
    memtable = dict(items)
    best = {"reference": float("inf"), "current": float("inf")}
    blobs = {}
    for _ in range(FLUSH_REPEATS):
        store = ObjectStore()
        tree = LsmTree(memtable_limit=num_keys + 1, store=store,
                       store_prefix="m")
        tree.put_many(items)
        start = _wall()
        tree.flush()
        mid = _wall()
        blobs["reference"] = reference_sstable_bytes(
            sorted(memtable.items()))
        end = _wall()
        blobs["current"] = store.get("m/00000000.sst")
        best["current"] = min(best["current"], mid - start)
        best["reference"] = min(best["reference"], end - mid)
    return {"keys": num_keys,
            "reference_us_per_key": best["reference"] / num_keys * 1e6,
            "current_us_per_key": best["current"] / num_keys * 1e6,
            "speedup": best["reference"] / best["current"],
            "blob_equal": blobs["current"] == blobs["reference"]}


def _stream_rows_per_s(vectors) -> float:
    """Wall-clock rows/s of synchronous ``STREAM_BATCH``-row inserts at
    the default commit bounds, drained."""
    cluster = _cluster()
    start = _wall()
    for lo in range(0, STREAM_ROWS, STREAM_BATCH):
        cluster.insert("bench", {
            "pk": list(range(lo, lo + STREAM_BATCH)),
            "vector": vectors[lo:lo + STREAM_BATCH]})
        cluster.run_for(STREAM_BATCH / 20)
    cluster.run_for(2_000)
    elapsed = _wall() - start
    assert cluster.collection_row_count("bench") == STREAM_ROWS
    return STREAM_ROWS / elapsed


def test_log_append_group_commit(benchmark, rng):
    vectors = rng.standard_normal((ROWS, DIM)).astype(np.float32)
    results: dict = {}

    def run() -> None:
        baseline = max(_ingest_rows_per_s(None, vectors)
                       for _ in range(REPEATS))
        points = []
        for window in WINDOWS:
            rate = max(_ingest_rows_per_s(window, vectors)
                       for _ in range(REPEATS))
            p50, p99, mean = _ack_latency_ms(window, vectors)
            points.append({
                "window_rows": window,
                "rows_per_s": rate,
                "speedup": rate / baseline,
                "ack_p50_ms": p50,
                "ack_p99_ms": p99,
                "ack_mean_ms": mean,
            })
        results["baseline_rows_per_s"] = baseline
        results["points"] = points

        results["memtable_flush"] = [_memtable_flush(n)
                                     for n in FLUSH_KEYS]
        stream_vectors = rng.standard_normal(
            (STREAM_ROWS, DIM)).astype(np.float32)
        results["stream"] = {
            "rows": STREAM_ROWS, "batch_rows": STREAM_BATCH,
            "rows_per_s": max(_stream_rows_per_s(stream_vectors)
                              for _ in range(STREAM_REPEATS))}

    benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = results["baseline_rows_per_s"]
    rows = [("record-at-a-time", "-", baseline, 1.0, 0.0, 0.0)]
    for p in results["points"]:
        rows.append(("group-commit", p["window_rows"], p["rows_per_s"],
                     p["speedup"], p["ack_p50_ms"], p["ack_p99_ms"]))
    print_series(
        "WAL append: record-at-a-time vs group commit "
        f"(best-of-{REPEATS} wall-clock, {ROWS} single-row appends)",
        ["mode", "window (rows)", "rows/s", "speedup",
         "ack p50 (vms)", "ack p99 (vms)"], rows)

    print_series(
        f"memtable flush (best-of-{FLUSH_REPEATS} wall-clock, one full "
        "memtable -> one SSTable blob)",
        ["keys", "reference (us/key)", "current (us/key)", "speedup",
         "blob equal"],
        [(p["keys"], p["reference_us_per_key"], p["current_us_per_key"],
          p["speedup"], p["blob_equal"])
         for p in results["memtable_flush"]])
    print_series(
        f"stream (best-of-{STREAM_REPEATS} wall-clock)",
        ["rows", "batch (rows)", "rows/s"],
        [(STREAM_ROWS, STREAM_BATCH, results["stream"]["rows_per_s"])])

    out_path = Path(__file__).resolve().parent.parent \
        / "BENCH_log_append.json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"quick": QUICK, "rows": ROWS, "repeats": REPEATS,
                   "dim": DIM,
                   "min_speedup_required": MIN_SPEEDUP,
                   "headline_window_rows": HEADLINE_WINDOW,
                   "commit_window_ms": COMMIT_WINDOW_MS,
                   "baseline_rows_per_s": baseline,
                   "points": results["points"],
                   "memtable_flush": results["memtable_flush"],
                   "stream": results["stream"]},
                  f, indent=2)

    for p in results["memtable_flush"]:
        assert p["blob_equal"], (
            f"memtable flush at {p['keys']} keys wrote a blob that is "
            "not the reference serialiser's")
    for p in results["points"]:
        if p["window_rows"] >= HEADLINE_WINDOW:
            assert p["speedup"] >= MIN_SPEEDUP, (
                f"group commit at window {p['window_rows']} must be "
                f">= {MIN_SPEEDUP}x the record-at-a-time baseline, got "
                f"{p['speedup']:.2f}x")
