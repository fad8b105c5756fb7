"""The four closed-loop workloads and their output checks.

The system is a single-threaded discrete-event simulator whose calls
return only when done, so every workload is a closed loop with one client
in this one process.  A *lifecycle* builds a fresh default-config cluster,
sets it up, runs timed *rounds* on it and checks every output:

====================  ========================  ==========================
workload              set-up                    one round (timed)
====================  ========================  ==========================
search_sealed_nq1     stream rows, flush,       single-vector searches,
                      index                     R rounds on one cluster
search_sealed_nq64    stream rows, flush,       64-row search requests,
                      index                     R rounds on one cluster
ingest_stream         empty cluster             stream rows, flush, index;
                                                a fresh cluster per round
mixed_fresh           bulk preload, flush,      insert + STRONG search +
                      index                     delete steps; a fresh
                                                cluster per round
====================  ========================  ==========================

Rounds of one run are identical op for op.  Every call into the program
is one recorded op; a lifecycle's ops are grouped into named sections
("setup", "round", "check") and every time-derived metric is computed per
section from its op durations (``summarise``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import (CollectionSchema, DataType, FieldSchema,
                               MetricType)
from repro.datasets.synthetic import make_sift_like
from repro.errors import ManuError

from clock import SpeedLog, cpu, wall

COLLECTION = "bench"
FIELD = "vector"
DIM = 128
K = 10
INDEX_TYPE = "IVF_FLAT"
INDEX_PARAMS = {"nlist": 64, "nprobe": 8}
MIN_RECALL = 0.95
CORPUS_SEED = 7           # make_sift_like's own default
HELD_OUT = 1024           # query vectors never inserted
CHECK_QUERIES = 256       # of them, asked again by the recall check
STREAM_BATCH = 64         # rows per streamed insert
ROWS_PER_VIRTUAL_MS = 20  # streamed arrival rate
PRELOAD_BATCH = 1024      # rows per bulk-preload insert
MIXED_BATCH = 16          # rows per mixed_fresh step
DELETE_EVERY = 8          # mixed_fresh: one 2-pk delete every N steps
SEALED_SETUPS = 3         # set-ups per run of a sealed workload
USER_BYTES_PER_ROW = DIM * 4 + 8  # float32 vector + int64 pk

KIND, STEP, START, END, SIZE = range(5)   # fields of one recorded op
#: op kinds that make up one ingest step (an insert and the loop advance,
#: plus the occasional delete, that follow it).
INGEST_KINDS = ("insert", "advance", "delete")
#: op kinds that only advance the event loop: not operations a user
#: attempted, so they are not counted in ``attempted``.
LOOP_KINDS = ("advance", "idle", "drain", "settle", "index_wait")


@dataclass(frozen=True)
class Spec:
    """Fixed sizes of one workload (op counts, never durations, so that
    counters repeat exactly)."""

    name: str
    why: str
    rows: int             # rows streamed (or bulk-preloaded for mixed)
    rounds: int           # timed rounds per run, however slow the machine
    requests: int = 0     # search requests per round (sealed workloads)
    nq: int = 1           # query rows per search request
    gap_ms: float = 100.0  # virtual ms between search requests
    steps: int = 0        # mixed_fresh steps per round

    @property
    def sealed(self) -> bool:
        """Rounds leave the cluster as they found it, so they share one."""
        return self.requests > 0

    def scaled(self, factor: float) -> "Spec":
        """Same shape at a fraction of the size (the warm-up lifecycle)."""
        def shrink(n: int, unit: int) -> int:
            return max(unit, int(n * factor) // unit * unit) if n else 0
        return replace(self, rows=shrink(self.rows, PRELOAD_BATCH),
                       requests=shrink(self.requests, 8),
                       steps=shrink(self.steps, DELETE_EVERY))

    @property
    def total_rows(self) -> int:
        return self.rows + self.steps * MIXED_BATCH


# Sizes are what the driver's time cap leaves room for (92 runs in 3420 s,
# set-up and checks included); README.md has the measurements.
SPECS = {spec.name: spec for spec in (
    Spec("search_sealed_nq1",
         "per-request Python overhead (proxy planes, per-segment loop, "
         "tiny merges) dominates and the index kernel is a minority",
         rows=49_152, rounds=3, requests=1024),
    Spec("search_sealed_nq64",
         "per-query probe loop, post-filter walk and per-query merges "
         "dominate; request overhead is amortised over 64 query rows",
         rows=49_152, rounds=6, requests=16, nq=64, gap_ms=2000.0),
    Spec("ingest_stream",
         "write path alone: proxy, group commit, LSM, broker delivery, "
         "growing append + temp-index k-means, seal, binlog, bulk build",
         rows=49_152, rounds=4),
    Spec("mixed_fresh",
         "writes beside STRONG reads: every search pays the consistency "
         "wait and scans growing + sealed segments (paper Fig. 6/12)",
         rows=49_152, rounds=3, steps=640),
)}


@dataclass
class Data:
    """Inputs generated from the seed; the program only ever sees these
    arrays."""

    pks: np.ndarray
    vectors: np.ndarray
    queries: np.ndarray


def make_data(spec: Spec, seed: int) -> Data:
    """One fixed SIFT-like corpus, inserted in an order drawn from
    ``seed``.  Which rows share a segment, hence every k-means and every
    IVF list, follows the seed, while the work stays statistically the
    same: a corpus drawn afresh per seed moves the float comparisons of a
    search by 7 % with its cluster geometry (interquartile range over the
    median of ten seeds; 19 % between the extremes), the permutation by
    1.2 %, and the driver holds the ten-seed spread of every metric
    against its bound."""
    dataset = make_sift_like(n=spec.total_rows, nq=HELD_OUT, dim=DIM,
                             seed=CORPUS_SEED)
    order = np.random.default_rng(seed).permutation(spec.total_rows)
    return Data(np.arange(spec.total_rows, dtype=np.int64),
                dataset.vectors[order], dataset.queries)


def deleted_pks(spec: Spec) -> np.ndarray:
    """pks the mixed workload deletes (two preloaded rows per delete)."""
    return np.arange(2 * (spec.steps // DELETE_EVERY), dtype=np.int64)


def ground_truth(spec: Spec, data: Data, queries: np.ndarray) -> np.ndarray:
    """Exact Euclidean top-k pks of ``queries`` over the rows the workload
    leaves live, by numpy brute force (the oracle)."""
    live = np.ones(spec.total_rows, dtype=bool)
    live[deleted_pks(spec)] = False
    vectors, pks = data.vectors[live], data.pks[live]
    dists = np.einsum("ij,ij->i", vectors, vectors)[None, :] \
        - 2.0 * (queries @ vectors.T)
    part = np.argpartition(dists, K - 1, axis=1)[:, :K]
    order = np.argsort(np.take_along_axis(dists, part, axis=1), axis=1)
    return pks[np.take_along_axis(part, order, axis=1)]


@dataclass
class Section:
    """A named run of consecutive ops of one lifecycle."""

    name: str             # "setup", "warmup", "round" or "check"
    ops: slice
    wall: tuple[float, float]
    cpu_s: float

    @property
    def cpu_over_wall(self) -> float:
        return self.cpu_s / (self.wall[1] - self.wall[0])


class Lifecycle:
    """One fresh cluster driven through set-up, rounds and checks.

    Every call into the program goes through :meth:`op`, which records
    ``(kind, step, start, end, size)``; latencies, throughputs and the
    traced ledger's root spans are all derived from that one list.
    """

    def __init__(self, spec: Spec, data: Data, speed: SpeedLog) -> None:
        self.spec = spec
        self.data = data
        self.speed = speed
        self.ops: list[tuple[str, int, float, float, int]] = []
        self.sections: list[Section] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.results: list[tuple[str, int, np.ndarray, list]] = []
        self.inserted = 0
        self.deleted: set[int] = set()
        self.recall = float("nan")
        self.cluster: ManuCluster | None = None

    def _create(self) -> ManuCluster:
        cluster = ManuCluster(num_query_nodes=2, num_index_nodes=1,
                              num_loggers=2)
        cluster.create_collection(COLLECTION, CollectionSchema([
            FieldSchema("pk", DataType.INT64, is_primary=True),
            FieldSchema(FIELD, DataType.FLOAT_VECTOR, dim=DIM)]))
        return cluster

    # -- primitives -----------------------------------------------------

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        gc.collect()
        first, wall_start, cpu_start = len(self.ops), wall(), cpu()
        yield
        self.speed.probe_if_due()
        self.sections.append(Section(
            name, slice(first, len(self.ops)), (wall_start, wall()),
            cpu() - cpu_start))

    def op(self, kind: str, step: int, size: int, fn: Callable,
           *args, **kwargs):
        """Run one call into the program; a raised ``ManuError`` is a
        failed op, not a crash."""
        if kind not in LOOP_KINDS:
            self.attempted += 1
        self.speed.probe_if_due()
        start = wall()
        try:
            out = fn(*args, **kwargs)
        except ManuError as exc:
            self.fail(f"{kind}[{step}] raised {type(exc).__name__}: {exc}")
            out = None
        self.ops.append((kind, step, start, wall(), size))
        return out

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def insert(self, step: int, lo: int, hi: int,
               kind: str = "insert") -> None:
        self.op(kind, step, hi - lo, self.cluster.insert, COLLECTION,
                {"pk": self.data.pks[lo:hi], FIELD: self.data.vectors[lo:hi]})
        self.inserted += hi - lo

    def search(self, kind: str, step: int, query_ids: np.ndarray,
               queries: np.ndarray, consistency: ConsistencyLevel) -> None:
        out = self.op(kind, step, len(query_ids), self.cluster.search,
                      COLLECTION, queries, K, metric=MetricType.EUCLIDEAN,
                      consistency=consistency, staleness_ms=100.0)
        if out is not None:
            self.results.append((kind, step, query_ids, out))

    def wait(self, kind: str, done: Callable[[], bool], what: str,
             max_ms: float = 20_000.0) -> None:
        """Advance the loop 10 virtual ms at a time until ``done()``."""
        deadline = self.cluster.now() + max_ms
        while not done():
            if self.cluster.now() >= deadline:
                self.fail(what)
                return
            self.op(kind, 0, 0, self.cluster.run_for, 10.0)

    # -- phases ---------------------------------------------------------

    def stream(self, rows: int) -> None:
        """Stream ``rows`` in 64-row inserts at 20 rows per virtual ms,
        then wait until ``collection_row_count`` counts every row."""
        for step, lo in enumerate(range(0, rows, STREAM_BATCH)):
            self.insert(step, lo, min(lo + STREAM_BATCH, rows))
            self.op("advance", step, 0, self.cluster.run_for,
                    STREAM_BATCH / ROWS_PER_VIRTUAL_MS)
        self.wait("drain",
                  lambda: self.cluster.collection_row_count(COLLECTION)
                  == rows, f"not all {rows} streamed rows became visible")

    def preload(self, rows: int) -> None:
        for step, lo in enumerate(range(0, rows, PRELOAD_BATCH)):
            self.insert(step, lo, min(lo + PRELOAD_BATCH, rows), "preload")
            self.op("settle", step, 0, self.cluster.run_for, 10.0)

    def seal_and_index(self) -> None:
        """Flush, declare the index, wait until ``wait_for_indexes`` is
        true and every sealed segment serves from its index (the "index"
        and "index_wait" ops add up to ``index_ready_s``)."""
        self.op("flush", 0, 0, self.cluster.flush, COLLECTION)
        self.op("index", 0, 0, self.cluster.create_index, COLLECTION, FIELD,
                INDEX_TYPE, MetricType.EUCLIDEAN, INDEX_PARAMS)
        self.wait("index_wait",
                  lambda: self.cluster.wait_for_indexes(COLLECTION, max_ms=0)
                  and self._all_indexed(),
                  "index never became ready on every sealed segment")

    def _all_indexed(self) -> bool:
        seen = set()
        for node in self.cluster.query_coord.live_nodes():
            for segment_id in node.segments_of(COLLECTION):
                segment = node.segment(COLLECTION, segment_id)
                if segment_id not in seen and segment.is_sealed \
                        and not segment.has_index(FIELD):
                    return False
                seen.add(segment_id)
        return True

    def search_round(self, kind: str, requests: int, nq: int, gap_ms: float,
                     consistency=ConsistencyLevel.BOUNDED) -> None:
        """``requests`` searches of ``nq`` held-out rows each, one every
        ``gap_ms`` virtual ms so no virtual queue forms."""
        t0 = self.cluster.now() + gap_ms
        for i in range(requests):
            ids = (i * nq + np.arange(nq)) % HELD_OUT
            self.op("idle", i, 0, self.cluster.run_until, t0 + gap_ms * i)
            self.search(kind, i, ids, self.data.queries[ids], consistency)

    def mixed_round(self) -> None:
        """Each step: insert 16 rows, STRONG-search the last one, advance
        1 virtual ms; every 8th step delete two preloaded pks."""
        spec, data = self.spec, self.data
        for i in range(spec.steps):
            lo = spec.rows + i * MIXED_BATCH
            hi = lo + MIXED_BATCH
            self.insert(i, lo, hi)
            self.search("search", i, np.array([hi - 1]),
                        data.vectors[hi - 1], ConsistencyLevel.STRONG)
            self.op("advance", i, 0, self.cluster.run_for, 1.0)
            if i % DELETE_EVERY == DELETE_EVERY - 1:
                first = 2 * (i // DELETE_EVERY)
                self.op("delete", i, 0, self.cluster.delete, COLLECTION,
                        f"pk in [{first}, {first + 1}]")
                self.deleted.update((first, first + 1))

    # -- the lifecycle --------------------------------------------------

    def run(self, rounds: int, deadline: float = 0.0) -> None:
        """Set up, then ``rounds`` timed rounds and more until the wall
        clock reaches ``deadline`` (the sealed workloads after one
        discarded warm-up round), then, where the rounds do not search
        held-out queries themselves, the recall check: 256 of them, one
        by one on ingest_stream, 64 per STRONG request (growing segments
        included) on mixed_fresh."""
        spec = self.spec
        with self.section("setup"):
            self.cluster = self.op("create", 0, 0, self._create)
            if spec.sealed:
                self.stream(spec.rows)
                self.seal_and_index()
            elif spec.steps:
                self.preload(spec.rows)
                self.seal_and_index()
        if not rounds:
            return
        if spec.sealed:
            with self.section("warmup"):
                self.search_round("search", spec.requests, spec.nq,
                                  spec.gap_ms)
        done = 0
        while done < rounds or wall() < deadline:
            done += 1
            with self.section("round"):
                if spec.sealed:
                    self.search_round("search", spec.requests, spec.nq,
                                      spec.gap_ms)
                elif spec.steps:
                    self.mixed_round()
                else:
                    self.stream(spec.rows)
                    self.seal_and_index()
        if spec.sealed:     # its rounds ask every held-out query
            return
        with self.section("check"):
            if spec.steps:
                self.search_round("check", CHECK_QUERIES // 64, 64, 2000.0,
                                  ConsistencyLevel.STRONG)
            else:
                self.search_round("check", CHECK_QUERIES, 1, 100.0)

    # -- output checks --------------------------------------------------

    def verify(self, truth: np.ndarray | None) -> None:
        """Check every recorded result and the row count; sets ``recall``
        (recall@10 over the searches of held-out queries) when given
        ground truth."""
        mixed = bool(self.spec.steps)
        held_out = "search" if self.spec.sealed else "check"
        hits = total = 0
        deleted_so_far: set[int] = set()
        for kind, step, query_ids, results in self.results:
            if len(results) != len(query_ids):
                self.fail(f"{kind}[{step}] returned {len(results)} results "
                          f"for {len(query_ids)} queries")
                continue
            if mixed and kind == "search":
                deleted_so_far = set(range(2 * (step // DELETE_EVERY)))
            for query_id, result in zip(query_ids, results):
                pks = result.pks
                dists = result.distances
                if len(pks) != K:
                    self.fail(f"{kind}[{step}] returned {len(pks)} hits, "
                              f"wanted {K}")
                elif any(a > b for a, b in zip(dists, dists[1:])):
                    self.fail(f"{kind}[{step}] hits not in ascending "
                              f"distance")
                if mixed and kind == "search":
                    if not pks or pks[0] != query_id:
                        self.fail(f"search[{step}] missed its own write "
                                  f"pk {query_id} at rank 1")
                    if deleted_so_far.intersection(pks):
                        self.fail(f"search[{step}] returned a deleted pk")
                elif mixed and self.deleted.intersection(pks):
                    self.fail(f"check[{step}] returned a deleted pk")
                if kind == held_out and truth is not None:
                    hits += len(set(pks) & set(truth[query_id].tolist()))
                    total += K
        self.cluster.run_for(200.0)
        want = self.inserted - len(self.deleted)
        have = self.cluster.collection_row_count(COLLECTION)
        if have != want:
            self.fail(f"row count {have}, expected {want} "
                      f"(inserted - deleted)")
        if total:
            self.recall = hits / total

    def release(self) -> None:
        """Drop the cluster and its results so the next lifecycle's peak
        memory is one cluster's, not the run's."""
        self.cluster = None
        self.results.clear()

    # read the two below only once the lifecycle has run

    @cached_property
    def slowdowns(self) -> np.ndarray:
        """How slow the machine ran around each op."""
        return np.array([self.speed.slowdown(op[START], op[END])
                         for op in self.ops])

    @cached_property
    def durations(self) -> np.ndarray:
        """Seconds each op took: wall clock at reference machine speed."""
        return np.array([op[END] - op[START]
                         for op in self.ops]) / self.slowdowns


def run_lifecycle(spec: Spec, data: Data, truth: np.ndarray | None,
                  speed: SpeedLog, rounds: int,
                  deadline: float = 0.0) -> Lifecycle:
    life = Lifecycle(spec, data, speed)
    life.run(rounds, deadline)
    life.verify(truth)
    return life


def run_workload(spec: Spec, data: Data, truth: np.ndarray,
                 speed: SpeedLog, seconds: float) -> list[Lifecycle]:
    """The measured lifecycles of one run, clusters released:
    ``spec.rounds`` rounds, and more of the same fixed size while
    ``seconds`` of wall clock have not gone by.  A sealed workload sets up
    ``SEALED_SETUPS`` times (every set-up is a sample of ``setup_s`` and
    of the write-path metrics) and runs all its rounds on the last
    cluster; the other two need a fresh cluster per round."""
    deadline = wall() + seconds
    lives = []

    def run(rounds: int, until: float = 0.0) -> None:
        lives.append(run_lifecycle(spec, data, truth, speed, rounds, until))
        lives[-1].release()

    if spec.sealed:
        for _ in range(SEALED_SETUPS - 1):
            run(0)
        run(spec.rounds, deadline)
    else:
        while len(lives) < spec.rounds or wall() < deadline:
            run(1)
    return lives


def summarise(ops: list[tuple], durations: np.ndarray) -> dict[str, float]:
    """The time-derived metrics a run of ops supports, given one duration
    per op.  Every time is a sum of op durations; the harness's own work
    between ops is in none of them."""
    kinds = np.array([op[KIND] for op in ops])
    steps = np.array([op[STEP] for op in ops])
    sizes = np.array([op[SIZE] for op in ops])

    def total(*wanted: str) -> float:
        return float(durations[np.isin(kinds, wanted)].sum())

    out = {"section_s": float(durations.sum())}
    writes, reads = kinds == "insert", np.isin(kinds, ("search", "check"))
    # where writes and reads share the loop, both rates are over all of it
    shared = out["section_s"] if writes.any() and reads.any() else 0.0
    if writes.any():
        mask = np.isin(kinds, INGEST_KINDS)
        per_step = np.bincount(steps[mask], weights=durations[mask])
        out["ingest_step_p50_ms"] = float(np.percentile(per_step, 50)) * 1e3
        out["ingest_step_p99_ms"] = float(np.percentile(per_step, 99)) * 1e3
        out["ingest_rows_per_s"] = float(sizes[writes].sum()) / (
            shared or total("insert", "advance", "drain"))
    if (kinds == "index").any():
        out["index_ready_s"] = total("index", "index_wait")
    if reads.any():
        out["search_p50_ms"] = float(np.percentile(durations[reads], 50)) * 1e3
        out["search_p99_ms"] = float(np.percentile(durations[reads], 99)) * 1e3
        out["search_qps"] = float(sizes[reads].sum()) / (
            shared or total("idle", "search", "check"))
    return out
