"""Per-layer ledger: self times from the traced lifecycle, exact counts,
the two clocks side by side, and the stand-alone probes.

A layer's number is its *self time* — span duration minus the part its
child spans cover — as mean ms per end-to-end op (search request or
ingest step) for request-driven layers and total seconds for bulk phases.
README.md holds the table of which end-to-end metric each entry should
move, on which workload.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import create_index
from repro.nodes.index_node import estimate_build_ms
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel

from clock import wall
from spans import END, NAME, PARENT, START, VALUE, Recorder
from workloads import (COLLECTION, DIM, INDEX_PARAMS, INGEST_KINDS, K, KIND,
                       USER_BYTES_PER_ROW, Data, Lifecycle, Section)

PROBE_INDEXES = ("IVF_FLAT", "IVF_HNSW", "HNSW", "IVF_PQ")
PROBE_ROWS, PROBE_NQ = 2048, 64
PLANE_BLOCK = 150   # searches per tracing-plane on/off block
INGEST = ("<ingest window>",)   # sentinel for Ledger.pick
EXPLAIN_QUERIES = 64


def round_of(life: Lifecycle) -> Section:
    """The timed round of a one-round lifecycle."""
    return next(s for s in life.sections if s.name == "round")


def timed_s(life: Lifecycle) -> float:
    """Seconds inside the program from set-up to the end of the round."""
    return float(life.durations[:round_of(life).ops.stop].sum())


class Ledger:
    """Spans of one traced lifecycle, attributed to the op that caused
    them."""

    def __init__(self, recorder: Recorder, life: Lifecycle) -> None:
        self.spans = recorder.spans
        self.ops = life.ops
        self.life = life
        self.timed_window = round_of(life).wall
        self.owner = recorder.op_of(self.ops)
        # Raw wall for the bookkeeping checks; what the metrics report is
        # scaled to reference machine speed like the end-to-end times, by
        # the slowdown around the op each span ran under.
        self.raw_own = recorder.self_times()
        self.slowdown = float(np.median(
            life.slowdowns[round_of(life).ops]))   # over the timed round
        between = float(np.median(life.slowdowns))
        scale = [1.0 / (life.slowdowns[op] if op >= 0 else between)
                 for op in self.owner]
        self.own = [own * k for own, k in zip(self.raw_own, scale)]
        self.length = [(span[END] - span[START]) * k
                       for span, k in zip(self.spans, scale)]
        self.kind = [self.ops[op][KIND] if op >= 0 else ""
                     for op in self.owner]
        # The ingest window: from the first streamed/mixed insert to the
        # last op of an ingest step.  Write-path layers are charged to it
        # whichever op they ran under -- on mixed_fresh a delivery (and
        # the temp-index build inside it) runs within the *next search's*
        # consistency wait.
        kinds = [op[KIND] for op in self.ops]
        # the searches the read-path entries describe: the workload's own,
        # or the recall check's where it has none (ingest_stream)
        self.read_kind = "search" if "search" in kinds else "check"
        first = kinds.index("insert")
        last = max(i for i, kind in enumerate(kinds) if kind in INGEST_KINDS)
        self.ingesting = [first <= op <= last for op in self.owner]
        self.under_delivery = recorder.has_ancestor("broker.deliver.")
        self.under_build = recorder.has_ancestor("index_node.submit_build")

    def pick(self, name: str, kinds: tuple = (), keep=None) -> list[int]:
        """Spans of a layer; ``kinds`` is a tuple of op kinds that must
        have caused them, or ``INGEST`` for the ingest window."""
        return [i for i, span in enumerate(self.spans)
                if span[NAME].startswith(name)
                and (not kinds or (self.ingesting[i] if kinds is INGEST
                                   else self.kind[i] in kinds))
                and (keep is None or keep(i))]

    def self_s(self, name: str, kinds: tuple = (), keep=None) -> float:
        return sum(self.own[i] for i in self.pick(name, kinds, keep))

    def span_s(self, name: str, kinds: tuple = (), keep=None) -> float:
        return sum(self.length[i] for i in self.pick(name, kinds, keep))

    def parent_is(self, name: str):
        return lambda i: (self.spans[i][PARENT] >= 0 and
                          self.spans[self.spans[i][PARENT]][NAME] == name)

    def outermost(self, i: int) -> bool:
        """Not nested in a span of the same name (composite indexes
        build and search their parts through the same entry points)."""
        parent = self.spans[i][PARENT]
        return parent < 0 or self.spans[parent][NAME] != self.spans[i][NAME]

    # -- checks ---------------------------------------------------------

    def reconcile(self) -> list[str]:
        """The ledger must add up: within every op, span self times sum
        to the time its top-level spans cover, which fits inside the op
        (1% tolerance); returns the discrepancies."""
        self_sum = [0.0] * len(self.ops)
        top_sum = [0.0] * len(self.ops)
        problems = []
        for i, span in enumerate(self.spans):
            op = self.owner[i]
            if self.raw_own[i] < -1e-6:
                problems.append(f"{span[NAME]}: negative self time")
            if op < 0:
                continue
            self_sum[op] += self.raw_own[i]
            if span[PARENT] < 0:
                top_sum[op] += span[END] - span[START]
        for op, (kind, step, start, end, _size) in enumerate(self.ops):
            slack = 0.01 * (end - start) + 1e-6
            if abs(self_sum[op] - top_sum[op]) > slack:
                problems.append(f"{kind}[{step}]: self times "
                                f"{self_sum[op]:.6f}s != spans "
                                f"{top_sum[op]:.6f}s")
            if top_sum[op] > end - start + slack:
                problems.append(f"{kind}[{step}]: spans exceed the op")
        return problems

    def unattributed_ratio(self) -> float:
        """Share of the timed wall that is inside no wrapped layer (op
        roots' own self time plus the harness between ops)."""
        lo, hi = self.timed_window
        covered = sum(span[END] - span[START] for span in self.spans
                      if span[PARENT] < 0 and lo <= span[START] <= hi)
        return 1.0 - covered / (hi - lo)

    def table(self) -> list[tuple[str, int, float]]:
        """(span name, calls, total self seconds) over the timed section,
        largest first; index builds are split into growing-slice temp
        builds and index-node builds."""
        lo, hi = self.timed_window
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if not lo <= span[START] <= hi:
                continue
            name = span[NAME]
            if name == "index.build":
                name += "[temp]" if self.under_delivery[i] else "[sealed]"
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + self.own[i]
        return sorted(((name, calls[name], total[name]) for name in calls),
                      key=lambda row: -row[2])

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        searches = [r for r in self.life.results if r[0] == self.read_kind]
        n_search = max(1, len(searches))
        query_rows = max(1, sum(len(r[2]) for r in searches))
        n_steps = max(1, sum(1 for op in self.ops if op[0] == "insert"))
        rows = self.life.inserted
        search, ingest = (self.read_kind,), INGEST
        ms = 1e3

        wait_wall_s = self.span_s("loop.step", search,
                                  self.parent_is("proxy.search"))
        wait_virtual = [res[0].consistency_wait_ms
                        for _k, _s, _q, res in searches]
        virtual = np.array([res[0].latency_ms
                            for _k, _s, _q, res in searches] or [0.0])
        scan_idx = self.pick("query_node.search", search)
        scan_wall_ms = ms * sum(self.length[i] for i in scan_idx)
        scan_virtual_ms = sum(self.spans[i][VALUE] for i in scan_idx)

        temp = self.pick("index.build", keep=lambda i: (
            self.under_delivery[i] and self.outermost(i)))
        temp_s = sum(self.length[i] for i in temp if self.ingesting[i])
        sealed = self.pick("index.build", keep=lambda i: (
            self.under_build[i] and self.outermost(i)))
        build_wall_ms = ms * sum(self.length[i] for i in sealed)
        build_virtual_ms = sum(
            estimate_build_ms(DEFAULT_COST_MODEL, self.spans[i][VALUE][0],
                              self.spans[i][VALUE][1], DIM, INDEX_PARAMS)
            for i in sealed)

        puts = [self.spans[i][VALUE] for i in self.pick("object_store.put")]
        gets = [self.spans[i][VALUE] for i in self.pick("object_store.get")]
        put_bytes = sum(size for _key, size in puts)
        flushes = len(self.pick("logger.publish_batch"))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            # read path, mean ms per search request
            "proxy.search_self_ms":
                ms * self.self_s("proxy.search", search) / n_search,
            "proxy.wait_wall_ms": ms * wait_wall_s / n_search,
            "proxy.wait_virtual_ms":
                statistics.fmean(wait_virtual) if wait_virtual else 0.0,
            "proxy.merge_ms":
                ms * self.span_s("proxy.merge_topk", search) / n_search,
            "query_node.reduce_ms":
                ms * self.span_s("query_node.merge_topk", search) / n_search,
            "query_node.search_self_ms":
                ms * self.self_s("query_node.search", search) / n_search,
            "segment.scans_per_request":
                len(self.pick("segment.search", search)) / n_search,
            "segment.search_self_ms":
                ms * self.self_s("segment.search", search) / n_search,
            "segment.growing_scan_ms":
                ms * self.span_s("segment.search", search,
                                 lambda i: not self.spans[i][VALUE])
                / n_search,
            "index.search_ms":
                ms * self.self_s("index.search", search) / n_search,
            "index.search_us_per_query":
                1e6 * self.self_s("index.search", search) / query_rows,
            "proxy.search_virtual_p50_ms": float(np.percentile(virtual, 50)),
            "proxy.search_virtual_p99_ms": float(np.percentile(virtual, 99)),
            # write path, mean ms per ingest step
            "proxy.insert_self_ms":
                ms * self.self_s("proxy.insert", ingest) / n_steps,
            "logger.insert_self_ms":
                ms * self.self_s("logger.insert", ingest) / n_steps,
            "logger.flushes": flushes,
            "logger.rows_per_flush": ratio(rows, flushes),
            "lsm.put_many_ms":
                ms * self.self_s("lsm.put_many", ingest) / n_steps,
            "broker.publish_ms":
                ms * self.self_s("broker.publish", ingest) / n_steps,
            "broker.entries": len(self.pick("broker.publish")),
            "broker.deliver_query_node_ms":
                ms * self.self_s("broker.deliver.query-node", ingest)
                / n_steps,
            "broker.deliver_data_node_ms":
                ms * self.self_s("broker.deliver.data-node", ingest)
                / n_steps,
            "segment.append_self_ms":
                ms * self.self_s("segment.append", ingest) / n_steps,
            "loop.step_self_ms":
                ms * self.self_s("loop.step", ingest) / n_steps,
            "loop.events": len(self.pick("loop.step")),
            "index.temp_build_ms": ms * temp_s / n_steps,
            "index.temp_builds": len(temp),
            # bulk phases, total seconds over the repetition
            "data_node.seal_flush_s":
                self.self_s("data_node.seal_and_flush"),
            "binlog.write_s": self.self_s("binlog."),
            "binlog.bytes_written":
                sum(size for key, size in puts if key.startswith("binlog/")),
            "object_store.put_s": self.self_s("object_store.put"),
            "object_store.put_bytes": put_bytes,
            "object_store.get_s": self.self_s("object_store.get"),
            "object_store.get_bytes": sum(size for _key, size in gets),
            "object_store.write_amp":
                ratio(put_bytes, rows * USER_BYTES_PER_ROW),
            "index_node.build_self_s":
                self.self_s("index_node.submit_build"),
            "index.build_s": build_wall_ms / ms,
            "index.builds": len(sealed),
            "query_node.load_s": (self.self_s("query_node.load_segment")
                                  + self.self_s("query_node.attach_index")),
            # wall over virtual: is the cost model honest?
            "costmodel.scan_wall_over_virtual":
                ratio(scan_wall_ms, scan_virtual_ms),
            "costmodel.wait_wall_over_virtual":
                ratio(ms * wait_wall_s, sum(wait_virtual)),
            "costmodel.build_wall_over_virtual":
                ratio(build_wall_ms, build_virtual_ms),
            "bench.unattributed_ratio": self.unattributed_ratio(),
        }


# -- probes on the untraced lifecycle's live cluster ------------------------

def plane_overhead_ratio(rep: Lifecycle) -> float:
    """p50 of single-vector searches with the program's tracing plane on
    (the default ``TracingConfig``) over p50 with it off, in alternating
    blocks on the same live cluster."""
    cluster, queries = rep.cluster, rep.data.queries
    samples: dict[bool, list[float]] = {True: [], False: []}
    default = cluster.tracer.enabled
    for block in range(4):
        cluster.tracer.enabled = enabled = block % 2 == 0
        for i in range(PLANE_BLOCK):
            cluster.run_for(100.0)
            start = wall()
            cluster.search(COLLECTION, queries[i], K)
            samples[enabled].append(wall() - start)
    cluster.tracer.enabled = default
    return statistics.median(samples[True]) / statistics.median(
        samples[False])


def explain_counts(rep: Lifecycle) -> dict[str, float]:
    """Exact work counts per query from ``explain=True`` over 64 fixed
    queries: these repeat exactly from run to run."""
    totals = {"float_comparisons": 0, "rows_scanned": 0, "candidates_in": 0}
    for query in rep.data.queries[:EXPLAIN_QUERIES]:
        rep.cluster.run_for(100.0)
        profile = rep.cluster.search(COLLECTION, query, K,
                                     explain=True)[0].profile
        scan = profile.totals()
        totals["float_comparisons"] += scan["float_comparisons"]
        totals["rows_scanned"] += scan["rows_scanned"]
        totals["candidates_in"] += sum(
            stage.counters.get("candidates_in", 0)
            for stage in profile.root.walk())
    return {
        "index.float_comparisons_per_query":
            totals["float_comparisons"] / EXPLAIN_QUERIES,
        "segment.rows_scanned_per_query":
            totals["rows_scanned"] / EXPLAIN_QUERIES,
        "results.candidates_in_per_query":
            totals["candidates_in"] / EXPLAIN_QUERIES,
    }


# -- stand-alone probes -----------------------------------------------------

def index_probe(data: Data) -> dict[str, float]:
    """Kernels the e2e workloads do not reach: build and search each
    catalogued index type on one 2048x128 block."""
    block, queries = data.vectors[:PROBE_ROWS], data.queries[:PROBE_NQ]
    out = {}
    for index_type in PROBE_INDEXES:
        index = create_index(index_type, MetricType.EUCLIDEAN, DIM)
        start = wall()
        index.build(block)
        built = wall()
        index.search(queries, K)
        out[f"index.{index_type}.build_ms"] = (built - start) * 1e3
        out[f"index.{index_type}.search_us_per_query"] = \
            (wall() - built) * 1e6 / PROBE_NQ
    return out


def mac_rate_ratio() -> float:
    """Host MAC rate as ``CostModel.calibrated()`` measures it, over the
    default model's: wall/virtual ratios are judged after scaling by it."""
    return CostModel.calibrated().mac_per_ms / DEFAULT_COST_MODEL.mac_per_ms
