"""Query work accounting: the EXPLAIN ANALYZE tree.

A :class:`QueryProfile` is one request's exact work ledger, built beside
the trace plane's latency breakdown: where tracing answers *where time
went*, the profile answers *what work was done* — rows scanned, distance
computations, candidates pruned, batches merged — stage by stage down the
read path.

The tree mirrors the two-phase reduce:

* the root stage (``proxy.<verb>``: ``proxy.search``,
  ``proxy.range_search``, ...) holds the request totals;
* one ``query_node.scan`` stage per fanned-out node holds that node's
  full :class:`~repro.index.base.SearchStats`, with one ``segment.scan``
  child per segment holding the per-segment *delta* of the same counters
  and a ``query_node.reduce`` child holding the node-local merge work;
* a ``proxy.merge`` stage holds the global merge counters and a
  ``consistency_wait`` stage the delta-consistency wait.

The invariant the profiling tests pin down: for every scan counter, the
sum over a node's ``segment.scan`` children equals the node stage's own
value, and the sum over node stages equals the root totals — work is
neither lost nor double-counted between layers.

Layering: this module sits directly above ``core``/``index`` and imports
nothing else.  The proxy builds every stage, the node stages from the
work each query node reports (DESIGN.md §6h); nothing below it sees a
profile.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.index.base import STAT_FIELDS

#: Counters subject to the exact-sum invariant (the SearchStats fields).
SCAN_COUNTERS = STAT_FIELDS


class StageProfile:
    """One stage of the read path: own counters plus child stages."""

    __slots__ = ("name", "meta", "counters", "children")

    def __init__(self, name: str, **meta) -> None:
        self.name = name
        self.meta = dict(meta)
        self.counters: dict = {}
        self.children: list["StageProfile"] = []

    def child(self, name: str, **meta) -> "StageProfile":
        stage = StageProfile(name, **meta)
        self.children.append(stage)
        return stage

    def stages(self, name: str) -> list["StageProfile"]:
        """Direct children with the given stage name."""
        return [c for c in self.children if c.name == name]

    def walk(self) -> Iterator["StageProfile"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "stage": self.name,
            "meta": dict(self.meta),
            "counters": {key: value for key, value
                         in self.counters.items() if value},
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        return f"StageProfile({self.name!r}, children={len(self.children)})"


def sum_counters(stages, keys=SCAN_COUNTERS) -> dict:
    """Element-wise sum of several stages' counters over ``keys``."""
    totals = {key: 0 for key in keys}
    for stage in stages:
        for key in keys:
            totals[key] += stage.counters.get(key, 0)
    return totals


class QueryProfile:
    """Work ledger of one read request (shared by its batched queries)."""

    __slots__ = ("collection", "nq", "k", "verb", "trace_id", "latency_ms",
                 "consistency_wait_ms", "segments_searched", "root")

    def __init__(self, collection: str, nq: int, k: int,
                 verb: str = "search") -> None:
        self.collection = collection
        self.nq = int(nq)
        self.k = int(k)
        self.verb = verb
        self.trace_id: Optional[str] = None
        self.latency_ms = 0.0
        self.consistency_wait_ms = 0.0
        self.segments_searched = 0
        self.root = StageProfile(f"proxy.{verb}", collection=collection,
                                 nq=int(nq), k=int(k))

    # ------------------------------------------------------------------
    # construction (called by the proxy)
    # ------------------------------------------------------------------

    def node_stage(self, node_name: str) -> StageProfile:
        """Add (and return) the scan stage for one fanned-out node."""
        return self.root.child("query_node.scan", node=node_name)

    def finalize(self, latency_ms: float, wait_ms: float, merge_ms: float,
                 nodes: int, segments: int, merge_counters: dict,
                 trace_id: Optional[str] = None) -> None:
        """Close the ledger: wait/merge stages, totals, trace linkage."""
        self.latency_ms = float(latency_ms)
        self.consistency_wait_ms = float(wait_ms)
        self.segments_searched = int(segments)
        self.trace_id = trace_id
        wait = self.root.child("consistency_wait")
        wait.meta["wait_ms"] = float(wait_ms)
        merge = self.root.child("proxy.merge", nodes=int(nodes))
        merge.meta["merge_ms"] = float(merge_ms)
        merge.counters = dict(merge_counters)
        # Root totals: the sum over the node stages' full SearchStats.
        self.root.counters = sum_counters(self.node_stages())

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def node_stages(self) -> list[StageProfile]:
        return self.root.stages("query_node.scan")

    def totals(self) -> dict:
        """Request-wide scan counters (the root stage's values)."""
        return dict(self.root.counters)

    def verify(self) -> list[str]:
        """Exact-sum invariant check; returns mismatch descriptions.

        Empty list = per-segment counters sum to each node's totals and
        node totals sum to the root totals, for every scan counter.
        """
        problems: list[str] = []
        for stage in self.node_stages():
            seg_sum = sum_counters(stage.stages("segment.scan"))
            for key in SCAN_COUNTERS:
                have = stage.counters.get(key, 0)
                if seg_sum[key] != have:
                    problems.append(
                        f"node {stage.meta.get('node')}: {key} "
                        f"segments sum {seg_sum[key]} != node {have}")
        node_sum = sum_counters(self.node_stages())
        for key in SCAN_COUNTERS:
            if node_sum[key] != self.root.counters.get(key, 0):
                problems.append(
                    f"root: {key} nodes sum {node_sum[key]} != "
                    f"total {self.root.counters.get(key, 0)}")
        return problems

    # ------------------------------------------------------------------
    # rendering / serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "verb": self.verb,
            "collection": self.collection,
            "nq": self.nq,
            "k": self.k,
            "trace_id": self.trace_id,
            "latency_ms": self.latency_ms,
            "consistency_wait_ms": self.consistency_wait_ms,
            "segments_searched": self.segments_searched,
            "tree": self.root.to_dict(),
        }

    def explain(self) -> str:
        """Render the EXPLAIN ANALYZE tree as ASCII."""
        header = (f"EXPLAIN ANALYZE {self.verb} "
                  f"collection={self.collection!r} "
                  f"nq={self.nq} k={self.k} "
                  f"latency={self.latency_ms:.2f}ms")
        if self.trace_id is not None:
            header += f" trace={self.trace_id}"
        lines = [header]
        children = self.root.children
        for i, child in enumerate(children):
            _render_stage(lines, child, "", i == len(children) - 1)
        totals = ", ".join(f"{key}={value}" for key, value
                           in sorted(self.totals().items()) if value)
        lines.append(f"totals: {totals or '(no work recorded)'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"QueryProfile({self.verb} {self.collection!r}, "
                f"nq={self.nq}, k={self.k}, "
                f"latency={self.latency_ms:.2f}ms)")


def _stage_text(stage: StageProfile) -> str:
    parts = [stage.name]
    for key, value in stage.meta.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.2f}")
        else:
            parts.append(f"{key}={value}")
    for key, value in sorted(stage.counters.items()):
        if value:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def _render_stage(lines: list, stage: StageProfile, prefix: str,
                  last: bool) -> None:
    branch = "`- " if last else "|- "
    lines.append(prefix + branch + _stage_text(stage))
    child_prefix = prefix + ("   " if last else "|  ")
    for i, child in enumerate(stage.children):
        _render_stage(lines, child, child_prefix,
                      i == len(stage.children) - 1)
