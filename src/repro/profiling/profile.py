"""Query work accounting: the EXPLAIN ANALYZE tree, a view over the trace.

A :class:`QueryProfile` is one request's exact work ledger — rows
scanned, distance computations, candidates pruned, batches merged —
stage by stage down the read path, read off the request's own trace
(DESIGN.md §6g): each stage *is* a span, its counters the span's counter
tags, named and given its meta by one table, :data:`_STAGES`.

The tree mirrors the two-phase reduce:

* the root stage (``proxy.<verb>``: ``proxy.search``,
  ``proxy.range_search``, ...) holds the request totals;
* one ``query_node.scan`` stage per fanned-out node holds that node's
  full :class:`~repro.index.base.SearchStats`, with one ``segment.scan``
  child per segment holding the per-segment *delta* of the same counters
  and a ``query_node.reduce`` child holding the node-local merge work;
* a ``consistency_wait`` stage holds the delta-consistency wait and a
  ``proxy.merge`` stage the global merge counters.

The invariant the profiling tests pin down: for every scan counter, the
sum over a node's ``segment.scan`` children equals the node stage's own
value, and the sum over node stages equals the root totals — work is
neither lost nor double-counted between layers.

Layering: this module sits directly above ``core``/``index`` and imports
nothing else; it reads spans by their attributes.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.results import ReduceStats
from repro.index.base import STAT_FIELDS

#: Counters subject to the exact-sum invariant (the SearchStats fields).
SCAN_COUNTERS = STAT_FIELDS

#: Every span tag that is a counter: the scan counters and a merge's.
COUNTERS = frozenset(STAT_FIELDS) | frozenset(ReduceStats().as_dict())

#: span name -> (stage name, meta shown), in EXPLAIN's order; other spans
#: below the root are no stage.  A meta value is the span's tag or a fact:
#: ``node`` (its component's), ``wait_ms`` (its duration), the request's
#: ``nq`` and ``k``.  A point read's node shows ``node`` and ``queue_ms``.
_STAGES = {
    "query_node.scan": ("query_node.scan",
                        ("node", "service_ms", "segments", "nq",
                         "queue_ms")),
    "segment.scan": ("segment.scan", ("segment", "path", "rows")),
    "query_node.reduce": ("query_node.reduce", ()),
    "proxy.consistency_wait": ("consistency_wait", ("wait_ms",)),
    "proxy.merge": ("proxy.merge", ("nodes", "merge_ms")),
}
_RANK = {name: rank for rank, name in enumerate(_STAGES)}


class StageProfile:
    """One stage of the read path, a span read through :data:`_STAGES`
    (the root's meta: collection, nq, k), and its child stages."""

    __slots__ = ("name", "span_id", "meta", "counters", "children")

    def __init__(self, span, tree: dict, request: dict) -> None:
        self.name, keys = _STAGES.get(span.name,
                                      (span.name, ("collection", "nq", "k")))
        self.span_id = span.span_id
        below = sorted((child for child in tree.get(span.span_id, ())
                        if child.name in _RANK),
                       key=lambda child: _RANK[child.name])
        self.children = [StageProfile(child, tree, request) for child in below]
        if self.name == "query_node.scan" and not self.children:
            keys = ("node", "queue_ms")
        facts = dict(span.tags, node=span.component.partition(":")[2],
                     wait_ms=span.duration_ms, **request)
        self.meta = {key: facts[key] for key in keys}
        self.counters = {key: value for key, value in span.tags.items()
                         if key in COUNTERS}

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

    def __init__(self, tree: dict) -> None:
        """The ledger of the read whose span tree is ``tree`` (parent span
        id -> children, as ``TraceCollector.span_tree`` returns it)."""
        (root,) = tree[None]
        self.verb = root.name.partition(".")[2]
        self.collection = root.tags["collection"]
        self.nq = int(root.tags["nq"])
        self.k = int(root.tags["k"] or 0)
        self.trace_id = root.trace_id
        self.latency_ms = root.duration_ms
        self.root = StageProfile(root, tree, {"nq": self.nq, "k": self.k})
        # Root totals: the sum over the node stages' full SearchStats.
        self.root.counters = sum_counters(self.node_stages())
        (wait,) = self.root.stages("consistency_wait")
        self.consistency_wait_ms = wait.meta["wait_ms"]
        self.segments_searched = sum(
            span.tags["segments"] for span in tree[root.span_id]
            if span.name == "query_node.scan")

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
        lines = [f"EXPLAIN ANALYZE {self.verb} "
                 f"collection={self.collection!r} nq={self.nq} k={self.k} "
                 f"latency={self.latency_ms:.2f}ms trace={self.trace_id}"]
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
