"""The per-segment work accounting from before the node scan's counter
array: a :class:`SearchStats` ledger entry per scanned segment and field,
summed into the node's totals, and the proxy's observation of it — every
``segment.scan`` window charged through the cost model's former
per-``SearchStats`` formula over the comparisons counted so far, and one
``record_span`` per span.

:func:`reference_observe_node` is ``Proxy._observe_node`` as it was; it
reads a :class:`LedgerWork`, which the reference node scan
(``tests/reference/reduce.py``) reports, so ``reference_path`` runs a read
through the former accounting from the segment up.
``tests/test_work_accounting.py`` holds the exported traces, EXPLAIN text,
slow-log JSON, read units and virtual latencies of whole lifecycles equal
through both.
"""

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.results import ReduceStats
from repro.index.base import SearchStats


@dataclass
class LedgerWork:
    """A node's report as it was: the node's totals (a
    :class:`SearchStats` per field of ``dims``), per scanned segment, in
    order, ``(id, path, rows, [SearchStats per field])``, and the reduce's
    counters (None for a point read)."""

    segments: int
    dims: Sequence[int] = ()
    totals: list = field(default_factory=list)
    scans: list = field(default_factory=list)
    reduce: Optional[ReduceStats] = field(default_factory=ReduceStats)


def scan_cost(cost, stats: Sequence[SearchStats], dims) -> float:
    """``CostModel.scan_cost`` as it was: each field's ``SearchStats``
    charged at its own dimension, summed from an int 0."""
    ms = 0
    for field_stats, dim in zip(stats, dims):
        ms += (cost.distance_cost(field_stats.float_comparisons, dim)
               + cost.distance_cost(field_stats.quantized_comparisons, dim,
                                    quantized=True)
               + cost.ssd_read(field_stats.ssd_blocks_read))
    return ms


def reference_observe_node(self, req, prof, parent, name, ready_ms,
                           start_ms, service_ms, work: LedgerWork) -> None:
    """``Proxy._observe_node`` over a :class:`LedgerWork`."""
    component = f"query-node:{name}"
    nspan = self._tracer.record_span(
        "query_node.scan", component, parent=parent, start_ms=ready_ms,
        end_ms=start_ms + service_ms, queue_ms=start_ms - ready_ms,
        service_ms=service_ms, segments=work.segments)
    req.segments += work.segments
    scanned = work.reduce is not None
    if scanned:
        if nspan.sampled:
            _record_segment_spans(self, req, component, nspan, work)
        for total in work.totals:
            req.rows_scanned += total.rows_scanned
            req.bytes_materialized += total.bytes_materialized
        self._scan_hist.labels(node=name).observe(service_ms)
    if prof is None:
        return
    stage = prof.node_stage(name)
    if scanned:
        for segment_id, path, rows, stats in work.scans:
            stage.child("segment.scan", segment=segment_id, path=path,
                        rows=rows).counters = functools.reduce(
                            SearchStats.merged_with, stats).as_dict()
        stage.counters = functools.reduce(SearchStats.merged_with,
                                          work.totals).as_dict()
        stage.meta.update(service_ms=service_ms, segments=work.segments,
                          nq=req.nq)
        stage.child("query_node.reduce").counters = work.reduce.as_dict()
    stage.meta["queue_ms"] = start_ms - ready_ms


def _record_segment_spans(self, req, component, nspan,
                          work: LedgerWork) -> None:
    """A sampled node span's children: its segments' scans, each ending
    where the cost model puts the node's work up to and including it,
    then the node's reduce."""
    cost, context = self._cost, nspan.context
    so_far = [SearchStats() for _ in work.dims]
    cursor_ms = nspan.start_ms
    for segment_id, _path, _rows, stats in work.scans:
        for counted, field_stats in zip(so_far, stats):
            counted.float_comparisons += field_stats.float_comparisons
            counted.quantized_comparisons += \
                field_stats.quantized_comparisons
            counted.ssd_blocks_read += field_stats.ssd_blocks_read
        end_ms = nspan.start_ms + scan_cost(cost, so_far, work.dims)
        self._tracer.record_span(
            "segment.scan", component, parent=context,
            start_ms=cursor_ms, end_ms=end_ms, segment=segment_id)
        cursor_ms = end_ms
    self._tracer.record_span(
        "query_node.reduce", component, parent=context,
        start_ms=cursor_ms,
        end_ms=cursor_ms + cost.request_overhead_ms
        + req.nq * cost.batch_row_overhead_ms,
        segments=work.segments)
