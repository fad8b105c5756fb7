"""The object-based top-k merge of ``core/results.py`` before
``HitBatch``, and the per-segment ``QueryNode`` loop with the proxy's
per-query merge from before the node arena, reporting its work through
the former accounting (``tests/reference/accounting.py``;
:func:`reference_path` patches them all back in)."""

import contextlib
import heapq
from typing import Iterable, Optional, Sequence

import numpy as np

import repro.nodes.proxy as proxy_module
from repro.core.filtering import filtered_search
from repro.core.results import HitBatch, ReduceStats, SearchHit
from repro.index.base import SearchStats
from repro.nodes.proxy import Proxy
from repro.nodes.query_node import QueryNode
from tests.reference.accounting import LedgerWork, reference_observe_node, \
    scan_cost


def merge_topk_reference(partials: Sequence[Iterable[SearchHit]],
                         k: int,
                         stats: Optional[ReduceStats] = None
                         ) -> list[SearchHit]:
    """Object-based reduce, the oracle of the vectorized one.

    This is the pre-HitBatch implementation (``heapq.merge`` over
    :class:`SearchHit` objects with a seen-set dedup).
    ``tests/test_core_results.py`` asserts :func:`merge_topk` matches it
    hit-for-hit, one query at a time and a block at a time, and
    ``benchmarks/bench_reduce_path.py`` measures the speedup against it.

    With ``stats`` the merge is consumed past the ``k``-th unique hit so
    ``hits_deduped`` counts duplicates over the full candidate set — the
    vectorized path dedups before truncating, and the short-circuit would
    otherwise undercount duplicates that sort after the cutoff.  The
    returned hits are unchanged either way; without ``stats`` the merge
    still stops at ``k`` (the fast oracle the benches time).
    """
    if k <= 0:
        if stats is not None:
            stats.batches_merged += len(list(partials))
        return []
    partials = [list(p) for p in partials] if stats is not None \
        else list(partials)
    merged = heapq.merge(*partials)
    out: list[SearchHit] = []
    seen: set = set()
    dupes = 0
    for hit in merged:
        if hit.pk in seen:
            dupes += 1
            continue
        seen.add(hit.pk)
        if len(out) < k:
            out.append(hit)
            if len(out) >= k and stats is None:
                break
    if stats is not None:
        stats.batches_merged += len(partials)
        stats.candidates_in += sum(len(p) for p in partials)
        stats.hits_deduped += dupes
        stats.hits_out += len(out)
    return out


def reference_merge(partials, k, stats=None):
    """Former reduce of one query: a streaming merge of sorted partials
    with a seen-set (``merge_topk_reference``), as a batch."""
    return HitBatch.from_hits(merge_topk_reference(
        [list(p) for p in partials], k, stats=stats))


def reference_scan(node, collection, scope, fields, nq, k, work):
    """Former ``QueryNode._scan``: one scan per segment, one merge per
    query, the same report of the work done."""
    cost = node._cost
    schema = node._schema_provider(collection)
    dims = [schema.field(name).dim for name in fields]
    totals = [SearchStats() for _ in fields]
    done = LedgerWork(0, dims, totals)
    partials = []
    for segment in node._scoped_segments(collection, scope):
        stats = [SearchStats() for _ in fields]
        partials.append(work(segment, stats))
        for total, field_stats in zip(totals, stats):
            total.add(field_stats)
        growing = node.is_growing(collection, segment.segment_id)
        path = ("growing" if growing
                else "index" if sum(s.index_scans for s in stats) > 0
                else "brute")
        done.scans.append((segment.segment_id, path, segment.num_rows,
                           stats))
    done.segments = len(partials)
    merged = [reference_merge([part[qi] for part in partials if part[qi]],
                              k, stats=done.reduce) for qi in range(nq)]
    service_ms = scan_cost(cost, totals, dims) + cost.request_overhead_ms \
        + nq * cost.batch_row_overhead_ms
    node.searches_served += nq
    node.service_ms_total += service_ms
    return merged, service_ms, done


def reference_search(node, collection, field, queries, k, metric, expr=None,
                     scope=None):
    """Former ``QueryNode.search``: every segment through its own
    ``Segment.search``."""
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim == 1:
        queries = queries[None, :]
    return reference_scan(
        node, collection, scope, (field,), queries.shape[0], k,
        lambda segment, stats: filtered_search(
            segment, field, queries, k, metric, expr, stats=stats[0])[0])


def reference_proxy_merge(partials, keep, stats=None):
    """Former proxy back half: one merge per query row."""
    return [reference_merge([part[qi] for part in partials], keep,
                            stats=stats)
            for qi in range(len(partials[0]))]


@contextlib.contextmanager
def reference_path(monkeypatch):
    """Run requests through the reference node loop, merge loops and
    accounting."""
    with monkeypatch.context() as patch:
        patch.setattr(QueryNode, "search", reference_search)
        patch.setattr(proxy_module, "merge_topk", reference_proxy_merge)
        patch.setattr(Proxy, "_observe_node", reference_observe_node)
        yield
