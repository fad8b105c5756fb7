"""Proxies: stateless user endpoints (Section 3.2).

Proxies validate requests against a cached copy of the metadata (rejecting
bad requests early), route inserts/deletes to the loggers and searches to
the query nodes holding the collection's segments, and aggregate partial
search results into the global top-k.

The proxy is also the *session* for session consistency: it remembers the
timestamp of the session's last write so ``ConsistencyLevel.SESSION``
queries read their own writes.

Timing: the proxy computes each request's virtual latency from rpc hops,
the delta-consistency wait (driving the event loop until every involved
query node's watermark passes the guarantee timestamp), per-node queueing
(``busy_until_ms``) and the cost-model service time of the measured search
work.  This is where the cluster's end-to-end latency numbers come from.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.config import ManuConfig
from repro.core.consistency import ConsistencyLevel, guarantee_ts
from repro.core.entity import require_number, validate_batch, \
    validate_queries
from repro.core.expr import Const, Compare, Field, FilterExpression, InList
from repro.core.multivector import MultiVectorQuery
from repro.core.results import NodeWork, ReduceStats, SearchResult, \
    merge_topk
from repro.core.schema import MetricType
from repro.core.tso import TimestampOracle
from repro.errors import CollectionNotFound, ConsistencyTimeout, \
    InvalidQuery, ManuError, QuotaExceeded
from repro.index.base import BYTES_MATERIALIZED, ROWS_SCANNED, \
    SearchStats
from repro.log.logger_node import AckFuture, LoggerService
from repro.monitoring.metrics import MetricsRegistry
from repro.profiling import QueryProfile
from repro.tenancy import CostMeter
from repro.sim.costmodel import CostModel
from repro.sim.events import EventLoop
from repro.tracing import (
    NOOP_TRACER,
    SPAN_ERROR,
    SPAN_INCOMPLETE,
    TraceCollector,
)


#: Read verb -> its sliding latency window (the autoscaler's signal: it
#: forgets).  The verb's cumulative histogram family is ``<verb>_latency``.
_LATENCY_WINDOWS = {
    "search": "proxy.search_latency",
    "search_multivector": "proxy.multivector_latency",
    "range_search": "proxy.range_search_latency",
    "get": "proxy.get_latency",
}


@dataclasses.dataclass(slots=True)
class _ReadRequest:
    """One read request's facts, each written once as the request runs:
    what was asked (``Proxy._admit``), then what happened
    (``Proxy._scatter_gather``), which emits every plane from here — so
    no verb can forget one (DESIGN.md §6h)."""

    verb: str
    collection: str            # physical (tenant-namespaced) name
    tenant: Optional[str]
    blocks: dict               # vector field -> (nq, dim) query block
    nq: int
    k: Optional[int]           # the top-k merge the cost model charges
    consistency: ConsistencyLevel
    staleness_ms: float
    explain: bool
    #: rows scanned and bytes materialized over the fan-out, summed
    #: under a tenant (its read units)
    rows_scanned: int = 0
    bytes_materialized: int = 0
    merge_stats: Optional[ReduceStats] = None  # only under a profile
    segments: int = 0          # scanned, summed over the fan-out
    issue_ms: float = 0.0
    wait_ms: float = 0.0
    scanned_ms: float = 0.0    # the last node's finish
    merge_ms: float = 0.0
    done_ms: float = 0.0
    trace_id: Optional[str] = None  # None unless the trace is sampled


class PendingSearch:
    """Handle for a search submitted to a proxy batch (future-like)."""

    __slots__ = ("result",)

    def __init__(self) -> None:
        self.result: Optional[SearchResult] = None

    @property
    def done(self) -> bool:
        return self.result is not None


class Proxy:
    """One access-layer endpoint."""

    def __init__(self, name: str, loop: EventLoop, tso: TimestampOracle,
                 config: ManuConfig, cost_model: CostModel,
                 logger_service: LoggerService, root_coord, query_coord,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[TraceCollector] = None,
                 tenants=None, admission=None,
                 cost_meter: Optional[CostMeter] = None,
                 slowlog=None) -> None:
        self.name = name
        self._loop = loop
        self._tso = tso
        self._config = config
        self._cost = cost_model
        self._loggers = logger_service
        self._root = root_coord
        self._query_coord = query_coord
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._component = f"proxy:{name}"
        # Metric handles are live objects; resolve them once per verb
        # instead of rebuilding names on every request.  Families are
        # labeled, cumulative and mergeable across proxies (the exposition
        # serves the per-proxy series and the cluster aggregate, e.g.
        # ``search_latency_p99``).
        ops = self.metrics.counter_family(
            "proxy_ops_total", ("proxy", "verb"),
            help="rows inserted or upserted, keys deleted, query rows "
                 "read, by verb")
        self._ops = {verb: ops.labels(proxy=name, verb=verb)
                     for verb in ("insert", "delete", "upsert",
                                  "batched_search", *_LATENCY_WINDOWS)}
        self._latency = {
            verb: (self.metrics.latency(window),
                   self.metrics.histogram_family(
                       f"{verb}_latency", ("proxy",),
                       help=f"end-to-end {verb} latency",
                       unit="ms").labels(proxy=name))
            for verb, window in _LATENCY_WINDOWS.items()}
        self._wait_hist = self.metrics.histogram_family(
            "consistency_wait", ("proxy",),
            help="delta-consistency wait before fan-out",
            unit="ms").labels(proxy=name)
        self._merge_hist = self.metrics.histogram_family(
            "proxy_merge", ("proxy",),
            help="global top-k merge time", unit="ms").labels(proxy=name)
        self._scan_hist = self.metrics.histogram_family(
            "query_node_scan", ("node",),
            help="node-local scan service time", unit="ms")
        #: node name -> its ``query_node_scan`` child (the family never
        #: drops one)
        self._scan_hists: dict = {}
        # Multi-tenancy (duck-typed TenantRegistry / AdmissionController,
        # wired by the cluster): every tenant-scoped request is
        # namespaced and quota-admitted here, at the API boundary.
        self._tenants = tenants
        self._admission = admission
        self._tenant_requests = self.metrics.counter_family(
            "tenant_requests_total", ("tenant", "qos", "verb"),
            help="admitted tenant requests by verb")
        self._tenant_rejections = self.metrics.counter_family(
            "tenant_quota_rejections_total", ("tenant", "verb"),
            help="tenant requests rejected by quota buckets")
        # Cost accounting (DESIGN.md §6g): measured read/write units per
        # tenant, mirrored into labeled counter families for exposition.
        # The meter is usually the cluster-wide one so every proxy charges
        # the same ledger; a private meter keeps standalone proxies working.
        self._cost_meter = cost_meter if cost_meter is not None \
            else CostMeter()
        self._slowlog = slowlog
        self._read_units = self.metrics.counter_family(
            "tenant_read_units_total", ("tenant",),
            help="cumulative read units (rows scanned + bytes "
                 "materialized) charged per tenant")
        self._write_units = self.metrics.counter_family(
            "tenant_write_units_total", ("tenant",),
            help="cumulative write units (rows appended) charged "
                 "per tenant")
        #: physical collection -> queries served; the rebalancer's
        #: search-load attribution reads this (plain dict: the hot path
        #: stays family-lookup-free).
        self.search_counts: dict[str, int] = {}
        self._session_ts = 0
        # Request batching (Section 3.6): same-typed searches accumulated
        # within the configured window, executed as one batch.  Batch key
        # -> (QoS dispatch priority, 0 = first; [(query row, handle)]):
        # tenant batches flush gold before bronze when several windows
        # expire together.
        self._batches: dict[tuple, tuple[int, list]] = {}
        self.batches_flushed = 0

    # ------------------------------------------------------------------
    # tenancy gate
    # ------------------------------------------------------------------

    def _tenant_resolve(self, tenant: str, collection: str) -> str:
        """Namespace + authorize a tenant request (API boundary)."""
        if self._tenants is None:
            raise ManuError("multi-tenancy is not enabled")
        return self._tenants.resolve(tenant, collection)

    def _tenant_admit(self, tenant: str, verb: str,
                      units: float = 1.0) -> None:
        """Charge the tenant's quota bucket; count the outcome.

        :class:`QuotaExceeded` (a per-tenant rejection, distinct from
        cluster overload) propagates to the caller after the rejection
        counter moved.
        """
        info = self._tenants.get(tenant)
        if self._admission is not None:
            try:
                self._admission.admit(tenant, verb, units)
            except QuotaExceeded:
                self._tenant_rejections.labels(
                    tenant=tenant, verb=verb).inc()
                raise
        self._tenant_requests.labels(
            tenant=tenant, qos=info.qos.value, verb=verb).inc()

    # ------------------------------------------------------------------
    # metadata verification
    # ------------------------------------------------------------------

    def _schema(self, collection: str):
        """Cached-metadata verification: reject unknown collections early."""
        schema = self._root.get_schema(collection)
        if schema is None:
            raise CollectionNotFound(collection)
        return schema

    # ------------------------------------------------------------------
    # writes: one admit, one commit, five verbs (DESIGN.md §6i)
    # ------------------------------------------------------------------

    def _admit_write(self, verb: str, collection: str,
                     tenant: Optional[str], payload) -> tuple:
        """Front half of every write verb: whatever can refuse a write
        before it reaches a logger — tenant namespace, cached schema,
        typed validation (rows into an ``EntityBatch``; a delete's
        expression into the primary keys it addresses), then quota, per
        row or key under ``verb``.  Returns the physical collection
        name, what was validated and its row count."""
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        schema = self._schema(collection)
        if verb == "delete":
            what = tuple(_extract_pks(FilterExpression(payload),
                                      schema.primary_field.name))
            rows = len(what)
        else:
            if verb == "upsert" and schema.auto_id:
                raise ManuError(
                    "upsert requires an explicit primary key schema")
            what = validate_batch(schema, payload)
            rows = what.num_rows
        if tenant is not None:
            self._tenant_admit(tenant, verb, units=rows)
        return collection, what, rows

    def _commit_write(self, verb: str, tenant: Optional[str], lsn: int,
                      rows: int) -> None:
        """Back half of every write verb, run once the write is durable
        (inline by a sync verb, from the ack callback by an async one):
        the session timestamp, ``proxy_ops_total`` under ``verb``, and
        the tenant's write units — rows appended, so ``insert`` and
        ``upsert`` charge their rows and ``delete`` charges quota only."""
        self._session_ts = max(self._session_ts, lsn)
        self._ops[verb].inc(rows)
        if tenant is not None and verb != "delete":
            units = self._cost_meter.charge_write(tenant, rows)
            self._write_units.labels(tenant=tenant).inc(units)

    def insert(self, collection: str, data: Mapping,
               tenant: Optional[str] = None) -> tuple:
        """Validate and publish an insert; returns the assigned pks.

        With ``tenant`` the collection name is tenant-scoped and the
        rows are admitted against the tenant's insert-rate bucket.
        """
        collection, batch, rows = self._admit_write(
            "insert", collection, tenant, data)
        with self._tracer.span("proxy.insert", self._component,
                               collection=collection, rows=rows):
            lsn = self._loggers.insert(collection, batch)
        self._commit_write("insert", tenant, lsn, rows)
        return batch.pks

    def insert_async(self, collection: str, data: Mapping,
                     tenant: Optional[str] = None
                     ) -> tuple[tuple, "AckFuture"]:
        """Validate and buffer an insert into the loggers' commit groups.

        Returns ``(pks, ack)``: the assigned primary keys plus an
        :class:`~repro.log.logger_node.AckFuture` resolving with the
        durable batch LSN once the group commit flushed.  The session
        timestamp (read-your-writes) and the insert counter advance only
        at that point — an unacked write is not yet readable under
        session consistency.
        """
        collection, batch, rows = self._admit_write(
            "insert", collection, tenant, data)
        # No per-submit span: buffering is a local memory append, and a
        # span per call would defeat the amortisation this path exists
        # for.  The flush's "logger.publish_batch" span is the traced
        # unit and carries the coalesced row count.
        ack = self._loggers.insert_async(collection, batch)
        ack.add_done_callback(lambda future: self._commit_write(
            "insert", tenant, future.result(), rows))
        return batch.pks, ack

    def delete(self, collection: str, expr: str,
               tenant: Optional[str] = None) -> int:
        """Delete by primary-key expression; returns the deleted count.

        Like Milvus 2.0, deletion expressions must address primary keys
        directly (``pk in [1, 2]`` or ``pk == 3``).  Quota is charged per
        addressed key; the delete counter moves by the keys that existed.
        """
        collection, pks, keys = self._admit_write(
            "delete", collection, tenant, expr)
        with self._tracer.span("proxy.delete", self._component,
                               collection=collection, keys=keys):
            lsn, deleted = self._loggers.delete(collection, pks)
        self._commit_write("delete", tenant, lsn, deleted)
        return deleted

    def delete_async(self, collection: str, expr: str,
                     tenant: Optional[str] = None) -> "AckFuture":
        """Buffer a delete into the loggers' commit groups.

        The returned :class:`~repro.log.logger_node.AckFuture` resolves
        with the durable batch LSN; its ``rows`` reports how many keys
        existed at flush time.  Session timestamp and the delete counter
        advance on resolution.  Unspanned for the same reason as
        :meth:`insert_async`: the flush owns the span.
        """
        collection, pks, _keys = self._admit_write(
            "delete", collection, tenant, expr)
        ack = self._loggers.delete_async(collection, pks)
        ack.add_done_callback(lambda future: self._commit_write(
            "delete", tenant, future.result(), future.rows))
        return ack

    def upsert(self, collection: str, data: Mapping,
               tenant: Optional[str] = None) -> tuple:
        """Delete-any-existing then insert (explicit-pk schemas only);
        counted, admitted and charged as its rows under ``upsert``."""
        collection, batch, rows = self._admit_write(
            "upsert", collection, tenant, data)
        with self._tracer.span("proxy.upsert", self._component,
                               collection=collection, rows=rows):
            self._loggers.delete(collection, batch.pks)
            lsn = self._loggers.insert(collection, batch)
        self._commit_write("upsert", tenant, lsn, rows)
        return batch.pks

    # ------------------------------------------------------------------
    # reads: one protocol, four verbs (DESIGN.md §6h)
    # ------------------------------------------------------------------

    def _admit(self, verb: str, collection: str, tenant: Optional[str],
               vectors: Mapping, k: Optional[int],
               consistency: ConsistencyLevel, staleness_ms: float,
               explain: bool = False, admitted: bool = False,
               metric: Optional[MetricType] = None) -> _ReadRequest:
        """Front half, part one: whatever can refuse a read before it
        costs a timestamp — tenant namespace, cached schema, typed
        validation (``vectors``: vector field, None for the default, ->
        query rows; a malformed request is an :class:`InvalidQuery` here,
        not a numpy error three layers down), ``metric`` against the
        searched field's declared index (a sealed index answers in the
        metric it was built with, whatever it is asked: under another one
        its neighbours are wrong, and on another distance scale than the
        growing segments of the same request), quota — which ``admitted``
        skips for queries the batching window admitted at submit time.
        """
        if not isinstance(consistency, ConsistencyLevel):
            raise InvalidQuery(
                f"consistency must be a ConsistencyLevel, got "
                f"{consistency!r}")
        if metric is not None and not isinstance(metric, MetricType):
            raise InvalidQuery(
                f"metric must be a MetricType, got {metric!r}")
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        blocks = validate_queries(self._schema(collection), vectors)
        if metric is not None:
            for field in blocks:
                indexed = self._query_coord.index_metric(collection, field)
                if indexed is not None and indexed is not metric:
                    raise InvalidQuery(
                        f"field {field!r} is indexed for "
                        f"{indexed.value}; a {metric.value} {verb} "
                        f"would be answered in {indexed.value}")
        require_number("staleness_ms", staleness_ms, 0)
        nq = next(iter(blocks.values())).shape[0] if blocks else 1
        if tenant is not None and not admitted:
            self._tenant_admit(tenant, verb, units=float(nq))
        return _ReadRequest(verb, collection, tenant, blocks, nq, k,
                            consistency, staleness_ms, explain)

    def _observe_node(self, req: _ReadRequest,
                      prof: Optional[QueryProfile], parent, name: str,
                      ready_ms: float, start_ms: float, service_ms: float,
                      work: NodeWork) -> None:
        """Every plane of one node's part of a read, from its report: the
        ``query_node.scan`` span (its ``segment.scan`` /
        ``query_node.reduce`` children when sampled), the request's read
        counters under a tenant, the ``query_node_scan`` histogram and the
        EXPLAIN node stage (under a profile).  Segments scan one after
        another, so a segment's span ends where the cost model puts the
        work up to and including it (``work.ends``); a segment's stage
        holds its own counters, so segment stages sum to the node
        stage."""
        cost = self._cost
        scanned = work.reduce is not None       # a point read scans nothing
        self._tracer.record_tree(
            "query_node.scan", f"query-node:{name}", parent, ready_ms,
            start_ms + service_ms, {"queue_ms": start_ms - ready_ms,
                                    "service_ms": service_ms,
                                    "segments": work.segments},
            work.segments + 1 if scanned else 0,
            functools.partial(_node_scan_children, work.ids, work.ends,
                              float(ready_ms), cost.request_overhead_ms,
                              req.nq * cost.batch_row_overhead_ms,
                              work.segments))
        req.segments += work.segments
        if scanned:
            if req.tenant is not None:
                req.rows_scanned += int(work.counts[..., ROWS_SCANNED].sum())
                req.bytes_materialized += int(
                    work.counts[..., BYTES_MATERIALIZED].sum())
            hist = self._scan_hists.get(name)
            if hist is None:
                hist = self._scan_hists[name] = self._scan_hist.labels(
                    node=name)
            hist.observe(service_ms)
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

    def _scatter_gather(self, req: _ReadRequest, ask: str, args: tuple,
                        metric: Optional[MetricType] = None,
                        keep: Optional[int] = None,
                        at_ms: Optional[float] = None, **tags):
        """The read protocol of Manu §3.2/§3.6, once for every verb:
        guarantee timestamp, consistency wait, fan-out, merge, and every
        plane's emission.  A verb brings only what is its own: the
        query-node method it asks — ``ask(collection, *args, scope=)``
        returning ``(partial, service ms, NodeWork)`` — and how the
        partials merge: into one :class:`SearchResult` per query row, the
        best ``keep`` unique hits each (default: the request's ``k``, and
        without one, all), or, for a point read (no ``metric``), one dict.
        A request with a ``k`` is charged a top-k merge.
        """
        if keep is None:
            keep = req.k
        prof = None
        if req.explain or (self._slowlog is not None
                           and self._slowlog.enabled):
            prof = QueryProfile(req.collection, nq=req.nq, k=req.k or 0,
                                verb=req.verb)
            req.merge_stats = ReduceStats()
        if at_ms is not None:
            self._loop.run_until(at_ms)
        req.issue_ms = self._loop.now()
        guarantee = guarantee_ts(req.consistency,
                                 self._tso.allocate_packed(),
                                 req.staleness_ms, self._session_ts)
        # The root span covers [issue, done]; it is finished with the
        # *computed* done time, so it is opened by hand rather than with
        # the context-manager helper (which would stamp the clock's value
        # at block exit).  The try/finally still closes it as an error
        # span if anything below raises (e.g. a consistency timeout).
        root = self._tracer.start_span(
            f"proxy.{req.verb}", self._component, start_ms=req.issue_ms,
            collection=req.collection, nq=req.nq, k=req.k, **tags)
        try:
            with self._tracer.activate(root):
                plan = self._query_coord.search_plan(req.collection)
                if not plan:
                    raise ManuError(
                        f"collection {req.collection!r} is not loaded on "
                        f"any query node")
                req.wait_ms = self._wait_for_consistency(
                    req.collection, [node for node, _scope in plan],
                    guarantee)
                ready_ms = self._loop.now()

                partials = []
                parent = root
                hop_ms = self._cost.rpc_hop()
                for node, scope in plan:
                    start = max(ready_ms + hop_ms, node.busy_until_ms)
                    partial, service_ms, work = getattr(node, ask)(
                        req.collection, *args, scope=scope)
                    node.busy_until_ms = start + service_ms
                    req.scanned_ms = max(req.scanned_ms,
                                         node.busy_until_ms)
                    self._observe_node(req, prof, parent, node.name,
                                       ready_ms, start, service_ms, work)
                    partials.append(partial)

                # Back half: the timing first, because results carry it.
                if req.k is not None:
                    req.merge_ms = self._cost.topk_merge_cost(len(plan),
                                                              req.k)
                req.done_ms = req.scanned_ms + req.merge_ms + hop_ms
                latency = req.done_ms - req.issue_ms
                self._tracer.record_tree(
                    "proxy.merge", self._component, parent,
                    req.scanned_ms, req.done_ms, {"nodes": len(plan)})
                self._tracer.finish_span(root, end_ms=req.done_ms)
                if root.sampled:
                    req.trace_id = root.trace_id
                # Then the merge: the nodes' blocks side by side, every
                # query row at once.  Partials stay array-native through
                # it and into the result (hits become SearchHit objects
                # only when the caller looks at them); merge_topk dedups
                # replica copies, best hit per pk.
                if metric is None:
                    result = {}
                    for partial in partials:
                        result.update(partial)
                else:
                    result = [SearchResult(
                        hits=hits, metric=metric, latency_ms=latency,
                        consistency_wait_ms=req.wait_ms,
                        segments_searched=req.segments,
                        profile=prof if req.explain else None)
                        for hits in merge_topk(partials, keep,
                                               stats=req.merge_stats)]
                # Then every remaining plane, once, from the record.
                if prof is not None:
                    prof.finalize(latency_ms=latency, wait_ms=req.wait_ms,
                                  merge_ms=req.merge_ms, nodes=len(plan),
                                  segments=req.segments,
                                  merge_counters=req.merge_stats.as_dict(),
                                  trace_id=req.trace_id)
                    if self._slowlog is not None:
                        self._slowlog.observe(self._loop.now(), prof)
                if req.tenant is not None:
                    units = self._cost_meter.charge_read(
                        req.tenant, req.rows_scanned,
                        req.bytes_materialized)
                    self._read_units.labels(tenant=req.tenant).inc(units)
                window, histogram = self._latency[req.verb]
                window.record(self._loop.now(), latency)
                # The latency observation carries the trace id as an
                # exemplar: a histogram bucket is one hop from a concrete
                # sampled request that landed in it.
                histogram.observe(latency, exemplar=req.trace_id)
                self._wait_hist.observe(req.wait_ms)
                if req.k is not None:
                    self._merge_hist.observe(req.merge_ms)
                self._ops[req.verb].inc(req.nq)
                self.search_counts[req.collection] = \
                    self.search_counts.get(req.collection, 0) + req.nq
                return result
        finally:
            if root.end_ms is None:
                self._tracer.finish_span(root, status=SPAN_ERROR)

    def search(self, collection: str, queries: np.ndarray, k: int,
               field: Optional[str] = None,
               metric: MetricType = MetricType.EUCLIDEAN,
               expr: Optional[str] = None,
               consistency: ConsistencyLevel = ConsistencyLevel.BOUNDED,
               staleness_ms: float = 100.0,
               at_ms: Optional[float] = None,
               tenant: Optional[str] = None,
               explain: bool = False,
               _admitted: bool = False) -> list[SearchResult]:
        """Global top-k search; one :class:`SearchResult` per query row.

        With ``explain=True`` every returned result carries the request's
        :class:`~repro.profiling.QueryProfile` — the EXPLAIN ANALYZE work
        ledger — in ``result.profile`` (as for every read verb that
        returns results).  A profile is also built (but not returned)
        when the slow-query log is armed, so offenders are captured with
        full per-stage counters; with neither, the hot path allocates no
        profile objects at all.  ``_admitted`` is the batching window's:
        its queries passed the quota when they were submitted.
        """
        require_number("k", k, 1, integer=True)
        filter_expr = FilterExpression(expr) if expr is not None else None
        req = self._admit("search", collection, tenant, {field: queries}, k,
                          consistency, staleness_ms, explain, _admitted,
                          metric)
        (field, block), = req.blocks.items()
        return self._scatter_gather(
            req, "search", (field, block, k, metric, filter_expr), metric,
            at_ms=at_ms)

    def search_multivector(self, collection: str, query: MultiVectorQuery,
                           k: int,
                           consistency: ConsistencyLevel =
                           ConsistencyLevel.BOUNDED,
                           staleness_ms: float = 100.0,
                           tenant: Optional[str] = None,
                           explain: bool = False) -> SearchResult:
        """Multi-vector entity search (Section 3.6)."""
        require_number("k", k, 1, integer=True)
        for name in query.fields:
            require_number(f"the weight of {name!r}", query.weights[name],
                           0)
        req = self._admit(
            "search_multivector", collection, tenant,
            {name: query.queries[name] for name in query.fields}, k,
            consistency, staleness_ms, explain)
        if req.nq != 1:
            raise InvalidQuery("a multi-vector query takes one vector "
                               "per field")
        query = dataclasses.replace(query, queries={
            name: block[0] for name, block in req.blocks.items()})
        return self._scatter_gather(
            req, "search_multivector", (query, k), query.metric,
            fields=len(query.fields))[0]

    # ------------------------------------------------------------------
    # point reads, range search
    # ------------------------------------------------------------------

    def get(self, collection: str, pks, tenant: Optional[str] = None,
            consistency: ConsistencyLevel = ConsistencyLevel.BOUNDED,
            staleness_ms: float = 100.0) -> dict:
        """Fetch live entities' field values by primary key.

        Returns pk -> {field: value} for found keys; missing keys are
        omitted.  Served from the query nodes' live copies (any copy
        will do: the merge dedups by key) once their watermarks pass the
        guarantee timestamp, like every read — ``consistency=SESSION``
        reads the session's own writes.
        """
        if isinstance(pks, (str, bytes)) or not isinstance(pks, Iterable):
            raise InvalidQuery(
                f"pks must be a list of primary keys, got {pks!r}")
        pks = list(pks)
        try:
            set(pks)        # segments look primary keys up by hash
        except TypeError:
            raise InvalidQuery(f"primary keys are hashable, got {pks!r}") \
                from None
        req = self._admit("get", collection, tenant, {}, None, consistency,
                          staleness_ms)
        return self._scatter_gather(req, "fetch", (pks,), keys=len(pks))

    def range_search(self, collection: str, query: np.ndarray,
                     radius: float, field: Optional[str] = None,
                     metric: MetricType = MetricType.EUCLIDEAN,
                     expr: Optional[str] = None,
                     consistency: ConsistencyLevel =
                     ConsistencyLevel.BOUNDED,
                     staleness_ms: float = 100.0,
                     limit: Optional[int] = None,
                     tenant: Optional[str] = None,
                     explain: bool = False) -> SearchResult:
        """All entities within ``radius`` of the query (exact).

        ``radius`` is expressed in the metric's own terms: a maximum L2
        distance for Euclidean, a *minimum* similarity for inner product
        and cosine (which may be negative).  ``limit`` keeps the closest
        hits only; either way the cost model charges this verb no merge
        (charging one is left to the cost model's refit).
        """
        if metric is MetricType.EUCLIDEAN:
            require_number("a Euclidean radius", radius, 0)
            threshold = float(radius) ** 2  # adjusted = squared L2
        else:
            require_number("radius", radius, -math.inf)
            threshold = -float(radius)      # adjusted = negated similarity
        if limit is not None:
            require_number("limit", limit, 0, integer=True)
        filter_expr = FilterExpression(expr) if expr is not None else None
        req = self._admit("range_search", collection, tenant,
                          {field: query}, None, consistency, staleness_ms,
                          explain, metric=metric)
        (field, block), = req.blocks.items()
        if req.nq != 1:
            raise InvalidQuery("range_search takes one query vector")
        return self._scatter_gather(
            req, "range_search",
            (field, block[0], threshold, metric, filter_expr), metric,
            keep=limit, radius=float(radius))[0]

    # ------------------------------------------------------------------
    # request batching (Section 3.6)
    # ------------------------------------------------------------------

    def submit_search(self, collection: str, query: np.ndarray, k: int,
                      field: Optional[str] = None,
                      metric: MetricType = MetricType.EUCLIDEAN,
                      expr: Optional[str] = None,
                      consistency: ConsistencyLevel =
                      ConsistencyLevel.BOUNDED,
                      staleness_ms: float = 100.0,
                      tenant: Optional[str] = None) -> PendingSearch:
        """Queue one search into the batching window; returns a handle.

        "Requests of the same type (i.e., target the same collection and
        use the same similarity function) are organized into one batch and
        handled by Manu together."  The batch flushes when the configured
        ``batch_window_ms`` elapses; with batching disabled (window 0) the
        search executes immediately.  Drive the event loop (or call
        :meth:`flush_batches`) to resolve handles.

        The request is validated, namespaced and quota-admitted here, at
        submit time (the flush charges its read units, not its quota a
        second time), and a tenant's batch is dispatched at the QoS
        class's priority: when several windows expire together (or
        :meth:`flush_batches` drains them), gold batches execute before
        bronze ones, so a backlog queues behind gold, not ahead of it.
        """
        handle = PendingSearch()
        window = self._config.query.batch_window_ms
        if window <= 0:
            handle.result = self.search(
                collection, query, k, field=field, metric=metric,
                expr=expr, consistency=consistency,
                staleness_ms=staleness_ms, tenant=tenant)[0]
            return handle
        require_number("k", k, 1, integer=True)
        if expr is not None:
            FilterExpression(expr)      # refused now, not at the flush
        req = self._admit("search", collection, tenant, {field: query}, k,
                          consistency, staleness_ms, metric=metric)
        (field, block), = req.blocks.items()
        if req.nq != 1:
            raise InvalidQuery("submit_search takes one query vector")
        key = (req.collection, field, metric, expr, consistency,
               staleness_ms, k, tenant)
        priority = self._admission.priority(tenant) \
            if tenant is not None and self._admission is not None else 0
        batch = self._batches.setdefault(key, (priority, []))[1]
        batch.append((block, handle))
        if len(batch) == 1:
            self._loop.call_after(window, lambda: self._flush_batch(key),
                                  name=f"batch-flush:{req.collection}")
        return handle

    def _flush_batch(self, key: tuple) -> None:
        _priority, batch = self._batches.pop(key, (0, None))
        if not batch:
            return
        (collection, field, metric, expr, consistency, staleness_ms,
         k, tenant) = key
        queries = np.concatenate([q for q, _h in batch], axis=0)
        results = self.search(collection, queries, k, field=field,
                              metric=metric, expr=expr,
                              consistency=consistency,
                              staleness_ms=staleness_ms, tenant=tenant,
                              _admitted=True)
        for (_q, handle), result in zip(batch, results):
            handle.result = result
        self.batches_flushed += 1
        self._ops["batched_search"].inc(len(batch))

    def flush_batches(self) -> int:
        """Force-flush all pending batches; returns requests flushed.

        Batches drain in QoS priority order — scheduling priority is
        where a tenant's class bites: gold work executes (and claims the
        nodes' ``busy_until`` windows) before silver and bronze.
        """
        flushed = 0
        for key in sorted(self._batches, key=lambda key: (
                self._batches[key][0], str(key))):
            flushed += len(self._batches[key][1])
            self._flush_batch(key)
        return flushed

    def _wait_for_consistency(self, collection: str, nodes: Sequence,
                              guarantee: int) -> float:
        """Drive the loop until every node's watermark passes the guarantee.

        Returns the virtual wait duration; raises
        :class:`ConsistencyTimeout` past the configured deadline.
        """
        start_ms = self._loop.now()
        if all(node.ready(collection, guarantee) for node in nodes):
            # Nothing to wait for: the same span, closed where it opens.
            self._tracer.record_span(
                "proxy.consistency_wait", self._component, start_ms=start_ms,
                end_ms=start_ms, guarantee=guarantee)
            return 0.0
        deadline = start_ms + self._config.query.consistency_deadline_ms
        with self._tracer.span("proxy.consistency_wait", self._component,
                               guarantee=guarantee) as wspan:
            # One wait_ready span per node that is behind the guarantee,
            # closed as its watermark catches up.  If the wait ends any
            # other way — a timeout, or an event raising inside a step —
            # the spans still open are flagged incomplete (a node killed
            # mid-wait is closed by its own fail() first; finish_span is
            # idempotent).
            waiting: dict[str, object] = {}
            try:
                while True:
                    pending = [n for n in nodes
                               if not n.ready(collection, guarantee)]
                    for node in pending:
                        if node.name not in waiting:
                            waiting[node.name] = self._tracer.start_span(
                                "query_node.wait_ready",
                                f"query-node:{node.name}",
                                parent=wspan.context, guarantee=guarantee)
                    pending_names = {n.name for n in pending}
                    for name in list(waiting):
                        if name not in pending_names:
                            self._tracer.finish_span(waiting.pop(name))
                    if not pending:
                        return self._loop.now() - start_ms
                    nxt = self._loop.peek_time()
                    if nxt is None or nxt > deadline:
                        raise ConsistencyTimeout(
                            f"nodes {[n.name for n in pending]} did not "
                            f"reach guarantee ts within "
                            f"{self._config.query.consistency_deadline_ms}"
                            f"ms")
                    self._loop.step()
            finally:
                for span in waiting.values():
                    self._tracer.finish_span(span, status=SPAN_INCOMPLETE)


def _node_scan_children(ids: Sequence[str], ends: Sequence[float],
                        start_ms: float, overhead_ms: float, rows_ms: float,
                        segments: int) -> list[tuple]:
    """A sampled ``query_node.scan`` span's children, as
    ``TraceCollector.record_tree`` takes them: its segments' scans laid
    end to end from ``start_ms``, each ending where the cost model puts
    the node's work up to and including it (``ends``: the scan's
    cumulative virtual ms), then the node's reduce, which costs the
    fixed message overhead and the rows' share."""
    children = []
    cursor_ms = start_ms
    for segment_id, end_ms in zip(ids, ends):
        end_ms = start_ms + end_ms
        children.append(("segment.scan", cursor_ms, end_ms,
                         {"segment": segment_id}))
        cursor_ms = end_ms
    children.append(("query_node.reduce", cursor_ms,
                     cursor_ms + overhead_ms + rows_ms,
                     {"segments": segments}))
    return children


def _extract_pks(expr: FilterExpression, pk_field: str) -> list:
    """Primary keys addressed by a delete expression."""
    ast = expr.ast
    if isinstance(ast, InList) and isinstance(ast.operand, Field) \
            and ast.operand.name == pk_field and not ast.negated:
        return list(ast.items)
    if isinstance(ast, Compare) and len(ast.operands) == 2 \
            and ast.ops == ("==",):
        left, right = ast.operands
        if isinstance(left, Field) and left.name == pk_field \
                and isinstance(right, Const):
            return [right.value]
        if isinstance(right, Field) and right.name == pk_field \
                and isinstance(left, Const):
            return [left.value]
    raise ManuError(
        "delete expressions must address the primary key, e.g. "
        f"'{pk_field} in [1, 2]' or '{pk_field} == 3' (got {expr.text!r})")
