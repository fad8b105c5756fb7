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

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.config import ManuConfig
from repro.core.consistency import ConsistencyLevel, guarantee_ts
from repro.core.entity import validate_batch
from repro.core.expr import Const, Compare, Field, FilterExpression, InList
from repro.core.multivector import MultiVectorQuery
from repro.core.results import HitBatch, ReduceStats, SearchResult, \
    merge_topk
from repro.core.schema import MetricType
from repro.core.tso import TimestampOracle
from repro.errors import CollectionNotFound, ConsistencyTimeout, \
    InvalidQuery, ManuError, QuotaExceeded
from repro.index.base import SearchStats
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
        # Metric handles are live objects; resolve them once instead of
        # rebuilding f-string names on every request.
        self._inserts_counter = self.metrics.counter(
            f"proxy.{name}.inserts")
        self._deletes_counter = self.metrics.counter(
            f"proxy.{name}.deletes")
        self._searches_counter = self.metrics.counter(
            f"proxy.{name}.searches")
        self._batched_counter = self.metrics.counter(
            f"proxy.{name}.batched_searches")
        self._search_latency = self.metrics.latency("proxy.search_latency")
        self._multivector_latency = self.metrics.latency(
            "proxy.multivector_latency")
        self._range_latency = self.metrics.latency(
            "proxy.range_search_latency")
        # Labeled histogram families: cumulative, mergeable across proxies
        # (the exposition endpoint serves both the per-proxy series and the
        # cluster aggregate, e.g. ``search_latency_p99``).
        self._search_hist = self.metrics.histogram_family(
            "search_latency", ("proxy",),
            help="end-to-end search latency", unit="ms").labels(proxy=name)
        self._wait_hist = self.metrics.histogram_family(
            "consistency_wait", ("proxy",),
            help="delta-consistency wait before fan-out",
            unit="ms").labels(proxy=name)
        self._merge_hist = self.metrics.histogram_family(
            "proxy_merge", ("proxy",),
            help="global top-k merge time", unit="ms").labels(proxy=name)
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
        # within the configured window, executed as one batch.
        self._batches: dict[tuple, list[tuple[np.ndarray,
                                              PendingSearch]]] = {}
        # Batch key -> QoS dispatch priority (0 = first); tenant batches
        # flush gold before bronze when several windows expire together.
        self._batch_priority: dict[tuple, int] = {}
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
    # cost accounting
    # ------------------------------------------------------------------

    def _charge_read(self, tenant: str, stats: SearchStats) -> None:
        """Meter one search's measured scan work against the tenant."""
        units = self._cost_meter.charge_read(
            tenant, stats.rows_scanned, stats.bytes_materialized)
        self._read_units.labels(tenant=tenant).inc(units)

    def _charge_write(self, tenant: str, rows: int) -> None:
        """Meter one write's appended rows against the tenant."""
        units = self._cost_meter.charge_write(tenant, rows)
        self._write_units.labels(tenant=tenant).inc(units)

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
    # writes
    # ------------------------------------------------------------------

    def insert(self, collection: str, data: Mapping,
               tenant: Optional[str] = None) -> tuple:
        """Validate and publish an insert; returns the assigned pks.

        With ``tenant`` the collection name is tenant-scoped and the
        rows are admitted against the tenant's insert-rate bucket.
        """
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        schema = self._schema(collection)
        batch = validate_batch(schema, data)
        if tenant is not None:
            self._tenant_admit(tenant, "insert", units=batch.num_rows)
        with self._tracer.span("proxy.insert", self._component,
                               collection=collection, rows=batch.num_rows):
            lsn = self._loggers.insert(collection, batch)
        self._session_ts = max(self._session_ts, lsn)
        self._inserts_counter.inc(batch.num_rows)
        if tenant is not None:
            self._charge_write(tenant, batch.num_rows)
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
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        schema = self._schema(collection)
        batch = validate_batch(schema, data)
        if tenant is not None:
            self._tenant_admit(tenant, "insert", units=batch.num_rows)
        # No per-submit span: buffering is a local memory append, and a
        # span per call would defeat the amortisation this path exists
        # for.  The flush's "logger.publish_batch" span is the traced
        # unit and carries the coalesced row count.
        ack = self._loggers.insert_async(collection, batch)

        def _on_ack(future: "AckFuture") -> None:
            self._session_ts = max(self._session_ts, future.result())
            self._inserts_counter.inc(batch.num_rows)
            if tenant is not None:
                self._charge_write(tenant, batch.num_rows)

        ack.add_done_callback(_on_ack)
        return batch.pks, ack

    def delete(self, collection: str, expr: str,
               tenant: Optional[str] = None) -> int:
        """Delete by primary-key expression; returns the deleted count.

        Like Milvus 2.0, deletion expressions must address primary keys
        directly (``pk in [1, 2]`` or ``pk == 3``).
        """
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        schema = self._schema(collection)
        pks = _extract_pks(FilterExpression(expr),
                           schema.primary_field.name)
        if tenant is not None:
            self._tenant_admit(tenant, "delete", units=len(pks))
        with self._tracer.span("proxy.delete", self._component,
                               collection=collection, keys=len(pks)):
            lsn, deleted = self._loggers.delete(collection, tuple(pks))
        self._session_ts = max(self._session_ts, lsn)
        self._deletes_counter.inc(deleted)
        return deleted

    def delete_async(self, collection: str, expr: str) -> "AckFuture":
        """Buffer a delete into the loggers' commit groups.

        The returned :class:`~repro.log.logger_node.AckFuture` resolves
        with the durable batch LSN; its ``rows`` reports how many keys
        existed at flush time.  Session timestamp and the delete counter
        advance on resolution.
        """
        schema = self._schema(collection)
        pks = _extract_pks(FilterExpression(expr),
                           schema.primary_field.name)
        # Unspanned for the same reason as insert_async: the flush owns
        # the span.
        ack = self._loggers.delete_async(collection, tuple(pks))

        def _on_ack(future: "AckFuture") -> None:
            self._session_ts = max(self._session_ts, future.result())
            self._deletes_counter.inc(future.rows)

        ack.add_done_callback(_on_ack)
        return ack

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(self, collection: str, queries: np.ndarray, k: int,
               field: Optional[str] = None,
               metric: MetricType = MetricType.EUCLIDEAN,
               expr: Optional[str] = None,
               consistency: ConsistencyLevel = ConsistencyLevel.BOUNDED,
               staleness_ms: float = 100.0,
               at_ms: Optional[float] = None,
               tenant: Optional[str] = None,
               explain: bool = False) -> list[SearchResult]:
        """Global top-k search; one :class:`SearchResult` per query row.

        With ``explain=True`` every returned result carries the request's
        :class:`~repro.profiling.QueryProfile` — the EXPLAIN ANALYZE work
        ledger — in ``result.profile``.  A profile is also built (but not
        returned) when the slow-query log is armed, so offenders are
        captured with full per-stage counters; with neither, the hot path
        allocates no profile objects at all.
        """
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        schema = self._schema(collection)
        if field is None:
            field = schema.default_vector_field().name
        dim = schema.field(field).dim  # validates existence
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        # Malformed requests fail here, typed, not as a numpy error from
        # inside an index three layers down.
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise InvalidQuery(f"k must be an integer of at least 1, "
                               f"got {k!r}")
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise InvalidQuery(
                f"field {field!r} holds {dim}-d vectors; got a query "
                f"block of shape {queries.shape}")
        if not np.isfinite(queries).all():
            raise InvalidQuery("query vectors must be finite "
                               "(found NaN or inf)")
        if tenant is not None:
            self._tenant_admit(tenant, "search",
                               units=float(queries.shape[0]))
        filter_expr = FilterExpression(expr) if expr else None
        # Request-wide scan work, accumulated across the node fan-out for
        # cost metering (always cheap: one SearchStats, no tree).
        req_stats = SearchStats()
        want_profile = explain or (self._slowlog is not None
                                   and self._slowlog.enabled)
        prof = QueryProfile(collection, nq=int(queries.shape[0]),
                            k=k) if want_profile else None

        if at_ms is not None:
            self._loop.run_until(at_ms)
        issue_ms = self._loop.now()
        issue_ts = self._tso.allocate_packed()
        guarantee = guarantee_ts(consistency, issue_ts, staleness_ms,
                                 self._session_ts)

        # The root span covers [issue, done]; it is finished with the
        # *computed* done time, so it is opened by hand rather than with
        # the context-manager helper (which would stamp the clock's value
        # at block exit).  The try/finally still closes it as an error
        # span if anything below raises (e.g. a consistency timeout).
        root = self._tracer.start_span(
            "proxy.search", self._component, start_ms=issue_ms,
            collection=collection, k=k, nq=int(queries.shape[0]))
        try:
            with self._tracer.activate(root):
                plan = self._query_coord.search_plan(collection)
                if not plan:
                    raise ManuError(
                        f"collection {collection!r} is not loaded on any "
                        f"query node")
                nodes = [node for node, _scope in plan]

                wait_ms = self._wait_for_consistency(collection, nodes,
                                                     guarantee)
                ready_ms = self._loop.now()

                per_query_partials = [[] for _ in range(queries.shape[0])]
                finish_times = []
                segments_total = 0
                for node, scope in plan:
                    start = max(ready_ms + self._cost.rpc_hop(),
                                node.busy_until_ms)
                    nspan = self._tracer.start_span(
                        "query_node.scan", f"query-node:{node.name}",
                        parent=root.context, start_ms=ready_ms)
                    node_stage = prof.node_stage(node.name) \
                        if prof is not None else None
                    hits, service_ms, searched = node.search(
                        collection, field, queries, k, metric, filter_expr,
                        scope=scope, trace_span=nspan,
                        profile=node_stage, acc_stats=req_stats)
                    node.busy_until_ms = start + service_ms
                    if node_stage is not None:
                        node_stage.meta["queue_ms"] = start - ready_ms
                    nspan.tags.update(queue_ms=start - ready_ms,
                                      service_ms=service_ms,
                                      segments=searched)
                    self._tracer.finish_span(nspan,
                                             end_ms=node.busy_until_ms)
                    finish_times.append(node.busy_until_ms)
                    segments_total += searched
                    for qi, node_hits in enumerate(hits):
                        per_query_partials[qi].append(node_hits)

                merge_ms = self._cost.topk_merge_cost(len(nodes), k)
                done_ms = max(finish_times) + merge_ms \
                    + self._cost.rpc_hop()
                latency = done_ms - issue_ms
                self._tracer.record_span(
                    "proxy.merge", self._component, parent=root.context,
                    start_ms=max(finish_times), end_ms=done_ms,
                    nodes=len(nodes))
                self._tracer.finish_span(root, end_ms=done_ms)

                trace_id = root.trace_id if root.sampled else None
                if prof is not None:
                    proxy_reduce = ReduceStats()
                else:
                    proxy_reduce = None
                results = []
                for parts in per_query_partials:
                    # Partials stay array-native through the global merge
                    # and into the result: hits become SearchHit objects
                    # only when the caller looks at them.
                    results.append(SearchResult(
                        hits=merge_topk(parts, k, stats=proxy_reduce),
                        metric=metric,
                        latency_ms=latency, consistency_wait_ms=wait_ms,
                        segments_searched=segments_total,
                        profile=prof if explain else None))
                if prof is not None:
                    prof.finalize(latency_ms=latency, wait_ms=wait_ms,
                                  merge_ms=merge_ms, nodes=len(nodes),
                                  segments=segments_total,
                                  merge_counters=proxy_reduce.as_dict(),
                                  trace_id=trace_id)
                    if self._slowlog is not None:
                        self._slowlog.observe(self._loop.now(), prof)
                if tenant is not None:
                    self._charge_read(tenant, req_stats)
                self._search_latency.record(self._loop.now(), latency)
                # The latency observation carries the trace id as an
                # exemplar: a histogram bucket is one hop from a concrete
                # sampled request that landed in it.
                self._search_hist.observe(latency, exemplar=trace_id)
                self._wait_hist.observe(wait_ms)
                self._merge_hist.observe(merge_ms)
                self._searches_counter.inc(queries.shape[0])
                self.search_counts[collection] = \
                    self.search_counts.get(collection, 0) \
                    + int(queries.shape[0])
                return results
        finally:
            if root.end_ms is None:
                self._tracer.finish_span(root, status=SPAN_ERROR)

    def search_multivector(self, collection: str, query: MultiVectorQuery,
                           k: int,
                           consistency: ConsistencyLevel =
                           ConsistencyLevel.BOUNDED,
                           staleness_ms: float = 100.0) -> SearchResult:
        """Multi-vector entity search (Section 3.6)."""
        self._schema(collection)
        issue_ms = self._loop.now()
        issue_ts = self._tso.allocate_packed()
        guarantee = guarantee_ts(consistency, issue_ts, staleness_ms,
                                 self._session_ts)
        root = self._tracer.start_span(
            "proxy.search_multivector", self._component, start_ms=issue_ms,
            collection=collection, k=k, fields=len(query.fields))
        try:
            with self._tracer.activate(root):
                plan = self._query_coord.search_plan(collection)
                if not plan:
                    raise ManuError(
                        f"collection {collection!r} is not loaded on any "
                        f"query node")
                nodes = [node for node, _scope in plan]
                wait_ms = self._wait_for_consistency(collection, nodes,
                                                     guarantee)
                ready_ms = self._loop.now()

                partials = []
                finish_times = []
                segments_total = 0
                for node, scope in plan:
                    start = max(ready_ms + self._cost.rpc_hop(),
                                node.busy_until_ms)
                    hits, service_ms, searched = node.search_multivector(
                        collection, query, k, scope=scope)
                    node.busy_until_ms = start + service_ms
                    self._tracer.record_span(
                        "query_node.scan", f"query-node:{node.name}",
                        parent=root.context, start_ms=ready_ms,
                        end_ms=node.busy_until_ms, segments=searched)
                    finish_times.append(node.busy_until_ms)
                    segments_total += searched
                    partials.append(hits)
                merge_ms = self._cost.topk_merge_cost(len(nodes), k)
                done_ms = max(finish_times) + merge_ms \
                    + self._cost.rpc_hop()
                latency = done_ms - issue_ms
                self._tracer.record_span(
                    "proxy.merge", self._component, parent=root.context,
                    start_ms=max(finish_times), end_ms=done_ms,
                    nodes=len(nodes))
                self._tracer.finish_span(root, end_ms=done_ms)
                self._multivector_latency.record(self._loop.now(), latency)
                self._wait_hist.observe(wait_ms)
                self._merge_hist.observe(merge_ms)
                return SearchResult(hits=merge_topk(partials, k).to_hits(),
                                    metric=query.metric,
                                    latency_ms=latency,
                                    consistency_wait_ms=wait_ms,
                                    segments_searched=segments_total)
        finally:
            if root.end_ms is None:
                self._tracer.finish_span(root, status=SPAN_ERROR)

    # ------------------------------------------------------------------
    # point reads, upsert, range search
    # ------------------------------------------------------------------

    def get(self, collection: str, pks,
            tenant: Optional[str] = None) -> dict:
        """Fetch live entities' field values by primary key.

        Returns pk -> {field: value} for found keys; missing keys are
        omitted.  Served from the query nodes' live copies.
        """
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
            self._tenant_admit(tenant, "get")
        self._schema(collection)
        out: dict = {}
        for node, scope in self._query_coord.search_plan(collection):
            del scope  # point reads hit any live copy; dedup via dict
            out.update(node.fetch(collection, pks))
        return out

    def upsert(self, collection: str, data: Mapping,
               tenant: Optional[str] = None) -> tuple:
        """Delete-any-existing then insert (explicit-pk schemas only)."""
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
        schema = self._schema(collection)
        if schema.auto_id:
            raise ManuError(
                "upsert requires an explicit primary key schema")
        batch = validate_batch(schema, data)
        if tenant is not None:
            self._tenant_admit(tenant, "upsert", units=batch.num_rows)
        with self._tracer.span("proxy.upsert", self._component,
                               collection=collection, rows=batch.num_rows):
            lsn, _deleted = self._loggers.delete(collection, batch.pks)
            self._session_ts = max(self._session_ts, lsn)
            lsn = self._loggers.insert(collection, batch)
            self._session_ts = max(self._session_ts, lsn)
        if tenant is not None:
            self._charge_write(tenant, batch.num_rows)
        return batch.pks

    def range_search(self, collection: str, query: np.ndarray,
                     radius: float, field: Optional[str] = None,
                     metric: MetricType = MetricType.EUCLIDEAN,
                     expr: Optional[str] = None,
                     consistency: ConsistencyLevel =
                     ConsistencyLevel.BOUNDED,
                     staleness_ms: float = 100.0,
                     limit: Optional[int] = None) -> SearchResult:
        """All entities within ``radius`` of the query (exact).

        ``radius`` is expressed in the metric's own terms: a maximum L2
        distance for Euclidean, a *minimum* similarity for inner product
        and cosine.
        """
        schema = self._schema(collection)
        if field is None:
            field = schema.default_vector_field().name
        schema.field(field)
        if metric is MetricType.EUCLIDEAN:
            if radius < 0:
                raise ManuError("Euclidean radius must be non-negative")
            threshold = float(radius) ** 2  # adjusted = squared L2
        else:
            threshold = -float(radius)      # adjusted = negated similarity
        filter_expr = FilterExpression(expr) if expr else None
        query = np.asarray(query, dtype=np.float32).reshape(-1)

        issue_ms = self._loop.now()
        issue_ts = self._tso.allocate_packed()
        guarantee = guarantee_ts(consistency, issue_ts, staleness_ms,
                                 self._session_ts)
        root = self._tracer.start_span(
            "proxy.range_search", self._component, start_ms=issue_ms,
            collection=collection, radius=float(radius))
        try:
            with self._tracer.activate(root):
                plan = self._query_coord.search_plan(collection)
                if not plan:
                    raise ManuError(
                        f"collection {collection!r} is not loaded on any "
                        f"query node")
                wait_ms = self._wait_for_consistency(
                    collection, [n for n, _s in plan], guarantee)
                ready_ms = self._loop.now()

                partials: list[HitBatch] = []
                finish_times = []
                for node, scope in plan:
                    start = max(ready_ms + self._cost.rpc_hop(),
                                node.busy_until_ms)
                    batch, service_ms = node.range_search(
                        collection, field, query, threshold, metric,
                        expr=filter_expr, scope=scope)
                    node.busy_until_ms = start + service_ms
                    self._tracer.record_span(
                        "query_node.scan", f"query-node:{node.name}",
                        parent=root.context, start_ms=ready_ms,
                        end_ms=node.busy_until_ms, hits=len(batch))
                    finish_times.append(node.busy_until_ms)
                    partials.append(batch)
                # merge_topk dedups replica copies (best hit per pk); with
                # no limit the "k" is the total candidate count, i.e. keep
                # everything.
                k_eff = limit if limit is not None \
                    else sum(len(b) for b in partials)
                ordered = merge_topk(partials, k_eff).to_hits()
                done_ms = max(finish_times) + self._cost.rpc_hop()
                latency = done_ms - issue_ms
                self._tracer.record_span(
                    "proxy.merge", self._component, parent=root.context,
                    start_ms=max(finish_times), end_ms=done_ms,
                    nodes=len(plan))
                self._tracer.finish_span(root, end_ms=done_ms)
                self._range_latency.record(self._loop.now(), latency)
                self._wait_hist.observe(wait_ms)
                return SearchResult(hits=ordered, metric=metric,
                                    latency_ms=latency,
                                    consistency_wait_ms=wait_ms,
                                    segments_searched=len(plan))
        finally:
            if root.end_ms is None:
                self._tracer.finish_span(root, status=SPAN_ERROR)

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

        With ``tenant`` the request is namespaced and quota-admitted at
        submit time, and its batch is dispatched at the QoS class's
        priority: when several windows expire together (or
        :meth:`flush_batches` drains them), gold batches execute before
        bronze ones, so a backlog queues behind gold, not ahead of it.
        """
        priority = 0
        if tenant is not None:
            collection = self._tenant_resolve(tenant, collection)
            self._tenant_admit(tenant, "search")
            if self._admission is not None:
                priority = self._admission.priority(tenant)
        handle = PendingSearch()
        query = np.asarray(query, dtype=np.float32).reshape(1, -1)
        window = self._config.query.batch_window_ms
        if window <= 0:
            handle.result = self.search(
                collection, query, k, field=field, metric=metric,
                expr=expr, consistency=consistency,
                staleness_ms=staleness_ms)[0]
            return handle
        key = (collection, field, metric, expr, consistency, staleness_ms,
               k)
        batch = self._batches.setdefault(key, [])
        self._batch_priority[key] = priority
        batch.append((query, handle))
        if len(batch) == 1:
            self._loop.call_after(window, lambda: self._flush_batch(key),
                                  name=f"batch-flush:{collection}")
        return handle

    def _flush_batch(self, key: tuple) -> None:
        batch = self._batches.pop(key, None)
        self._batch_priority.pop(key, None)
        if not batch:
            return
        (collection, field, metric, expr, consistency, staleness_ms,
         k) = key
        queries = np.concatenate([q for q, _h in batch], axis=0)
        # The window timer fires inside whatever frame steps the clock;
        # detach so the batched search roots its own trace.
        with self._tracer.detached():
            results = self.search(collection, queries, k, field=field,
                                  metric=metric, expr=expr,
                                  consistency=consistency,
                                  staleness_ms=staleness_ms)
        for (_q, handle), result in zip(batch, results):
            handle.result = result
        self.batches_flushed += 1
        self._batched_counter.inc(len(batch))

    def flush_batches(self) -> int:
        """Force-flush all pending batches; returns requests flushed.

        Batches drain in QoS priority order — scheduling priority is
        where a tenant's class bites: gold work executes (and claims the
        nodes' ``busy_until`` windows) before silver and bronze.
        """
        flushed = 0
        for key in sorted(self._batches,
                          key=lambda key: (
                              self._batch_priority.get(key, 0),
                              str(key))):
            flushed += len(self._batches.get(key, ()))
            self._flush_batch(key)
        return flushed

    def _wait_for_consistency(self, collection: str, nodes: Sequence,
                              guarantee: int) -> float:
        """Drive the loop until every node's watermark passes the guarantee.

        Returns the virtual wait duration; raises
        :class:`ConsistencyTimeout` past the configured deadline.
        """
        start_ms = self._loop.now()
        deadline = start_ms + self._config.query.consistency_deadline_ms
        with self._tracer.span("proxy.consistency_wait", self._component,
                               guarantee=guarantee) as wspan:
            # One wait_ready span per node that is behind the guarantee,
            # closed as its watermark catches up.  On timeout the spans
            # still open are flagged incomplete (a node killed mid-wait is
            # closed by its own fail() first; finish_span is idempotent).
            waiting: dict[str, object] = {}
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
                    for span in waiting.values():
                        self._tracer.finish_span(span,
                                                 status=SPAN_INCOMPLETE)
                    raise ConsistencyTimeout(
                        f"nodes {[n.name for n in pending]} did not reach "
                        f"guarantee ts within "
                        f"{self._config.query.consistency_deadline_ms}ms")
                self._loop.step()


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
