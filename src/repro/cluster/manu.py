"""ManuCluster: the whole system, wired and runnable in one process.

Instantiates the four layers of Figure 2 — access (proxies), coordinators
(root/data/query/index), workers (data/index/query nodes + loggers) and
storage (metastore + object store + log broker) — on a shared virtual
clock.  Everything communicates exactly as the paper describes: writes flow
through loggers onto per-shard WAL channels; data nodes archive binlogs;
index nodes build from binlogs; query nodes subscribe to the WAL and load
sealed segments; coordination messages travel on the log.

Public surface mirrors the system operations used by the evaluation:
DDL (``create_collection``/``drop_collection``), DML (``insert``,
``delete``), search (``search``, ``search_multivector``), index management
(``create_index``), lifecycle (``flush``, ``compact``, checkpoints, time
travel), and elasticity (``add_query_node``, ``remove_query_node``,
``fail_query_node``).  Applications normally use the PyManu API
(:mod:`repro.api.pymanu`) on top of this class.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Mapping, Optional


from repro.config import DEFAULT_CONFIG, ManuConfig
from repro.coord.data import DataCoordinator
from repro.coord.index_coord import IndexCoordinator
from repro.coord.query import QueryCoordinator
from repro.coord.root import RootCoordinator
from repro.core.checkpoint import Checkpoint, TimeTravel
from repro.core.compaction import CompactionPolicy, SegmentMeta, \
    compact_segments
from repro.core.multivector import MultiVectorQuery
from repro.core.results import SearchResult
from repro.core.schema import CollectionSchema, MetricType
from repro.core.segment import Segment
from repro.core.tso import Timestamp, TimestampOracle
from repro.errors import ClusterStateError, IndexBuildError, ManuError
from repro.index.base import create_index as build_index
from repro.log.broker import LogBroker
from repro.log.logger_node import LoggerService
from repro.log.timetick import TimeTickEmitter
from repro.log.wal import shard_channel
from repro.monitoring.alerts import AlertEngine
from repro.monitoring.flight_recorder import FlightRecorder
from repro.monitoring.health import HealthTracker
from repro.monitoring.metrics import MetricsRegistry
from repro.nodes.data_node import DataNode
from repro.nodes.index_node import IndexNode
from repro.nodes.proxy import Proxy
from repro.nodes.query_node import QueryNode
from repro.profiling import SlowQueryLog
from repro.sim.clock import SchedulePolicy
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.events import EventLoop
from repro.storage.metastore import MetaStore
from repro.storage.object_store import Backend, ObjectStore
from repro.tenancy import (AdmissionController, CostMeter, Move, QosClass,
                           ShardRebalancer, TenantDirectory, TenantInfo,
                           TenantQuota, TenantRegistry, physical_name)
from repro.tracing import TraceCollector

#: object-store key the tenancy plane checkpoints itself under.
TENANCY_STATE_KEY = "tenancy/state.json"


class ManuCluster:
    """An in-process Manu deployment on a virtual clock."""

    def __init__(self, config: Optional[ManuConfig] = None,
                 cost_model: Optional[CostModel] = None,
                 num_query_nodes: int = 2,
                 num_index_nodes: int = 1,
                 num_data_nodes: int = 1,
                 num_proxies: int = 1,
                 num_loggers: int = 2,
                 store_backend: Optional[Backend] = None,
                 enable_wal_archive: bool = False,
                 schedule_policy: Optional[SchedulePolicy] = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG
        self.cost_model = (cost_model if cost_model is not None
                           else DEFAULT_COST_MODEL)
        # ``schedule_policy=None`` defers to MANU_RACE (FIFO when unset);
        # the broker reads the same policy off the loop, so one argument
        # arms the whole cluster's schedule-shuffle sanitizer.
        self.loop = EventLoop(policy=schedule_policy)
        self.tso = TimestampOracle(self.loop.now)
        # The tracer sits beside the metrics registry: one shared collector
        # threaded through the broker and every instrumented component.
        self.tracer = TraceCollector(
            self.loop.now,
            enabled=self.config.tracing.enabled,
            sample_every=self.config.tracing.sample_every,
            max_traces=self.config.tracing.max_traces)
        # Scheduled events run detached: a timer or delivery fires inside
        # whatever request frame steps the clock and must not join it.
        self.loop.detached = self.tracer.detached
        self.broker = LogBroker(self.loop,
                                delivery_delay_ms=self.cost_model
                                .rpc_latency_ms,
                                tracer=self.tracer)
        self.store = ObjectStore(store_backend)
        self.metastore = MetaStore()
        self.metrics = MetricsRegistry()

        # Telemetry plane: health states fed by the heartbeat timer, SLO
        # alert rules evaluated on the telemetry timer, and the flight
        # recorder capturing debug bundles whenever a rule fires.
        mon = self.config.monitoring
        self.health = HealthTracker(
            self.loop.now,
            heartbeat_interval_ms=mon.heartbeat_interval_ms,
            degraded_after_beats=mon.degraded_after_beats,
            down_after_beats=mon.down_after_beats)
        self.alerts = AlertEngine(registry=self.metrics,
                                  clock_ms=self.loop.now)
        for rule_name, rule_text in mon.alert_rules:
            self.alerts.add_rule_text(rule_name, rule_text)
        # Profiling plane: slow-query ring (armed via config threshold)
        # and the per-tenant read/write-unit ledger shared by all proxies.
        self.slowlog = SlowQueryLog(
            threshold_ms=self.config.profiling.slow_query_threshold_ms,
            capacity=self.config.profiling.slow_query_capacity)
        self.cost_meter = CostMeter()
        self.flight_recorder = FlightRecorder(
            self.loop.now, self.metrics, health=self.health,
            tracer=self.tracer, slowlog=self.slowlog)
        self.alerts.on_fire(self._on_alert_fire)

        # Coordinators.
        self.data_coord = DataCoordinator(self.metastore, self.broker,
                                          self.store, self.tso, self.config,
                                          self.loop.now,
                                          tracer=self.tracer)
        self.root_coord = RootCoordinator(self.metastore, self.broker,
                                          self.tso,
                                          self.config.log.ddl_channel,
                                          tracer=self.tracer)
        self.index_coord = IndexCoordinator(self.metastore, self.broker,
                                            self.config, self.data_coord,
                                            tracer=self.tracer)
        self.query_coord = QueryCoordinator(self.metastore, self.broker,
                                            self.loop, self.config,
                                            self.data_coord,
                                            self.index_coord,
                                            health=self.health)

        # Loggers.
        logger_names = tuple(f"logger-{i}" for i in range(num_loggers))
        self.logger_service = LoggerService(
            self.tso, self.broker, self.store, self.data_coord,
            num_shards=self.config.log.num_shards,
            logger_names=logger_names,
            lsm_memtable_limit=self.config.storage.lsm_memtable_limit,
            tracer=self.tracer, loop=self.loop,
            group_commit_rows=self.config.log.group_commit_rows,
            group_commit_bytes=self.config.log.group_commit_bytes,
            group_commit_window_ms=self.config.log.group_commit_window_ms)

        # Tenancy plane: registry + directory (restored from the object
        # store when a prior incarnation persisted them, so placement
        # overrides and fence epochs survive crash-recovery), admission
        # control on the virtual clock, and the fenced rebalancer.  The
        # tenancy layer never imports upward; the cluster hands it
        # duck-typed hooks instead.
        self.tenants = TenantRegistry()
        self.directory = TenantDirectory()
        self._load_tenancy_state()
        self.admission = AdmissionController(self.tenants, self.loop.now)
        self.rebalancer = ShardRebalancer(
            self.broker, self.tso, self.directory,
            coord_channel=self.config.log.coord_channel,
            tracer=self.tracer)
        self.rebalancer.serving = self.query_coord
        self.rebalancer.logging = self.logger_service
        self.rebalancer.search_load_fn = self._search_loads
        self.logger_service.route_override = self.directory.bucket_override
        self.logger_service.fence_epoch_fn = self.directory.fence_epoch

        # Workers.
        self._node_seq = itertools.count()
        self.data_nodes: list[DataNode] = []
        for i in range(num_data_nodes):
            self.data_nodes.append(DataNode(
                f"dn-{i}", self.loop, self.broker, self.store, self.config,
                self.cost_model, self.root_coord.get_schema,
                tracer=self.tracer, metrics=self.metrics))
        self.index_nodes: list[IndexNode] = []
        for i in range(num_index_nodes):
            node = IndexNode(f"in-{i}", self.loop, self.broker, self.store,
                             self.config, self.cost_model,
                             tracer=self.tracer, metrics=self.metrics)
            self.index_nodes.append(node)
            self.index_coord.add_node(node)
        for i in range(num_query_nodes):
            self._new_query_node()

        self.proxies: list[Proxy] = []
        for i in range(num_proxies):
            self.proxies.append(Proxy(
                f"proxy-{i}", self.loop, self.tso, self.config,
                self.cost_model, self.logger_service, self.root_coord,
                self.query_coord, metrics=self.metrics,
                tracer=self.tracer, tenants=self.tenants,
                admission=self.admission, cost_meter=self.cost_meter,
                slowlog=self.slowlog))
        self._proxy_rr = itertools.cycle(range(num_proxies))

        # Time ticks on every data channel plus the coordination channel.
        self.timetick = TimeTickEmitter(
            self.loop, self.broker, self.tso,
            self.config.log.time_tick_interval_ms)
        self.timetick.start()

        # Data nodes consume seal decisions from the coordination channel.
        for data_node in self.data_nodes:
            data_node.subscribe_coord()
        self._data_rr = itertools.cycle(range(max(1, num_data_nodes)))
        self._channel_data_node: dict[str, DataNode] = {}

        # Optional WAL archival to object storage (durability beyond the
        # in-memory broker; Section 3.3's durable log).
        self.wal_archiver = None
        if enable_wal_archive:
            from repro.log.archive import WalArchiver
            self.wal_archiver = WalArchiver(self.broker, self.store)

        # Housekeeping timers.
        self.loop.call_every(self.config.segment.seal_idle_ms / 4.0,
                             self._housekeeping, name="housekeeping")
        self.loop.call_every(mon.heartbeat_interval_ms, self._heartbeat,
                             name="heartbeat")
        self.loop.call_every(mon.telemetry_interval_ms,
                             self._telemetry_tick, name="telemetry")
        self.root_coord.on_create(self._wire_collection)
        self.root_coord.on_drop(self._unwire_collection)
        self._heartbeat()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _new_query_node(self) -> QueryNode:
        name = f"qn-{next(self._node_seq)}"
        node = QueryNode(name, self.loop, self.broker, self.store,
                         self.config, self.cost_model,
                         self.root_coord.get_schema, tracer=self.tracer)
        self.query_coord.add_node(node)
        return node

    def _wire_collection(self, name: str,
                         schema: CollectionSchema) -> None:
        channels = self.logger_service.ensure_channels(name)
        self.directory.place_collection(name,
                                        self.config.log.num_shards)
        for channel in channels:
            self.timetick.add_channel(channel)
            data_node = self.data_nodes[next(self._data_rr)
                                        % len(self.data_nodes)]
            data_node.subscribe(channel)
            self._channel_data_node[channel] = data_node
            if self.wal_archiver is not None:
                self.wal_archiver.attach(channel)
        self.query_coord.load_collection(name, self.config.log.num_shards)

    def _unwire_collection(self, name: str) -> None:
        self.query_coord.release_collection(name)
        self.directory.drop_collection(name)
        for shard in range(self.config.log.num_shards):
            channel = shard_channel(name, shard)
            self.timetick.remove_channel(channel)
            data_node = self._channel_data_node.pop(channel, None)
            if data_node is not None:
                data_node.unsubscribe(channel)

    def _housekeeping(self) -> None:
        self.data_coord.check_idle()
        for data_node in self.data_nodes:
            data_node.flush_delta_logs()

    # ------------------------------------------------------------------
    # telemetry plane
    # ------------------------------------------------------------------

    def _on_alert_fire(self, event) -> None:
        self.flight_recorder.record(
            f"alert:{event.rule.name}",
            extra={"condition": event.rule.condition_text(),
                   "value": event.value,
                   "description": event.rule.description})

    def _heartbeat(self) -> None:
        """Refresh liveness for every component still answering.

        Components that stop beating decay to degraded/down through the
        tracker's staleness thresholds; abrupt failures the coordinators
        observe directly (``fail_node``) are marked down immediately.
        """
        for node in self.query_coord.live_nodes():
            self.health.beat(f"query-node:{node.name}")
        for data_node in self.data_nodes:
            self.health.beat(f"data-node:{data_node.name}")
        for index_node in self.index_nodes:
            if index_node.alive:
                self.health.beat(f"index-node:{index_node.name}")
            else:
                self.health.mark_down(f"index-node:{index_node.name}")
        for proxy in self.proxies:
            self.health.beat(f"proxy:{proxy.name}")
        for logger_name in self.logger_service.logger_names:
            self.health.beat(f"logger:{logger_name}")

    def _telemetry_tick(self) -> None:
        # Sampling must not disturb the virtual schedule: read-only, and
        # allocation-free on the TSO.
        self.sample_telemetry()
        self.alerts.evaluate()

    def sample_telemetry(self) -> None:
        """Sample backbone lag, staleness, backlogs and health into gauges.

        Runs periodically on the telemetry timer; callable directly when a
        test or operator wants fresh gauges *now*.  Uses
        ``Timestamp.from_physical`` for the watermark-lag reference so
        sampling never allocates TSO timestamps (which would shift LSNs
        and break deterministic replays).
        """
        now = self.loop.now()
        metrics = self.metrics

        lag_family = metrics.gauge_family(
            "wal_subscriber_lag", ("channel", "subscriber"),
            help="logical records behind the channel end", unit="records")
        lag_family.set_gauges({
            (sub.channel, sub.name): float(sub.lag_records())
            for sub in self.broker.subscriptions()})

        depth_family = metrics.gauge_family(
            "delivery_queue_depth", ("channel",),
            help="records awaiting push delivery", unit="records")
        depth_family.set_gauges({
            (channel,): float(self.broker.delivery_queue_depth(channel))
            for channel in self.broker.channels()})

        stale_family = metrics.gauge_family(
            "timetick_staleness_ms", ("channel",),
            help="virtual time since the last time-tick", unit="ms")
        stale_family.set_gauges({
            (channel,): staleness for channel, staleness
            in self.timetick.staleness_ms(now).items()})

        watermark_family = metrics.gauge_family(
            "watermark_lag_ms", ("node", "collection"),
            help="physical staleness of the consistency watermark",
            unit="ms")
        now_ts = Timestamp.from_physical(now).pack()
        watermark_family.set_gauges({
            (node.name, collection):
                node.gate(collection).lag_ms(now_ts)
            for collection in self.query_coord.loaded_collections()
            for node in self.query_coord.live_nodes()})

        flush_family = metrics.gauge_family(
            "flush_backlog", ("node",),
            help="parked seals + growing segments on a data node",
            unit="segments")
        flush_family.set_gauges({
            (data_node.name,): float(data_node.flush_backlog())
            for data_node in self.data_nodes})

        build_family = metrics.gauge_family(
            "build_backlog_ms", ("node",),
            help="virtual time until an index node drains its queue",
            unit="ms")
        build_family.set_gauges({
            (index_node.name,): index_node.queue_depth_ms()
            for index_node in self.index_nodes})

        # Group-commit telemetry: the logger service accumulates one
        # entry per flushed commit group; drain them into histograms and
        # a flush-reason counter (log/ cannot import monitoring/, so the
        # samples travel via this drain rather than direct observation).
        batch_hist = metrics.histogram_family(
            "wal_group_commit_batch_rows", (),
            help="rows coalesced into one WAL batch publish",
            unit="rows")
        window_hist = metrics.histogram_family(
            "wal_group_commit_window_ms", (),
            help="commit-window age of a group at flush time", unit="ms")
        reason_family = metrics.counter_family(
            "wal_group_commit_flushes", ("reason",),
            help="commit-group flushes by trigger (rows/bytes/window/"
                 "explicit)")
        for reason, _, rows, _, age_ms in \
                self.logger_service.drain_flush_log():
            batch_hist.labels().observe(float(rows))
            window_hist.labels().observe(age_ms)
            reason_family.labels(reason=reason).inc()

        publish_family = metrics.gauge_family(
            "wal_published_total", ("logger", "kind"),
            help="batches and rows published per logger node")
        publish_family.set_gauges({
            (name, kind): float(value)
            for name, logger in self.logger_service.loggers()
            for kind, value in (("batches", logger.batches_published),
                                ("rows", logger.rows_published))})

        pending_family = metrics.gauge_family(
            "wal_group_commit_pending_rows", (),
            help="rows buffered in open commit groups", unit="rows")
        pending_family.set_gauges({
            (): float(self.logger_service.pending_group_rows())})

        tenant_shard_family = metrics.gauge_family(
            "tenant_shard_count", ("tenant",),
            help="WAL shards across a tenant's collections",
            unit="shards")
        tenant_shard_family.set_gauges({
            (tenant,): float(sum(
                self.directory.num_shards(physical_name(tenant, logical))
                for logical in self.tenants.get(tenant).collections))
            for tenant in self.tenants.tenant_names})

        health_family = metrics.gauge_family(
            "component_health", ("component",),
            help="0=healthy 1=degraded 2=down")
        health_family.set_gauges({
            (component,): float(state)
            for component, state in self.health.health_map().items()})

        metrics.gauge_family(
            "cluster_query_nodes", help="live query nodes").labels().set(
                self.num_query_nodes)

    def health_snapshot(self) -> dict:
        """Cluster health view served by REST ``GET /healthz``."""
        return {
            "status": self.health.worst().label,
            "components": {component: state.label
                           for component, state
                           in self.health.health_map().items()},
            "alerts": self.alerts.status(),
            "firing": self.alerts.firing(),
        }

    # ------------------------------------------------------------------
    # time control
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.loop.now()

    def run_for(self, ms: float) -> None:
        """Advance virtual time, executing all scheduled work."""
        self.loop.run_for(ms)

    def run_until(self, t_ms: float) -> None:
        self.loop.run_until(t_ms)

    def run_until_condition(self, predicate: Callable[[], bool],
                            max_ms: float = 60_000.0,
                            poll_ms: float = 10.0) -> bool:
        """Run until ``predicate()`` or a virtual deadline; returns success."""
        deadline = self.loop.now() + max_ms
        while self.loop.now() < deadline:
            if predicate():
                return True
            self.loop.run_for(poll_ms)
        return predicate()

    # ------------------------------------------------------------------
    # DDL / DML / search
    # ------------------------------------------------------------------

    def proxy(self) -> Proxy:
        """Round-robin proxy selection (access layer load spreading)."""
        return self.proxies[next(self._proxy_rr) % len(self.proxies)]

    def create_collection(self, name: str,
                          schema: CollectionSchema) -> None:
        self.root_coord.create_collection(name, schema)

    def drop_collection(self, name: str) -> None:
        self.root_coord.drop_collection(name)

    # Every verb forwards its options as given (tenant, field, metric,
    # expr, consistency, staleness_ms, explain, ...): the proxy's
    # signatures are the only ones, so this layer cannot drop one.

    def insert(self, collection: str, data: Mapping, **options) -> tuple:
        return self.proxy().insert(collection, data, **options)

    def insert_async(self, collection: str, data: Mapping,
                     **options) -> tuple:
        """Group-commit insert: ``(pks, AckFuture)``; ack at flush time."""
        return self.proxy().insert_async(collection, data, **options)

    def delete(self, collection: str, expr: str, **options) -> int:
        return self.proxy().delete(collection, expr, **options)

    def delete_async(self, collection: str, expr: str, **options):
        """Group-commit delete: an ``AckFuture`` resolved at flush time."""
        return self.proxy().delete_async(collection, expr, **options)

    def upsert(self, collection: str, data: Mapping, **options) -> tuple:
        """Replace-or-insert by explicit primary key."""
        return self.proxy().upsert(collection, data, **options)

    def search(self, collection: str, queries, k: int,
               **options) -> list[SearchResult]:
        """Top-k search; options are :meth:`Proxy.search`'s."""
        return self.proxy().search(collection, queries, k, **options)

    def search_multivector(self, collection: str, query: MultiVectorQuery,
                           k: int, **options) -> SearchResult:
        """Options are :meth:`Proxy.search_multivector`'s."""
        return self.proxy().search_multivector(collection, query, k,
                                               **options)

    def get(self, collection: str, pks, **options) -> dict:
        """Point reads: pk -> {field: value} for live entities; options
        are :meth:`Proxy.get`'s."""
        return self.proxy().get(collection, pks, **options)

    def range_search(self, collection: str, query, radius: float,
                     **options) -> SearchResult:
        """All entities within a distance/similarity radius (exact);
        options are :meth:`Proxy.range_search`'s."""
        return self.proxy().range_search(collection, query, radius,
                                         **options)

    def create_index(self, collection: str, field: str, index_type: str,
                     metric: MetricType = MetricType.EUCLIDEAN,
                     params: Optional[Mapping] = None) -> None:
        """Declare an index on a vector field.

        The spec is checked here, before the index coordinator persists
        it: the field must be a vector field and the index must construct
        from ``(index_type, metric, the field's dim, params)`` —
        constructors validate and do not train — so a refused spec is
        never left behind for the next flush to trip over.
        """
        schema = self.root_coord.get_schema(collection)
        if schema is None:
            raise ManuError(f"collection {collection!r} does not exist")
        vector_field = schema.field(field)
        if not vector_field.dtype.is_vector:
            raise IndexBuildError(
                f"cannot index {field!r}: not a vector field "
                f"({vector_field.dtype.value})")
        if not isinstance(metric, MetricType):
            raise IndexBuildError(
                f"metric must be a MetricType, got {metric!r}")
        if params is not None and not isinstance(params, Mapping):
            raise IndexBuildError(
                f"index params must be a mapping, got {params!r}")
        params = dict(params or {})
        build_index(index_type, metric, vector_field.dim, **params)
        self.index_coord.create_index(collection, field, index_type,
                                      metric, params)

    # ------------------------------------------------------------------
    # multi-tenancy
    # ------------------------------------------------------------------

    def create_tenant(self, name: str,
                      qos: QosClass | str = QosClass.SILVER,
                      quota: Optional[TenantQuota] = None) -> TenantInfo:
        """Register a tenant with a QoS class and optional quotas."""
        info = self.tenants.create(name, qos=qos, quota=quota)
        self._save_tenancy_state()
        return info

    def drop_tenant(self, name: str) -> None:
        """Drop a tenant and every collection it owns."""
        info = self.tenants.get(name)
        for logical in sorted(info.collections):
            physical = physical_name(name, logical)
            if self.root_coord.has_collection(physical):
                self.root_coord.drop_collection(physical)
        self.tenants.drop(name)
        self.admission.drop_tenant(name)
        self._save_tenancy_state()

    def set_tenant_quota(self, name: str, quota: TenantQuota) -> None:
        self.tenants.set_quota(name, quota)
        self._save_tenancy_state()

    def tenant_create_collection(self, tenant: str, collection: str,
                                 schema: CollectionSchema) -> str:
        """Create ``collection`` inside the tenant's namespace; returns
        the physical (namespaced) collection name."""
        physical = self.tenants.register_collection(tenant, collection)
        self.root_coord.create_collection(physical, schema)
        self._save_tenancy_state()
        return physical

    def tenant_drop_collection(self, tenant: str, collection: str) -> None:
        physical = self.tenants.drop_collection(tenant, collection)
        if self.root_coord.has_collection(physical):
            self.root_coord.drop_collection(physical)
        self._save_tenancy_state()

    def rebalance_tenants(self, max_moves: int = 16) -> list[Move]:
        """Detect hot shards and execute fenced split/migrate moves."""
        moves = self.rebalancer.rebalance(max_moves=max_moves)
        if moves:
            self._save_tenancy_state()
        return moves

    def _search_loads(self) -> dict[str, float]:
        """Per-collection search units served, summed over proxies
        (serving-load attribution for the rebalancer)."""
        loads: dict[str, float] = {}
        for proxy in self.proxies:
            for collection, count in proxy.search_counts.items():
                loads[collection] = loads.get(collection, 0.0) + count
        return loads

    def _save_tenancy_state(self) -> None:
        """Persist registry + directory so tenancy (including fence
        epochs and placement overrides) survives crash-recovery."""
        state = {"registry": self.tenants.to_dict(),
                 "directory": self.directory.to_dict()}
        self.store.put(TENANCY_STATE_KEY,
                       json.dumps(state, sort_keys=True).encode())

    def _load_tenancy_state(self) -> None:
        if not self.store.exists(TENANCY_STATE_KEY):
            return
        state = json.loads(self.store.get(TENANCY_STATE_KEY).decode())
        self.tenants = TenantRegistry.from_dict(
            state.get("registry", {}))
        self.directory = TenantDirectory.from_dict(
            state.get("directory", {}))

    # ------------------------------------------------------------------
    # lifecycle helpers
    # ------------------------------------------------------------------

    def flush(self, collection: str, settle_ms: float = 2_000.0) -> None:
        """Seal all growing segments and wait for binlogs + handoff."""
        sealed = self.data_coord.seal_all(collection)

        def flushed() -> bool:
            done = set(self.data_coord.flushed_segments(collection))
            return all(sid in done for sid in sealed)

        self.run_until_condition(flushed, max_ms=settle_ms)
        self.run_for(self.cost_model.object_store_latency_ms * 2)

    def wait_for_indexes(self, collection: str,
                         max_ms: float = 120_000.0) -> bool:
        """Run until every flushed segment has its declared indexes."""
        specs = self.index_coord.index_specs_for(collection)
        if not specs:
            return True

        def ready() -> bool:
            for segment_id in self.data_coord.flushed_segments(collection):
                for field in specs:
                    if not self.index_coord.has_index_route(
                            collection, segment_id, field):
                        return False
            return True

        return self.run_until_condition(ready, max_ms=max_ms)

    def checkpoint(self, collection: str) -> Checkpoint:
        # Tenancy state (fence epochs, placement overrides) checkpoints
        # alongside the data so recovery never un-fences a shard.
        self._save_tenancy_state()
        return self.data_coord.checkpoint_collection(
            collection, self.config.log.num_shards)

    def apply_retention(self, collection: str,
                        expire_before_ms: float) -> int:
        """Expire old checkpoints, WAL and orphaned binlogs (Section 4.3)."""
        from repro.core.checkpoint import apply_retention
        return apply_retention(
            self.store, self.broker, collection,
            self.config.log.num_shards, expire_before_ms,
            live_segments=set(
                self.data_coord.flushed_segments(collection)))

    def time_travel(self, collection: str,
                    target_ms: float) -> dict[str, Segment]:
        """Reconstruct the collection's state at a past physical time."""
        schema = self.root_coord.get_schema(collection)
        if schema is None:
            raise ManuError(f"collection {collection!r} does not exist")
        travel = TimeTravel(self.store, self.broker,
                            self.config.log.num_shards, self.config.segment)
        return travel.restore(collection, schema, target_ms)

    def compact(self, collection: str) -> list[str]:
        """Merge small / delete-heavy sealed segments; returns new ids."""
        schema = self.root_coord.get_schema(collection)
        if schema is None:
            raise ManuError(f"collection {collection!r} does not exist")
        metas = []
        deleted: dict[str, set] = {}
        for segment_id in self.data_coord.flushed_segments(collection):
            info = self.data_coord.segment_info(collection, segment_id)
            holder = self.query_coord.segment_holder(collection, segment_id)
            num_deleted = 0
            if holder is not None:
                segment = holder.segment(collection, segment_id)
                if segment is not None:
                    num_deleted = segment.num_deleted
                    mask = segment.deleted_mask()
                    deleted[segment_id] = {
                        pk for pk, dead in zip(segment.pks, mask) if dead}
            metas.append(SegmentMeta(segment_id, info["num_rows"],
                                     num_deleted))
        policy = CompactionPolicy(self.config.segment)
        # Input binlogs still referenced by a time-travel checkpoint are
        # preserved; retention deletes them once the checkpoints expire.
        from repro.core.checkpoint import CheckpointManager
        referenced: set[str] = set()
        for checkpoint in CheckpointManager(self.store) \
                .list_checkpoints(collection):
            referenced.update(checkpoint.flushed_segments)
        new_ids = []
        for group in policy.plan(metas):
            manifest = compact_segments(
                self.store, collection, group, deleted,
                keep_inputs=[sid for sid in group if sid in referenced],
                retired=self.data_coord.compacted_segments(collection))
            # Register the merged segment (a group with no live row has
            # none) and retire the inputs.
            if manifest is not None:
                self.metastore.put(
                    f"segments/{collection}/{manifest.segment_id}",
                    {"shard": -1, "state": "flushed",
                     "num_rows": manifest.num_rows,
                     "max_lsn": manifest.max_lsn, "channel_offset": 0})
            for old in group:
                self.metastore.put(f"segments/{collection}/{old}",
                                   {"state": "compacted"})
                self.query_coord.retire_segment(collection, old)
            if manifest is None:
                continue
            self.query_coord.assign_segment(collection, manifest.segment_id)
            self.index_coord.build_indexes(collection, manifest.segment_id)
            new_ids.append(manifest.segment_id)
        return new_ids

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------

    def add_query_node(self) -> str:
        """Scale up by one query node (rebalanced automatically)."""
        return self._new_query_node().name

    def remove_query_node(self, name: Optional[str] = None) -> str:
        """Graceful scale-down of one query node."""
        if name is None:
            names = self.query_coord.node_names
            if len(names) <= 1:
                raise ClusterStateError("cannot remove the last query node")
            name = names[-1]
        self.query_coord.remove_node(name)
        return name

    def fail_query_node(self, name: str) -> None:
        """Inject an abrupt query-node failure (recovery is automatic)."""
        self.query_coord.fail_node(name)

    def fail_logger(self, name: str) -> None:
        """Inject a logger failure.

        The hash ring moves the logger's shard buckets to its successors;
        the entity-to-segment mappings survive because they are keyed by
        shard and persisted as SSTables in object storage (Section 3.3).
        """
        self.logger_service.remove_logger(name)
        # Placement overrides pointing at the dead logger are stale; the
        # ring re-places those buckets until the rebalancer runs again.
        if self.directory.clear_overrides_for(name):
            self._save_tenancy_state()
        self.health.mark_down(f"logger:{name}")

    def add_logger(self, name: str, weight: float = 1.0) -> None:
        """Scale the logger tier up by one node (``weight`` scales its
        virtual-node count on the placement ring)."""
        self.logger_service.add_logger(name, weight=weight)

    @property
    def num_query_nodes(self) -> int:
        return len(self.query_coord.live_nodes())

    @property
    def schedule_policy(self) -> SchedulePolicy:
        """The same-timestamp ordering policy this cluster runs under."""
        return self.loop.policy

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def collection_row_count(self, collection: str) -> int:
        """Live rows visible across query nodes (deduplicated by segment)."""
        seen: set[str] = set()
        total = 0
        for node in self.query_coord.live_nodes():
            for segment_id in node.segments_of(collection):
                if segment_id in seen:
                    continue
                seen.add(segment_id)
                segment = node.segment(collection, segment_id)
                if segment is not None:
                    total += segment.num_live_rows
        return total

    def stats_snapshot(self) -> dict[str, float]:
        return self.metrics.snapshot(self.loop.now())
