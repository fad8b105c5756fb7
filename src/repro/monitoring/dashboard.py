"""Attu-style system view as text (Section 4.2, Figure 5).

The paper ships a GUI (Attu) whose *system view* shows QPS, average query
latency and memory consumption, with per-service worker detail, plus a
*collection view* listing collections, their load state and indexes.
This module renders the same information from a live
:class:`repro.cluster.manu.ManuCluster` as an ASCII dashboard — the data
source and layout of Attu, minus the mouse.  On top of the paper's panels
it shows what the telemetry plane adds: per-component health states, the
log backbone's per-channel subscriber lag and tick staleness, and the
alert rules currently firing.
"""

from __future__ import annotations

from repro.cluster.manu import ManuCluster
from repro.tenancy import physical_name


def _bar(value: float, maximum: float, width: int = 20) -> str:
    if maximum <= 0:
        return " " * width
    filled = int(round(min(1.0, value / maximum) * width))
    return "#" * filled + "." * (width - filled)


def _health_label(cluster: ManuCluster, component: str) -> str:
    state = cluster.health.state(component)
    return state.label if state is not None else "unknown"


def system_view(cluster: ManuCluster) -> str:
    """The top-of-screen summary plus per-service worker panels."""
    now = cluster.now()
    window = cluster.metrics.latency("proxy.search_latency")
    qps = window.qps(now)
    mean = window.mean(now)
    p99 = window.percentile(now, 99)
    total_memory = sum(n.memory_bytes()
                       for n in cluster.query_coord.live_nodes())

    lines = [
        "=" * 64,
        f"MANU SYSTEM VIEW                        t={now / 1000.0:10.1f}s",
        "=" * 64,
        f"QPS: {qps:8.1f}   avg latency: "
        + (f"{mean:7.2f} ms" if mean is not None else "    n/a   ")
        + "   p99: "
        + (f"{p99:7.2f} ms" if p99 is not None else "  n/a"),
        f"memory (query nodes): {total_memory / (1024 * 1024):8.2f} MiB"
        f"    object store: "
        f"{cluster.store.stats.bytes_written / (1024 * 1024):8.2f} MiB "
        "written",
        f"cluster health: {cluster.health.worst().label}"
        + (f"   FIRING: {', '.join(sorted(cluster.alerts.firing()))}"
           if cluster.alerts.firing() else ""),
        "-" * 64,
        "QUERY NODES",
    ]
    nodes = cluster.query_coord.live_nodes()
    max_rows = max((n.num_rows() for n in nodes), default=0)
    for node in nodes:
        rows = node.num_rows()
        lines.append(
            f"  {node.name:8s} rows {rows:8d} [{_bar(rows, max_rows)}] "
            f"served {node.searches_served:6d} "
            f"{_health_label(cluster, f'query-node:{node.name}')}")
    down = [c for c in cluster.health.down_components()
            if c.startswith("query-node:")]
    for component in down:
        lines.append(f"  {component.split(':', 1)[1]:8s} DOWN")
    lines.append("INDEX NODES")
    for node in cluster.index_nodes:
        state = "alive" if node.alive else "down "
        lines.append(
            f"  {node.name:8s} {state} builds {node.builds_completed:4d} "
            f"queue {node.queue_depth_ms():8.1f} ms")
    lines.append("DATA NODES")
    for node in cluster.data_nodes:
        lines.append(
            f"  {node.name:8s} flushed {node.segments_flushed:4d} "
            f"channels {len(node.channels):2d} "
            f"backlog {node.flush_backlog():3d}")
    lines.append("LOGGERS")
    for name in cluster.logger_service.logger_names:
        lines.append(f"  {name:12s} {_health_label(cluster, f'logger:{name}')}")
    lines.append(tenants_view(cluster))
    lines.append(top_cost_view(cluster))
    lines.append(slow_queries_view(cluster))
    lines.append(backbone_view(cluster))
    lines.append("=" * 64)
    return "\n".join(lines)


def slow_queries_view(cluster: ManuCluster, n: int = 5) -> str:
    """Top-N slowest captured queries with work and trace linkage."""
    lines = ["SLOW QUERIES"]
    slowlog = cluster.slowlog
    if not slowlog.enabled:
        lines.append("  (capture disabled; set profiling."
                     "slow_query_threshold_ms)")
        return "\n".join(lines)
    entries = slowlog.top(n)
    if not entries:
        lines.append(f"  (none above {slowlog.threshold_ms:g} ms)")
        return "\n".join(lines)
    for entry in entries:
        lines.append(
            f"  {entry.latency_ms:9.2f} ms {entry.collection:20s} "
            f"rows {entry.rows_scanned:9d} trace {entry.trace_id}")
    return "\n".join(lines)


def top_cost_view(cluster: ManuCluster, n: int = 5) -> str:
    """Costliest tenants by cumulative read + write units."""
    lines = ["TOP COST"]
    ranked = cluster.cost_meter.top_by_cost(n)
    if not ranked:
        lines.append("  (no metered usage)")
        return "\n".join(lines)
    for tenant, usage in ranked:
        lines.append(
            f"  {tenant:12s} total {usage.total_units:10.2f} "
            f"(read {usage.read_units:9.2f} / "
            f"write {usage.write_units:9.2f}) "
            f"rows scanned {usage.rows_scanned:9d}")
    return "\n".join(lines)


def backbone_view(cluster: ManuCluster) -> str:
    """Per-channel log-backbone panel: lag, delivery queue, staleness."""
    now = cluster.now()
    staleness = cluster.timetick.staleness_ms(now)
    lines = ["BACKBONE"]
    for channel in cluster.broker.channels():
        subs = cluster.broker.subscriptions(channel)
        max_lag = max((sub.lag() for sub in subs), default=0)
        stale = staleness.get(channel)
        tick = f"{stale:7.1f} ms ago" if stale is not None else "    n/a"
        lines.append(f"  {channel:28s} subs {len(subs):2d} "
                     f"max lag {max_lag:5d} tick {tick}")
    return "\n".join(lines)


def tenants_view(cluster: ManuCluster) -> str:
    """Per-tenant panel: QoS class, shards, traffic and rejections."""
    lines = ["TENANTS"]
    if not cluster.tenants.tenant_names:
        lines.append("  (none registered)")
        return "\n".join(lines)
    requests = cluster.metrics.counter_family(
        "tenant_requests_total", ("tenant", "qos", "verb"))
    rejections = cluster.metrics.counter_family(
        "tenant_quota_rejections_total", ("tenant", "verb"))
    req_by_tenant: dict[str, float] = {}
    for labels, counter in requests.samples():
        tenant = labels["tenant"]
        req_by_tenant[tenant] = req_by_tenant.get(tenant, 0.0) \
            + counter.value
    rej_by_tenant: dict[str, float] = {}
    for labels, counter in rejections.samples():
        tenant = labels["tenant"]
        rej_by_tenant[tenant] = rej_by_tenant.get(tenant, 0.0) \
            + counter.value
    for name in cluster.admission.admission_order(
            cluster.tenants.tenant_names):
        info = cluster.tenants.get(name)
        shards = sum(
            cluster.directory.num_shards(physical_name(name, logical))
            for logical in info.collections)
        usage = cluster.cost_meter.usage(name)
        lines.append(
            f"  {name:12s} {info.qos.value:6s} "
            f"collections {len(info.collections):3d} "
            f"shards {shards:3d} "
            f"requests {req_by_tenant.get(name, 0.0):8.0f} "
            f"rejected {rej_by_tenant.get(name, 0.0):6.0f} "
            f"RU {usage.read_units:8.2f} WU {usage.write_units:8.0f}")
    return "\n".join(lines)


def collection_view(cluster: ManuCluster) -> str:
    """Collections, row counts, segment states and declared indexes."""
    lines = ["COLLECTIONS", "-" * 64]
    for name in cluster.root_coord.list_collections():
        loaded = cluster.query_coord.is_loaded(name)
        rows = cluster.collection_row_count(name)
        flushed = cluster.data_coord.flushed_segments(name)
        specs = cluster.index_coord.index_specs_for(name)
        indexes = ", ".join(f"{field}:{spec['index_type']}"
                            for field, spec in sorted(specs.items())) \
            or "(none)"
        lines.append(f"  {name:20s} rows {rows:8d}  "
                     f"{'LOADED  ' if loaded else 'RELEASED'}  "
                     f"sealed segments {len(flushed):4d}")
        lines.append(f"      indexes: {indexes}")
        for node_name, segment_ids in sorted(
                cluster.query_coord.distribution(name).items()):
            lines.append(f"      {node_name}: {len(segment_ids)} segments")
    lines.append("-" * 64)
    return "\n".join(lines)


def render(cluster: ManuCluster) -> str:
    """Full dashboard: system view + collection view."""
    return system_view(cluster) + "\n" + collection_view(cluster)
