"""Cluster-wide configuration.

All tunables from the paper are collected here with the paper's defaults:

* segments seal at 512 MB (Section 3.1) — scaled to an entity-count budget so
  laptop-scale experiments exercise the same sealing logic;
* growing segments are sealed after 10 s without an insertion (Section 3.1);
* slices hold 10 000 vectors and get a temporary IVF-Flat index (Section 3.6);
* time-ticks are emitted every 50 ms by default (Section 3.4 / Figure 12);
* SSD buckets target 4 KB blocks (Section 4.4).

Times are expressed in *virtual milliseconds*: the whole cluster runs on the
discrete-event clock in :mod:`repro.sim.clock`, so experiments are
deterministic and independent of host speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class LogConfig:
    """Log-backbone tunables."""

    num_shards: int = 2
    """Number of WAL shard channels for data-manipulation requests."""

    time_tick_interval_ms: float = 50.0
    """Period between time-tick control messages on every WAL channel."""

    ddl_channel: str = "wal/ddl"
    """Channel carrying data-definition requests (create/drop collection)."""

    coord_channel: str = "wal/coord"
    """Channel carrying system-coordination messages (load/release/seal)."""

    group_commit_rows: int = 64
    """Flush a commit group once it buffers this many rows (a sync write
    flushes the groups it touched itself, whatever their size)."""

    group_commit_bytes: int = 256 * 1024
    """Flush a commit group once its estimated payload exceeds this."""

    group_commit_window_ms: float = 2.0
    """Commit window: a non-empty group flushes at most this many virtual
    milliseconds after its first buffered record (0 disables the timer,
    leaving only the row/byte bounds and explicit flushes)."""


@dataclass(frozen=True)
class SegmentConfig:
    """Segment lifecycle tunables."""

    seal_entity_count: int = 4096
    """Growing segments seal after this many entities (paper: 512 MB)."""

    seal_idle_ms: float = 10_000.0
    """Growing segments seal after this long without an insertion."""

    slice_size: int = 1024
    """Vectors per slice in a growing segment (paper default: 10 000);
    a full slice is searched through a temporary index, the rows after
    the last full slice by an exact scan."""

    temp_index_nlist: int = 16
    """``nlist`` of the temporary IVF-Flat index of a full slice."""

    enable_temp_index: bool = True
    """Search the full slices of growing segments through temporary
    indexes (Section 3.6), each built, per metric, by the first search
    that reads its slice; disabled by the Milvus baseline, which
    brute-force scans unindexed data."""

    compaction_min_size: int = 1024
    """Sealed segments smaller than this are candidates for merging."""

    compaction_target_size: int = 4096
    """Merged segments aim for this many entities."""


@dataclass(frozen=True)
class StorageConfig:
    """Storage tunables.  (The object store's latency and bandwidth are
    the cost model's: :class:`repro.sim.costmodel.CostModel`.)"""

    lsm_memtable_limit: int = 1024
    """Logger LSM-tree memtable entries before a flush to SSTable."""


@dataclass(frozen=True)
class QueryConfig:
    """Query-path tunables."""

    consistency_deadline_ms: float = 60_000.0
    """Hard deadline on delta-consistency waits before erroring out."""

    replica_number: int = 1
    """Hot replicas per collection for availability/throughput."""

    batch_window_ms: float = 0.0
    """Proxy-side request batching window; 0 disables batching."""


@dataclass(frozen=True)
class ScalingConfig:
    """Autoscaler policy from Figure 9."""

    latency_high_ms: float = 150.0
    """Add query nodes (scale to 2x) when p-avg latency exceeds this."""

    latency_low_ms: float = 100.0
    """Remove query nodes (scale to 0.5x) when latency drops below this."""

    min_query_nodes: int = 1
    max_query_nodes: int = 64
    evaluation_interval_ms: float = 10_000.0
    """How often the autoscaler inspects the latency signal."""

    latency_signal: str = "proxy.search_latency"
    """Registry signal (family or latency window) driving latency scaling."""

    latency_agg: str = "mean"
    """Aggregation applied to ``latency_signal`` (mean/p50/p95/p99/...)."""

    lag_high_records: float = 0.0
    """Scale up when any ``wal_subscriber_lag`` series (records a WAL
    subscriber is behind) exceeds this; 0 disables
    lag-driven scaling (the seed behaviour)."""


@dataclass(frozen=True)
class TracingConfig:
    """Causal-tracing tunables (DESIGN.md §6c)."""

    enabled: bool = True
    """Collect spans; off turns the cluster tracer into a no-op."""

    sample_every: int = 1
    """Head-based sampling: every Nth root request is traced."""

    max_traces: int = 256
    """Retained traces (FIFO eviction) before old ones are dropped."""


@dataclass(frozen=True)
class ProfilingConfig:
    """Query-profiling tunables (DESIGN.md §6g)."""

    slow_query_threshold_ms: float = 0.0
    """Searches whose end-to-end virtual latency meets this threshold are
    captured — full :class:`~repro.profiling.QueryProfile` plus trace id —
    into the slow-query ring.  0 (default) disables capture, and the
    serving path then builds no profile for un-explained requests."""

    slow_query_capacity: int = 32
    """Slow-query ring size; the oldest capture is evicted FIFO."""


@dataclass(frozen=True)
class MonitoringConfig:
    """Telemetry-plane tunables (DESIGN.md §6d)."""

    heartbeat_interval_ms: float = 100.0
    """Period of the cluster heartbeat that refreshes component health."""

    degraded_after_beats: float = 2.0
    """Missed-beat multiple after which a component reads ``degraded``."""

    down_after_beats: float = 4.0
    """Missed-beat multiple after which a component reads ``down``."""

    telemetry_interval_ms: float = 250.0
    """Period of backbone sampling (lag, staleness, backlogs) and alert
    evaluation."""

    alert_rules: tuple = ()
    """Declarative SLO rules: ``(name, "signal.agg > x for 5s")`` pairs
    installed into the cluster's alert engine at construction."""


@dataclass(frozen=True)
class ManuConfig:
    """Top-level configuration for a :class:`repro.cluster.manu.ManuCluster`."""

    log: LogConfig = field(default_factory=LogConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    query: QueryConfig = field(default_factory=QueryConfig)
    scaling: ScalingConfig = field(default_factory=ScalingConfig)
    tracing: TracingConfig = field(default_factory=TracingConfig)
    profiling: ProfilingConfig = field(default_factory=ProfilingConfig)
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)

    def with_overrides(self, **sections) -> "ManuConfig":
        """Return a copy with whole sections replaced.

        Example::

            cfg = ManuConfig().with_overrides(log=LogConfig(num_shards=4))
        """
        return replace(self, **sections)


DEFAULT_CONFIG = ManuConfig()
