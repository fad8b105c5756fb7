"""Chaos tests: the cluster under churn, checked against what a client sees.

The op-stream test runs the one chaos driver
(:func:`repro.race.runner.run_chaos_scenario`) over several op seeds: a
seeded stream of inserts, upserts, deletes, flushes, compactions,
query-node failures, scale-ups/downs and logger churn, with the cluster
checked against a dict model after every step (row count, point reads,
self-search, range search — all STRONG) and the broker asserting
per-WAL-channel timestamp monotonicity throughout.  This is the whole
paper's machinery exercised under churn — handoff, recovery, replay,
bitmaps, compaction routing — with correctness defined by a dict.
"""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.race.runner import (
    cluster_fingerprint,
    diff_fingerprints,
    run_chaos_scenario,
)
from repro.sim.clock import FIFO_POLICY

#: 11, 23 and 57 are the historical seeds.  Without the sealed rule of
#: ``Segment.apply_delete`` (which every ``SegmentSet`` delete goes
#: through) 3, 23, 29, 38 and 62 lose upserted rows when a query node
#: joins; without the growing segments' first offsets in
#: ``SegmentSet.replay_offset`` 29 and 75 lose acked rows on failover;
#: 1 and 46 compact a group whose rows are all deleted; 14 and 42 grow
#: compacted segments again on a takeover without ``SegmentSet.retire``.
OPS_SEEDS = [1, 3, 11, 14, 23, 29, 38, 42, 46, 57, 62, 75]


@pytest.mark.parametrize("ops_seed", OPS_SEEDS)
def test_chaos_schedule_against_model(ops_seed):
    run_chaos_scenario(FIFO_POLICY, steps=40, ops_seed=ops_seed)


def test_kill_query_node_fires_alert_with_flight_bundle():
    """Acceptance: killing a query node mid-workload flips its health to
    down within one heartbeat interval, fires the health alert, and the
    flight bundle captures the health map, non-zero per-channel lag
    gauges and at least one sampled trace.  The exposition endpoint must
    carry the lag and latency series throughout."""
    from repro.config import MonitoringConfig
    from repro.monitoring import HealthState, parse_exposition

    rng = np.random.default_rng(3)
    config = ManuConfig(monitoring=MonitoringConfig(
        telemetry_interval_ms=50.0,
        alert_rules=(("cluster-down", "component_health.max >= 2"),)))
    cluster = ManuCluster(config=config, num_query_nodes=2,
                          num_index_nodes=1)
    schema = CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=12)])
    cluster.create_collection("chaos", schema)
    cluster.insert("chaos", {
        "vector": rng.standard_normal((100, 12)).astype(np.float32)})
    cluster.run_for(300)
    cluster.search("chaos", rng.standard_normal(12).astype(np.float32),
                   5, consistency=ConsistencyLevel.STRONG)
    assert cluster.health.worst() is HealthState.HEALTHY
    assert cluster.alerts.firing() == []

    # Mid-workload: a fresh batch is still being delivered down the WAL
    # channels when the victim dies.
    cluster.insert("chaos", {
        "vector": rng.standard_normal((300, 12)).astype(np.float32)})
    victim = cluster.query_coord.node_names[0]
    heartbeat = cluster.health.heartbeat_interval_ms
    before = cluster.now()
    cluster.fail_query_node(victim)

    # The coordinator observed the failure: down immediately, well
    # within one heartbeat interval.
    assert cluster.health.state(f"query-node:{victim}") \
        is HealthState.DOWN
    assert cluster.now() - before < heartbeat

    # The next telemetry tick evaluates the rule and trips the recorder.
    cluster.run_for(100)
    assert "cluster-down" in cluster.alerts.firing()
    bundle = cluster.flight_recorder.last()
    assert bundle is not None
    assert bundle["reason"] == "alert:cluster-down"
    assert bundle["health"][f"query-node:{victim}"] == "down"
    lag_keys = {key: value for key, value in bundle["metrics"].items()
                if key.startswith("wal_subscriber_lag{")}
    assert lag_keys, "bundle must carry per-channel lag gauges"
    assert any(value > 0 for value in lag_keys.values()), \
        "handoff replay must show as non-zero subscriber lag"
    assert bundle["traces"], "bundle must include sampled traces"

    # The exposition still parses and carries the acceptance series.
    series = parse_exposition(
        cluster.metrics.expose_text(cluster.now()))
    assert ("search_latency_p99", ()) in series
    assert any(name == "wal_subscriber_lag"
               and any(key == "channel" for key, _ in labels)
               for name, labels in series)

    # The cluster still serves searches after recovery.
    cluster.run_for(500)
    result = cluster.search(
        "chaos", rng.standard_normal(12).astype(np.float32), 5,
        consistency=ConsistencyLevel.STRONG)[0]
    assert result.pks


def test_killed_node_trace_incomplete_retry_complete():
    """Spans of a query node killed mid-request are marked incomplete;
    the retried request produces a fresh, complete trace."""
    from repro.config import QueryConfig
    from repro.errors import ConsistencyTimeout
    from repro.tracing import SPAN_ERROR, SPAN_INCOMPLETE

    rng = np.random.default_rng(7)
    config = ManuConfig(query=QueryConfig(consistency_deadline_ms=400.0))
    cluster = ManuCluster(config=config, num_query_nodes=2,
                          num_index_nodes=1)
    schema = CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=12)])
    cluster.create_collection("chaos", schema)
    data = {"vector": rng.standard_normal((80, 12)).astype(np.float32)}
    cluster.insert("chaos", data)
    cluster.run_for(200)

    victim = cluster.query_coord.node_names[0]
    before = set(cluster.tracer.trace_ids())
    # The kill fires 1 virtual ms into the consistency wait, while the
    # victim still has an open wait span in the search's trace.
    cluster.loop.call_after(1.0, lambda: cluster.fail_query_node(victim))
    with pytest.raises(ConsistencyTimeout):
        cluster.search("chaos", data["vector"][0], 5,
                       consistency=ConsistencyLevel.STRONG)

    new = [t for t in cluster.tracer.trace_ids() if t not in before]
    assert len(new) == 1
    tid = new[0]
    root = cluster.tracer.root(tid)
    assert root.name == "proxy.search"
    assert root.status == SPAN_ERROR
    incomplete = [s for s in cluster.tracer.spans(tid)
                  if s.status == SPAN_INCOMPLETE]
    assert incomplete
    assert any(s.component == f"query-node:{victim}" for s in incomplete)
    assert not cluster.tracer.trace_complete(tid)

    # Recovery reassigned the victim's channels; the retry succeeds and
    # its trace is fully finished with no incomplete spans.
    before = set(cluster.tracer.trace_ids())
    result = cluster.search("chaos", data["vector"][0], 5,
                            consistency=ConsistencyLevel.STRONG)[0]
    retry = [t for t in cluster.tracer.trace_ids() if t not in before]
    assert len(retry) == 1
    assert result.pks
    assert cluster.tracer.trace_complete(retry[0])
    assert cluster.tracer.root(retry[0]).status == "ok"


def test_crash_point_recovery_converges_to_uncrashed_fingerprint():
    """manu-crash acceptance: kill a query node at a seeded crash point
    mid-scenario; the survivors recover via checkpointed binlogs plus
    per-channel WAL replay from recorded flushed offsets, and the
    client-observable fingerprint matches the uncrashed run exactly."""
    baseline_cluster, baseline_model = run_chaos_scenario(
        FIFO_POLICY, steps=12)
    baseline_fp = cluster_fingerprint(baseline_cluster, baseline_model)

    crashed_cluster, crashed_model = run_chaos_scenario(
        FIFO_POLICY, steps=12, crash_step=7)
    # The crash consumed nothing from the scenario RNG: both runs saw
    # the identical operation stream.
    assert sorted(crashed_model) == sorted(baseline_model)
    crashed_fp = cluster_fingerprint(crashed_cluster, crashed_model)
    assert diff_fingerprints(baseline_fp, crashed_fp) == []


def test_crash_with_pending_commit_group_loses_unacked_rows_only():
    """Group-commit durability contract at a crash point: rows buffered
    in an open commit group are neither durable nor acked, so a crash
    while the group is pending must leave them invisible after recovery
    — and their AckFuture unresolved.  Once the commit window fires the
    batch publishes, the future resolves with the batch LSN, and the
    rows appear."""
    from repro.config import LogConfig
    from repro.errors import ClusterStateError

    rng = np.random.default_rng(5)
    # Bounds no sync path can trip: only the (long) window flushes.
    config = ManuConfig(
        segment=SegmentConfig(seal_entity_count=64, slice_size=32,
                              compaction_min_size=48,
                              compaction_target_size=192),
        log=LogConfig(group_commit_rows=10_000,
                      group_commit_bytes=1 << 30,
                      group_commit_window_ms=5_000.0))
    cluster = ManuCluster(config=config, num_query_nodes=2,
                          num_index_nodes=1, num_loggers=2)
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=12),
    ])
    cluster.create_collection("chaos", schema)

    # Durable, acked baseline (sync insert flushes its group inline).
    cluster.insert("chaos", {
        "pk": list(range(100)),
        "vector": rng.standard_normal((100, 12)).astype(np.float32)})
    cluster.run_for(300)
    assert cluster.collection_row_count("chaos") == 100

    # Buffered-but-unacked rows at the crash tick: nothing published.
    pks, ack = cluster.insert_async("chaos", {
        "pk": list(range(100, 140)),
        "vector": rng.standard_normal((40, 12)).astype(np.float32)})
    assert len(pks) == 40
    assert not ack.done
    assert cluster.logger_service.pending_group_rows() == 40
    with pytest.raises(ClusterStateError):
        ack.result()

    victim = cluster.query_coord.node_names[0]
    cluster.fail_query_node(victim)
    cluster.run_for(200)
    # Handoff replayed the WAL from recorded offsets: every *acked* row
    # survives, the pending group's rows do not exist anywhere yet.
    assert cluster.collection_row_count("chaos") == 100
    assert not ack.done
    assert cluster.logger_service.pending_group_rows() == 40

    # The commit window fires: one coalesced batch publish, the ack
    # resolves with its LSN, and the rows become visible.
    cluster.run_for(10_000)
    assert ack.done
    assert ack.rows == 40
    assert ack.result() > 0
    assert cluster.logger_service.pending_group_rows() == 0
    assert cluster.collection_row_count("chaos") == 140


def _migration_workload(crash_mid_migration: bool):
    """One deterministic workload around a fenced serving migration.

    Returns the client-observable fingerprint: live row count plus
    strong top-3 searches for a fixed probe set.  With
    ``crash_mid_migration`` the migration *target* is killed right
    after the fenced handoff, before replay settles — the worst moment:
    the fence epoch is bumped, ownership moved, the new owner mid-replay.
    """
    rng = np.random.default_rng(77)
    cluster = ManuCluster(num_query_nodes=4, num_index_nodes=1,
                          num_loggers=2)
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=12),
    ])
    for name in ("mig-a", "mig-b", "mig-c"):
        cluster.create_collection(name, schema)
        cluster.insert(name, {
            "pk": list(range(48)),
            "vector": rng.standard_normal((48, 12)).astype(np.float32)})
    cluster.run_for(400)

    moves = cluster.rebalancer.rebalance()
    assert moves, "skewed round-robin placement must trigger moves"
    if crash_mid_migration:
        victim = next(m.dst for m in moves if m.scope == "serving")
        cluster.fail_query_node(victim)

    # Post-migration writes: they must land exactly once whichever
    # node ends up owning the channel.
    for name in ("mig-a", "mig-b", "mig-c"):
        cluster.insert(name, {
            "pk": list(range(100, 116)),
            "vector": rng.standard_normal((16, 12)).astype(np.float32)})
    cluster.run_for(2_000)

    probes = rng.standard_normal((5, 12)).astype(np.float32)
    fingerprint = []
    for name in ("mig-a", "mig-b", "mig-c"):
        fingerprint.append((name, cluster.collection_row_count(name)))
        for probe in probes:
            result = cluster.search(
                name, probe, 3,
                consistency=ConsistencyLevel.STRONG)[0]
            fingerprint.append(
                (name, tuple(result.pks),
                 tuple(np.round(result.distances, 4))))
    return cluster, fingerprint


def test_crash_mid_migration_converges_to_uncrashed_fingerprint():
    """Fenced rebalancing survives losing the migration target: the
    coordinator re-homes the fenced channel, replay from the recorded
    offsets is idempotent (per-segment LSN watermark), and the
    client-observable state is identical to the run with no crash —
    no write lost, none duplicated."""
    baseline_cluster, baseline_fp = _migration_workload(
        crash_mid_migration=False)
    crashed_cluster, crashed_fp = _migration_workload(
        crash_mid_migration=True)
    assert crashed_fp == baseline_fp
    # The fence history survives the crash: every executed move's epoch
    # is still current (or has advanced) in the directory.
    for move in crashed_cluster.rebalancer.moves_executed:
        assert crashed_cluster.directory.fence_epoch(
            move.collection, move.shard) >= move.epoch
