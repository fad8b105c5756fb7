"""Tests for the multi-tenant serving layer.

Covers the three tentpole pieces end to end:

* **registry + namespacing** — tenants own ``tenant::collection``
  physical names, resolution authorizes access, state round-trips
  through the checkpoint dict format;
* **QoS quotas** — virtual-time token buckets at the proxy, with
  :class:`QuotaExceeded` distinct from cluster overload and gold-first
  dispatch ordering;
* **fenced rebalancing** — hot-shard detection from per-channel
  telemetry, split/migrate planning, and fenced execution that loses
  no write, duplicates none, and leaves search results hit-for-hit
  identical.
"""

import numpy as np
import pytest

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.errors import (
    ClusterStateError,
    FencedWriteError,
    QuotaExceeded,
    TenantAlreadyExists,
    TenantError,
    TenantNotFound,
)
from repro.log.wal import DeleteRecord
from repro.storage.object_store import MemoryBackend
from repro.tenancy import (
    AdmissionController,
    Move,
    QosClass,
    TenantDirectory,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    split_physical,
)
from repro.tenancy.rebalancer import LoadReport

DIM = 8


def _schema() -> CollectionSchema:
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
    ])


def _vectors(rng, n):
    return rng.standard_normal((n, DIM)).astype(np.float32)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0, now_ms=0.0)
        assert bucket.try_acquire(0.0, 5.0)
        assert not bucket.try_acquire(0.0, 1.0)

    def test_refills_on_virtual_time(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=5.0, now_ms=0.0)
        assert bucket.try_acquire(0.0, 5.0)
        # 10 tokens/s -> 1 token per 100 virtual ms.
        assert not bucket.try_acquire(50.0, 1.0)
        assert bucket.try_acquire(100.0, 1.0)

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=3.0, now_ms=0.0)
        assert bucket.available(60_000.0) == pytest.approx(3.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.0)


class TestTenantRegistry:
    def test_create_and_namespace(self):
        registry = TenantRegistry()
        registry.create("acme", qos="gold")
        physical = registry.register_collection("acme", "products")
        assert physical == "acme::products"
        assert registry.resolve("acme", "products") == physical
        assert split_physical(physical) == ("acme", "products")

    def test_duplicate_and_invalid_names(self):
        registry = TenantRegistry()
        registry.create("acme")
        with pytest.raises(TenantAlreadyExists):
            registry.create("acme")
        with pytest.raises(TenantError):
            registry.create("a::b")
        with pytest.raises(TenantError):
            registry.create("")

    def test_cross_tenant_access_rejected(self):
        registry = TenantRegistry()
        registry.create("acme")
        registry.create("evil")
        registry.register_collection("acme", "products")
        with pytest.raises(TenantError):
            registry.resolve("evil", "acme::products")
        with pytest.raises(TenantError):
            registry.resolve("evil", "products")  # not registered

    def test_unknown_tenant_raises(self):
        registry = TenantRegistry()
        with pytest.raises(TenantNotFound):
            registry.get("ghost")
        with pytest.raises(TenantNotFound):
            registry.resolve("ghost", "anything")

    def test_qos_ordering_and_weights(self):
        assert QosClass.GOLD.priority < QosClass.SILVER.priority \
            < QosClass.BRONZE.priority
        assert QosClass.GOLD.default_weight > QosClass.BRONZE.default_weight

    def test_round_trip(self):
        registry = TenantRegistry()
        registry.create("acme", qos="gold",
                        quota=TenantQuota(insert_rows_per_s=100.0,
                                          search_qps=10.0, burst_s=2.0))
        registry.register_collection("acme", "products")
        registry.create("beta", qos="bronze")
        restored = TenantRegistry.from_dict(registry.to_dict())
        assert restored.tenant_names == ["acme", "beta"]
        acme = restored.get("acme")
        assert acme.qos is QosClass.GOLD
        assert acme.quota.search_qps == 10.0
        assert acme.quota.burst_s == 2.0
        assert acme.collections == {"products"}


class TestTenantDirectory:
    def test_fence_epoch_monotone(self):
        directory = TenantDirectory()
        assert directory.fence_epoch("c", 0) == 0
        assert directory.bump_fence("c", 0) == 1
        assert directory.bump_fence("c", 0) == 2
        assert directory.fence_epoch("c", 1) == 0

    def test_bucket_overrides(self):
        directory = TenantDirectory()
        assert directory.bucket_override("c/shard-0") is None
        directory.set_bucket_override("c/shard-0", "logger-1")
        assert directory.bucket_override("c/shard-0") == "logger-1"
        assert directory.clear_overrides_for("logger-1") == ["c/shard-0"]
        assert directory.bucket_override("c/shard-0") is None

    def test_drop_collection_cleans_all_state(self):
        directory = TenantDirectory()
        directory.place_collection("t::c", 2)
        directory.set_bucket_override("t::c/shard-0", "logger-1")
        directory.bump_fence("t::c", 1)
        directory.drop_collection("t::c")
        assert directory.num_shards("t::c") == 0
        assert directory.bucket_override("t::c/shard-0") is None
        assert directory.fence_epoch("t::c", 1) == 0

    def test_round_trip(self):
        directory = TenantDirectory()
        directory.place_collection("t::c", 2)
        directory.set_bucket_override("t::c/shard-1", "logger-0")
        directory.bump_fence("t::c", 1)
        restored = TenantDirectory.from_dict(directory.to_dict())
        assert restored.num_shards("t::c") == 2
        assert restored.bucket_override("t::c/shard-1") == "logger-0"
        assert restored.fence_epoch("t::c", 1) == 1
        assert restored.to_dict() == directory.to_dict()

    def test_serving_pins_of_older_documents_are_ignored(self):
        """Serving placement is the query coordinator's record alone; a
        document that still carries a ``serving`` map restores without
        it."""
        document = {"collections": {"t::c": 2},
                    "bucket_overrides": {"t::c/shard-1": "logger-0"},
                    "fences": [{"collection": "t::c", "shard": 1,
                                "epoch": 3}],
                    "serving": {"wal/t::c/shard-1": "qn-2"}}
        restored = TenantDirectory.from_dict(document)
        assert restored.fence_epoch("t::c", 1) == 3
        assert restored.to_dict() == {
            key: value for key, value in document.items()
            if key != "serving"}


class TestAdmissionController:
    def _make(self, clock):
        registry = TenantRegistry()
        registry.create("gold", qos="gold",
                        quota=TenantQuota(search_qps=2.0, burst_s=1.0))
        registry.create("bronze", qos="bronze",
                        quota=TenantQuota(search_qps=2.0, burst_s=1.0))
        registry.create("free", qos="silver")  # unmetered
        return registry, AdmissionController(registry, clock)

    def test_quota_exceeded_is_not_cluster_overload(self):
        _, admission = self._make(lambda: 0.0)
        admission.admit("gold", "search")
        admission.admit("gold", "search")
        with pytest.raises(QuotaExceeded) as excinfo:
            admission.admit("gold", "search")
        # Distinct failure domain: quota rejections must never be
        # mistaken for failover-worthy cluster overload.
        assert not isinstance(excinfo.value, ClusterStateError)
        assert admission.rejections[("gold", "search")] == 1

    def test_unmetered_always_admits(self):
        _, admission = self._make(lambda: 0.0)
        for _ in range(1000):
            admission.admit("free", "search")

    def test_bucket_tracks_quota_change(self):
        registry, admission = self._make(lambda: 0.0)
        admission.admit("gold", "search", units=2.0)
        with pytest.raises(QuotaExceeded):
            admission.admit("gold", "search")
        registry.set_quota("gold", TenantQuota(search_qps=100.0))
        admission.admit("gold", "search", units=50.0)  # fresh bucket

    def test_admission_order_is_qos_then_name(self):
        _, admission = self._make(lambda: 0.0)
        assert admission.admission_order(["bronze", "free", "gold"]) == \
            ["gold", "free", "bronze"]

    def test_priority_exposed(self):
        _, admission = self._make(lambda: 0.0)
        assert admission.priority("gold") == 0
        assert admission.priority("bronze") == 2


class TestTenantProxyIntegration:
    def _cluster(self, **kwargs):
        return ManuCluster(num_query_nodes=2, num_loggers=2, **kwargs)

    def test_namespace_isolation_between_tenants(self):
        cluster = self._cluster()
        rng = np.random.default_rng(7)
        cluster.create_tenant("a")
        cluster.create_tenant("b")
        for tenant, rows in (("a", 12), ("b", 20)):
            physical = cluster.tenant_create_collection(
                tenant, "items", _schema())
            cluster.insert(physical, {
                "pk": list(range(rows)),
                "vector": _vectors(rng, rows)}, tenant=tenant)
        cluster.run_for(300)
        assert cluster.collection_row_count("a::items") == 12
        assert cluster.collection_row_count("b::items") == 20
        # A tenant cannot reach the other's data, by any spelling.
        with pytest.raises(TenantError):
            cluster.search("b::items", _vectors(rng, 1)[0], 1, tenant="a")
        with pytest.raises(TenantError):
            cluster.get("b::items", [0], tenant="a")

    def test_quota_rejection_and_metrics(self):
        cluster = self._cluster()
        rng = np.random.default_rng(8)
        cluster.create_tenant(
            "metered", quota=TenantQuota(search_qps=5.0, burst_s=1.0))
        physical = cluster.tenant_create_collection(
            "metered", "items", _schema())
        cluster.insert(physical, {"pk": list(range(10)),
                                  "vector": _vectors(rng, 10)},
                       tenant="metered")
        cluster.run_for(300)
        served = rejected = 0
        for _ in range(20):
            try:
                cluster.search(physical, _vectors(rng, 1)[0], 1,
                               tenant="metered")
                served += 1
            except QuotaExceeded:
                rejected += 1
        assert served >= 5  # burst capacity honoured
        assert rejected > 0
        rejections = cluster.metrics.counter_family(
            "tenant_quota_rejections_total", ("tenant", "verb"))
        assert rejections.labels(tenant="metered",
                                 verb="search").value == rejected
        requests = cluster.metrics.counter_family(
            "tenant_requests_total", ("tenant", "qos", "verb"))
        assert requests.labels(tenant="metered", qos="silver",
                               verb="search").value == served

    def test_insert_quota_counts_rows(self):
        cluster = self._cluster()
        rng = np.random.default_rng(9)
        cluster.create_tenant(
            "writer", quota=TenantQuota(insert_rows_per_s=50.0,
                                        burst_s=1.0))
        physical = cluster.tenant_create_collection(
            "writer", "items", _schema())
        cluster.insert(physical, {"pk": list(range(50)),
                                  "vector": _vectors(rng, 50)},
                       tenant="writer")
        with pytest.raises(QuotaExceeded):
            cluster.insert(physical, {"pk": [50],
                                      "vector": _vectors(rng, 1)},
                           tenant="writer")
        # Refill restores admission on the virtual clock.
        cluster.run_for(1_000)
        cluster.insert(physical, {"pk": list(range(100, 110)),
                                  "vector": _vectors(rng, 10)},
                       tenant="writer")

    def test_async_delete_is_a_tenant_request(self):
        """An async delete is namespaced, quota-admitted and counted
        like the sync one: a tenant cannot reach another's keys with
        it, and each addressed key draws on its delete bucket (3, then
        6 more, of 8 tokens here)."""
        cluster = self._cluster()
        rng = np.random.default_rng(11)
        cluster.create_tenant(
            "a", quota=TenantQuota(insert_rows_per_s=8.0, burst_s=1.0))
        cluster.create_tenant("b")
        for tenant in ("a", "b"):
            physical = cluster.tenant_create_collection(
                tenant, "items", _schema())
            cluster.insert(physical, {"pk": list(range(8)),
                                      "vector": _vectors(rng, 8)},
                           tenant=tenant)
        ack = cluster.delete_async("items", "pk in [0, 1, 2]", tenant="a")
        with pytest.raises(QuotaExceeded):
            cluster.delete_async("items", "pk in [2, 3, 4, 5, 6, 7]",
                                 tenant="a")
        cluster.run_for(300)
        assert ack.rows == 3
        assert cluster.collection_row_count("a::items") == 5
        assert cluster.collection_row_count("b::items") == 8
        with pytest.raises(TenantError):
            cluster.delete_async("b::items", "pk == 0", tenant="a")
        requests = cluster.metrics.counter_family(
            "tenant_requests_total", ("tenant", "qos", "verb"))
        assert requests.labels(tenant="a", qos="silver",
                               verb="delete").value == 1

    def test_unknown_tenant_rejected_at_the_boundary(self):
        cluster = self._cluster()
        with pytest.raises(TenantNotFound):
            cluster.insert("ghost::c", {"pk": [1]}, tenant="ghost")

    def test_tenant_shard_count_gauge(self):
        cluster = self._cluster()
        cluster.create_tenant("acme")
        cluster.tenant_create_collection("acme", "one", _schema())
        cluster.tenant_create_collection("acme", "two", _schema())
        cluster.sample_telemetry()
        family = cluster.metrics.gauge_family("tenant_shard_count",
                                              ("tenant",))
        assert family.labels(tenant="acme").value == \
            2 * cluster.config.log.num_shards


class TestLoggerFencing:
    def test_stale_logger_handle_is_fenced(self):
        cluster = ManuCluster(num_query_nodes=2, num_loggers=2)
        rng = np.random.default_rng(10)
        cluster.create_collection("c", _schema())
        cluster.insert("c", {"pk": list(range(8)),
                             "vector": _vectors(rng, 8)})
        cluster.run_for(200)
        service = cluster.logger_service
        shard = 0
        old_name = service.owner_name("c", shard)
        stale = service.logger_for_shard("c", shard)
        other = next(n for n in service.logger_names if n != old_name)
        # Fence, then move the bucket: exactly the rebalancer's order.
        cluster.directory.bump_fence("c", shard)
        cluster.directory.set_bucket_override(f"c/shard-{shard}", other)
        assert service.owner_name("c", shard) == other
        with pytest.raises(FencedWriteError):
            stale.publish_batch("c", shard, (DeleteRecord(
                ts=cluster.tso.allocate_packed(), collection="c",
                shard=shard, pks=(0,)),))
        # The service itself routes to the new owner and keeps working.
        cluster.insert("c", {"pk": [100],
                             "vector": _vectors(rng, 1)})
        cluster.run_for(200)
        assert cluster.collection_row_count("c") == 9

    def test_override_ignored_when_logger_dies(self):
        cluster = ManuCluster(num_query_nodes=2, num_loggers=2)
        cluster.create_collection("c", _schema())
        names = cluster.logger_service.logger_names
        cluster.directory.set_bucket_override("c/shard-0", names[1])
        cluster.fail_logger(names[1])
        # The override was cleared and the ring re-placed the bucket.
        assert cluster.directory.bucket_override("c/shard-0") is None
        assert cluster.logger_service.owner_name("c", 0) == names[0]


class TestRebalancer:
    def _loaded_cluster(self, rng, collections=("a::x", "b::x", "c::x"),
                        rows=48):
        cluster = ManuCluster(num_query_nodes=4, num_loggers=2)
        for name in collections:
            cluster.create_collection(name, _schema())
            cluster.insert(name, {
                "pk": list(range(rows)),
                "vector": _vectors(rng, rows)})
        cluster.run_for(400)
        return cluster

    def test_detects_round_robin_bunching(self):
        rng = np.random.default_rng(11)
        cluster = self._loaded_cluster(rng)
        report = cluster.rebalancer.serving_report()
        # Round-robin placement stacks every collection's shard-k on
        # the same node: with 2 shards and 4 nodes, two nodes idle.
        assert report.imbalance >= 2.0
        moves = cluster.rebalancer.plan_serving()
        assert moves
        assert all(move.scope == "serving" for move in moves)
        assert all(move.kind in ("split", "migrate") for move in moves)

    def test_split_when_bunched_shards_spread(self):
        """Both shards of a collection on one node -> the first move
        that un-bunches them is classified as a split."""

        class Bunched:
            node_names = ["qn-0", "qn-1"]

            def channel_owners(self):
                return {"wal/hot/shard-0": "qn-0",
                        "wal/hot/shard-1": "qn-0"}

            def migrate_channel(self, channel, target):
                return 0

        rng = np.random.default_rng(99)
        cluster = ManuCluster(num_query_nodes=2, num_loggers=2)
        cluster.create_collection("hot", _schema())
        cluster.insert("hot", {"pk": list(range(16)),
                               "vector": _vectors(rng, 16)})
        cluster.run_for(200)
        cluster.rebalancer.serving = Bunched()
        moves = cluster.rebalancer.plan_serving()
        assert moves
        assert moves[0].kind == "split"

    def test_execute_preserves_results_exactly(self):
        rng = np.random.default_rng(12)
        cluster = self._loaded_cluster(rng)
        probes = _vectors(rng, 6)

        def snapshot():
            out = []
            for name in ("a::x", "b::x", "c::x"):
                for probe in probes:
                    result = cluster.search(
                        name, probe, 5,
                        consistency=ConsistencyLevel.STRONG)[0]
                    out.append((name, tuple(result.pks),
                                tuple(np.round(result.distances, 4))))
            return out

        before = snapshot()
        moves = cluster.rebalancer.rebalance()
        assert moves
        cluster.run_for(500)
        after = snapshot()
        assert before == after  # hit-for-hit identical
        balanced = cluster.rebalancer.serving_report()
        assert balanced.imbalance < 2.0

    def test_moves_are_fenced_and_announced(self):
        rng = np.random.default_rng(13)
        cluster = self._loaded_cluster(rng)
        moves = cluster.rebalancer.rebalance()
        assert moves
        for move in moves:
            assert move.epoch >= 1
            assert cluster.directory.fence_epoch(
                move.collection, move.shard) >= move.epoch
        announced = [
            entry.payload.payload["channel"]
            for entry in cluster.broker.read(
                cluster.config.log.coord_channel, 0)
            if getattr(entry.payload, "kind_name", "") == "shard_migrate"]
        assert announced == [move.channel for move in moves]

    def test_serving_move_updates_ownership(self):
        rng = np.random.default_rng(14)
        cluster = self._loaded_cluster(rng)
        owners_before = cluster.query_coord.channel_owners()
        moves = [m for m in cluster.rebalancer.rebalance()
                 if m.scope == "serving"]
        assert moves
        owners_after = cluster.query_coord.channel_owners()
        for move in moves:
            assert owners_before[move.channel] == move.src
            assert owners_after[move.channel] == move.dst

    def test_logging_move_loses_no_writes(self):
        rng = np.random.default_rng(15)
        cluster = ManuCluster(num_query_nodes=2, num_loggers=2)
        cluster.create_collection("c", _schema())
        cluster.insert("c", {"pk": list(range(30)),
                             "vector": _vectors(rng, 30)})
        cluster.run_for(300)
        shard = 0
        src = cluster.logger_service.owner_name("c", shard)
        dst = next(n for n in cluster.logger_service.logger_names
                   if n != src)
        move = cluster.rebalancer.execute(Move(
            kind="migrate", scope="logging", collection="c",
            shard=shard, channel=f"wal/c/shard-{shard}", src=src,
            dst=dst, load=1.0))
        assert move.epoch == 1
        # The handoff offset is stamped at fence time: everything the
        # channel held when the bucket moved sits below it.
        assert move.handoff_lsn == cluster.broker.end_offset(move.channel)
        assert cluster.logger_service.owner_name("c", shard) == dst
        # Writes keep landing, routed through the new owner.
        cluster.insert("c", {"pk": list(range(100, 130)),
                             "vector": _vectors(rng, 30)})
        cluster.run_for(300)
        assert cluster.collection_row_count("c") == 60

    def test_logging_moves_unload_the_hot_logger(self):
        """Every bucket pinned to one logger: the logging plan moves
        buckets to the idle one, the logging imbalance falls, and no
        write is lost across the handoffs."""
        rng = np.random.default_rng(17)
        cluster = ManuCluster(num_query_nodes=2, num_loggers=2)
        hot, idle = cluster.logger_service.logger_names
        collections = ("a::x", "b::x", "c::x")
        for name in collections:
            cluster.create_collection(name, _schema())
            for shard in range(cluster.config.log.num_shards):
                cluster.directory.set_bucket_override(
                    f"{name}/shard-{shard}", hot)
            cluster.insert(name, {"pk": list(range(40)),
                                  "vector": _vectors(rng, 40)})
        cluster.run_for(300)

        def logging_imbalance():
            loads = {n: 0.0 for n in cluster.logger_service.logger_names}
            for name in collections:
                for shard in range(cluster.config.log.num_shards):
                    owner = cluster.logger_service.owner_name(name, shard)
                    loads[owner] += cluster.broker.end_offset(
                        f"wal/{name}/shard-{shard}")
            return LoadReport("logging", loads).imbalance

        before = logging_imbalance()
        assert before == pytest.approx(2.0)
        moves = [m for m in cluster.rebalancer.rebalance()
                 if m.scope == "logging"]
        assert moves
        assert all(m.src == hot and m.dst == idle for m in moves)
        assert logging_imbalance() < before
        for move in moves:
            assert cluster.logger_service.owner_name(
                move.collection, move.shard) == idle
        # Writes after the handoffs route through the new owners.
        for name in collections:
            cluster.insert(name, {"pk": list(range(100, 120)),
                                  "vector": _vectors(rng, 20)})
        cluster.run_for(300)
        assert [cluster.collection_row_count(name)
                for name in collections] == [60, 60, 60]


class TestTenancyPersistence:
    def test_state_survives_cluster_restart(self):
        backend = MemoryBackend()
        rng = np.random.default_rng(16)
        cluster = ManuCluster(num_query_nodes=4, num_loggers=2,
                              store_backend=backend)
        cluster.create_tenant("acme", qos="gold",
                              quota=TenantQuota(search_qps=10.0))
        for logical in ("items", "orders", "users"):
            name = cluster.tenant_create_collection(
                "acme", logical, _schema())
            cluster.insert(name, {"pk": list(range(32)),
                                  "vector": _vectors(rng, 32)},
                           tenant="acme")
        physical = cluster.tenants.resolve("acme", "items")
        cluster.run_for(300)
        moves = cluster.rebalance_tenants()
        assert moves
        fences = {(m.collection, m.shard):
                  cluster.directory.fence_epoch(m.collection, m.shard)
                  for m in moves}

        revived = ManuCluster(num_query_nodes=4, num_loggers=2,
                              store_backend=backend)
        assert revived.tenants.tenant_names == ["acme"]
        info = revived.tenants.get("acme")
        assert info.qos is QosClass.GOLD
        assert info.quota.search_qps == 10.0
        assert revived.tenants.resolve("acme", "items") == physical
        # Fence epochs recover: no shard is ever un-fenced by a crash.
        for (coll, shard), epoch in fences.items():
            assert revived.directory.fence_epoch(coll, shard) == epoch
        assert revived.directory.bucket_overrides == \
            cluster.directory.bucket_overrides


class TestQosDispatchOrder:
    def test_gold_batches_flush_before_bronze(self):
        from repro.config import ManuConfig, QueryConfig
        cluster = ManuCluster(
            config=ManuConfig(query=QueryConfig(batch_window_ms=50.0)),
            num_query_nodes=2, num_loggers=2)
        rng = np.random.default_rng(17)
        cluster.create_tenant("au", qos="gold")
        cluster.create_tenant("zn", qos="bronze")
        order = []
        for tenant in ("au", "zn"):
            physical = cluster.tenant_create_collection(
                tenant, "items", _schema())
            cluster.insert(physical, {"pk": list(range(8)),
                                      "vector": _vectors(rng, 8)},
                           tenant=tenant)
        cluster.run_for(300)
        proxy = cluster.proxies[0]
        # Submit bronze first: QoS order, not submission order, wins.
        for tenant, name in (("zn", "zn::items"), ("au", "au::items")):
            proxy.submit_search(name, _vectors(rng, 1), 2,
                                tenant=tenant)
        original = proxy._flush_batch

        def recording(key):
            order.append(key[0])
            return original(key)

        proxy._flush_batch = recording
        proxy.flush_batches()
        assert order == ["au::items", "zn::items"]
