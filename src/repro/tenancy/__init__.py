"""Multi-tenant serving layer: registry, directory map, QoS, rebalancer.

Manu's cloud-native story (paper Section 2: elasticity, isolation,
serving millions of users) needs tenants as a first-class concept, not a
naming convention.  This package supplies the four pieces:

- :mod:`~repro.tenancy.registry` — who the tenants are: QoS class,
  quotas, and the ``tenant::collection`` namespace every request is
  scoped to at the API boundary.
- :mod:`~repro.tenancy.directory` — where their shards are logged:
  explicit logger overrides layered over the consistent-hash ring, plus
  the per-shard fence epochs the migration protocol is built on.  Both
  the registry and the directory serialize into the cluster checkpoint
  so tenancy survives crash-recovery.  Where a shard is *served* is the
  query coordinator's record alone.
- :mod:`~repro.tenancy.qos` — virtual-time token buckets enforcing
  per-tenant insert/search rates, and the gold/silver/bronze admission
  ordering that maps to scheduling priority.
- :mod:`~repro.tenancy.metering` — what each tenant *costs*: cumulative
  read/write-unit accounting from measured scan work and appended rows,
  charged by the proxy and ranked in the dashboard's TOP COST panel.
- :mod:`~repro.tenancy.rebalancer` — detects hot shards from the
  backbone's per-channel telemetry, plans split/migrate moves for query
  nodes and loggers with one greedy planner, and executes them under
  epoch fencing so no write is lost or duplicated mid-migration.

Layering: tenancy sits directly above the log backbone.  It may import
``core``/``log``/``storage``/``sim`` but never ``nodes``/``coord``/
``cluster``/``api`` — those layers depend on *it* and hand it duck-typed
hooks (see ``ServingOps`` in the rebalancer) for the few actions that
must run above.
"""

from repro.tenancy.directory import TenantDirectory
from repro.tenancy.metering import CostMeter, TenantUsage
from repro.tenancy.qos import AdmissionController, TokenBucket
from repro.tenancy.rebalancer import Move, ShardRebalancer
from repro.tenancy.registry import (
    QosClass,
    TenantInfo,
    TenantQuota,
    TenantRegistry,
    physical_name,
    split_physical,
)

__all__ = [
    "AdmissionController",
    "CostMeter",
    "Move",
    "QosClass",
    "ShardRebalancer",
    "TenantDirectory",
    "TenantInfo",
    "TenantQuota",
    "TenantRegistry",
    "TenantUsage",
    "TokenBucket",
    "physical_name",
    "split_physical",
]
