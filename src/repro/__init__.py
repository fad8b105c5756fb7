"""Reproduction of *Manu: A Cloud Native Vector Database Management System*
(Guo et al., PVLDB 15(12), 2022).

A from-scratch, in-process implementation of the paper's system: the log
backbone (WAL channels, time-ticks, binlog), delta consistency, the four
coordinators and worker node types, the full Table-1 index catalog, and a
discrete-event virtual clock that makes every evaluation figure
reproducible deterministically.

Quickstart::

    import numpy as np
    from repro import connect, Collection, CollectionSchema, FieldSchema
    from repro.core.schema import DataType

    connect()
    schema = CollectionSchema(
        [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=8)])
    coll = Collection("demo", schema)
    coll.insert({"vector": np.random.rand(100, 8).astype("float32")})
    res = coll.search(vec=np.random.rand(8), limit=5,
                      param={"metric_type": "Euclidean"})
    print(res[0].pks)
"""

from repro.api.pymanu import (
    Collection,
    Tenant,
    connect,
    connections,
    parse_metric,
)
from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import (
    CollectionSchema,
    DataType,
    FieldSchema,
    MetricType,
)
from repro.errors import (
    ChannelNotFound,
    ClusterStateError,
    CollectionAlreadyExists,
    CollectionNotFound,
    ConsistencyTimeout,
    ExpressionError,
    FieldNotFound,
    IndexBuildError,
    InvalidQuery,
    InvariantViolation,
    ManuError,
    MonotonicityViolation,
    NodeNotFound,
    ObjectNotFound,
    FencedWriteError,
    QuotaExceeded,
    RevisionConflict,
    SchemaError,
    StorageError,
    TenantError,
    TenantNotFound,
    TimeTravelError,
)
from repro.tenancy import (
    QosClass,
    ShardRebalancer,
    TenantQuota,
    TenantRegistry,
)
from repro.race import run_race_sweep
from repro.sim.clock import (
    MANU_RACE_ENV,
    SchedulePolicy,
    ShuffledSchedulePolicy,
    race_seed,
    schedule_policy_from_env,
)
from repro.monitoring import (
    AlertRule,
    FlightRecorder,
    HealthState,
    Histogram,
    MetricFamily,
)
from repro.tracing import Span, TraceCollector, TraceContext

__version__ = "0.1.0"

__all__ = [
    "Collection",
    "connect",
    "connections",
    "parse_metric",
    "ManuCluster",
    "ManuConfig",
    "ConsistencyLevel",
    "CollectionSchema",
    "DataType",
    "FieldSchema",
    "MetricType",
    "ManuError",
    "SchemaError",
    "CollectionNotFound",
    "CollectionAlreadyExists",
    "FieldNotFound",
    "IndexBuildError",
    "InvalidQuery",
    "ExpressionError",
    "ConsistencyTimeout",
    "StorageError",
    "ObjectNotFound",
    "RevisionConflict",
    "ChannelNotFound",
    "MonotonicityViolation",
    "InvariantViolation",
    "NodeNotFound",
    "ClusterStateError",
    "TimeTravelError",
    "Tenant",
    "TenantError",
    "TenantNotFound",
    "TenantQuota",
    "TenantRegistry",
    "QosClass",
    "QuotaExceeded",
    "FencedWriteError",
    "ShardRebalancer",
    "MANU_RACE_ENV",
    "SchedulePolicy",
    "ShuffledSchedulePolicy",
    "race_seed",
    "schedule_policy_from_env",
    "run_race_sweep",
    "Span",
    "TraceCollector",
    "TraceContext",
    "AlertRule",
    "FlightRecorder",
    "HealthState",
    "Histogram",
    "MetricFamily",
    "__version__",
]
