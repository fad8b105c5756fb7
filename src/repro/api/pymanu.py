"""PyManu: the Python ORM-style API of Table 2.

The paper's API revolves around the ``Collection`` class::

    from repro import connect, Collection, FieldSchema, CollectionSchema
    from repro.core.schema import DataType

    connect()  # embedded in-process cluster (laptop deployment mode)
    schema = CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=128),
        FieldSchema("price", DataType.FLOAT),
    ])
    products = Collection("products", schema)
    products.insert({"vector": vecs, "price": prices})
    products.create_index("vector", {"index_type": "IVF_FLAT",
                                     "metric_type": "Euclidean",
                                     "params": {"nlist": 64}})
    res = products.search(vec=query, field="vector",
                          param={"metric_type": "Euclidean"}, limit=2,
                          expr="price > 0")

Deployment adaptivity (Section 4.1): the same API runs against any
:class:`repro.cluster.manu.ManuCluster`, whether it was built embedded
(direct function calls — the personal-computer mode), or wired by a test
harness simulating a larger deployment; applications migrate unchanged.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.multivector import MultiVectorQuery
from repro.core.results import SearchResult
from repro.core.schema import CollectionSchema, MetricType
from repro.errors import CollectionNotFound, ManuError, SchemaError

_METRIC_ALIASES = {
    "euclidean": MetricType.EUCLIDEAN,
    "l2": MetricType.EUCLIDEAN,
    "inner_product": MetricType.INNER_PRODUCT,
    "ip": MetricType.INNER_PRODUCT,
    "cosine": MetricType.COSINE,
}


def parse_metric(name: str) -> MetricType:
    """Map user metric strings ("Euclidean", "IP", ...) to MetricType."""
    metric = _METRIC_ALIASES.get(name.strip().lower()) \
        if isinstance(name, str) else None
    if metric is None:
        raise ManuError(
            f"unknown metric {name!r}; "
            f"expected one of {sorted(_METRIC_ALIASES)}")
    return metric


def _mapping(what: str, value) -> Mapping:
    """A caller's parameter mapping (none reads as empty)."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ManuError(f"{what} must be a mapping, got {value!r}")
    return value


def parse_consistency(name) -> ConsistencyLevel:
    """Map "strong" / "bounded" / "session" / "eventual" to the level."""
    try:
        return ConsistencyLevel(str(name).strip().lower())
    except ValueError:
        raise ManuError(f"unknown consistency level {name!r}") from None


class _Connections:
    """Process-wide named connections (mirrors pymilvus.connections)."""

    def __init__(self) -> None:
        self._clusters: dict[str, ManuCluster] = {}

    def connect(self, alias: str = "default",
                cluster: Optional[ManuCluster] = None,
                **cluster_kwargs) -> ManuCluster:
        """Open a connection; builds an embedded cluster when none given."""
        if cluster is None:
            cluster = ManuCluster(**cluster_kwargs)
        self._clusters[alias] = cluster
        return cluster

    def get(self, alias: str = "default") -> ManuCluster:
        try:
            return self._clusters[alias]
        except KeyError:
            raise ManuError(
                f"no connection {alias!r}; call connect() first") from None

    def disconnect(self, alias: str = "default") -> None:
        self._clusters.pop(alias, None)

    def has_connection(self, alias: str = "default") -> bool:
        return alias in self._clusters


connections = _Connections()


def connect(alias: str = "default", cluster: Optional[ManuCluster] = None,
            **cluster_kwargs) -> ManuCluster:
    """Module-level convenience for ``connections.connect``."""
    return connections.connect(alias, cluster, **cluster_kwargs)


class Collection:
    """ORM-style handle on one collection (Table 2)."""

    def __init__(self, name: str, schema: Optional[CollectionSchema] = None,
                 using: str = "default",
                 tenant: Optional[str] = None) -> None:
        if schema is not None and not isinstance(schema, CollectionSchema):
            raise SchemaError(f"collection {name!r} needs a "
                              f"CollectionSchema, got {schema!r}")
        self.name = name
        self.tenant = tenant
        self._cluster = connections.get(using)
        if tenant is not None:
            # Namespace + authorize before touching the physical layer;
            # an unregistered logical name with a schema is a creation.
            info = self._cluster.tenants.get(tenant)
            if name not in info.collections and schema is not None:
                self.name = self._cluster.tenant_create_collection(
                    tenant, name, schema)
                self.schema = schema
                return
            self.name = name = self._cluster.tenants.resolve(tenant, name)
        existing = self._cluster.root_coord.get_schema(name)
        if existing is None:
            if schema is None:
                raise CollectionNotFound(
                    f"collection {name!r} does not exist and no schema "
                    "was given to create it")
            self._cluster.create_collection(name, schema)
            self.schema = schema
        else:
            if schema is not None and schema != existing:
                raise ManuError(
                    f"collection {name!r} exists with a different schema")
            self.schema = existing

    # ------------------------------------------------------------------
    # Table 2 commands
    # ------------------------------------------------------------------

    def insert(self, data: Mapping) -> tuple:
        """``Collection.insert(vec)``: insert entities; returns their pks."""
        return self._cluster.insert(self.name, data, tenant=self.tenant)

    def delete(self, expr: str) -> int:
        """``Collection.delete(expr)``: delete by primary-key expression."""
        return self._cluster.delete(self.name, expr, tenant=self.tenant)

    def create_index(self, field: str, params: Mapping) -> None:
        """``Collection.create_index(field, params)``.

        ``params`` carries ``index_type`` (Table 1 name),
        ``metric_type`` and index-specific ``params``.
        """
        params = _mapping("index params", params)
        index_type = params.get("index_type", "IVF_FLAT")
        metric = parse_metric(params.get("metric_type", "Euclidean"))
        self._cluster.create_index(self.name, field, index_type, metric,
                                   params.get("params", {}))

    def search(self, vec=None, field: Optional[str] = None,
               param: Optional[Mapping] = None, limit: int = 10,
               expr: Optional[str] = None,
               consistency_level: str = "bounded",
               staleness_ms: float = 100.0,
               explain: bool = False,
               **extra) -> list[SearchResult]:
        """``Collection.search(vec, params)``: top-``limit`` vector search.

        Accepts the paper's keyword style (``vec=..., field=...,
        param={"metric_type": ...}, limit=..., expr=...``).

        ``explain=True`` — here and on every read verb that returns
        results — attaches the request's EXPLAIN ANALYZE work ledger to
        each result as ``result.profile`` (a
        :class:`~repro.profiling.QueryProfile`; render it with
        ``result.profile.explain()``).
        """
        if vec is None:
            vec = extra.pop("data", None)
        if vec is None:
            raise ManuError("search needs a query vector (vec=...)")
        if extra:
            raise ManuError(f"unknown search arguments {sorted(extra)}")
        metric = parse_metric(_mapping("param", param).get("metric_type",
                                                           "Euclidean"))
        return self._cluster.search(
            self.name, vec, limit, field=field, metric=metric, expr=expr,
            consistency=parse_consistency(consistency_level),
            staleness_ms=staleness_ms, tenant=self.tenant,
            explain=explain)

    def query(self, vec=None, param: Optional[Mapping] = None,
              expr: Optional[str] = None, limit: int = 10,
              field: Optional[str] = None, **extra) -> list[SearchResult]:
        """``Collection.query(vec, params, expr)``: filtered vector search."""
        if expr is None:
            raise ManuError("query needs a boolean filter expression")
        return self.search(vec=vec, field=field, param=param, limit=limit,
                           expr=expr, **extra)

    # ------------------------------------------------------------------
    # extended surface used by the examples and benches
    # ------------------------------------------------------------------

    def search_multivector(self, queries: Mapping[str, Sequence[float]],
                           weights: Mapping[str, float], limit: int = 10,
                           metric_type: str = "IP",
                           consistency_level: str = "bounded",
                           staleness_ms: float = 100.0,
                           explain: bool = False) -> SearchResult:
        """Multi-vector entity search over several vector fields."""
        queries = _mapping("queries", queries)
        query = MultiVectorQuery(fields=tuple(sorted(queries)),
                                 queries=dict(queries),
                                 weights=dict(_mapping("weights", weights)),
                                 metric=parse_metric(metric_type))
        return self._cluster.search_multivector(
            self.name, query, limit,
            consistency=parse_consistency(consistency_level),
            staleness_ms=staleness_ms, tenant=self.tenant, explain=explain)

    def get(self, pks, consistency_level: str = "bounded",
            staleness_ms: float = 100.0) -> dict:
        """Fetch entities' field values by primary key."""
        return self._cluster.get(
            self.name, pks, tenant=self.tenant,
            consistency=parse_consistency(consistency_level),
            staleness_ms=staleness_ms)

    def upsert(self, data: Mapping) -> tuple:
        """Replace-or-insert entities by explicit primary key."""
        return self._cluster.upsert(self.name, data, tenant=self.tenant)

    def range_search(self, vec, radius: float,
                     field: Optional[str] = None,
                     param: Optional[Mapping] = None,
                     expr: Optional[str] = None,
                     limit: Optional[int] = None,
                     consistency_level: str = "bounded",
                     staleness_ms: float = 100.0,
                     explain: bool = False) -> SearchResult:
        """All entities within a radius (L2) / above a similarity (IP).

        Returns a single :class:`SearchResult` with every qualifying hit.
        """
        metric = parse_metric(_mapping("param", param).get("metric_type",
                                                           "Euclidean"))
        return self._cluster.range_search(
            self.name, vec, radius, field=field, metric=metric, expr=expr,
            consistency=parse_consistency(consistency_level),
            staleness_ms=staleness_ms, limit=limit, tenant=self.tenant,
            explain=explain)

    def flush(self) -> None:
        """Seal and persist all growing segments."""
        self._cluster.flush(self.name)

    def compact(self) -> list[str]:
        return self._cluster.compact(self.name)

    def num_entities(self) -> int:
        return self._cluster.collection_row_count(self.name)

    def drop(self) -> None:
        if self.tenant is not None:
            from repro.tenancy import split_physical
            _, logical = split_physical(self.name)
            self._cluster.tenant_drop_collection(self.tenant, logical)
        else:
            self._cluster.drop_collection(self.name)


class Tenant:
    """Handle on one registered tenant: the namespaced API surface.

    Collections opened through a tenant handle are namespaced
    (``tenant::collection``), authorized against the tenant's registry
    entry, and admitted against its QoS quota buckets at the proxy::

        gold = Tenant.create("acme", qos="gold",
                             quota=TenantQuota(search_qps=100))
        products = gold.create_collection("products", schema)
        products.insert({...})          # charged to acme's insert bucket
    """

    def __init__(self, name: str, using: str = "default") -> None:
        self.name = name
        self._using = using
        self._cluster = connections.get(using)
        self._cluster.tenants.get(name)  # must exist

    @classmethod
    def create(cls, name: str, qos: str = "silver", quota=None,
               using: str = "default") -> "Tenant":
        connections.get(using).create_tenant(name, qos=qos, quota=quota)
        return cls(name, using=using)

    @property
    def info(self):
        return self._cluster.tenants.get(self.name)

    def create_collection(self, name: str,
                          schema: CollectionSchema) -> Collection:
        return Collection(name, schema, using=self._using,
                          tenant=self.name)

    def collection(self, name: str) -> Collection:
        """Open an existing collection in this tenant's namespace."""
        return Collection(name, using=self._using, tenant=self.name)

    def list_collections(self) -> list[str]:
        return sorted(self.info.collections)

    def set_quota(self, quota) -> None:
        self._cluster.set_tenant_quota(self.name, quota)

    def drop(self) -> None:
        self._cluster.drop_tenant(self.name)
