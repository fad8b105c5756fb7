"""Tenant registry: identity, QoS class, quotas, and namespacing.

A tenant is the unit of isolation: every collection it creates lives
under the physical name ``tenant::collection``, and every request it
issues is admitted against its quota buckets (see
:mod:`repro.tenancy.qos`).  The registry is the authoritative record of
who exists and what they are entitled to; it serializes into the cluster
checkpoint so tenancy survives crash-recovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TenantAlreadyExists, TenantError, TenantNotFound

#: separator between tenant and collection in physical names.  Tenant
#: names may not contain it, which is what makes the mapping injective.
NAMESPACE_SEP = "::"


class QosClass(enum.Enum):
    """Service tier ordering admission and scheduling priority.

    ``priority`` is the dispatch rank (lower runs first when requests
    from several tenants are batched); ``default_weight`` seeds the
    placement weight a tenant's shards get on the weighted hash ring.
    """

    GOLD = "gold"
    SILVER = "silver"
    BRONZE = "bronze"

    @property
    def priority(self) -> int:
        return _QOS_PRIORITY[self]

    @property
    def default_weight(self) -> float:
        return _QOS_WEIGHT[self]


_QOS_PRIORITY = {QosClass.GOLD: 0, QosClass.SILVER: 1, QosClass.BRONZE: 2}
_QOS_WEIGHT = {QosClass.GOLD: 2.0, QosClass.SILVER: 1.0,
               QosClass.BRONZE: 0.5}


@dataclass(frozen=True)
class TenantQuota:
    """Contracted rates; ``None`` means unmetered for that verb.

    Rates are enforced by virtual-time token buckets with ``burst_s``
    seconds of burst capacity (a tenant may briefly exceed its rate by
    ``rate * burst_s`` tokens after an idle period).
    """

    insert_rows_per_s: Optional[float] = None
    search_qps: Optional[float] = None
    burst_s: float = 1.0

    def rate_for(self, verb: str) -> Optional[float]:
        if verb in ("insert", "upsert", "delete"):
            return self.insert_rows_per_s
        if verb in ("search", "search_multivector", "range_search", "get"):
            return self.search_qps
        return None

    def to_dict(self) -> dict:
        return {"insert_rows_per_s": self.insert_rows_per_s,
                "search_qps": self.search_qps, "burst_s": self.burst_s}

    @classmethod
    def from_dict(cls, data: dict) -> "TenantQuota":
        return cls(insert_rows_per_s=data.get("insert_rows_per_s"),
                   search_qps=data.get("search_qps"),
                   burst_s=data.get("burst_s", 1.0))


@dataclass
class TenantInfo:
    """One registered tenant: QoS class, quota, and owned collections."""

    name: str
    qos: QosClass = QosClass.SILVER
    quota: TenantQuota = field(default_factory=TenantQuota)
    collections: set[str] = field(default_factory=set)  # logical names

    def to_dict(self) -> dict:
        return {"name": self.name, "qos": self.qos.value,
                "quota": self.quota.to_dict(),
                "collections": sorted(self.collections)}

    @classmethod
    def from_dict(cls, data: dict) -> "TenantInfo":
        return cls(name=data["name"], qos=QosClass(data["qos"]),
                   quota=TenantQuota.from_dict(data.get("quota", {})),
                   collections=set(data.get("collections", ())))


def physical_name(tenant: str, collection: str) -> str:
    """The namespaced collection name requests are rewritten to."""
    return f"{tenant}{NAMESPACE_SEP}{collection}"


def split_physical(name: str) -> tuple[Optional[str], str]:
    """Invert :func:`physical_name`; ``(None, name)`` for untenanted."""
    if NAMESPACE_SEP in name:
        tenant, _, logical = name.partition(NAMESPACE_SEP)
        return tenant, logical
    return None, name


class TenantRegistry:
    """Authoritative tenant record, checkpointable as a plain dict."""

    def __init__(self) -> None:
        self._tenants: dict[str, TenantInfo] = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    @property
    def tenant_names(self) -> list[str]:
        return sorted(self._tenants)

    def create(self, name: str, qos: QosClass | str = QosClass.SILVER,
               quota: Optional[TenantQuota] = None) -> TenantInfo:
        if not name or NAMESPACE_SEP in name:
            raise TenantError(
                f"invalid tenant name {name!r}: must be non-empty and "
                f"must not contain {NAMESPACE_SEP!r}")
        if name in self._tenants:
            raise TenantAlreadyExists(name)
        info = TenantInfo(name=name, qos=QosClass(qos),
                          quota=quota or TenantQuota())
        self._tenants[name] = info
        return info

    def drop(self, name: str) -> TenantInfo:
        if name not in self._tenants:
            raise TenantNotFound(name)
        return self._tenants.pop(name)

    def get(self, name: str) -> TenantInfo:
        if isinstance(name, str) and name in self._tenants:
            return self._tenants[name]
        raise TenantNotFound(name)

    def set_quota(self, name: str, quota: TenantQuota) -> None:
        self.get(name).quota = quota

    def register_collection(self, tenant: str, collection: str) -> str:
        """Record ownership and return the physical collection name."""
        if NAMESPACE_SEP in collection:
            raise TenantError(
                f"collection name {collection!r} must not contain "
                f"{NAMESPACE_SEP!r}")
        self.get(tenant).collections.add(collection)
        return physical_name(tenant, collection)

    def drop_collection(self, tenant: str, collection: str) -> str:
        self.get(tenant).collections.discard(collection)
        return physical_name(tenant, collection)

    def resolve(self, tenant: str, collection: str) -> str:
        """Namespace + authorize: the only path from a tenant request to
        a physical collection name.

        Rejects cross-tenant access (a tenant naming another tenant's
        physical collection directly) rather than silently double-
        namespacing it.
        """
        info = self.get(tenant)
        owner, logical = split_physical(collection)
        if owner is not None and owner != tenant:
            raise TenantError(
                f"tenant {tenant!r} may not access {collection!r} "
                f"(owned by {owner!r})")
        if logical not in info.collections:
            raise TenantError(
                f"tenant {tenant!r} has no collection {logical!r}")
        return physical_name(tenant, logical)

    def to_dict(self) -> dict:
        return {"tenants": [self._tenants[n].to_dict()
                            for n in sorted(self._tenants)]}

    @classmethod
    def from_dict(cls, data: dict) -> "TenantRegistry":
        registry = cls()
        for entry in data.get("tenants", ()):
            info = TenantInfo.from_dict(entry)
            registry._tenants[info.name] = info
        return registry
