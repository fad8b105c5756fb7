"""Exception hierarchy for the Manu reproduction.

Every error raised by the public API derives from :class:`ManuError` so that
applications can catch a single base class.  The subclasses mirror the error
categories of the paper's system: schema/DDL validation, data manipulation,
index management, consistency waits, storage, and cluster membership.
"""

from __future__ import annotations


class ManuError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ManuError):
    """A collection schema or entity batch failed validation."""


class CollectionNotFound(ManuError):
    """The referenced collection does not exist."""


class CollectionAlreadyExists(ManuError):
    """A collection with this name already exists."""


class FieldNotFound(ManuError):
    """The referenced field does not exist in the collection schema."""


class IndexError_(ManuError):
    """Index construction or lookup failed.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``; exported as ``IndexBuildError`` from the package root.
    """


class InvalidQuery(ManuError):
    """A search request is malformed: ``k`` below 1, a query block whose
    width is not the field's dimension, or non-finite query values."""


class ExpressionError(ManuError):
    """A boolean filter expression failed to parse or evaluate."""


class ConsistencyTimeout(ManuError):
    """A query's delta-consistency wait exceeded the configured deadline."""


class StorageError(ManuError):
    """An object-store or metastore operation failed."""


class ObjectNotFound(StorageError):
    """The requested object-store key does not exist."""


class RevisionConflict(StorageError):
    """A metastore compare-and-swap lost the race (stale revision)."""


class ChannelNotFound(ManuError):
    """The referenced log channel does not exist."""


class MonotonicityViolation(ManuError):
    """A record's timestamp went backwards on a WAL channel.

    Raised only under ``MANU_CHECK=1`` (the runtime twin of manu-lint's
    ``timestamp-discipline`` rule): per-channel LSN/time-tick order is the
    invariant delta consistency's watermarks are built on.
    """


class NodeNotFound(ManuError):
    """The referenced worker node is not registered with its coordinator."""


class ClusterStateError(ManuError):
    """An operation is invalid in the cluster's current state."""


class TimeTravelError(ManuError):
    """Database restore to the requested timestamp is impossible."""


class TenantError(ManuError):
    """Base class for multi-tenancy errors (registry, quotas, fencing)."""


class TenantNotFound(TenantError):
    """The referenced tenant is not registered."""


class TenantAlreadyExists(TenantError):
    """A tenant with this name already exists."""


class QuotaExceeded(TenantError):
    """A tenant request was rejected by its QoS quota bucket.

    Deliberately distinct from :class:`ClusterStateError`: a quota
    rejection means *this tenant* is over its contracted rate, not that
    the cluster is overloaded — clients should back off per-tenant, not
    fail over.
    """


class FencedWriteError(TenantError):
    """A write reached a shard owner that has been fenced off.

    Raised by the epoch-fencing protocol during shard migration: once
    ownership of a WAL shard moves, the old owner rejects writes stamped
    with a stale epoch so no write can be appended behind the handoff
    LSN and silently lost.
    """


# Friendlier public alias.
IndexBuildError = IndexError_
