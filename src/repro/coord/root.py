"""Root coordinator: data definition and collection catalog.

Handles create/drop collection: validates the schema, persists it in the
metastore (source of truth; proxies and other coordinators read through
here), publishes the DDL record on the dedicated DDL channel, and invokes
registered hooks so the cluster can create WAL channels and wire
subscribers for the new collection.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.schema import CollectionSchema
from repro.core.tso import TimestampOracle
from repro.errors import (
    CollectionAlreadyExists,
    CollectionNotFound,
    SchemaError,
)
from repro.log.broker import LogBroker
from repro.log.wal import DdlRecord
from repro.storage.metastore import MetaStore
from repro.tracing import NOOP_TRACER, TraceCollector

_CATALOG_PREFIX = "collections/"


class RootCoordinator:
    """Catalog + DDL coordinator."""

    def __init__(self, metastore: MetaStore, broker: LogBroker,
                 tso: TimestampOracle, ddl_channel: str,
                 tracer: Optional[TraceCollector] = None) -> None:
        self._meta = metastore
        self._broker = broker
        self._tso = tso
        self._ddl_channel = ddl_channel
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._broker.create_channel(ddl_channel)
        self._on_create: list[Callable[[str, CollectionSchema], None]] = []
        self._on_drop: list[Callable[[str], None]] = []
        self._schema_cache: dict[str, CollectionSchema] = {}

    def on_create(self, hook: Callable[[str, CollectionSchema], None]
                  ) -> None:
        """Register a hook fired after a collection is created."""
        self._on_create.append(hook)

    def on_drop(self, hook: Callable[[str], None]) -> None:
        self._on_drop.append(hook)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_collection(self, name: str,
                          schema: CollectionSchema) -> None:
        """Create a collection; raises if the name is taken."""
        if not isinstance(name, str):
            raise SchemaError(f"a collection name is a string, got {name!r}")
        if not isinstance(schema, CollectionSchema):
            raise SchemaError(f"collection {name!r} needs a "
                              f"CollectionSchema, got {schema!r}")
        key = _CATALOG_PREFIX + name
        if self._meta.get(key) is not None:
            raise CollectionAlreadyExists(name)
        with self._tracer.span("root_coord.create_collection",
                               "root-coord", collection=name):
            lsn = self._tso.allocate_packed()
            self._meta.put(key, schema.to_dict(), expected_revision=0)
            self._schema_cache[name] = schema
            self._broker.publish(self._ddl_channel, DdlRecord(
                ts=lsn, op="create_collection", collection=name,
                payload=schema.to_dict()))
            for hook in self._on_create:
                hook(name, schema)

    def drop_collection(self, name: str) -> None:
        """Drop a collection; raises when it does not exist."""
        key = _CATALOG_PREFIX + name if isinstance(name, str) else None
        if key is None or self._meta.get(key) is None:
            raise CollectionNotFound(name)
        with self._tracer.span("root_coord.drop_collection",
                               "root-coord", collection=name):
            lsn = self._tso.allocate_packed()
            self._meta.delete(key)
            self._schema_cache.pop(name, None)
            self._broker.publish(self._ddl_channel, DdlRecord(
                ts=lsn, op="drop_collection", collection=name))
            for hook in self._on_drop:
                hook(name)

    # ------------------------------------------------------------------
    # catalog reads
    # ------------------------------------------------------------------

    def get_schema(self, name: str) -> Optional[CollectionSchema]:
        """The collection's schema, or None when absent (cached; a name
        that is not a string names none)."""
        if not isinstance(name, str):
            return None
        if name in self._schema_cache:
            return self._schema_cache[name]
        stored = self._meta.get(_CATALOG_PREFIX + name)
        if stored is None:
            return None
        schema = CollectionSchema.from_dict(stored.value)
        self._schema_cache[name] = schema
        return schema

    def has_collection(self, name: str) -> bool:
        return self.get_schema(name) is not None

    def list_collections(self) -> list[str]:
        return [key[len(_CATALOG_PREFIX):]
                for key in self._meta.keys(_CATALOG_PREFIX)]
