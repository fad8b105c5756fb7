"""RESTful API (Section 4.2).

"Manu provides APIs in popular languages including Python, Java, Go, C++,
along with RESTful APIs."  This module implements the RESTful surface as
a transport-agnostic request handler: ``handle(method, path, body)``
returns ``(status_code, response_dict)``, so it can sit behind any HTTP
server (or be called directly in tests) without this library depending on
one.

Routes
------

==========  =====================================  =========================
method      path                                   action
==========  =====================================  =========================
GET         /collections                           list collections
POST        /collections                           create (name + schema)
GET         /collections/{name}                    describe
DELETE      /collections/{name}                    drop
POST        /collections/{name}/entities           insert rows
POST        /collections/{name}/entities/delete    delete by pk expression
POST        /collections/{name}/entities/get       fetch by pks
POST        /collections/{name}/search             top-k vector search
POST        /collections/{name}/range_search       radius search
POST        /collections/{name}/indexes            declare an index
POST        /collections/{name}/flush              seal + persist segments
GET         /system                                metrics snapshot
GET         /metrics                               Prometheus exposition
GET         /healthz                               component health + alerts
==========  =====================================  =========================

``GET /metrics`` returns the exposition text under a ``text`` key (the
handler is transport-agnostic and always returns a JSON-able dict; an
HTTP server fronting it should serve the ``text`` value with the usual
``text/plain; version=0.0.4`` content type).  ``GET /healthz`` answers
200 while every component is healthy/degraded and 503 once any component
is down — the shape load balancers probe.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.api.pymanu import parse_consistency, parse_metric
from repro.cluster.manu import ManuCluster
from repro.core.schema import CollectionSchema
from repro.errors import CollectionAlreadyExists, CollectionNotFound, \
    ManuError, SchemaError


class RestApi:
    """The RESTful endpoint surface over one cluster."""

    def __init__(self, cluster: ManuCluster) -> None:
        self._cluster = cluster

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle(self, method: str, path: str,
               body: Optional[dict] = None) -> tuple[int, dict]:
        """Route one request; returns (HTTP status, JSON-able payload).

        A request the system refuses (a :class:`ManuError`) answers 4xx;
        anything else that escapes is the server's fault and answers
        500."""
        method = method.upper()
        parts = [p for p in path.split("/") if p]
        try:
            return self._route(method, parts, body or {})
        except CollectionNotFound as exc:
            return 404, {"error": str(exc)}
        except CollectionAlreadyExists as exc:
            return 409, {"error": str(exc)}
        except ManuError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:
            return 500, {"error": f"internal error: "
                                  f"{type(exc).__name__}: {exc}"}

    def _route(self, method: str, parts: list[str],
               body: dict) -> tuple[int, dict]:
        if parts == ["system"] and method == "GET":
            return 200, {"metrics": self._cluster.stats_snapshot(),
                         "query_nodes": self._cluster.num_query_nodes,
                         "virtual_time_ms": self._cluster.now()}
        if parts == ["metrics"] and method == "GET":
            # Refresh sampled gauges so a scrape never reads stale lag.
            self._cluster.sample_telemetry()
            return 200, {"text": self._cluster.metrics.expose_text(
                self._cluster.now())}
        if parts == ["healthz"] and method == "GET":
            snapshot = self._cluster.health_snapshot()
            status = 503 if snapshot["status"] == "down" else 200
            return status, snapshot
        if not parts or parts[0] != "collections":
            return 404, {"error": f"unknown path /{'/'.join(parts)}"}

        if len(parts) == 1:
            if method == "GET":
                return 200, {"collections":
                             self._cluster.root_coord.list_collections()}
            if method == "POST":
                return self._create_collection(body)
        elif len(parts) == 2:
            name = parts[1]
            if method == "GET":
                return self._describe(name)
            if method == "DELETE":
                self._cluster.drop_collection(name)
                return 200, {"dropped": name}
        elif len(parts) == 3:
            name, action = parts[1], parts[2]
            if method == "POST":
                return self._collection_action(name, action, body)
        elif len(parts) == 4 and parts[2] == "entities" \
                and method == "POST":
            return self._entity_action(parts[1], parts[3], body)
        return 405, {"error": f"{method} not supported on "
                              f"/{'/'.join(parts)}"}

    # ------------------------------------------------------------------
    # collection routes
    # ------------------------------------------------------------------

    def _create_collection(self, body: dict) -> tuple[int, dict]:
        name = _text(body, "name")
        schema_dict = body.get("schema")
        if not name or not isinstance(schema_dict, dict):
            raise ManuError("body needs 'name' and 'schema'")
        try:
            schema = CollectionSchema.from_dict(schema_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed 'schema': {exc!r}") from None
        self._cluster.create_collection(name, schema)
        return 201, {"created": name}

    def _describe(self, name: str) -> tuple[int, dict]:
        schema = self._cluster.root_coord.get_schema(name)
        if schema is None:
            raise CollectionNotFound(name)
        return 200, {
            "name": name,
            "schema": schema.to_dict(),
            "num_entities": self._cluster.collection_row_count(name),
            "indexes": self._cluster.index_coord.index_specs_for(name),
            "loaded": self._cluster.query_coord.is_loaded(name),
        }

    def _collection_action(self, name: str, action: str,
                           body: dict) -> tuple[int, dict]:
        if action == "entities":
            pks = self._cluster.insert(name, self._decode_rows(body))
            return 201, {"insert_count": len(pks), "pks": list(pks)}
        if action == "search":
            return self._search(name, body)
        if action == "range_search":
            return self._range_search(name, body)
        if action == "indexes":
            field = _text(body, "field")
            if not field:
                raise ManuError("body needs 'field'")
            self._cluster.create_index(
                name, field, _text(body, "index_type", "IVF_FLAT"),
                parse_metric(body.get("metric_type", "Euclidean")),
                body.get("params", {}))
            return 201, {"index": f"{name}.{field}"}
        if action == "flush":
            self._cluster.flush(name)
            return 200, {"flushed": name}
        return 404, {"error": f"unknown action {action!r}"}

    def _entity_action(self, name: str, action: str,
                       body: dict) -> tuple[int, dict]:
        if action == "delete":
            expr = body.get("expr")
            if not expr:
                raise ManuError("body needs 'expr'")
            deleted = self._cluster.delete(name, expr)
            return 200, {"delete_count": deleted}
        if action == "get":
            pks = body.get("pks")
            if not isinstance(pks, list):
                raise ManuError("body needs 'pks' (a list)")
            rows = self._cluster.get(name, pks, **self._read_args(body))
            return 200, {"entities": {str(pk): _jsonable(values)
                                      for pk, values in rows.items()}}
        return 404, {"error": f"unknown entity action {action!r}"}

    # ------------------------------------------------------------------
    # search routes
    # ------------------------------------------------------------------

    def _read_args(self, body: dict) -> dict:
        """What every read route takes: consistency and, for a
        tenant-scoped request, the tenant to namespace, admit and meter
        it as."""
        return {
            "consistency": parse_consistency(
                body.get("consistency_level", "bounded")),
            "staleness_ms": body.get("staleness_ms", 100.0),
            "tenant": _text(body, "tenant"),
        }

    def _search_args(self, body: dict) -> dict:
        return {
            "field": _text(body, "field"),
            "metric": parse_metric(body.get("metric_type", "Euclidean")),
            "expr": body.get("expr"),
            **self._read_args(body),
        }

    def _search(self, name: str, body: dict) -> tuple[int, dict]:
        if body.get("vector") is None:
            raise ManuError("body needs 'vector'")
        result = self._cluster.search(
            name, body["vector"], body.get("limit", 10),
            **self._search_args(body))[0]
        return 200, _result_payload(result)

    def _range_search(self, name: str, body: dict) -> tuple[int, dict]:
        if body.get("vector") is None or body.get("radius") is None:
            raise ManuError("body needs 'vector' and 'radius'")
        result = self._cluster.range_search(
            name, body["vector"], body["radius"], limit=body.get("limit"),
            **self._search_args(body))
        return 200, _result_payload(result)

    # ------------------------------------------------------------------
    # encoding helpers
    # ------------------------------------------------------------------

    def _decode_rows(self, body: dict) -> dict:
        rows = body.get("rows")
        if not isinstance(rows, dict):
            raise ManuError("body needs 'rows' (field -> values)")
        return rows


def _text(body: dict, key: str, default: Optional[str] = None
          ) -> Optional[str]:
    """A name-valued body entry (a collection, field, index type or
    tenant): a string, or ``default`` when absent."""
    value = body.get(key, default)
    if value is not None and not isinstance(value, str):
        raise ManuError(f"{key!r} must be a string, got {value!r}")
    return value


def _result_payload(result) -> dict:
    return {
        "pks": [_json_pk(pk) for pk in result.pks],
        "scores": [float(s) for s in result.scores],
        "latency_ms": result.latency_ms,
        "consistency_wait_ms": result.consistency_wait_ms,
    }


def _json_pk(pk) -> Any:
    return pk if isinstance(pk, str) else int(pk)


def _jsonable(values: dict) -> dict:
    out = {}
    for key, value in values.items():
        if isinstance(value, np.ndarray):
            out[key] = [float(x) for x in value]
        elif isinstance(value, (np.integer, np.floating, np.bool_)):
            out[key] = value.item()
        else:
            out[key] = value
    return out
