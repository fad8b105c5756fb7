"""Index coordinator: index specs and build scheduling (Section 3.5).

Users declare one index spec per (collection, vector field); the
coordinator persists it in the metastore and drives both indexing modes:

* **batch indexing** — ``create_index`` on a collection with flushed
  segments enqueues a build for every one of them;
* **stream indexing** — ``segment_flushed`` announcements on the
  coordination channel trigger builds for newly sealed segments
  automatically, without stopping search.

Builds are dispatched to the least-loaded live index node; completions
(``index_built``) are recorded as index routes.  The coordinator also
shuts down idle index nodes to save cost.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.config import ManuConfig
from repro.core.schema import MetricType
from repro.errors import ClusterStateError, IndexBuildError
from repro.log.broker import LogBroker, LogEntry
from repro.log.wal import CoordRecord
from repro.nodes.index_node import IndexNode
from repro.storage.metastore import MetaStore
from repro.tracing import NOOP_TRACER, TraceCollector


class IndexCoordinator:
    """Index build orchestration."""

    def __init__(self, metastore: MetaStore, broker: LogBroker,
                 config: ManuConfig, data_coord,
                 tracer: Optional[TraceCollector] = None) -> None:
        self._meta = metastore
        self._broker = broker
        self._config = config
        self._data_coord = data_coord
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._nodes: dict[str, IndexNode] = {}
        # Builds that could not be dispatched (no live index nodes);
        # drained when capacity returns.
        self._pending_builds: list[tuple[str, str, str]] = []
        # (collection, field) -> the declared index's metric (None: no
        # index declared), read once from the metastore: every search is
        # checked against it, and specs change only through this object.
        self._spec_metrics: dict[tuple[str, str], Optional[MetricType]] = {}
        broker.create_channel(config.log.coord_channel)
        self._sub = broker.subscribe(config.log.coord_channel,
                                     "index-coord",
                                     callback=self._on_coord)

    # ------------------------------------------------------------------
    # node membership
    # ------------------------------------------------------------------

    def add_node(self, node: IndexNode) -> None:
        if node.name in self._nodes:
            raise ClusterStateError(f"index node {node.name} exists")
        self._nodes[node.name] = node
        self._drain_pending()

    def remove_node(self, name: str) -> None:
        node = self._nodes.pop(name, None)
        if node is not None:
            node.shutdown()

    @property
    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def _pick_node(self) -> IndexNode:
        live = [n for n in self._nodes.values() if n.alive]
        if not live:
            raise ClusterStateError("no live index nodes")
        return min(live, key=lambda n: (n.busy_until_ms, n.name))

    def shutdown_idle(self, keep: int = 1) -> list[str]:
        """Shut down idle index nodes beyond ``keep`` (cost saving)."""
        idle = sorted((n for n in self._nodes.values()
                       if n.alive and n.queue_depth_ms() == 0.0),
                      key=lambda n: n.name)
        victims = idle[keep:] if len(idle) > keep else []
        for node in victims:
            node.shutdown()
        return [n.name for n in victims]

    # ------------------------------------------------------------------
    # index specs
    # ------------------------------------------------------------------

    def create_index(self, collection: str, field: str, index_type: str,
                     metric: MetricType,
                     params: Optional[Mapping] = None) -> list[float]:
        """Declare an index; batch-builds all flushed segments.

        Returns the virtual completion times of the enqueued builds.
        """
        params = dict(params or {})
        with self._tracer.span("index_coord.create_index", "index-coord",
                               collection=collection, field=field,
                               index_type=index_type.upper()):
            self._meta.put(f"index_specs/{collection}/{field}", {
                "index_type": index_type.upper(),
                "metric": metric.value,
                "params": params,
            })
            self._spec_metrics.pop((collection, field), None)
            done_times = []
            for segment_id in self._data_coord.flushed_segments(collection):
                if not self.has_index_route(collection, segment_id, field):
                    try:
                        done_times.append(self._dispatch(collection,
                                                         segment_id, field))
                    except ClusterStateError:
                        self._pending_builds.append((collection, segment_id,
                                                     field))
            return done_times

    def drop_index(self, collection: str, field: str) -> None:
        self._meta.delete(f"index_specs/{collection}/{field}")
        self._spec_metrics.pop((collection, field), None)

    def index_spec(self, collection: str, field: str) -> Optional[dict]:
        return self._meta.get_value(f"index_specs/{collection}/{field}")

    def index_metric(self, collection: str,
                     field: str) -> Optional[MetricType]:
        """The metric the field's declared index answers in (None: no
        index declared)."""
        key = (collection, field)
        if key not in self._spec_metrics:
            spec = self.index_spec(collection, field)
            self._spec_metrics[key] = MetricType(spec["metric"]) \
                if spec is not None else None
        return self._spec_metrics[key]

    def index_specs_for(self, collection: str) -> dict[str, dict]:
        out = {}
        for kv in self._meta.range(f"index_specs/{collection}/"):
            out[kv.key.rsplit("/", 1)[1]] = kv.value
        return out

    # ------------------------------------------------------------------
    # build dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, collection: str, segment_id: str,
                  field: str) -> float:
        spec = self.index_spec(collection, field)
        if spec is None:
            raise IndexBuildError(
                f"no index spec for {collection}.{field}")
        node = self._pick_node()
        return node.submit_build(collection, segment_id, field,
                                 spec["index_type"],
                                 MetricType(spec["metric"]),
                                 spec["params"])

    def _drain_pending(self) -> None:
        """Dispatch builds parked while no index node was live."""
        pending, self._pending_builds = self._pending_builds, []
        for collection, segment_id, field in pending:
            self._dispatch_or_park(collection, segment_id, field)

    def build_indexes(self, collection: str, segment_id: str) -> None:
        """Build every declared index of a newly sealed segment, parking
        the builds while no index node is live."""
        for field in self.index_specs_for(collection):
            self._dispatch_or_park(collection, segment_id, field)

    def _dispatch_or_park(self, collection: str, segment_id: str,
                          field: str) -> None:
        try:
            self._dispatch(collection, segment_id, field)
        except ClusterStateError:
            # No live index nodes right now; the build is retried as soon
            # as capacity is registered again.
            self._pending_builds.append((collection, segment_id, field))

    @property
    def pending_build_count(self) -> int:
        return len(self._pending_builds)

    def _on_coord(self, entry: LogEntry) -> None:
        record = entry.payload
        if not isinstance(record, CoordRecord):
            return
        if record.kind_name == "segment_flushed":
            self.build_indexes(record.payload["collection"],
                               record.payload["segment_id"])
        elif record.kind_name == "index_built":
            payload = record.payload
            self._meta.put(
                "index_routes/"
                f"{payload['collection']}/{payload['segment_id']}/"
                f"{payload['field']}",
                {"path": payload["path"],
                 "index_type": payload["index_type"],
                 "num_rows": payload["num_rows"]})

    def index_route(self, collection: str, segment_id: str,
                    field: str) -> Optional[dict]:
        """Where a built index lives in the object store (or None)."""
        return self._meta.get_value(
            f"index_routes/{collection}/{segment_id}/{field}")

    def has_index_route(self, collection: str, segment_id: str,
                        field: str) -> bool:
        """Whether the segment's index on ``field`` is built and routed
        (the readiness predicate; reads no route record)."""
        return self._meta.exists(
            f"index_routes/{collection}/{segment_id}/{field}")
