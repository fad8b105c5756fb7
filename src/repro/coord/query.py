"""Query coordinator: query-node membership, placement, recovery, scaling.

Manages the distribution of sealed segments (and WAL channel ownership for
growing data) across query nodes:

* **handoff** — when a segment is flushed, a query node is chosen to load
  the sealed copy from the binlog; once the load completes, the growing
  copies (built from the WAL) are released.  Manu does not make this
  atomic: a segment may briefly live on several nodes, which is safe
  because the proxies deduplicate results;
* **index loading** — ``index_built`` announcements cause every node
  holding the segment to fetch and attach the index (replacing the
  temporary one);
* **scaling** — nodes can be added (segments rebalanced onto them) and
  removed (segments and channels reassigned first);
* **failure recovery** — a failed node's segments are reloaded from the
  object store on healthy nodes and its WAL channels are reassigned; the
  new owner replays each channel from the flushed offset, rebuilding the
  growing segments.
"""

from __future__ import annotations

from typing import Optional

from repro.config import ManuConfig
from repro.coord.index_coord import IndexCoordinator
from repro.errors import ClusterStateError, NodeNotFound
from repro.log.broker import LogBroker, LogEntry
from repro.log.wal import CoordRecord, channel_shard, shard_channel
from repro.nodes.query_node import QueryNode
from repro.sim.events import EventLoop
from repro.storage.metastore import MetaStore


class QueryCoordinator:
    """Placement and liveness authority for query nodes."""

    def __init__(self, metastore: MetaStore, broker: LogBroker,
                 loop: EventLoop, config: ManuConfig, data_coord,
                 index_coord: IndexCoordinator, health=None) -> None:
        self._meta = metastore
        self._broker = broker
        self._loop = loop
        self._config = config
        self._data_coord = data_coord
        self.index_coord = index_coord
        # Optional repro.monitoring.HealthTracker (duck-typed): membership
        # changes report liveness transitions so health flips to ``down``
        # the moment the coordinator learns of a failure, not a lease
        # expiry later.
        self._health = health
        self._nodes: dict[str, QueryNode] = {}
        # (collection, segment_id) -> set of node names holding it sealed
        self._assignments: dict[tuple[str, str], set[str]] = {}
        self._channel_owner: dict[str, str] = {}
        self._channel_collection: dict[str, str] = {}
        self._loaded: dict[str, int] = {}  # collection -> num_shards
        # Rotates the holder picked per segment, request by request.
        self._plan_rr = 0
        broker.create_channel(config.log.coord_channel)
        self._sub = broker.subscribe(config.log.coord_channel,
                                     "query-coord",
                                     callback=self._on_coord)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_node(self, node: QueryNode, rebalance: bool = True) -> None:
        """Register a query node and pull load onto it."""
        if node.name in self._nodes:
            raise ClusterStateError(f"query node {node.name} exists")
        self._nodes[node.name] = node
        if self._health is not None:
            self._health.beat(f"query-node:{node.name}")
        for collection, num_shards in self._loaded.items():
            for shard in range(num_shards):
                channel = shard_channel(collection, shard)
                # Replay from the retained beginning: non-owned channels
                # contribute only deletions and ticks, and a node loading
                # sealed segments must know every deletion that happened
                # before it joined (else deleted rows resurrect).
                node.subscribe(collection, channel, owned=False,
                               from_offset=self._broker
                               .begin_offset(channel))
        if rebalance and len(self._nodes) > 1:
            self.balance()

    def remove_node(self, name: str) -> None:
        """Graceful scale-down: move everything off, then drop the node."""
        node = self._node(name)
        if len(self.live_nodes()) <= 1:
            raise ClusterStateError("cannot remove the last query node")
        # Reassign sealed segments to the other nodes.
        for (collection, segment_id), holders in list(
                self._assignments.items()):
            if name in holders:
                holders.discard(name)
                if not holders:
                    self.assign_segment(collection, segment_id,
                                        exclude={name})
        # Move owned channels.
        for channel in sorted(node.owned_channels):
            self._move_channel(channel, exclude={name})
        for channel in list(node._subs):
            node.unsubscribe(channel)
        for (collection, segment_id) in [
                key for key, holders in self._assignments.items()
                if not holders]:
            self._assignments.pop((collection, segment_id), None)
        node.alive = False
        del self._nodes[name]
        if self._health is not None:
            # Graceful decommission is not an outage.
            self._health.forget(f"query-node:{name}")

    def fail_node(self, name: str) -> None:
        """Abrupt failure: recover segments and channels on healthy nodes."""
        node = self._node(name)
        affected = [(key, holders) for key, holders
                    in self._assignments.items() if name in holders]
        owned = sorted(node.owned_channels)
        node.fail()
        del self._nodes[name]
        if self._health is not None:
            self._health.mark_down(f"query-node:{name}")
        for (collection, segment_id), holders in affected:
            holders.discard(name)
            if not holders:
                self.assign_segment(collection, segment_id)
        for channel in owned:
            self._move_channel(channel)

    def _node(self, name: str) -> QueryNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise NodeNotFound(f"query node {name!r}") from None

    def live_nodes(self) -> list[QueryNode]:
        return sorted((n for n in self._nodes.values() if n.alive),
                      key=lambda n: n.name)

    @property
    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def nodes_serving(self, collection: str) -> list[QueryNode]:
        """Query nodes the proxy must fan a search out to."""
        serving = []
        for node in self.live_nodes():
            if node.holds_collection(collection) or any(
                    self._channel_collection.get(c) == collection
                    for c in node.owned_channels):
                serving.append(node)
        if not serving and collection in self._loaded:
            serving = self.live_nodes()
        return serving

    def search_plan(self, collection: str
                    ) -> list[tuple[QueryNode, Optional[set[str]]]]:
        """Fan-out plan: which node searches which sealed segments.

        With hot replicas (``replica_number > 1``) a sealed segment lives
        on several nodes; exactly one holder per segment is picked per
        request (rotating for load spreading), so replicas increase
        throughput instead of duplicating work.  Channel owners are always
        in the plan for their growing segments.  The per-node scope is a
        set of sealed segment ids (``None`` means "everything local" — the
        single-replica fast path).
        """
        if max(1, self._config.query.replica_number) == 1:
            return [(node, None) for node in self.nodes_serving(collection)]
        self._plan_rr += 1
        scopes: dict[str, set[str]] = {}
        for (coll, sid), holders in sorted(self._assignments.items()):
            if coll != collection or not holders:
                continue
            live = [n for n in sorted(holders)
                    if n in self._nodes and self._nodes[n].alive]
            if not live:
                continue
            chosen = live[self._plan_rr % len(live)]
            scopes.setdefault(chosen, set()).add(sid)
        plan: list[tuple[QueryNode, Optional[set[str]]]] = []
        for node in self.live_nodes():
            owns_channel = any(
                self._channel_collection.get(c) == collection
                for c in node.owned_channels)
            scope = scopes.get(node.name)
            if scope is not None or owns_channel:
                plan.append((node, scope if scope is not None else set()))
        return plan

    # ------------------------------------------------------------------
    # collection load / release
    # ------------------------------------------------------------------

    def load_collection(self, collection: str, num_shards: int) -> None:
        """Start serving a collection: channels + existing segments."""
        if collection in self._loaded:
            return
        if not self._nodes:
            raise ClusterStateError("no query nodes registered")
        self._loaded[collection] = num_shards
        nodes = self.live_nodes()
        for shard in range(num_shards):
            channel = shard_channel(collection, shard)
            self._broker.create_channel(channel)
            owner = nodes[shard % len(nodes)]
            self._channel_owner[channel] = owner.name
            self._channel_collection[channel] = collection
            for node in nodes:
                node.subscribe(collection, channel,
                               owned=(node.name == owner.name))
        for segment_id in self._data_coord.flushed_segments(collection):
            self.assign_segment(collection, segment_id)

    def release_collection(self, collection: str) -> None:
        """Stop serving a collection everywhere (memory release)."""
        num_shards = self._loaded.pop(collection, 0)
        for shard in range(num_shards):
            channel = shard_channel(collection, shard)
            self._channel_owner.pop(channel, None)
            self._channel_collection.pop(channel, None)
            for node in self.live_nodes():
                node.unsubscribe(channel)
        for (coll, segment_id) in list(self._assignments):
            if coll == collection:
                self.retire_segment(coll, segment_id)
        for node in self.live_nodes():
            for segment_id in node.segments_of(collection):
                node.release_segment(collection, segment_id)

    def is_loaded(self, collection: str) -> bool:
        return collection in self._loaded

    def loaded_collections(self) -> list[str]:
        return sorted(self._loaded)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _least_loaded(self, exclude: set[str] = frozenset()
                      ) -> Optional[QueryNode]:
        candidates = [n for n in self.live_nodes() if n.name not in exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (n.num_rows(), n.name))

    def assign_segment(self, collection: str, segment_id: str,
                       exclude: set[str] = frozenset()) -> None:
        """Place a sealed segment on replica_number nodes and load it."""
        replicas = max(1, self._config.query.replica_number)
        holders = self._assignments.setdefault((collection, segment_id),
                                               set())
        skip = set(exclude) | holders
        for _ in range(replicas - len(holders)):
            node = self._least_loaded(exclude=skip)
            if node is None:
                break
            skip.add(node.name)
            holders.add(node.name)
            load_ms = node.load_segment(collection, segment_id)
            self._attach_known_indexes(node, collection, segment_id)
            self._schedule_growing_release(collection, segment_id,
                                           keep=node.name,
                                           after_ms=load_ms)

    def retire_segment(self, collection: str, segment_id: str) -> None:
        """Forget a sealed segment's placement and release every copy."""
        for name in self._assignments.pop((collection, segment_id), set()):
            if name in self._nodes:
                self._nodes[name].release_segment(collection, segment_id)

    def segment_holder(self, collection: str,
                       segment_id: str) -> Optional[QueryNode]:
        """The first live node (by name) holding a sealed segment."""
        for name in sorted(self._assignments.get((collection, segment_id),
                                                 ())):
            node = self._nodes.get(name)
            if node is not None and node.alive:
                return node
        return None

    def index_metric(self, collection: str, field: str):
        """The metric the field's sealed segments are indexed in, as
        declared to the index coordinator (None: no index declared)."""
        return self.index_coord.index_metric(collection, field)

    def _attach_known_indexes(self, node: QueryNode, collection: str,
                              segment_id: str) -> None:
        """Attach already-built indexes when loading a segment late."""
        segment = node.segment(collection, segment_id)
        if segment is None:
            return
        for field in segment.schema.vector_fields:
            route = self.index_coord.index_route(collection, segment_id,
                                                 field.name)
            if route is not None:
                node.attach_index(collection, segment_id, field.name,
                                  route["path"])

    def _schedule_growing_release(self, collection: str, segment_id: str,
                                  keep: str, after_ms: float) -> None:
        """Release growing copies once the sealed load completes."""

        def release() -> None:
            for node in self.live_nodes():
                if node.name != keep:
                    if node.is_growing(collection, segment_id):
                        node.release_segment(collection, segment_id)

        self._loop.call_after(after_ms, release,
                              name=f"handoff:{segment_id}")

    def migrate_channel(self, channel: str, target_name: str) -> int:
        """Fenced serving handoff of a WAL channel to ``target_name``.

        Protocol (the rebalancer bumps the shard's fence epoch in the
        tenant directory before calling this):

        1. the old owner is *disowned* — post-fence inserts no longer
           materialize there (it keeps consuming deletions and ticks,
           and keeps serving its existing growing copies);
        2. the new owner re-subscribes ``owned`` from the handoff LSN
           (the recorded flushed offset) and replays the tail through its
           :class:`~repro.core.segment_set.SegmentSet`, which skips an
           insert a segment already holds, so no record is applied twice;
        3. once the new owner's cursor catches up, the old owner's
           growing copies for that shard are released.

        Returns the handoff LSN the new owner replays from.
        """
        collection = self._channel_collection.get(channel)
        if collection is None:
            raise ClusterStateError(f"channel {channel!r} is not loaded")
        target = self._node(target_name)
        if not target.alive:
            raise ClusterStateError(
                f"query node {target_name!r} is not alive")
        old_name = self._channel_owner.get(channel)
        if old_name == target_name:
            return self._flushed_offset(collection, channel)
        old = self._nodes.get(old_name) if old_name else None
        if old is not None and old.alive:
            old.disown_channel(channel)
        replay_from = self._own_channel(channel, collection, target)
        if old is not None and old.alive:
            self._schedule_handoff_release(channel, collection,
                                           old_name, target_name)
        return replay_from

    def _flushed_offset(self, collection: str, channel: str) -> int:
        return int(self._meta.get_value(
            f"flushed_offsets/{collection}/{channel}", 0))

    def _own_channel(self, channel: str, collection: str,
                     target: QueryNode) -> int:
        """Subscribe ``target`` as the channel's owner from the flushed
        offset (it replays the WAL tail from there) and record it as
        the owner; returns that offset.

        Unpersisted deletes can hold that offset back past segments that
        were flushed and then compacted away; the target is told their
        ids first, so the replay does not grow them again beside the
        segment they were merged into."""
        replay_from = self._flushed_offset(collection, channel)
        target.retire_segments(
            collection, self._data_coord.compacted_segments(collection))
        target.unsubscribe(channel)
        target.subscribe(collection, channel, owned=True,
                         from_offset=replay_from)
        self._channel_owner[channel] = target.name
        return replay_from

    def _schedule_handoff_release(self, channel: str, collection: str,
                                  old_name: str, new_name: str,
                                  poll_ms: float = 50.0) -> None:
        """Release the fenced owner's growing copies once the migration
        target has fully replayed the channel.

        Until then both nodes serve the shard's growing rows — safe, as
        with sealed handoff, because proxies deduplicate results and row
        counts deduplicate by segment id.  If the target dies mid-
        migration, the failure path re-replays the channel on another
        node and the fenced copies (now stale) are dropped immediately.

        Catch-up is judged against the channel end *at handoff time*:
        live lag would chase in-flight time-ticks forever, but every
        record the fenced copy could possibly hold sits below the
        handoff-time end offset.
        """
        _collection, shard = channel_shard(channel)
        handoff_end = self._broker.end_offset(channel)

        def check() -> None:
            old = self._nodes.get(old_name)
            if old is None or not old.alive:
                return
            new = self._nodes.get(new_name)
            owner = self._channel_owner.get(channel)
            if new is None or not new.alive or owner != new_name:
                # Target died or ownership moved again.  Unless it came
                # back to the old node (which then resumes materializing
                # and re-converges via the LSN watermark), its half-
                # fenced copies are stale — release them; the current
                # owner's replay rebuilds complete ones.
                if owner != old_name:
                    for sid in old.growing_of_shard(collection, shard):
                        old.release_segment(collection, sid)
                return
            if new.channel_position(channel) < handoff_end:
                self._loop.call_after(poll_ms, check,
                                      name=f"migrate:{channel}")
                return
            for sid in old.growing_of_shard(collection, shard):
                if new.is_growing(collection, sid):
                    old.release_segment(collection, sid)

        self._loop.call_after(poll_ms, check, name=f"migrate:{channel}")

    def _move_channel(self, channel: str,
                      exclude: set[str] = frozenset()) -> None:
        """Reassign channel ownership; the new owner replays the WAL tail."""
        collection = self._channel_collection.get(channel)
        if collection is None:
            return
        target = self._least_loaded(exclude=exclude)
        if target is None:
            self._channel_owner.pop(channel, None)
            return
        self._own_channel(channel, collection, target)

    def _segment_rows(self, collection: str, segment_id: str) -> int:
        """Row count of a sealed segment (metastore, or a live copy)."""
        info = self._data_coord.segment_info(collection, segment_id)
        if info and "num_rows" in info:
            return int(info["num_rows"])
        for name in self._assignments.get((collection, segment_id), ()):
            node = self._nodes.get(name)
            if node is not None:
                segment = node.segment(collection, segment_id)
                if segment is not None:
                    return segment.num_rows
        return 0

    def balance(self) -> int:
        """Move sealed segments from overloaded to underloaded nodes.

        Returns the number of segments migrated.  Loads are computed from
        the *assignment map* (not live node state) because releases of
        moved segments complete asynchronously after the binlog load.
        """
        nodes = self.live_nodes()
        if len(nodes) < 2:
            return 0
        sizes = {key: self._segment_rows(*key)
                 for key in self._assignments}
        loads = {n.name: 0 for n in nodes}
        for key, holders in self._assignments.items():
            for name in holders:
                if name in loads:
                    loads[name] += sizes[key]
        moved = 0
        for _ in range(256):  # bounded passes
            heavy_name = max(sorted(loads), key=lambda n: loads[n])
            light_name = min(sorted(loads), key=lambda n: loads[n])
            gap = loads[heavy_name] - loads[light_name]
            # Moving a segment of size s reduces the pair's max only when
            # s < gap; pick the movable segment closest to gap/2.
            candidates = [
                key for key, holders in self._assignments.items()
                if heavy_name in holders and light_name not in holders
                and 0 < sizes[key] < gap]
            if not candidates:
                break
            coll, sid = min(candidates,
                            key=lambda key: (abs(gap - 2 * sizes[key]),
                                             key))
            heavy = self._nodes[heavy_name]
            light = self._nodes[light_name]
            load_ms = light.load_segment(coll, sid)
            self._attach_known_indexes(light, coll, sid)
            holders = self._assignments[(coll, sid)]
            holders.add(light_name)
            holders.discard(heavy_name)
            loads[heavy_name] -= sizes[(coll, sid)]
            loads[light_name] += sizes[(coll, sid)]

            def release(node=heavy, coll=coll, sid=sid) -> None:
                node.release_segment(coll, sid)

            self._loop.call_after(load_ms, release,
                                  name=f"rebalance:{sid}")
            moved += 1
        return moved

    # ------------------------------------------------------------------
    # coordination-channel reactions
    # ------------------------------------------------------------------

    def _on_coord(self, entry: LogEntry) -> None:
        record = entry.payload
        if not isinstance(record, CoordRecord):
            return
        if record.kind_name == "segment_flushed":
            payload = record.payload
            if payload["collection"] in self._loaded:
                self.assign_segment(payload["collection"],
                                    payload["segment_id"])
        elif record.kind_name == "index_built":
            payload = record.payload
            key = (payload["collection"], payload["segment_id"])
            holders = self._assignments.get(key, set())
            for name in sorted(holders):
                node = self._nodes.get(name)
                if node is None or not node.alive:
                    continue
                load_ms = node.attach_index(payload["collection"],
                                            payload["segment_id"],
                                            payload["field"],
                                            payload["path"])
                del load_ms  # attachment modeled as immediate after load

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def distribution(self, collection: str) -> dict[str, list[str]]:
        """node -> sealed segment ids (what the proxies cache)."""
        out: dict[str, list[str]] = {}
        for (coll, sid), holders in sorted(self._assignments.items()):
            if coll == collection:
                for name in sorted(holders):
                    out.setdefault(name, []).append(sid)
        return out

    def channel_owners(self, collection: Optional[str] = None
                       ) -> dict[str, str]:
        """Channel -> owning node; all loaded collections when ``None``
        (the rebalancer's whole-cluster serving view)."""
        if collection is None:
            return dict(self._channel_owner)
        return {c: o for c, o in self._channel_owner.items()
                if self._channel_collection.get(c) == collection}
