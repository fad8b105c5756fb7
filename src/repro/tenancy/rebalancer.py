"""Fenced shard rebalancer: detect hot shards, plan, migrate safely.

Two load surfaces can go hot under a skewed tenant mix:

- **Serving** — which query node owns each WAL channel (owners
  materialize the channel's growing rows and serve them).  The initial
  round-robin assignment bunches every collection's shard-``k`` channel
  on the same node, so a Zipf tenant mix concentrates load badly.  The
  query coordinator is the one record of this placement: the rebalancer
  reads the owners from it and moves them through it, and keeps no copy.
- **Logging** — which logger the consistent-hash ring routes a shard
  bucket to.  A hot bucket is moved via an explicit directory override
  (weighted ring placement handles the steady state; overrides handle
  the outliers).

One greedy planner serves both scopes: given ``channel -> owner``,
``channel -> load`` and the node names, it moves the largest channel
that still narrows the gap from the hottest node to the coldest until
the max/mean node load is within :data:`IMBALANCE_THRESHOLD`.

Moves execute under **epoch fencing** over the WAL.  For every move the
rebalancer (1) bumps the shard's fence epoch in the directory *before*
ownership changes, (2) hands ownership to the destination with the
handoff LSN — the channel offset the new owner replays from — and
(3) publishes a ``CoordRecord`` on ``wal/coord`` announcing the move, so
the control history of every migration is itself WAL-durable.  A stale
owner observing the bumped epoch rejects post-fence writes
(:class:`~repro.errors.FencedWriteError` on the logging side; disowned
channels stop materializing on the serving side), and the destination
replays the channel from the handoff LSN — no write is lost, and the
per-segment LSN watermark makes replay idempotent, so none is
duplicated either.  Only step (2) differs between the scopes.

Layering: this module may import ``core``/``log``/``storage`` only.
Actions that must run above it (re-subscribing query nodes, flushing a
logger's commit group) come in through the duck-typed ``serving`` /
``logging`` hooks the cluster wires up — see :class:`ServingOps` and
:class:`LoggingOps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.core.tso import TimestampOracle
from repro.errors import ChannelNotFound
from repro.log.broker import LogBroker
from repro.log.logger_node import shard_bucket_key
from repro.log.wal import CoordRecord, channel_shard, shard_channel
from repro.tenancy.directory import TenantDirectory
from repro.tracing import NOOP_TRACER, TraceCollector

#: The planner moves load while max/mean node load exceeds this.
IMBALANCE_THRESHOLD = 1.25
#: A channel's load: its writes, plus its collection's searches scaled
#: by its writes (see :meth:`ShardRebalancer.channel_loads`).
WRITE_WEIGHT = 1.0
SEARCH_WEIGHT = 1.0

#: One scope's placement: (channel -> owner, channel -> load, node names).
_View = tuple[dict[str, str], dict[str, float], list[str]]


class ServingOps(Protocol):
    """Query-side hooks (implemented by the query coordinator)."""

    @property
    def node_names(self) -> list[str]:
        """Live query nodes."""
        ...

    def channel_owners(self) -> dict[str, str]:
        """WAL channel -> owning query node, across loaded collections."""
        ...

    def migrate_channel(self, channel: str, target: str) -> int:
        """Fenced serving handoff; returns the handoff LSN the new
        owner replays from."""
        ...


class LoggingOps(Protocol):
    """Log-side hooks (implemented by the logger service)."""

    @property
    def logger_names(self) -> list[str]:
        ...

    def owner_name(self, collection: str, shard: int) -> str:
        """Current logger for a shard bucket (overrides applied)."""
        ...

    def flush_shard(self, collection: str, shard: int) -> int:
        """Drain the shard's pending commit group; returns its LSN."""
        ...


@dataclass
class Move:
    """One planned (and, after execute, performed) rebalancing move."""

    kind: str           # "migrate" | "split"
    scope: str          # "serving" | "logging"
    collection: str
    shard: int
    channel: str
    src: str
    dst: str
    load: float         # estimated load being moved
    epoch: int = 0      # fence epoch stamped at execution
    handoff_lsn: int = 0
    reason: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scope": self.scope,
                "collection": self.collection, "shard": self.shard,
                "channel": self.channel, "src": self.src,
                "dst": self.dst, "load": self.load, "epoch": self.epoch,
                "handoff_lsn": self.handoff_lsn, "reason": self.reason}


@dataclass
class LoadReport:
    """Per-node load snapshot with the imbalance the planner acts on."""

    scope: str
    node_loads: dict[str, float] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """max/mean node load; 1.0 is perfectly balanced."""
        if not self.node_loads:
            return 1.0
        mean = sum(self.node_loads.values()) / len(self.node_loads)
        if mean <= 0:
            return 1.0
        return max(self.node_loads.values()) / mean


def load_report(scope: str, owners: dict[str, str],
                loads: dict[str, float], nodes: list[str]) -> LoadReport:
    """Each node's summed channel load (owners off the node list, a
    departed node, are not counted)."""
    report = LoadReport(scope, {n: 0.0 for n in nodes})
    for channel, owner in owners.items():
        if owner in report.node_loads:
            report.node_loads[owner] += loads[channel]
    return report


def plan_moves(scope: str, owners: dict[str, str],
               loads: dict[str, float], nodes: list[str],
               max_moves: int = 16) -> list[Move]:
    """Greedy hottest-to-coldest channel moves until balanced.

    Each step moves the largest channel on the hottest node whose load
    is below the hot-cold gap (moving more would just swap the two).
    A move is a **split** when it spreads its collection over more
    nodes than before (the collection's shards were bunched);
    otherwise it is a plain **migrate**.
    """
    owners = dict(owners)
    node_loads = load_report(scope, owners, loads, nodes).node_loads
    if len(node_loads) < 2:
        return []

    def spread(collection: str) -> int:
        return len({o for c, o in owners.items()
                    if channel_shard(c)[0] == collection})

    moves: list[Move] = []
    while len(moves) < max_moves:
        imbalance = LoadReport(scope, node_loads).imbalance
        if imbalance <= IMBALANCE_THRESHOLD:
            break
        hot = max(node_loads, key=node_loads.get)
        cold = min(node_loads, key=node_loads.get)
        gap = node_loads[hot] - node_loads[cold]
        candidates = sorted((c for c, o in owners.items() if o == hot),
                            key=loads.__getitem__, reverse=True)
        chosen = next((c for c in candidates if 0 < loads[c] < gap), None)
        if chosen is None:
            break
        collection, shard = channel_shard(chosen)
        spread_before = spread(collection)
        owners[chosen] = cold
        node_loads[hot] -= loads[chosen]
        node_loads[cold] += loads[chosen]
        moves.append(Move(
            kind="split" if spread(collection) > spread_before
            else "migrate",
            scope=scope, collection=collection, shard=shard,
            channel=chosen, src=hot, dst=cold, load=loads[chosen],
            reason=f"imbalance {imbalance:.2f} > "
                   f"{IMBALANCE_THRESHOLD:.2f}"))
    return moves


class ShardRebalancer:
    """Plans and executes fenced split/migrate moves for hot shards."""

    def __init__(self, broker: LogBroker, tso: TimestampOracle,
                 directory: TenantDirectory,
                 coord_channel: str = "wal/coord",
                 tracer: Optional[TraceCollector] = None) -> None:
        self._broker = broker
        self._tso = tso
        self._directory = directory
        self._coord_channel = coord_channel
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        # Hooks wired by the cluster (tenancy never imports upward).
        self.serving: Optional[ServingOps] = None
        self.logging: Optional[LoggingOps] = None
        #: physical collection -> cumulative search units served, fed by
        #: the proxies via the cluster (serving-load attribution).
        self.search_load_fn: Optional[
            Callable[[], dict[str, float]]] = None
        self.moves_executed: list[Move] = []

    # ------------------------------------------------------------------
    # load detection (from per-channel backbone telemetry)
    # ------------------------------------------------------------------

    def _channel_writes(self, channel: str) -> float:
        """Records appended to the channel so far (WAL end offset)."""
        try:
            return float(self._broker.end_offset(channel))
        except (KeyError, ChannelNotFound):
            return 0.0

    def channel_loads(self, owners: dict[str, str]) -> dict[str, float]:
        """Estimated serving load per owned WAL channel.

        Write pressure comes from the channel's own end offset.  Search
        pressure is per-collection search counters scaled by the
        channel's resident rows: every search of a collection fans out
        to every channel owner, and each owner's scan cost is
        proportional to the rows it materializes — so a channel that
        holds rows of a hot collection is hot in proportion to both its
        size and its collection's query rate.  The end offset doubles as
        the row proxy (time-ticks inflate all channels alike).
        """
        searches = self.search_load_fn() if self.search_load_fn else {}
        loads: dict[str, float] = {}
        for channel in owners:
            collection, _ = channel_shard(channel)
            writes = self._channel_writes(channel)
            load = WRITE_WEIGHT * writes
            load += SEARCH_WEIGHT * searches.get(collection, 0.0) * writes
            loads[channel] = load
        return loads

    def _serving_view(self) -> _View:
        owners = self.serving.channel_owners()
        return owners, self.channel_loads(owners), self.serving.node_names

    def _logging_view(self) -> _View:
        owners = {
            shard_channel(collection, shard):
                self.logging.owner_name(collection, shard)
            for collection in self._directory.collections
            for shard in range(self._directory.num_shards(collection))}
        loads = {channel: self._channel_writes(channel)
                 for channel in owners}
        return owners, loads, self.logging.logger_names

    def serving_report(self) -> LoadReport:
        """Per-query-node serving load (owned channels only)."""
        if self.serving is None:
            return LoadReport(scope="serving")
        return load_report("serving", *self._serving_view())

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan_serving(self, max_moves: int = 16) -> list[Move]:
        """Channel-ownership moves between query nodes."""
        if self.serving is None:
            return []
        return plan_moves("serving", *self._serving_view(),
                          max_moves=max_moves)

    def plan_logging(self, max_moves: int = 16) -> list[Move]:
        """Shard buckets moved off overloaded loggers via explicit
        directory overrides (the ring keeps handling the steady state)."""
        if self.logging is None:
            return []
        return plan_moves("logging", *self._logging_view(),
                          max_moves=max_moves)

    # ------------------------------------------------------------------
    # fenced execution
    # ------------------------------------------------------------------

    def execute(self, move: Move) -> Move:
        """Run one move under the fencing protocol; returns it stamped
        with its fence epoch and handoff LSN."""
        handoff = (self._serving_handoff if move.scope == "serving"
                   else self._logging_handoff)
        with self._tracer.span(f"rebalancer.migrate_{move.scope}",
                               "rebalancer", channel=move.channel,
                               src=move.src, dst=move.dst):
            move.handoff_lsn = handoff(move)
            # WAL-durable record of the move on the coord channel.
            self._broker.publish(self._coord_channel, CoordRecord(
                ts=self._tso.allocate_packed(),
                kind_name="shard_migrate", payload=move.to_dict()))
        self.moves_executed.append(move)
        return move

    def _serving_handoff(self, move: Move) -> int:
        if self.serving is None:
            raise RuntimeError("serving hooks not wired")
        # Fence first: the epoch is bumped (and checkpointable) before
        # any ownership state changes, so a crash between the two steps
        # recovers into the fenced state, never an unfenced double-owner
        # one.
        move.epoch = self._directory.bump_fence(move.collection,
                                                move.shard)
        return self.serving.migrate_channel(move.channel, move.dst)

    def _logging_handoff(self, move: Move) -> int:
        if self.logging is None:
            raise RuntimeError("logging hooks not wired")
        # Drain the old owner's pending commit group under the old
        # epoch, then fence: every pre-fence write is durable on the
        # channel before the bucket moves.
        self.logging.flush_shard(move.collection, move.shard)
        move.epoch = self._directory.bump_fence(move.collection,
                                                move.shard)
        handoff_lsn = int(self._broker.end_offset(move.channel))
        self._directory.set_bucket_override(
            shard_bucket_key(move.collection, move.shard), move.dst)
        return handoff_lsn

    def rebalance(self, max_moves: int = 16) -> list[Move]:
        """Plan and execute serving moves, then logging moves."""
        executed = []
        for move in self.plan_serving(max_moves=max_moves):
            executed.append(self.execute(move))
        for move in self.plan_logging(max_moves=max_moves):
            executed.append(self.execute(move))
        return executed
