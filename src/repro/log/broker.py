"""Durable pub/sub log broker — the Kafka/Pulsar stand-in.

Channels are append-only sequences of entries.  Every append gets a dense
per-channel offset.  Subscribers are named cursors that either *pull*
(``poll``) or are *pushed* entries through a callback; with an event loop
attached, pushed deliveries are scheduled after a configurable network delay
so log propagation time is visible to the timing experiments.

The broker retains all entries until ``truncate`` (log expiration, used by
time travel's retention policy), so any new subscriber can replay history —
the property the paper's failure recovery and stream indexing rely on.

Delivery ordering contract (the reorder bound the ``MANU_RACE``
sanitizer works to): entries of one channel
reach each subscription strictly in offset order, always; the *relative*
timing of flushes to different subscriptions is undefined within one
delivery-delay window.  The attached loop's
:class:`~repro.sim.clock.SchedulePolicy` may therefore stretch each flush's
delay (seeded jitter) and permute same-timestamp flushes, but can never
reorder one subscriber's entries.

``MANU_CHECK=1`` (or ``manu_check=True``) arms the broker's runtime
checks: WAL shard timestamps never go back, every ``publish`` /
``subscribe`` caller is a declared one (:mod:`repro.log.topology`), and
every data entry is pushed twice, as a subscriber reconnecting from an
unacknowledged cursor would see it, so a replay that is not idempotent
shows.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ChannelNotFound, MonotonicityViolation
from repro.log.topology import check_edge
from repro.sim.events import EventLoop


@dataclass(frozen=True)
class LogEntry:
    """One appended record with its channel offset."""

    channel: str
    offset: int
    payload: Any


class Subscription:
    """A named cursor over one channel.

    Pull mode: call :meth:`poll` to receive entries past the cursor.
    Push mode: construct with a callback; the broker delivers every entry
    (including backlog at subscription time) in order.
    """

    def __init__(self, broker: "LogBroker", channel: str, name: str,
                 offset: int,
                 callback: Optional[Callable[[LogEntry], None]]) -> None:
        self._broker = broker
        self.channel = channel
        self.name = name
        self.offset = offset  # next offset to deliver
        self.callback = callback
        self.active = True
        self._delivering = False
        # A push delivery's loop event: its callable and name, made once.
        self._flush = functools.partial(broker._flush, self)
        self._event_name = f"log-delivery:{name}"

    def poll(self, max_entries: int = 1024) -> list[LogEntry]:
        """Return up to ``max_entries`` entries past the cursor; advances it."""
        entries = self._broker.read(self.channel, self.offset, max_entries)
        if entries:
            self.offset = entries[-1].offset + 1
        return entries

    def seek(self, offset: int) -> None:
        """Move the cursor (replay from an earlier position)."""
        self.offset = max(0, offset)

    def lag(self) -> int:
        """Entries appended but not yet consumed by this cursor."""
        return self._broker.end_offset(self.channel) - self.offset

    def lag_records(self) -> int:
        """Logical records appended but not yet consumed by this cursor.

        A group-commit :class:`~repro.log.wal.BatchRecord` is one entry
        carrying N logical records; counting entries would under-report
        backlog once publishes are coalesced.  Duck-typed on
        ``payload.num_records`` so the broker stays WAL-import-free.
        """
        return sum(getattr(entry.payload, "num_records", 1)
                   for entry in self._broker.read(
                       self.channel, self.offset, max_entries=1 << 30))

    def cancel(self) -> None:
        """Stop all future deliveries to this subscription."""
        self.active = False
        self._broker._drop(self)


class LogBroker:
    """In-process multi-channel log broker.

    ``delivery_delay_ms`` models the network/propagation delay of pushed
    entries when an event loop is attached; without a loop, pushes are
    synchronous (useful in unit tests).
    """

    def __init__(self, loop: Optional[EventLoop] = None,
                 delivery_delay_ms: float = 0.5,
                 manu_check: Optional[bool] = None,
                 tracer=None) -> None:
        self._loop = loop
        self.delivery_delay_ms = delivery_delay_ms
        # Optional repro.tracing.TraceCollector (duck-typed so the log
        # layer stays import-free of tracing): stamps published records
        # with the ambient trace context and opens delivery spans.
        self.tracer = tracer
        self._channels: dict[str, list[LogEntry]] = {}
        self._base_offsets: dict[str, int] = {}
        self._subs: dict[str, list[Subscription]] = {}
        # MANU_CHECK (module docstring).  ``None`` defers to the
        # environment so stress tests can flip it on without plumbing a
        # flag through the cluster wiring.
        if manu_check is None:
            manu_check = os.environ.get("MANU_CHECK", "") not in ("", "0")
        self.manu_check = manu_check
        self._check_high_ts: dict[str, int] = {}
        # Monotone counter feeding the schedule policy's delivery jitter;
        # deterministic, so a MANU_RACE seed replays the same jitters.
        self._flush_seq = itertools.count()

    # ------------------------------------------------------------------
    # channel management
    # ------------------------------------------------------------------

    def create_channel(self, channel: str) -> None:
        """Create a channel if it does not exist (idempotent)."""
        self._channels.setdefault(channel, [])
        self._base_offsets.setdefault(channel, 0)
        self._subs.setdefault(channel, [])

    def has_channel(self, channel: str) -> bool:
        return channel in self._channels

    def channels(self) -> list[str]:
        return sorted(self._channels)

    def _entries(self, channel: str) -> list[LogEntry]:
        try:
            return self._channels[channel]
        except KeyError:
            raise ChannelNotFound(channel) from None

    # ------------------------------------------------------------------
    # producing
    # ------------------------------------------------------------------

    def publish(self, channel: str, payload: Any) -> int:
        """Append a payload; returns its offset and triggers deliveries."""
        entries = self._entries(channel)
        if self.tracer is not None:
            payload = self.tracer.on_publish(channel, payload)
        if self.manu_check:
            check_edge(sys._getframe(1).f_globals.get("__name__", ""),
                       "publish", channel)
            self._check_monotonic(channel, payload)
        offset = self._base_offsets[channel] + len(entries)
        entry = LogEntry(channel, offset, payload)
        entries.append(entry)
        for sub in list(self._subs[channel]):
            self._deliver(sub)
        return offset

    def _check_monotonic(self, channel: str, payload: Any) -> None:
        """MANU_CHECK invariant: WAL shard channels never go back in time.

        Scoped to ``wal/<collection>/shard-<n>`` data channels: control
        channels legitimately carry historical timestamps (a flush ack
        reports the segment's max LSN, an index-built notice carries no
        timestamp at all).  Records without a positive integer ``ts`` are
        ignored.
        """
        if not (channel.startswith("wal/") and "/shard-" in channel):
            return
        # Group-commit envelopes: every inner record must respect the
        # channel's high-water mark too, and the inner sequence itself
        # must be non-decreasing (duck-typed on ``payload.records``).
        inner = getattr(payload, "records", None)
        if inner is not None:
            for record in inner:
                self._check_one_ts(channel, record)
        self._check_one_ts(channel, payload)

    def _check_one_ts(self, channel: str, payload: Any) -> None:
        ts = getattr(payload, "ts", None)
        if not isinstance(ts, int) or ts <= 0:
            return
        high = self._check_high_ts.get(channel, 0)
        if ts < high:
            raise MonotonicityViolation(
                f"MANU_CHECK: channel {channel!r} received ts {ts} after "
                f"having seen ts {high} (type "
                f"{type(payload).__name__})")
        self._check_high_ts[channel] = ts

    def checked_ts(self, channel: str) -> int:
        """Newest ts published on a WAL shard channel while MANU_CHECK
        was armed (0 before any)."""
        return self._check_high_ts.get(channel, 0)

    # ------------------------------------------------------------------
    # consuming
    # ------------------------------------------------------------------

    def read(self, channel: str, from_offset: int,
             max_entries: int = 1024) -> list[LogEntry]:
        """Entries with ``offset >= from_offset`` (bounded), oldest first."""
        entries = self._entries(channel)
        base = self._base_offsets[channel]
        start = max(from_offset - base, 0)
        return entries[start:start + max_entries]

    def end_offset(self, channel: str) -> int:
        """Offset the next published entry will receive."""
        return self._base_offsets[channel] + len(self._entries(channel))

    def begin_offset(self, channel: str) -> int:
        """Oldest retained offset (moves up on truncation)."""
        self._entries(channel)
        return self._base_offsets[channel]

    def subscribe(self, channel: str, name: str, from_offset: int = 0,
                  callback: Optional[Callable[[LogEntry], None]] = None,
                  ) -> Subscription:
        """Attach a named cursor; with a callback, backlog is pushed too."""
        self._entries(channel)
        if self.manu_check:
            check_edge(sys._getframe(1).f_globals.get("__name__", ""),
                       "subscribe", channel)
        from_offset = max(from_offset, self._base_offsets[channel])
        sub = Subscription(self, channel, name, from_offset, callback)
        self._subs[channel].append(sub)
        if callback is not None:
            self._deliver(sub)
        return sub

    def subscriptions(self, channel: Optional[str] = None) -> list[Subscription]:
        """Active subscriptions, for one channel or all of them.

        This is the telemetry plane's window into backbone lag: the
        cluster samples ``sub.lag()`` per (channel, subscriber) pair from
        here, keeping the log layer itself metrics-import-free.
        """
        if channel is not None:
            return [sub for sub in self._subs.get(channel, ()) if sub.active]
        return [sub for subs in self._subs.values()
                for sub in subs if sub.active]

    def depth(self, channel: str) -> int:
        """Retained (non-truncated) entries in a channel."""
        return len(self._entries(channel))

    def delivery_queue_depth(self, channel: str) -> int:
        """Logical records appended but not yet pushed to the channel's
        push subs.

        Sums cursor lag over push-mode subscriptions only — pull-mode
        cursors (e.g. replay scans) consume at their own pace and are
        reported through per-subscriber lag instead.  Counted in logical
        records (batch envelopes expanded), matching
        :meth:`Subscription.lag_records`.
        """
        return sum(sub.lag_records() for sub in self._subs.get(channel, ())
                   if sub.active and sub.callback is not None)

    def _drop(self, sub: Subscription) -> None:
        subs = self._subs.get(sub.channel, [])
        if sub in subs:
            subs.remove(sub)

    def _deliver(self, sub: Subscription) -> None:
        """Schedule (or run) delivery of all outstanding entries to ``sub``."""
        if sub.callback is None or not sub.active or sub._delivering:
            return
        sub._delivering = True
        if self._loop is not None:
            # The policy may stretch (never shrink) the delay: flushes to
            # different subscriptions then land in perturbed order while
            # this subscription still drains its channel in offset order.
            delay = self._loop.policy.delivery_delay_ms(
                self.delivery_delay_ms, sub.name, next(self._flush_seq))
            self._loop.call_after(delay, sub._flush, name=sub._event_name)
        else:
            sub._flush()

    def _flush(self, sub: Subscription) -> None:
        """One delivery: ``sub``'s entries past its cursor, then more."""
        sub._delivering = False
        if not sub.active:
            return
        for entry in sub.poll():
            if not sub.active:
                break
            self._dispatch(sub, entry)
            # MANU_CHECK: a data entry (a commit group's envelope)
            # arrives again, as after a reconnect.
            if self.manu_check and sub.active \
                    and hasattr(entry.payload, "records"):
                self._dispatch(sub, entry)
        # New entries may have been appended while flushing.
        if sub.active and sub.lag() > 0:
            self._deliver(sub)

    def _dispatch(self, sub: Subscription, entry: LogEntry) -> None:
        """Invoke one callback, inside a delivery span for traced records."""
        if self.tracer is None:
            sub.callback(entry)
            return
        with self.tracer.deliver(sub.name, entry):
            sub.callback(entry)

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------

    def truncate(self, channel: str, up_to_offset: int) -> int:
        """Discard entries with offset < ``up_to_offset``; returns dropped count.

        Used by the time-travel retention policy ("users can specify an
        expiration period to delete outdated log").
        """
        entries = self._entries(channel)
        base = self._base_offsets[channel]
        drop = min(max(up_to_offset - base, 0), len(entries))
        if drop:
            self._channels[channel] = entries[drop:]
            self._base_offsets[channel] = base + drop
        return drop
