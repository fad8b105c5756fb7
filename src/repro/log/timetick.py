"""Time-tick emission (Section 3.4).

"Special control messages called time-ticks are periodically inserted into
each log channel signaling the progress of data synchronization."  A
subscriber that has consumed a tick with timestamp ``t`` knows it has seen
*every* record with LSN <= ``t`` on that channel, because loggers publish
ticks in LSN order on the same channel as data.

The emitter allocates the tick timestamp from the same TSO that stamps data
records, so the watermark property holds by construction in our
single-broker setting.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.tso import TimestampOracle
from repro.log.broker import LogBroker
from repro.log.wal import TimeTickRecord
from repro.sim.events import Event, EventLoop
from repro.tracing import NOOP_TRACER, TraceCollector


class TimeTickEmitter:
    """Publishes a time-tick on each registered channel every interval.

    Ticks are untraced: they fire forever, so tracing them would drown
    request traces.
    """

    def __init__(self, loop: EventLoop, broker: LogBroker,
                 tso: TimestampOracle, interval_ms: float,
                 channels: Iterable[str] = (), source: str = "tso",
                 tracer: Optional[TraceCollector] = None) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        self._loop = loop
        self._broker = broker
        self._tso = tso
        self.interval_ms = interval_ms
        self.source = source
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._channels: list[str] = list(channels)
        self._timer: Optional[Event] = None
        self.ticks_emitted = 0
        # Virtual time of the last tick per channel — the telemetry plane
        # reads staleness (now - last tick) from here per shard.
        self._last_tick_ms: dict[str, float] = {}

    def add_channel(self, channel: str) -> None:
        """Start ticking a newly created channel (idempotent)."""
        if channel not in self._channels:
            self._channels.append(channel)

    def remove_channel(self, channel: str) -> None:
        if channel in self._channels:
            self._channels.remove(channel)
        self._last_tick_ms.pop(channel, None)

    def staleness_ms(self, now_ms: float) -> dict[str, float]:
        """Per-channel virtual time since the last emitted tick.

        A channel registered but never ticked (emitter not started yet)
        does not appear; downstream health logic treats absence as "no
        signal", not "infinitely stale".
        """
        return {channel: max(0.0, now_ms - last)
                for channel, last in self._last_tick_ms.items()
                if channel in self._channels}

    def start(self) -> None:
        """Begin periodic emission; safe to call once."""
        if self._timer is not None:
            raise RuntimeError("time-tick emitter already started")
        self._timer = self._loop.call_every(
            self.interval_ms, self._emit, name="time-tick")

    def stop(self) -> None:
        """Stop emission (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _emit(self) -> None:
        ts = self._tso.allocate_packed()
        # Ticks fire as scheduled events inside whatever frame steps the
        # clock — detach so they never join (or stamp) a bystander trace.
        with self._tracer.detached():
            now = self._loop.now()
            for channel in self._channels:
                self._broker.publish(
                    channel, TimeTickRecord(ts=ts, source=self.source))
                self._last_tick_ms[channel] = now
        self.ticks_emitted += 1
