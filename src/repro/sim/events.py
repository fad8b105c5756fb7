"""Discrete-event loop driving the virtual-time cluster.

The loop is a priority queue of ``(time, tiebreak, sequence, callback)``
entries.  Under the default FIFO :class:`~repro.sim.clock.SchedulePolicy`
the tie-break equals the sequence number, so simultaneous events fire in
scheduling order and every run is fully deterministic.  With the
``MANU_RACE=<seed>`` shuffle policy the tie-break is a seeded permutation:
same-timestamp events run in a reproducible but perturbed order, which is
how order-dependent bugs are flushed out (DESIGN.md §6e).  Events can be
cancelled (for example a segment's idle-seal timer is cancelled when a new
insert arrives) and periodic events reschedule themselves until cancelled.

Every callback runs under the context :attr:`EventLoop.detached` returns:
a scheduled event fires inside whatever frame steps the clock, and must
not join (or stamp) that frame's request trace.  The cluster sets it to
its tracer's ``detached``; this module imports no tracing.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from typing import Callable, Optional

from repro.sim.clock import (
    SchedulePolicy,
    VirtualClock,
    schedule_policy_from_env,
)


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time_ms", "tiebreak", "seq", "callback", "cancelled",
                 "name")

    def __init__(self, time_ms: float, seq: int, callback: Callable[[], None],
                 name: str = "", tiebreak: Optional[int] = None) -> None:
        self.time_ms = time_ms
        self.seq = seq
        self.tiebreak = seq if tiebreak is None else tiebreak
        self.callback = callback
        self.cancelled = False
        self.name = name

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call more than once."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time_ms, self.tiebreak, self.seq) \
            < (other.time_ms, other.tiebreak, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name or 'anon'}@{self.time_ms:.3f}ms, {state})"


class EventLoop:
    """Virtual-time event loop.

    ``run_until(t)`` executes every pending event with time <= ``t`` and then
    advances the clock to exactly ``t``; ``run_until_idle()`` drains the queue
    entirely.  Callbacks may schedule further events.
    """

    def __init__(self, clock: Optional[VirtualClock] = None,
                 policy: Optional[SchedulePolicy] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        # ``None`` defers to MANU_RACE so existing call sites pick up the
        # sanitizer without plumbing (same pattern as MANU_CHECK).
        self.policy = policy if policy is not None \
            else schedule_policy_from_env()
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._executed = 0
        # Executed-event trace for seed forensics: the race runner sets
        # this to a list and every executed event appends
        # ``(time_ms, seq, name)`` — the schedule artifact a failing seed
        # uploads so the offending interleaving can be read back.
        self.schedule_log: Optional[list[tuple[float, int, str]]] = None
        # The context every callback runs under (module docstring); a
        # no-op until the cluster sets its tracer's ``detached``.
        self.detached: Callable[[], contextlib.AbstractContextManager] = \
            contextlib.nullcontext

    @property
    def executed_events(self) -> int:
        """Total number of callbacks executed so far (for tests/metrics)."""
        return self._executed

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now()

    def call_at(self, t_ms: float, callback: Callable[[], None],
                name: str = "") -> Event:
        """Schedule ``callback`` to fire at absolute virtual time ``t_ms``.

        Scheduling in the past is clamped to *now* (the event fires on the
        next pump) rather than raising, because distributed components often
        react to messages whose logical timestamp already passed.
        """
        t_ms = max(t_ms, self.clock.now())
        seq = next(self._seq)
        event = Event(t_ms, seq, callback, name,
                      tiebreak=self.policy.tiebreak(seq))
        heapq.heappush(self._queue, event)
        return event

    def call_after(self, delay_ms: float, callback: Callable[[], None],
                   name: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        return self.call_at(self.clock.now() + delay_ms, callback, name)

    def call_every(self, interval_ms: float, callback: Callable[[], None],
                   name: str = "", start_delay_ms: Optional[float] = None,
                   ) -> Event:
        """Schedule ``callback`` periodically until the handle is cancelled.

        Returns a handle whose ``cancel()`` stops the recurrence.  The handle
        stays valid across firings (internally the chain reschedules itself
        but honours the original handle's cancelled flag).
        """
        if interval_ms <= 0:
            raise ValueError(f"non-positive interval: {interval_ms}")
        first_delay = interval_ms if start_delay_ms is None else start_delay_ms
        handle = Event(self.clock.now() + first_delay, next(self._seq),
                       lambda: None, name)

        def fire() -> None:
            if handle.cancelled:
                return
            callback()
            if not handle.cancelled:
                self.call_after(interval_ms, fire, name)

        self.call_at(self.clock.now() + first_delay, fire, name)
        return handle

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if idle."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time_ms if self._queue else None

    def step(self) -> bool:
        """Execute the single next pending event; returns False when idle."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time_ms)
            if self.schedule_log is not None:
                self.schedule_log.append(
                    (event.time_ms, event.seq, event.name))
            with self.detached():
                event.callback()
            self._executed += 1
            return True
        return False

    def run_until(self, t_ms: float) -> None:
        """Run every event scheduled up to ``t_ms`` then land on ``t_ms``."""
        while True:
            nxt = self.peek_time()
            if nxt is None or nxt > t_ms:
                break
            self.step()
        self.clock.advance_to(max(t_ms, self.clock.now()))

    def run_for(self, delta_ms: float) -> None:
        """Run the loop forward by ``delta_ms`` of virtual time."""
        self.run_until(self.clock.now() + delta_ms)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain the queue; returns the number of events executed.

        ``max_events`` guards against runaway self-rescheduling loops (a
        periodic event must be cancelled before calling this).
        """
        count = 0
        while count < max_events and self.step():
            count += 1
        if count >= max_events and self.peek_time() is not None:
            raise RuntimeError(
                "run_until_idle exceeded max_events; "
                "a periodic event is probably still scheduled")
        return count
