"""Virtual clock for deterministic timing experiments.

All components of the cluster read time from a :class:`VirtualClock` instead
of the wall clock.  Time is a float in *milliseconds* since cluster start.
Only the event loop (or a test) may advance it, and it can never go backwards.

The clock also owns the *tie-break* question: when several events are due at
the same virtual millisecond, which runs first?  The seed behaviour is FIFO
(scheduling order), which makes runs deterministic but only ever exercises
one legal interleaving.  A :class:`ShuffledSchedulePolicy` — armed with
``MANU_RACE=<seed>`` — replaces the tie-break with a seeded permutation, so
the same scenario can be replayed under many legal same-tick orders and any
order-dependent outcome is pinned to the seed that produced it
(``manu-race``, swept by ``python -m repro.race``).
"""

from __future__ import annotations

import os
import zlib
from typing import Optional

#: environment variable arming the schedule-shuffle sanitizer.  Unset or
#: empty keeps the FIFO seed behaviour; ``fifo`` is an explicit no-op; any
#: integer (``0`` included) selects a seeded permutation of same-timestamp
#: execution order.
MANU_RACE_ENV = "MANU_RACE"

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a deterministic, platform-stable bit mixer.

    Used instead of :mod:`random` so the tie-break needs no hidden state
    and two processes given the same seed produce byte-identical
    schedules (builtin ``hash`` is salted per process; this is not).
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SchedulePolicy:
    """Decides execution order among events due at the same virtual time.

    The event loop asks :meth:`tiebreak` for an ordering key when an event
    is scheduled; the broker asks :meth:`delivery_delay_ms` when it
    schedules a push-delivery flush.  The base class is the FIFO seed
    behaviour: tie-break equals scheduling sequence and delivery delay is
    passed through untouched, so attaching it changes nothing.
    """

    name = "fifo"
    seed: Optional[int] = None

    def tiebreak(self, seq: int) -> int:
        """Ordering key among same-timestamp events (smaller runs first)."""
        return seq

    def delivery_delay_ms(self, base_ms: float, key: str, n: int) -> float:
        """Delay for the ``n``-th delivery flush of subscription ``key``.

        Policies may stretch (never shrink) the delay: per-subscription
        entry order is preserved by the broker regardless, so the only
        legal perturbation is *when* a subscriber's flush lands relative
        to other subscribers' — exactly the reorder bound delta
        consistency tolerates (paper §3.4: per-channel LSN order is the
        contract, cross-channel timing is not).
        """
        return base_ms

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(seed={self.seed!r})"


#: module-level FIFO instance shared by every unarmed loop/broker.
FIFO_POLICY = SchedulePolicy()


class ShuffledSchedulePolicy(SchedulePolicy):
    """Seeded permutation of same-timestamp execution order.

    ``tiebreak`` maps the scheduling sequence number through SplitMix64
    keyed by the seed, so events that collide on a virtual timestamp run
    in a pseudo-random — but fully seed-reproducible — order.  Delivery
    flushes are additionally jittered within ``[base, 2*base)`` so pushes
    to different subscribers interleave differently while each
    subscription still consumes its channel strictly in offset order.
    """

    name = "shuffle"

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._salt = _mix64(self.seed ^ 0xA5C1_55E5_0000_0001)

    def tiebreak(self, seq: int) -> int:
        return _mix64(self._salt ^ _mix64(seq))

    def delivery_delay_ms(self, base_ms: float, key: str, n: int) -> float:
        if base_ms <= 0.0:
            return base_ms
        h = _mix64(self._salt
                   ^ zlib.crc32(key.encode("utf-8"))
                   ^ _mix64(n + 0x5151))
        return base_ms * (1.0 + h / float(1 << 64))


def race_seed(env: Optional[str] = None) -> Optional[int]:
    """The ``MANU_RACE`` seed, or ``None`` when the sanitizer is unarmed.

    ``env`` overrides the environment lookup (used by tests and the race
    runner); ``""`` and ``"fifo"`` mean unarmed, anything else must parse
    as an integer seed.
    """
    raw = os.environ.get(MANU_RACE_ENV, "") if env is None else env
    raw = raw.strip()
    if raw == "" or raw.lower() == "fifo":
        return None
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(
            f"{MANU_RACE_ENV} must be an integer seed or 'fifo', "
            f"got {raw!r}") from None


def schedule_policy_from_env(env: Optional[str] = None) -> SchedulePolicy:
    """The schedule policy selected by ``MANU_RACE`` (FIFO when unarmed)."""
    seed = race_seed(env)
    return FIFO_POLICY if seed is None else ShuffledSchedulePolicy(seed)


class VirtualClock:
    """A monotonically advancing virtual clock measured in milliseconds."""

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = float(start_ms)

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def advance_to(self, t_ms: float) -> None:
        """Jump forward to an absolute virtual time.

        Raises ``ValueError`` on an attempt to move backwards, which would
        indicate an event-ordering bug.
        """
        if t_ms < self._now_ms:
            raise ValueError(
                f"clock cannot go backwards: {t_ms} < {self._now_ms}"
            )
        self._now_ms = float(t_ms)

    def advance_by(self, delta_ms: float) -> None:
        """Move forward by a relative amount of virtual time."""
        if delta_ms < 0:
            raise ValueError(f"negative clock delta: {delta_ms}")
        self._now_ms += float(delta_ms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now_ms:.3f}ms)"
