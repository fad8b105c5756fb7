"""Ring-buffer slow-query log on the virtual clock.

Requests whose end-to-end virtual latency meets the configured threshold
are captured with their full :class:`~repro.profiling.profile
.QueryProfile` — a view over the request's trace, which an armed log
traces whatever the sampling — so a slow query is one hop from both its
work ledger and its span tree.  The ring evicts FIFO; the flight
recorder embeds ``snapshot()`` into its debug bundles, and
``MANU_SLOWLOG=slowlog.json`` in the quickstart dumps the ring for CI
artifacts.

A threshold of 0 (the default) disables capture entirely: the serving
path then neither promotes nor profiles an un-explained request.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.profiling.profile import QueryProfile


@dataclass(frozen=True)
class SlowQuery:
    """One captured offender: capture time plus its full profile."""

    at_ms: float
    profile: QueryProfile

    @property
    def latency_ms(self) -> float:
        return self.profile.latency_ms

    @property
    def collection(self) -> str:
        return self.profile.collection

    @property
    def trace_id(self):
        return self.profile.trace_id

    @property
    def rows_scanned(self) -> int:
        return int(self.profile.totals().get("rows_scanned", 0))

    def to_dict(self) -> dict:
        return {"at_ms": self.at_ms, "profile": self.profile.to_dict()}


class SlowQueryLog:
    """Bounded FIFO ring of slow-query captures (virtual-time threshold)."""

    def __init__(self, threshold_ms: float = 0.0,
                 capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.threshold_ms = float(threshold_ms)
        self.capacity = int(capacity)
        self._entries: Deque[SlowQuery] = deque(maxlen=capacity)
        #: total captures, including ones since evicted from the ring.
        self.captured_total = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_ms > 0.0

    def observe(self, at_ms: float, profile: QueryProfile) -> bool:
        """Capture ``profile`` if it crossed the threshold; True if kept."""
        if not self.enabled or profile is None:
            return False
        if profile.latency_ms < self.threshold_ms:
            return False
        self._entries.append(SlowQuery(at_ms=float(at_ms),
                                       profile=profile))
        self.captured_total += 1
        return True

    def entries(self) -> list[SlowQuery]:
        """Retained captures, oldest first."""
        return list(self._entries)

    def top(self, n: int = 5) -> list[SlowQuery]:
        """The ``n`` slowest retained captures, slowest first."""
        ranked = sorted(self._entries,
                        key=lambda e: (-e.latency_ms, e.at_ms))
        return ranked[:max(0, n)]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> list[dict]:
        """JSON-ready view (flight recorder bundles, dashboards)."""
        return [entry.to_dict() for entry in self._entries]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps({
            "threshold_ms": self.threshold_ms,
            "capacity": self.capacity,
            "captured_total": self.captured_total,
            "entries": self.snapshot(),
        }, indent=indent, sort_keys=True)

    def dump(self, path: str) -> None:
        """Write the ring to ``path`` as JSON (CI artifact)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
