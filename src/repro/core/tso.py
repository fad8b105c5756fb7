"""Central time service oracle (TSO) with hybrid logical clocks.

Section 3.4 of the paper: every request that changes system state receives a
logical sequence number (LSN) from the TSO.  The LSN is a hybrid timestamp
with a *physical* component tracking the virtual clock and a *logical*
counter ordering events that share a physical instant.  Because the physical
component tracks (virtual) wall time closely, users can express staleness
tolerances in physical units and the system can compare them against LSNs
directly.

Timestamps pack into a single 64-bit integer — physical milliseconds in the
high 46 bits, logical counter in the low 18 — mirroring the TiDB/Milvus
convention, so they can be carried in log records as plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass

LOGICAL_BITS = 18
LOGICAL_MASK = (1 << LOGICAL_BITS) - 1


@dataclass(frozen=True, order=True)
class Timestamp:
    """A hybrid logical timestamp (physical ms, logical counter)."""

    physical_ms: int
    logical: int

    def pack(self) -> int:
        """Encode into a single sortable 64-bit integer."""
        return (self.physical_ms << LOGICAL_BITS) | self.logical

    @staticmethod
    def unpack(raw: int) -> "Timestamp":
        """Decode a packed 64-bit timestamp."""
        return Timestamp(raw >> LOGICAL_BITS, raw & LOGICAL_MASK)

    @staticmethod
    def from_physical(ms: float) -> "Timestamp":
        """Timestamp at the start of a physical millisecond (logical 0)."""
        return Timestamp(int(ms), 0)

    def __repr__(self) -> str:
        return f"Ts({self.physical_ms}ms+{self.logical})"


class TimestampOracle:
    """Issues strictly increasing hybrid timestamps off a clock source.

    ``clock_ms`` is any zero-argument callable returning milliseconds — in
    the cluster it is the virtual clock's ``now``.  If the clock stalls (many
    requests inside one virtual millisecond) the logical counter increments;
    if it would overflow, the physical component is pushed forward, which
    keeps timestamps monotonic at the cost of running slightly ahead of the
    clock (the standard HLC behaviour).
    """

    def __init__(self, clock_ms) -> None:
        self._clock_ms = clock_ms
        self._last = Timestamp(-1, 0)
        self._issued = 0

    @property
    def issued_count(self) -> int:
        """Total timestamps handed out (for metrics/tests)."""
        return self._issued

    def allocate(self) -> Timestamp:
        """Return the next strictly increasing timestamp."""
        physical = int(self._clock_ms())
        if physical > self._last.physical_ms:
            ts = Timestamp(physical, 0)
        elif self._last.logical < LOGICAL_MASK:
            ts = Timestamp(self._last.physical_ms, self._last.logical + 1)
        else:
            ts = Timestamp(self._last.physical_ms + 1, 0)
        self._last = ts
        self._issued += 1
        return ts

    def allocate_packed(self) -> int:
        """Allocate and return the packed 64-bit form."""
        return self.allocate().pack()
