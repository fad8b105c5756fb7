"""Trace context: the identity a request carries across log hops.

A :class:`TraceContext` names one position in one request's causal tree —
the trace it belongs to, the span that is "current", and that span's
parent.  It is immutable and wire-friendly: ``to_wire`` flattens it into a
plain tuple that rides as metadata on WAL records (see the ``trace`` field
of :class:`repro.log.wal.WalRecord`), and ``from_wire`` restores it for a
caller that holds only the tuple, so causality survives the broker's
asynchronous publish/deliver seam.  The collector's own hot path builds
no context: a child reads its ids off the parent :class:`Span`, and a
delivery unpacks the record's tuple itself.

The ``sampled`` flag implements head-based sampling: it is decided once at
the root span and inherited by every descendant, so either a whole request
is traced or none of it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TraceContext:
    """Immutable (trace, span, parent) coordinates of one causal position."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    sampled: bool = True

    def to_wire(self) -> tuple:
        """JSON-safe tuple form carried on log records."""
        return (self.trace_id, self.span_id, self.parent_id, self.sampled)

    @staticmethod
    def from_wire(wire) -> Optional["TraceContext"]:
        """Inverse of :meth:`to_wire`; tolerant of missing/None metadata."""
        if wire is None:
            return None
        trace_id, span_id, parent_id, sampled = wire
        return TraceContext(trace_id=str(trace_id), span_id=str(span_id),
                            parent_id=None if parent_id is None
                            else str(parent_id),
                            sampled=bool(sampled))
