"""Spans: one timed operation at one component, in virtual time.

A span records an interval ``[start_ms, end_ms]`` on the cluster's virtual
clock plus its position in the causal tree (trace/span/parent ids), the
component that executed it (``proxy:proxy-0``, ``query-node:qn-1``, ...)
and free-form tags.  Spans are mutable while open — the collector closes
them, possibly with an explicit virtual end time when the operation's
completion is scheduled in the future (flush announcements, index builds).

A span is its own parent handle: a child reads the trace id, span id and
sampling bit straight off it (a :class:`TraceContext` is built only when
:attr:`Span.context` is asked for), and :attr:`Span.wire` is the tuple a
record carries across the broker.
"""

from __future__ import annotations

from typing import Optional

from repro.tracing.context import TraceContext

SPAN_OK = "ok"
SPAN_ERROR = "error"
SPAN_INCOMPLETE = "incomplete"


class Span:
    """One node of a request's causal tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "component",
                 "start_ms", "end_ms", "status", "tags", "sampled")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, component: str,
                 start_ms: float, sampled: bool = True,
                 tags: Optional[dict] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.component = component
        self.start_ms = float(start_ms)
        self.end_ms: Optional[float] = None
        self.status = SPAN_OK
        # Kept, not copied: the collector hands each span a dict of its own.
        self.tags: dict = {} if tags is None else tags
        self.sampled = sampled

    @property
    def context(self) -> TraceContext:
        """Context presenting *this* span as the parent of new children."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id,
                            parent_id=self.parent_id, sampled=self.sampled)

    @property
    def wire(self) -> tuple:
        """``context.to_wire()`` without building the context."""
        return (self.trace_id, self.span_id, self.parent_id, self.sampled)

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, component={self.component!r}, "
                f"trace={self.trace_id}, span={self.span_id}, "
                f"parent={self.parent_id}, start={self.start_ms}, "
                f"end={self.end_ms}, status={self.status!r})")
