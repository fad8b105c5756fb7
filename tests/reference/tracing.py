"""The span collector's former hot path: generator context managers, a
:class:`TraceContext` built for every child, ``from_wire`` on every
delivery, every span through the open-span table.
:class:`ReferenceTraceCollector` swaps these methods into the current
collector, so a cluster built with it records what the former collector
recorded; ``tests/test_tracing_reference.py`` holds the two equal.

One rule differs on purpose: here a span of a trace that is no longer
retained opens its trace again (a replayed delivery resurrects an
evicted trace and evicts a live one).  Scripts compared against this
oracle keep ``max_traces`` above the number of traces they create.
"""

import dataclasses
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.tracing import TraceCollector, TraceContext
from repro.tracing.span import SPAN_ERROR, Span

_MISSING = object()


class ReferenceTraceCollector(TraceCollector):
    """:class:`TraceCollector` with its former span lifecycle."""

    def current(self) -> Optional[TraceContext]:
        return self._stack[-1].context if self._stack else None

    def current_wire(self) -> Optional[tuple]:
        span = self._stack[-1] if self._stack else None
        if span is None or not span.sampled:
            return None
        return span.context.to_wire()

    def start_span(self, name: str, component: str,
                   parent: Optional[TraceContext] = None,
                   start_ms: Optional[float] = None, **tags) -> Span:
        if parent is None:
            parent = self.current()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled and self.enabled
        else:
            n = next(self._trace_seq)
            trace_id = f"t{n:06d}"
            parent_id = None
            sampled = self.enabled and n % self.sample_every == 0
            if not sampled:
                self.unsampled_roots += 1
        span = Span(trace_id=trace_id, span_id=f"s{next(self._span_seq):06d}",
                    parent_id=parent_id, name=name, component=component,
                    start_ms=self._clock() if start_ms is None
                    else float(start_ms),
                    sampled=sampled)
        if tags:
            span.tags.update(tags)
        if sampled:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                bucket = self._traces[trace_id] = []
                self._evict()
            bucket.append(span)
            self._open[span.span_id] = span
        return span

    def finish_span(self, span: Span, end_ms: Optional[float] = None,
                    status: Optional[str] = None) -> None:
        if span.end_ms is not None:
            return
        end = self._clock() if end_ms is None else float(end_ms)
        span.end_ms = max(end, span.start_ms)
        if status is not None:
            span.status = status
        self._open.pop(span.span_id, None)

    @contextmanager
    def span(self, name: str, component: str,
             parent: Optional[TraceContext] = None,
             **tags) -> Iterator[Span]:
        opened = self.start_span(name, component, parent=parent, **tags)
        self._stack.append(opened)
        ok = False
        try:
            yield opened
            ok = True
        finally:
            self._stack.pop()
            if opened.end_ms is None:
                self.finish_span(opened,
                                 status=None if ok else SPAN_ERROR)

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    @contextmanager
    def detached(self) -> Iterator[None]:
        saved, self._stack = self._stack, []
        try:
            yield
        finally:
            self._stack = saved

    def record_span(self, name: str, component: str,
                    parent: Optional[TraceContext] = None,
                    start_ms: float = 0.0, end_ms: float = 0.0,
                    **tags) -> Span:
        span = self.start_span(name, component, parent=parent,
                               start_ms=start_ms, **tags)
        self.finish_span(span, end_ms=end_ms)
        return span

    def record_tree(self, name: str, component: str, parent,
                    start_ms: float, end_ms: float, tags: dict,
                    count: int = 0, children=None) -> None:
        head = self.record_span(name, component, parent=parent,
                                start_ms=start_ms, end_ms=end_ms, **tags)
        if count and head.sampled:
            for child, child_start, child_end, child_tags in children():
                self.record_span(child, component, parent=head.context,
                                 start_ms=child_start, end_ms=child_end,
                                 **child_tags)

    def on_publish(self, channel: str, payload):
        span = self._stack[-1] if self._stack else None
        if span is None or not span.sampled:
            return payload
        self._edges.add((span.component, "publish", channel))
        if not dataclasses.is_dataclass(payload):
            return payload
        wire = getattr(payload, "trace", _MISSING)
        if wire is None:
            return dataclasses.replace(payload,
                                       trace=span.context.to_wire())
        return payload

    @contextmanager
    def deliver(self, subscriber: str, entry) -> Iterator[Optional[Span]]:
        with self.detached():
            parent = TraceContext.from_wire(getattr(entry.payload, "trace",
                                                    None))
            if parent is None or not self.enabled:
                yield None
                return
            self._edges.add((subscriber, "subscribe", entry.channel))
            kind = getattr(entry.payload, "kind",
                           type(entry.payload).__name__)
            with self.span("log.deliver", subscriber, parent=parent,
                           channel=entry.channel, kind=kind,
                           offset=entry.offset) as span:
                yield span
