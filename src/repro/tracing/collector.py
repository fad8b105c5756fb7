"""TraceCollector: span registry, ambient context and broker hooks.

The collector is the one shared tracing object of a cluster (wired in
:mod:`repro.cluster.manu` next to the :class:`MetricsRegistry`).  It

* mints deterministic trace/span ids from counters (no wall clock, no
  randomness — replays of the same virtual schedule produce identical
  traces);
* keeps an *ambient span stack* so synchronous callees inherit the
  caller's context without explicit plumbing;
* stamps outgoing log records with the current context (``on_publish``)
  and opens delivery spans on the subscriber side (``deliver``), which is
  how causality crosses the broker's asynchronous seam;
* records the *observed* pub/sub topology — every ``(component, action,
  channel)`` edge seen at runtime — so tests can diff it against the
  declared topology in :mod:`repro.log.topology`;
* assembles spans into per-trace trees, computes the critical-path
  breakdown of a search (consistency wait / scan / merge), and exports
  Chrome trace-event JSON.

Head-based sampling: every ``sample_every``-th root span is sampled; the
decision is inherited from the parent, and every span of an unsampled
request is still built (span ids count it) but never recorded.  Only a
sampled root opens a trace; traces are retained FIFO up to
``max_traces``, and a span whose trace is no longer retained is not
recorded.

Cost: a span is one :class:`Span` plus, for a ``with`` block, one
``__slots__`` scope object; a child reads its ids off the parent span,
and a span recorded already finished (:meth:`TraceCollector.record_span`)
never enters the open-span table.  A finished span with finished children
(:meth:`TraceCollector.record_tree`) reserves its ids as one block and is
kept as one record, made into spans when its trace is read.  A delivery
of an untraced record costs one attribute read and the shared detached
scope.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Callable, Optional

from repro.tracing.context import TraceContext
from repro.tracing.span import SPAN_ERROR, SPAN_INCOMPLETE, Span

_MISSING = object()

#: component-name prefix -> module (relative to ``src/repro``) that runs
#: it.  Components are ``prefix`` or ``prefix:<instance>``; this is the
#: bridge from *observed* span topology back to the *declared* pub/sub
#: topology of ``log/topology.py``.
COMPONENT_MODULES: dict[str, str] = {
    "proxy": "nodes/proxy.py",
    "logger": "log/logger_node.py",
    "data-node": "nodes/data_node.py",
    "data-node-coord": "nodes/data_node.py",
    "query-node": "nodes/query_node.py",
    "index-node": "nodes/index_node.py",
    "data-coord": "coord/data.py",
    "query-coord": "coord/query.py",
    "index-coord": "coord/index_coord.py",
    "root-coord": "coord/root.py",
    "timetick": "log/timetick.py",
    "keyword-coproc": "coproc/keyword.py",
    "wal-archiver": "log/archive.py",
}


def component_module(component: str) -> Optional[str]:
    """Module implementing a span/subscription component name."""
    return COMPONENT_MODULES.get(component.split(":", 1)[0])


class _Scope:
    """``with`` block of one span (:meth:`TraceCollector.span`): ambient
    inside, closed at exit — ``status="error"`` when an exception escapes."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "TraceCollector", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._stack.pop()
        if self._span.end_ms is None:
            self._tracer.finish_span(
                self._span, status=None if exc_type is None else SPAN_ERROR)


class _Ambient:
    """``with`` block that makes a span — or, for None, no span — the
    ambient context and leaves it open at exit."""

    __slots__ = ("_stack", "_span")

    def __init__(self, stack: list, span: Optional[Span]) -> None:
        self._stack = stack
        self._span = span

    def __enter__(self) -> Optional[Span]:
        self._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.pop()


class _Tree:
    """A finished span and its finished children, as recorded by
    :meth:`TraceCollector.record_tree`: what its spans are made of, kept
    in its trace's span list until the trace is read."""

    __slots__ = ("trace_id", "parent_id", "first", "name", "component",
                 "start_ms", "end_ms", "tags", "children")

    def __init__(self, trace_id: str, parent_id: Optional[str], first: int,
                 name: str, component: str, start_ms: float, end_ms: float,
                 tags: dict, children: Optional[Callable]) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.first = first
        self.name = name
        self.component = component
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.tags = tags
        self.children = children

    def spans(self) -> list[Span]:
        """The span, then its children in order, ids numbered on."""
        trace_id, component = self.trace_id, self.component
        head = Span(trace_id, f"s{self.first:06d}", self.parent_id,
                    self.name, component, self.start_ms, True, self.tags)
        head.end_ms = max(float(self.end_ms), head.start_ms)
        spans = [head]
        if self.children is not None:
            for n, (name, start_ms, end_ms, tags) in enumerate(
                    self.children(), self.first + 1):
                span = Span(trace_id, f"s{n:06d}", head.span_id, name,
                            component, start_ms, True, tags)
                span.end_ms = max(float(end_ms), span.start_ms)
                spans.append(span)
        return spans


class TraceCollector:
    """Cluster-wide span registry over a virtual clock."""

    def __init__(self, clock_ms: Optional[Callable[[], float]] = None,
                 enabled: bool = True, sample_every: int = 1,
                 max_traces: int = 256) -> None:
        self._clock = clock_ms if clock_ms is not None else (lambda: 0.0)
        self.enabled = enabled and sample_every > 0
        self.sample_every = max(1, sample_every)
        self.max_traces = max(1, max_traces)
        self._trace_seq = itertools.count()
        self._span_seq = itertools.count()
        # trace id -> spans in creation order (dict preserves insertion
        # order, which drives FIFO eviction).
        self._traces: dict[str, list[Span]] = {}
        self._open: dict[str, Span] = {}
        # The ambient span stack; a None entry is a detached frame (no
        # ambient context), so the list is never swapped out.
        self._stack: list[Optional[Span]] = []
        self._detached = _Ambient(self._stack, None)
        self._edges: set[tuple[str, str, str]] = set()
        self.dropped_traces = 0
        self.unsampled_roots = 0

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """Context of the innermost ambient span (None outside any)."""
        span = self._stack[-1] if self._stack else None
        return None if span is None else span.context

    def current_wire(self) -> Optional[tuple]:
        """Wire form of :meth:`current` for deferred-callback capture."""
        span = self._stack[-1] if self._stack else None
        if span is None or not span.sampled:
            return None
        return span.wire

    def start_span(self, name: str, component: str,
                   parent: Optional[TraceContext] = None,
                   start_ms: Optional[float] = None, **tags) -> Span:
        """Open a span; roots take the head-based sampling decision."""
        return self._start(name, component, parent, start_ms, tags, True)

    def _start(self, name: str, component: str, parent, start_ms, tags: dict,
               track: bool) -> Span:
        """:meth:`start_span`; ``parent`` is a context, a span or None (the
        ambient span).  ``track=False`` is for a span closed before
        anything else runs: it skips the open-span table."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if parent is not None:
            return self._new(parent.trace_id, parent.span_id,
                             parent.sampled and self.enabled, name,
                             component, start_ms, tags, track)
        n = next(self._trace_seq)
        sampled = self.enabled and n % self.sample_every == 0
        if not sampled:
            self.unsampled_roots += 1
        return self._new(f"t{n:06d}", None, sampled, name, component,
                         start_ms, tags, track)

    def _new(self, trace_id: str, parent_id: Optional[str], sampled: bool,
             name: str, component: str, start_ms, tags: dict,
             track: bool) -> Span:
        """Mint a span and record it.  Only a sampled root opens a trace:
        a child whose trace is not retained (evicted, e.g. a replayed
        WAL record's delivery) is built but not recorded."""
        span = Span(trace_id, f"s{next(self._span_seq):06d}", parent_id,
                    name, component,
                    self._clock() if start_ms is None else start_ms,
                    sampled, tags)
        if sampled:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                if parent_id is not None:
                    return span
                bucket = self._traces[trace_id] = []
                self._evict()
            bucket.append(span)
            if track:
                self._open[span.span_id] = span
        return span

    def finish_span(self, span: Span, end_ms: Optional[float] = None,
                    status: Optional[str] = None) -> None:
        """Close a span (idempotent); clamps to a non-negative duration."""
        if span.end_ms is not None:
            return
        end = self._clock() if end_ms is None else float(end_ms)
        span.end_ms = max(end, span.start_ms)
        if status is not None:
            span.status = status
        self._open.pop(span.span_id, None)

    def span(self, name: str, component: str,
             parent: Optional[TraceContext] = None,
             **tags) -> "_Scope":
        """Open a span for the duration of a ``with`` block.

        The span becomes ambient (children started inside inherit it); an
        exception escaping the block closes it with ``status="error"``.
        """
        return _Scope(self, self._start(name, component, parent, None, tags,
                                        True))

    def activate(self, span: Span) -> "_Ambient":
        """Make an already-open span ambient without closing it on exit.

        Used by deferred completions (flush/build announcements) that must
        publish *under* a span opened earlier in virtual time.
        """
        return _Ambient(self._stack, span)

    def detached(self) -> "_Ambient":
        """Run a block with no ambient context.

        Scheduled events execute inside whatever frame happens to step the
        virtual clock; the cluster's event loop runs every one of them
        under this scope (``EventLoop.detached``), so time-tick fan-out,
        seal retries and batch-window flushes are neither attributed to
        nor stamped with a bystander's context.
        """
        return self._detached

    def record_span(self, name: str, component: str,
                    parent: Optional[TraceContext] = None,
                    start_ms: float = 0.0, end_ms: float = 0.0,
                    **tags) -> Span:
        """Record an already-completed span with an explicit window."""
        span = self._start(name, component, parent, start_ms, tags, False)
        span.end_ms = max(float(end_ms), span.start_ms)
        return span

    def record_tree(self, name: str, component: str, parent,
                    start_ms: float, end_ms: float, tags: dict,
                    count: int = 0,
                    children: Optional[Callable[[], list]] = None) -> None:
        """Record an already-completed span under ``parent`` (a context
        or a span) with an explicit window and ``tags`` — and, where it
        is sampled, its ``count`` finished children, which
        ``children()`` returns as ``(name, start_ms, end_ms, tags)`` in
        order.  The same spans, ids and windows as :meth:`record_span`
        for the span and then for each child under it, with the ids
        reserved as one block; ``children`` is called only when the
        trace is read, so what it reads must not change after the
        call."""
        first = next(self._span_seq)
        if not (parent.sampled and self.enabled):
            return
        if count:
            self._span_seq = itertools.count(first + 1 + count)
        bucket = self._traces.get(parent.trace_id)
        if bucket is not None:
            bucket.append(_Tree(parent.trace_id, parent.span_id, first, name,
                                component, start_ms, end_ms, tags,
                                children if count else None))

    def _spans_of(self, trace_id: str) -> list:
        """A retained trace's spans in creation order (empty when it is
        not retained), its recorded trees made into spans."""
        spans = self._traces.get(trace_id, ())
        if any(type(span) is _Tree for span in spans):
            spans[:] = [made for span in spans
                        for made in (span.spans() if type(span) is _Tree
                                     else (span,))]
        return spans

    def mark_incomplete(self, component: str) -> list[Span]:
        """Close every open span of a component as ``incomplete``.

        Called on component failure (e.g. a killed query node) so its
        in-flight spans stay visible but are flagged as never finishing.
        """
        marked = []
        for span in list(self._open.values()):
            if span.component == component:
                self.finish_span(span, status=SPAN_INCOMPLETE)
                marked.append(span)
        return marked

    # ------------------------------------------------------------------
    # broker hooks (context across the publish/deliver seam)
    # ------------------------------------------------------------------

    def on_publish(self, channel: str, payload):
        """Stamp an outgoing record with the ambient context.

        Returns the payload to append: a ``dataclasses.replace`` copy with
        ``trace`` set when the record supports it, is not already stamped,
        and a sampled span is ambient; otherwise the payload unchanged.
        Also records the observed ``publish`` edge.
        """
        span = self._stack[-1] if self._stack else None
        if span is None or not span.sampled:
            return payload
        self._edges.add((span.component, "publish", channel))
        # trace is None: traceable and not yet stamped
        if getattr(payload, "trace", _MISSING) is None \
                and dataclasses.is_dataclass(payload):
            return dataclasses.replace(payload, trace=span.wire)
        return payload

    def deliver(self, subscriber: str, entry) -> "_Ambient | _Scope":
        """Span around one pushed delivery, parented to the record's ctx.

        Enters as None (and traces nothing) for records without metadata,
        so untraced traffic — time-ticks by default — costs nothing.  The
        delivery always runs :meth:`detached` from the frame stepping the
        clock: a record's causal parent is its publisher, never the
        bystander request whose wait loop happened to drive the delivery
        (the delivery span itself is the whole ambient context).
        """
        payload = entry.payload
        wire = getattr(payload, "trace", None)
        if wire is None or not self.enabled:
            return self._detached
        self._edges.add((subscriber, "subscribe", entry.channel))
        trace_id, span_id, _parent_id, sampled = wire
        kind = getattr(payload, "kind", type(payload).__name__)
        return _Scope(self, self._new(
            trace_id, span_id, bool(sampled) and self.enabled, "log.deliver",
            subscriber, None, {"channel": entry.channel, "kind": kind,
                               "offset": entry.offset}, True))

    def observed_edges(self) -> set[tuple[str, str, str]]:
        """Runtime ``(component, action, channel)`` edges seen so far."""
        return set(self._edges)

    # ------------------------------------------------------------------
    # trace queries
    # ------------------------------------------------------------------

    def trace_ids(self) -> list[str]:
        return list(self._traces)

    def spans(self, trace_id: str) -> list[Span]:
        return list(self._spans_of(trace_id))

    def spans_named(self, name: str) -> list[Span]:
        """All retained spans with a given name, in creation order."""
        return [span for trace_id in list(self._traces)
                for span in self._spans_of(trace_id) if span.name == name]

    def root(self, trace_id: str) -> Optional[Span]:
        for span in self._spans_of(trace_id):
            if span.parent_id is None:
                return span
        return None

    def span_tree(self, trace_id: str) -> dict[Optional[str], list[Span]]:
        """parent span id -> children (roots under the ``None`` key)."""
        tree: dict[Optional[str], list[Span]] = {}
        for span in self._spans_of(trace_id):
            tree.setdefault(span.parent_id, []).append(span)
        return tree

    def trace_complete(self, trace_id: str) -> bool:
        """Whether every span finished and none was marked incomplete."""
        spans = self._spans_of(trace_id)
        if not spans:
            return False
        return all(span.finished and span.status != SPAN_INCOMPLETE
                   for span in spans)

    # ------------------------------------------------------------------
    # critical-path attribution
    # ------------------------------------------------------------------

    def breakdown(self, trace_id: str) -> dict[str, float]:
        """Phase attribution of one search trace (all virtual ms).

        ``consistency_wait_ms`` sums the proxy-side wait spans, ``scan_ms``
        is the envelope of the per-node scan spans (nodes run in
        parallel), ``merge_ms`` sums the proxy merge spans.  With the
        span layout the proxy emits, the three cover the root span's
        duration exactly; ``other_ms`` is whatever remains.
        """
        spans = self._spans_of(trace_id)
        wait_ms = sum(span.duration_ms or 0.0 for span in spans
                      if span.name == "proxy.consistency_wait")
        merge_ms = sum(span.duration_ms or 0.0 for span in spans
                       if span.name == "proxy.merge")
        scans = [span for span in spans
                 if span.name == "query_node.scan" and span.finished]
        scan_ms = (max(span.end_ms for span in scans)
                   - min(span.start_ms for span in scans)) if scans else 0.0
        root = self.root(trace_id)
        latency_ms = (root.duration_ms or 0.0) if root is not None else 0.0
        return {
            "consistency_wait_ms": wait_ms,
            "scan_ms": scan_ms,
            "merge_ms": merge_ms,
            "latency_ms": latency_ms,
            "other_ms": latency_ms - (wait_ms + scan_ms + merge_ms),
        }

    # ------------------------------------------------------------------
    # Chrome trace-event export
    # ------------------------------------------------------------------

    def to_chrome_trace(self, trace_id: Optional[str] = None) -> dict:
        """Chrome trace-event form (load in chrome://tracing / Perfetto).

        One process per trace, one thread per component; complete ("X")
        events carry microsecond ``ts``/``dur`` plus span args, and "M"
        metadata events name the processes and threads.
        """
        targets = [trace_id] if trace_id is not None else self.trace_ids()
        events: list[dict] = []
        for pid, tid_name in enumerate(targets, start=1):
            spans = self._spans_of(tid_name)
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": f"trace {tid_name}"}})
            threads: dict[str, int] = {}
            for span in spans:
                tid = threads.setdefault(span.component, len(threads) + 1)
                end = span.end_ms if span.end_ms is not None \
                    else span.start_ms
                args = {"span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "status": span.status}
                args.update(span.tags)
                events.append({
                    "name": span.name,
                    "cat": span.component,
                    "ph": "X",
                    "ts": span.start_ms * 1000.0,
                    "dur": (end - span.start_ms) * 1000.0,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                })
            for component, tid in threads.items():
                events.append({"name": "thread_name", "ph": "M",
                               "pid": pid, "tid": tid,
                               "args": {"name": component}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, trace_id: Optional[str] = None) -> str:
        return json.dumps(self.to_chrome_trace(trace_id), indent=1)

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------

    def _evict(self) -> None:
        while len(self._traces) > self.max_traces:
            evicted_id = next(iter(self._traces))
            del self._traces[evicted_id]
            for span_id in [span_id for span_id, span in self._open.items()
                            if span.trace_id == evicted_id]:
                del self._open[span_id]
            self.dropped_traces += 1


#: Shared disabled collector: components constructed without a tracer fall
#: back to this, so the instrumentation never needs None checks.
NOOP_TRACER = TraceCollector(enabled=False)
