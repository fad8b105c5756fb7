"""Wall-clock spans around the layers' public entry points.

Installed only for a ``--trace 1`` lifecycle and removed afterwards, from
the benchmark's own files: nothing under ``src/`` knows it is being
timed.  A span is ``[name, start, end, parent, value]`` appended to one
in-memory list; ``parent`` is the index of the enclosing span (-1 at the
top of a stack).  The op that caused a top-level span is recovered later
from the workload's own ``(kind, step, start, end)`` op list — ops run
one after another, so time containment is unambiguous — which keeps the
timed loop identical with tracing on and off.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_right
from typing import Callable, Optional

import repro.index  # noqa: F401 -- registers every VectorIndex subclass
import repro.nodes.proxy as proxy_module
import repro.nodes.query_node as query_node_module
from repro.core.segment import Segment
from repro.index.base import VectorIndex
from repro.log.binlog import BinlogSegmentSink
from repro.log.broker import LogBroker
from repro.log.logger_node import Logger, LoggerService
from repro.nodes.data_node import DataNode
from repro.nodes.index_node import IndexNode
from repro.nodes.proxy import Proxy
from repro.nodes.query_node import QueryNode
from repro.sim.events import EventLoop
from repro.storage.lsm import LsmTree
from repro.storage.object_store import ObjectStore

from clock import wall

NAME, START, END, PARENT, VALUE = range(5)

#: (owner, attribute, span name, value captured from (args, result)).
#: The value is whatever the ledger needs besides time: bytes moved,
#: rows built, virtual ms charged, sealed or growing.
_WRAPS: list[tuple[object, str, str, Optional[Callable]]] = [
    (Proxy, "search", "proxy.search", None),
    (Proxy, "insert", "proxy.insert", None),
    (Proxy, "delete", "proxy.delete", None),
    (LoggerService, "insert", "logger.insert", None),
    (LoggerService, "delete", "logger.delete", None),
    (Logger, "publish_batch", "logger.publish_batch", None),
    (LsmTree, "put_many", "lsm.put_many", None),
    (LogBroker, "publish", "broker.publish", None),
    (Segment, "append", "segment.append", None),
    (Segment, "search", "segment.search",
     lambda args, out: args[0].is_sealed),
    (proxy_module, "merge_topk", "proxy.merge_topk", None),
    (query_node_module, "merge_topk", "query_node.merge_topk", None),
    (QueryNode, "search", "query_node.search",
     lambda args, out: out[1]),  # virtual service ms
    (QueryNode, "load_segment", "query_node.load_segment", None),
    (QueryNode, "attach_index", "query_node.attach_index", None),
    (DataNode, "seal_and_flush", "data_node.seal_and_flush", None),
    (BinlogSegmentSink, "add_chunk", "binlog.add_chunk", None),
    (BinlogSegmentSink, "finish", "binlog.finish", None),
    (IndexNode, "submit_build", "index_node.submit_build", None),
    (ObjectStore, "put", "object_store.put",
     lambda args, out: (args[1], len(args[2]))),  # key, bytes
    (ObjectStore, "get", "object_store.get",
     lambda args, out: (args[1], len(out))),
    (EventLoop, "step", "loop.step", None),
]


def _index_classes() -> list[type]:
    """Every VectorIndex subclass (the registry's classes and their
    bases), in a stable order."""
    found: list[type] = []
    stack = [VectorIndex]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls not in found:
                found.append(cls)
                stack.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             value: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = wall()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = wall()
                stack.pop()
            if value is not None:
                span[VALUE] = value(args, out)
            return out

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, value in _WRAPS:
            self._patch(owner, attr,
                        self.wrap(name, owner.__dict__[attr], value))
        for cls in _index_classes():
            if "build" in cls.__dict__:
                self._patch(cls, "build", self.wrap(
                    "index.build", cls.__dict__["build"],
                    lambda args, out: (args[0].index_type,
                                       args[1].shape[0])))
            if "search" in cls.__dict__:
                self._patch(cls, "search", self.wrap(
                    "index.search", cls.__dict__["search"]))
        self._patch(LogBroker, "subscribe",
                    self._subscribe(LogBroker.__dict__["subscribe"]))

    def _subscribe(self, subscribe: Callable) -> Callable:
        """Wrap the delivery callback handed to ``LogBroker.subscribe``,
        labelled by the kind of subscriber (``query-node:qn-0`` ->
        ``broker.deliver.query-node``)."""
        recorder = self

        @functools.wraps(subscribe)
        def traced(broker, channel, name, from_offset=0, callback=None):
            if callback is not None:
                label = "broker.deliver." + name.split(":", 1)[0]
                callback = recorder.wrap(label, callback)
            return subscribe(broker, channel, name, from_offset, callback)

        return traced

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def roots(self) -> list[int]:
        """For each span, the index of its top-level ancestor."""
        top: list[int] = []
        for index, span in enumerate(self.spans):
            top.append(index if span[PARENT] < 0 else top[span[PARENT]])
        return top

    def op_of(self, ops: list[tuple]) -> list[int]:
        """For each span, the index in ``ops`` of the op whose interval
        contains its top-level ancestor (-1: ran between ops)."""
        starts = [op[2] for op in ops]
        owner: list[int] = []
        for root in self.roots():
            start = self.spans[root][START]
            at = bisect_right(starts, start) - 1
            owner.append(at if at >= 0 and start <= ops[at][3] else -1)
        return owner

    def has_ancestor(self, prefix: str) -> list[bool]:
        """Whether each span sits (strictly) under a span whose name
        starts with ``prefix``."""
        under: list[bool] = []
        for span in self.spans:
            parent = span[PARENT]
            under.append(parent >= 0 and (
                under[parent]
                or self.spans[parent][NAME].startswith(prefix)))
        return under

    def write_chrome_trace(self, path: str, ops: list[tuple]) -> None:
        """Chrome trace-event JSON (open in Perfetto / chrome://tracing):
        one complete ('X') event per op root and per span, microseconds
        from the first op."""
        zero = ops[0][2] if ops else 0.0
        owner = self.op_of(ops)
        events = [{"name": f"op.{kind}", "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - zero) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"op": index, "step": step}}
                  for index, (kind, step, start, end, _size)
                  in enumerate(ops)]
        events += [{"name": span[NAME], "ph": "X", "pid": 1, "tid": 1,
                    "ts": (span[START] - zero) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "args": {"op": owner[index]}}
                   for index, span in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
