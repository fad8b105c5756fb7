"""The former accounting under today's read path.

``tests/reference/reduce.py``'s ``reference_path`` swaps the per-segment
node loop, the merge loops and the former ``Proxy._observe_node``
(``tests/reference/accounting.py``) into the proxy.  That observation
built a profiled read's EXPLAIN stages beside its spans; a read's stages
are now its spans, tagged with their counters, and ``_observe_node`` is
called without a profile.  :func:`former_path` runs the former
observation under today's call and moves what its stages hold onto the
spans it recorded, so a profile read through it comes from the former
ledger alone.
"""

import contextlib

from repro.nodes.proxy import Proxy
from tests.reference.accounting import reference_observe_node
from tests.reference.reduce import reference_path


class _Stage:
    """What the former observation builds a node's EXPLAIN stage on: a
    profile (``node_stage``) and its stages (``child``)."""

    def __init__(self, **meta):
        self.meta, self.counters, self.children = meta, {}, []

    def child(self, name, **meta):
        self.children.append(_Stage(**meta))
        return self.children[-1]

    def node_stage(self, name):
        return self.child("query_node.scan", node=name)


def former_observe_node(self, req, parent, name, ready_ms, start_ms,
                        service_ms, work):
    """``reference_observe_node`` under today's call; under a profile its
    node stage's counters, and each child stage's path, rows and
    counters, become tags of the spans it recorded."""
    profile = _Stage() if req.merge_stats is not None else None
    first = len(self._tracer.spans(parent.trace_id))
    reference_observe_node(self, req, profile, parent, name, ready_ms,
                           start_ms, service_ms, work)
    if profile is not None:
        (stage,) = profile.children
        node, *children = self._tracer.spans(parent.trace_id)[first:]
        node.tags.update(stage.counters)
        for span, child in zip(children, stage.children):
            span.tags.update({key: value for key, value
                              in child.meta.items() if key != "segment"},
                             **child.counters)


@contextlib.contextmanager
def former_path(monkeypatch):
    """``reference_path`` with :func:`former_observe_node` as the proxy's
    observation."""
    with reference_path(monkeypatch), monkeypatch.context() as patch:
        patch.setattr(Proxy, "_observe_node", former_observe_node)
        yield
