"""Declared pub/sub topology of the log backbone (DESIGN.md §2, §6b).

Manu routes *everything* through the shared log (paper §3.3): WAL shard
channels carry row data and time-ticks, ``wal/coord`` carries seal/flush
control records, ``wal/ddl`` carries schema changes, and binlog segments
are written by data nodes only.  This module is the machine-checkable form
of that paragraph: which module may publish or subscribe to each channel
*group*.  The ``pubsub-topology`` pass recovers the actual graph from call
sites and diffs it against these tables; the same tables are the golden
reference for ``tests/test_analysis_passes.py``.

Channel groups
--------------
``wal-shard``
    ``wal/<collection>/shard-<n>`` data channels (``shard_channel()``).
``ddl`` / ``coord``
    The two control channels (``LogConfig.ddl_channel`` /
    ``LogConfig.coord_channel``).
``*``
    Statically undetermined channels — permitted only for the modules in
    :data:`ALLOW_DYNAMIC` (infrastructure that replicates or ticks
    arbitrary channels).

Modules are identified by their path relative to the analysis root
(``src/repro``), e.g. ``log/logger_node.py``.
"""

from __future__ import annotations

import re

WAL_SHARD = "wal-shard"
DDL = "ddl"
COORD = "coord"
DYNAMIC_GROUP = "*"

_SHARD_RE = re.compile(r"wal/[^/]+/shard-[^/]+$")

#: channel group -> modules allowed to ``broker.publish`` on it.
DECLARED_PUBLISHERS: dict[str, frozenset[str]] = {
    WAL_SHARD: frozenset({
        # Only logger nodes put rows/deletes on the WAL (paper §3.3).
        "log/logger_node.py",
    }),
    DDL: frozenset({
        # Schema changes originate at the root coordinator alone.
        "coord/root.py",
    }),
    COORD: frozenset({
        # Control records: seal decisions (data coord), flush acks (data
        # nodes), index-built notices (index nodes) and shard-migration
        # announcements (the fenced rebalancer).
        "coord/data.py",
        "nodes/data_node.py",
        "nodes/index_node.py",
        "tenancy/rebalancer.py",
    }),
    DYNAMIC_GROUP: frozenset({
        # The archiver restores arbitrary channels into a fresh broker;
        # the time-tick emitter fans out over a runtime-registered list.
        "log/archive.py",
        "log/timetick.py",
    }),
}

#: channel group -> modules allowed to ``broker.subscribe`` to it.
DECLARED_SUBSCRIBERS: dict[str, frozenset[str]] = {
    WAL_SHARD: frozenset({
        "nodes/data_node.py",    # durable path consumer
        "nodes/query_node.py",   # serving path consumer
        "coproc/keyword.py",     # coprocessor side-channel consumer
        "log/archive.py",        # WAL archiver tails every shard channel
    }),
    DDL: frozenset(),            # DDL is replayed via read(), not a sub
    COORD: frozenset({
        "coord/data.py",
        "coord/query.py",
        "coord/index_coord.py",
        "nodes/data_node.py",    # seal decisions addressed to data nodes
    }),
}

#: modules allowed to publish/subscribe channels the analyzer cannot
#: resolve statically (the ``*`` group above, on either action).
ALLOW_DYNAMIC: frozenset[str] = (
    DECLARED_PUBLISHERS[DYNAMIC_GROUP]
    | DECLARED_SUBSCRIBERS.get(DYNAMIC_GROUP, frozenset()))

#: modules allowed to call ``write_segment`` — i.e. to produce binlog
#: segments (paper §3.3: only data nodes write binlog; compaction rewrites
#: existing segments through the same writer).
DECLARED_BINLOG_WRITERS: frozenset[str] = frozenset({
    "nodes/data_node.py",
    "core/compaction.py",
})

#: the broker implementation itself is exempt from the topology rule.
IMPLEMENTATION_MODULES: frozenset[str] = frozenset({
    "log/broker.py",
})


def classify_channel(value: tuple) -> str:
    """Map an abstract channel value from ``summaries`` to a group name.

    Unrecognised literals keep their text (``other:<name>``) so a typo'd
    channel shows up verbatim in the finding.
    """
    kind = value[0]
    if kind == "shard":
        return WAL_SHARD
    if kind == "dynamic":
        return DYNAMIC_GROUP
    text = value[1]
    if text == "wal/ddl":
        return DDL
    if text == "wal/coord":
        return COORD
    if _SHARD_RE.match(text) or (kind == "pattern"
                                 and text.startswith("wal/")
                                 and "shard-" in text):
        return WAL_SHARD
    return f"other:{text}"


def classify_channel_name(name: str) -> str:
    """Group of a concrete runtime channel name (observed topology).

    The runtime tracer records literal channel strings; this maps them
    through the same grouping :func:`classify_channel` applies to the
    abstract values the static pass recovers.
    """
    return classify_channel(("literal", name))


def declared_edges() -> set[tuple[str, str, str]]:
    """The declared graph as ``(module, action, group)`` edges."""
    edges: set[tuple[str, str, str]] = set()
    for group, modules in DECLARED_PUBLISHERS.items():
        for module in modules:
            edges.add((module, "publish", group))
    for group, modules in DECLARED_SUBSCRIBERS.items():
        for module in modules:
            edges.add((module, "subscribe", group))
    return edges


# ----------------------------------------------------------------------
# rendering (the ``--format dot`` / topology JSON artifact)
# ----------------------------------------------------------------------


def topology_to_dict(edges: set[tuple[str, str, str]]) -> dict:
    """JSON-friendly form of a recovered ``(module, action, group)`` set."""
    publishers: dict[str, list[str]] = {}
    subscribers: dict[str, list[str]] = {}
    for module, action, group in sorted(edges):
        table = publishers if action == "publish" else subscribers
        table.setdefault(group, []).append(module)
    return {
        "channels": sorted({group for _, _, group in edges}),
        "publishers": publishers,
        "subscribers": subscribers,
        "matches_declared": edges == declared_edges(),
    }


def topology_to_dot(edges: set[tuple[str, str, str]]) -> str:
    """Graphviz digraph: module -> channel -> module."""
    lines = [
        "digraph manu_pubsub {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    groups = sorted({group for _, _, group in edges})
    for group in groups:
        lines.append(
            f'  "chan:{group}" [label="{group}", shape=ellipse, '
            'style=filled, fillcolor=lightgrey];')
    for module, action, group in sorted(edges):
        if action == "publish":
            lines.append(f'  "{module}" -> "chan:{group}";')
        else:
            lines.append(f'  "chan:{group}" -> "{module}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
