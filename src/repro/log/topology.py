"""Declared pub/sub topology of the log backbone (DESIGN.md §2, §6b).

Manu routes *everything* through the shared log (paper §3.3): WAL shard
channels carry row data and time-ticks, ``wal/coord`` carries seal/flush
control records and ``wal/ddl`` carries schema changes.  This module is
the checkable form of that paragraph: which module may publish or
subscribe to each channel *group*.  Under ``MANU_CHECK`` the broker
checks every ``publish`` / ``subscribe`` caller against these tables
(:func:`check_edge`); the tracing tests diff the observed edges against
:func:`declared_edges`.

Channel groups
--------------
``wal-shard``
    ``wal/<collection>/shard-<n>`` data channels (``shard_channel()``).
``ddl`` / ``coord``
    The two control channels (``LogConfig.ddl_channel`` /
    ``LogConfig.coord_channel``), by their default names ``wal/ddl`` and
    ``wal/coord``: no configuration renames them.

Modules are named by their path under ``src/repro``, e.g.
``log/logger_node.py``.
"""

from __future__ import annotations

import re

from repro.errors import InvariantViolation

WAL_SHARD = "wal-shard"
DDL = "ddl"
COORD = "coord"

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

#: modules that may publish/subscribe any channel: the archiver restores
#: arbitrary channels into a fresh broker, and the time-tick emitter fans
#: out over a runtime-registered channel list.
ALLOW_DYNAMIC: frozenset[str] = frozenset({
    "log/archive.py",
    "log/timetick.py",
})


def classify_channel_name(name: str) -> str:
    """Group of a concrete channel name; an unknown one keeps its text
    (``other:<name>``) so a typo'd channel shows up verbatim."""
    if name == "wal/ddl":
        return DDL
    if name == "wal/coord":
        return COORD
    if _SHARD_RE.match(name):
        return WAL_SHARD
    return f"other:{name}"


def declared_edges() -> set[tuple[str, str, str]]:
    """The declared graph as ``(module, action, group)`` edges."""
    edges: set[tuple[str, str, str]] = set()
    for action, table in (("publish", DECLARED_PUBLISHERS),
                          ("subscribe", DECLARED_SUBSCRIBERS)):
        for group, modules in table.items():
            edges.update((module, action, group) for module in modules)
    return edges


def check_edge(caller: str, action: str, channel: str) -> None:
    """Refuse a ``publish``/``subscribe`` from an undeclared module.

    ``caller`` is the calling module's ``__name__``; callers outside the
    ``repro`` package (tests, benchmarks, examples) are harnesses, not
    part of the architecture, and are exempt.
    """
    if not caller.startswith("repro."):
        return
    module = caller[len("repro."):].replace(".", "/") + ".py"
    if module in ALLOW_DYNAMIC:
        return
    group = classify_channel_name(channel)
    declared, role = ((DECLARED_PUBLISHERS, "publisher")
                      if action == "publish"
                      else (DECLARED_SUBSCRIBERS, "subscriber"))
    if module not in declared.get(group, frozenset()):
        raise InvariantViolation(
            f"MANU_CHECK: {module} is not a declared {role} of channel "
            f"{channel!r} (group {group!r}; see repro.log.topology)")
