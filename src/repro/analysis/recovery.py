"""manu-crash recovery model: the durability lifecycle of the log backbone.

The pub/sub pass (PR 2) recovers *who talks to whom*; the happens-before
pass (PR 6) recovers *what may interleave*.  This module recovers the third
model the log-backbone rework needs: *what survives a crash, and why*.

A write follows the paper's lifecycle (§3.3):

    received -> published-to-WAL -> durable -> acked

and recovery is checkpoint-restore plus per-channel WAL replay from the
recorded offsets (``core/checkpoint.py``'s segment-map/progress protocol:
``flushed_offsets/<collection>/<channel>`` in the metastore, replayed by
``TimeTravel.restore`` and ``QueryCoordinator._move_channel``).  The model
therefore has four parts:

* **durable points** — broker publishes onto WAL shard channels (once the
  log has the record, it survives);
* **write entries** — client-facing ``insert``/``delete`` entry points
  whose call closure reaches a durable point, with every client-visible
  completion event (value return, future resolution) and a must-domination
  verdict: did the publish happen on *every* path before the ack?
* **replay handlers** — WAL delivery callbacks, their non-idempotent
  effects (order/duplication-sensitive ``append``/``extend`` on reachable
  state) and whether each is guarded by an LSN/offset progress check;
* **field classification** — every mutable field of the declared
  recoverable components, bucketed into: rebuilt by WAL replay or restore,
  persisted write-through (re-derivable from durable storage), declared
  ephemeral, declared placement (rebuilt by the placement authority), or
  — the finding — covered by nothing.

The model is deterministic, embedded in ``--format json``, exported as dot
(``--format dot-durability``) and consumed by the four ``durability-*``
rules in :mod:`repro.analysis.durability`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis import topology
from repro.analysis.base import Project
from repro.analysis.pubsub import (
    CHECKED_LAYERS, _channel_argument, _site_groups, broker_sites,
)
from repro.analysis.raceorder import (
    _MUTATORS, _callback_argument, _is_loop_schedule, _schedule_targets,
    handler_key,
)
from repro.analysis.summaries import (
    OPAQUE, CallSite, FunctionSummary, ProjectSummary, _call_compatible,
    ack_path_events, project_summary, receiver_chain,
)
from repro.errors import ManuError


class RecoveryModelError(ManuError):
    """The declared recovery model does not match the code base."""


# ----------------------------------------------------------------------
# declared tables (reviewed like analysis/topology.py)
# ----------------------------------------------------------------------

#: components whose state must survive a crash: class -> defining module.
RECOVERABLE_COMPONENTS = {
    "DataNode": "nodes/data_node.py",
    "QueryNode": "nodes/query_node.py",
    "DataCoordinator": "coord/data.py",
    "QueryCoordinator": "coord/query.py",
    "Segment": "core/segment.py",
    "SegmentSet": "core/segment_set.py",
}

#: fields that legitimately do NOT survive a crash: serving scratch,
#: liveness flags and diagnostics that the next incarnation recomputes.
EPHEMERAL_FIELDS = {
    ("QueryNode", "alive"):
        "liveness flag; a restarted node is alive by construction",
    ("QueryNode", "busy_until_ms"):
        "serving-time backpressure scratch, meaningless across restarts",
    ("QueryNode", "searches_served"):
        "monotone serving counter (telemetry only)",
    ("QueryNode", "service_ms_total"):
        "cumulative serving time; load reports read deltas of it",
    ("QueryNode", "_arenas"):
        "derived from the sealed segments and their indexes; checked "
        "against them and rebuilt on the first search that needs it",
    ("DataNode", "segments_flushed"):
        "monotone flush counter (telemetry only)",
    ("Segment", "_attr_indexes"):
        "lazy per-field attribute-index cache, rebuilt on first filter",
    ("Segment", "_pk_arr"):
        "array cache of the replayed pk list, extended at its next read",
    ("Segment", "temp_index_enabled"):
        "search-tuning toggle; the default is restored with the segment",
}

#: fields rebuilt by the *placement authority* (coordinator / cluster
#: wiring), not by WAL replay: subscriptions, ownership maps, rosters.
#: On node failure the query coordinator re-subscribes survivors from the
#: recorded flushed offset (``_move_channel``); the subscription handles
#: themselves are never checkpointed.
PLACEMENT_FIELDS = {
    ("DataNode", "_subs"):
        "subscription handles; re-created when the cluster re-attaches "
        "the node to its shard channels",
    ("DataNode", "_coord_sub"):
        "coordination-channel subscription, re-created on attach",
    ("QueryNode", "_subs"):
        "subscription handles; re-created by QueryCoordinator placement",
    ("QueryNode", "_owned_channels"):
        "channel ownership is assigned by QueryCoordinator._move_channel "
        "/ load_collection, never recovered from the log",
    ("QueryCoordinator", "_nodes"):
        "cluster roster, maintained by add_node/remove_node wiring",
    ("QueryCoordinator", "_channel_owner"):
        "ownership map, reassigned on load/failure by the coordinator",
    ("QueryCoordinator", "_channel_collection"):
        "channel directory, rebuilt when collections are loaded",
    ("QueryCoordinator", "_loaded"):
        "loaded-collection set, rebuilt by load_collection requests",
    ("QueryCoordinator", "_assignments"):
        "segment placement, recomputed from metastore segment records "
        "when survivors are re-assigned after a failure",
}

#: delivery handlers that are idempotent by construction rather than by
#: an LSN/offset guard; each entry is audited in review like a
#: suppression.  (module, qualname) -> why re-delivery is harmless.
IDEMPOTENT_HANDLERS: dict[tuple[str, str], str] = {
}

#: the logged mutators: calls that change recoverable row state and are
#: therefore only legal on replay/restore paths (the WAL is the sole
#: source of row mutations — §3.3 "the log is the system").
LOGGED_MUTATORS = {
    ("Segment", "append"),
    ("Segment", "apply_delete"),
}

#: layers whose client-facing entry points the ack rule checks.
ACK_LAYERS = frozenset({"api", "cluster", "log", "nodes"})

#: entry-point names modelling a client-visible write.  The ``_async``
#: variants return an :class:`AckFuture` instead of blocking; their
#: *return* is not an ack (see :func:`_returns_ack_future`), but any
#: future they resolve inline still is.
WRITE_ENTRY_RE = re.compile(
    r"^(insert|delete|upsert|publish_batch)(_async)?$")

#: modules whose mutations are row state (rule: unlogged-mutation scope).
MUTATION_MODULE_PREFIXES = ("nodes/", "coord/", "core/")

#: modules whose accumulating effects count as replay effects.  Below the
#: storage API everything is keyed/content-addressed persistence
#: mechanics; tracing and monitoring are diagnostics; index structures
#: are derived caches rebuilt deterministically from segment rows.
EFFECT_MODULE_PREFIXES = ("nodes/", "coord/", "core/", "log/", "coproc/")

#: functions on the restore side of recovery: checkpoint loading, binlog
#: loading, compaction rebuild.  Matched by name or by module.
RESTORE_NAME_RE = re.compile(
    r"(^|_)(restore|replay|recover|rebuild|reload)($|_)|^load_segment$"
    r"|^from_json$")
RESTORE_MODULES = frozenset({"core/checkpoint.py", "core/compaction.py"})

#: identifier shapes that make a Compare a progress guard.
GUARD_NAME_RE = re.compile(
    r"lsn|offset|ts$|^ts|watermark|applied|progress", re.IGNORECASE)

#: persistence sinks: a write-through to one of these makes the mutated
#: state re-derivable from durable storage.
PERSIST_SINK_NAMES = frozenset({
    "put", "put_value", "write", "write_segment", "write_delete_delta",
})
PERSIST_MODULE_PREFIXES = ("storage/", "log/binlog")
PERSIST_MODULES = frozenset({"core/checkpoint.py", "core/segment_set.py"})

_CLOSURE_DEPTH = 6
_MAX_CANDIDATES = 6

#: field-classification buckets, in display order.
BUCKET_REPLAYED = "replayed"          # rebuilt by WAL replay / restore
BUCKET_CHECKPOINTED = "checkpointed"  # persisted write-through
BUCKET_EPHEMERAL = "ephemeral"        # declared: does not survive
BUCKET_PLACEMENT = "placement"        # declared: placement authority
BUCKET_CONSTRUCTOR = "constructor"    # wiring, only written in __init__
BUCKET_UNCOVERED = "uncovered"        # in no bucket: flagged


# ----------------------------------------------------------------------
# model dataclasses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DurablePoint:
    """A broker publish onto a WAL shard channel."""

    module: str
    qualname: str
    line: int


@dataclass(frozen=True)
class AckPoint:
    """One client-visible completion event of a write entry."""

    kind: str          # "return" | "future-result"
    line: int
    dominated: bool    # a durable publish precedes it on every path


@dataclass
class WriteEntry:
    """A client-facing write whose closure reaches a durable point."""

    func: FunctionSummary
    acks: list[AckPoint]

    @property
    def ok(self) -> bool:
        return all(ack.dominated for ack in self.acks)


@dataclass
class ReplayEffect:
    """A non-idempotent effect reachable from a WAL delivery handler."""

    func: FunctionSummary
    site: CallSite
    target: str        # dotted receiver, e.g. "self._deletes"
    guarded: bool
    guard: str         # where/why it is safe ("" when unguarded)


@dataclass
class ReplayHandler:
    """A WAL delivery callback and its replay-idempotence verdict."""

    func: FunctionSummary
    groups: tuple[str, ...]
    effects: list[ReplayEffect]
    declared: str = ""   # IDEMPOTENT_HANDLERS reason, if any

    @property
    def guarded(self) -> bool:
        return bool(self.declared) \
            or all(effect.guarded for effect in self.effects)


@dataclass(frozen=True)
class FieldClass:
    """One mutable field of a recoverable component, classified."""

    component: str
    name: str
    bucket: str
    line: int                  # first write establishing the bucket
    writers: tuple[str, ...]   # qualnames of non-init writers
    reason: str = ""           # declaration reason, if declared


@dataclass
class DurabilityModel:
    """The recovered durability lifecycle of the whole project."""

    durable_points: list[DurablePoint]
    write_entries: list[WriteEntry]
    handlers: list[ReplayHandler]
    fields: list[FieldClass]
    missing_components: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "lifecycle": ["received", "published-to-WAL", "durable",
                          "acked"],
            "durable_points": [
                {"module": p.module, "function": p.qualname,
                 "line": p.line}
                for p in sorted(self.durable_points,
                                key=lambda p: (p.module, p.line))],
            "write_entries": [
                {"module": e.func.module, "function": e.func.qualname,
                 "line": e.func.node.lineno,
                 "acks": [{"kind": a.kind, "line": a.line,
                           "dominated": a.dominated} for a in e.acks],
                 "ok": e.ok}
                for e in sorted(self.write_entries,
                                key=lambda e: (e.func.module,
                                               e.func.qualname))],
            "replay_handlers": [
                {"module": h.func.module, "function": h.func.qualname,
                 "line": h.func.node.lineno,
                 "groups": sorted(h.groups),
                 "declared_idempotent": h.declared,
                 "effects": [
                     {"module": eff.func.module,
                      "function": eff.func.qualname,
                      "line": eff.site.lineno, "target": eff.target,
                      "call": eff.site.name, "guarded": eff.guarded,
                      "guard": eff.guard}
                     for eff in sorted(
                         h.effects,
                         key=lambda eff: (eff.func.module,
                                          eff.site.lineno))],
                 "guarded": h.guarded}
                for h in sorted(self.handlers,
                                key=lambda h: (h.func.module,
                                               h.func.qualname))],
            "fields": [
                {"component": f.component, "field": f.name,
                 "bucket": f.bucket, "line": f.line,
                 "writers": list(f.writers), "reason": f.reason}
                for f in sorted(self.fields,
                                key=lambda f: (f.component, f.name))],
            "missing_components": sorted(self.missing_components),
        }

    def to_dot(self) -> str:
        """The lifecycle and model as one graphviz digraph."""
        out = ["digraph manu_durability {", "  rankdir=LR;",
               '  node [shape=box, fontname="monospace"];',
               '  received -> published -> durable -> acked'
               ' [penwidth=2];',
               '  received [shape=ellipse]; acked [shape=ellipse];']
        for entry in sorted(self.write_entries,
                            key=lambda e: (e.func.module,
                                           e.func.qualname)):
            name = f"{entry.func.module}:{entry.func.qualname}"
            colour = "palegreen" if entry.ok else "lightcoral"
            out.append(f'  "{name}" [style=filled, fillcolor={colour}];')
            out.append(f'  "{name}" -> durable [label="publish"];')
            out.append(f'  acked -> "{name}" [style=dashed,'
                       ' label="ack"];')
        for handler in sorted(self.handlers,
                              key=lambda h: (h.func.module,
                                             h.func.qualname)):
            name = f"{handler.func.module}:{handler.func.qualname}"
            colour = "palegreen" if handler.guarded else "lightcoral"
            out.append(f'  "{name}" [style=filled, fillcolor={colour}];')
            out.append(f'  durable -> "{name}" [label="replay"];')
        buckets: dict[str, list[FieldClass]] = {}
        for cls in self.fields:
            buckets.setdefault(cls.component, []).append(cls)
        colours = {BUCKET_REPLAYED: "lightblue",
                   BUCKET_CHECKPOINTED: "palegreen",
                   BUCKET_EPHEMERAL: "lightgrey",
                   BUCKET_PLACEMENT: "khaki",
                   BUCKET_CONSTRUCTOR: "white",
                   BUCKET_UNCOVERED: "lightcoral"}
        for index, component in enumerate(sorted(buckets)):
            out.append(f"  subgraph cluster_{index} {{")
            out.append(f'    label="{component}";')
            for cls in sorted(buckets[component], key=lambda f: f.name):
                colour = colours.get(cls.bucket, "white")
                out.append(
                    f'    "{component}.{cls.name}" [style=filled, '
                    f'fillcolor={colour}, label="{cls.name}\\n'
                    f'[{cls.bucket}]"];')
            out.append("  }")
        out.append("}")
        return "\n".join(out)


# ----------------------------------------------------------------------
# call-closure machinery
# ----------------------------------------------------------------------


def _closure_with_parents(summary: ProjectSummary, root: FunctionSummary,
                          ) -> dict[str, tuple[FunctionSummary,
                                               Optional[str]]]:
    """BFS call closure of ``root`` with the discovery parent of each node.

    Cross-object resolution is by terminal name + argument shape (the
    raceorder over-approximation); loop-scheduled continuations are
    followed too, so deferred work (seal retries, flush announcements)
    stays inside its handler's closure.
    """
    out: dict[str, tuple[FunctionSummary, Optional[str]]] = {}
    frontier: list[tuple[FunctionSummary, Optional[str], int]] = [
        (root, None, 0)]
    while frontier:
        current, parent, depth = frontier.pop(0)
        key = handler_key(current)
        if key in out:
            continue
        out[key] = (current, parent)
        if depth >= _CLOSURE_DEPTH:
            continue
        for site in current.calls:
            for target in _site_targets(summary, current, site):
                frontier.append((target, key, depth + 1))
    return out


def _site_targets(summary: ProjectSummary, func: FunctionSummary,
                  site: CallSite) -> list[FunctionSummary]:
    """Project functions a call site plausibly invokes.

    Opaque receivers (``self.proxy().insert(...)``) resolve by terminal
    name like any cross-object call: for a reachability model,
    over-approximating keeps verdicts sound in the no-finding direction.
    """
    if _is_loop_schedule(summary, func, site):
        return _schedule_targets(summary, func, site)
    recv = site.receiver
    if recv == ("self",):
        return [f for f in summary.candidates(site.name)
                if f.ctx is func.ctx and f.class_name == func.class_name]
    targets = [f for f in summary.candidates(site.name)
               if _call_compatible(site.node, f)]
    if len(targets) > _MAX_CANDIDATES:
        return []
    return targets


def _reaches_durable(summary: ProjectSummary, root: FunctionSummary,
                     durable_keys: frozenset[str],
                     cache: dict[str, bool]) -> bool:
    """Whether ``root``'s call closure contains a durable publish."""
    key = handler_key(root)
    if key in cache:
        return cache[key]
    closure = _closure_with_parents(summary, root)
    hit = any(k in durable_keys for k in closure)
    cache[key] = hit
    return hit


# ----------------------------------------------------------------------
# write-path model (received -> published -> durable -> acked)
# ----------------------------------------------------------------------


def _durable_publish_sites(summary: ProjectSummary,
                           ) -> dict[str, tuple[FunctionSummary,
                                                list[CallSite]]]:
    """function key -> broker publishes resolving to a WAL shard group."""
    out: dict[str, tuple[FunctionSummary, list[CallSite]]] = {}
    for func, site, action in broker_sites(summary):
        if action != "publish":
            continue
        groups = _site_groups(summary, func, site)
        if topology.WAL_SHARD in groups:
            out.setdefault(handler_key(func), (func, []))[1].append(site)
    return out


def _resolves_future_inline(func: FunctionSummary) -> bool:
    """Whether ``func``'s own body resolves a future.

    True for a ``.set_result(...)`` call or an assignment to
    ``<x>.result`` outside nested def/lambda bodies (those run when the
    closure fires, not when ``func`` does).  Functions like a group-
    commit ``flush_group`` resolve acks for writes that *entered*
    elsewhere; the resolution site is where domination by the WAL
    publish must be checked.
    """
    stack = list(func.node.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Call) \
                and receiver_chain(node.func)[-1] == "set_result":
            return True
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Attribute)
                and target.attr == "result"
                for target in node.targets):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _returns_ack_future(func: FunctionSummary) -> bool:
    """Whether ``func`` is annotated to return an ``AckFuture``.

    Returning a deferred ack handle is not a success ack — the client-
    visible completion is the future's *resolution*, checked at its
    ``set_result`` site — so ``return`` events of such entries are not
    ack points.
    """
    returns = func.node.returns
    return returns is not None and "AckFuture" in ast.dump(returns)


def _write_entries(summary: ProjectSummary,
                   durable_sites: dict,
                   ) -> list[WriteEntry]:
    durable_keys = frozenset(durable_sites)
    reach_cache: dict[str, bool] = {}
    entries: list[WriteEntry] = []
    for func in summary.functions:
        if func.ctx.layer not in ACK_LAYERS:
            continue
        named = bool(WRITE_ENTRY_RE.match(func.name))
        # Resolver entries: not client-facing by name, but the place
        # where deferred ack futures actually resolve (group commit).
        if not named and not _resolves_future_inline(func):
            continue
        if not _reaches_durable(summary, func, durable_keys, reach_cache):
            continue
        own = durable_sites.get(handler_key(func))
        own_durable = {id(site.node) for site in own[1]} if own else set()

        def is_marker(call: ast.Call,
                      _func=func, _own=own_durable) -> bool:
            if id(call) in _own:
                return True
            site = CallSite(chain=receiver_chain(call.func), node=call,
                            lineno=call.lineno)
            targets = _site_targets(summary, _func, site)
            return any(
                _reaches_durable(summary, t, durable_keys, reach_cache)
                for t in targets)

        events = ack_path_events(func, is_marker)
        if not named:
            events = [e for e in events if e.kind == "future-result"]
        elif _returns_ack_future(func):
            events = [e for e in events if e.kind != "return"]
        acks = [AckPoint(kind=event.kind, line=event.lineno,
                         dominated=event.dominated)
                for event in events]
        if acks:
            entries.append(WriteEntry(func=func, acks=acks))
    return entries


# ----------------------------------------------------------------------
# replay model (durable -> re-applied on restart)
# ----------------------------------------------------------------------


def _delivery_handlers(summary: ProjectSummary,
                       ) -> list[tuple[FunctionSummary, frozenset[str]]]:
    """Broker delivery callbacks with the channel groups they serve."""
    found: dict[str, tuple[FunctionSummary, set[str]]] = {}
    for func, site, action in broker_sites(summary):
        if action != "subscribe":
            continue
        groups = _site_groups(summary, func, site)
        expr = _callback_argument(site, 3)
        if expr is None:
            continue
        for target in summary.resolve_callback(expr, func):
            key = handler_key(target)
            entry = found.setdefault(key, (target, set()))
            entry[1].update(groups)
    return [(func, frozenset(groups))
            for func, groups in found.values()]


def _aliases_component_state(expr: ast.AST) -> bool:
    """Whether an assigned value *aliases* (not copies) component state.

    True for a ``self``-rooted attribute/subscript chain and for
    ``self.<...>.get/setdefault(...)`` (which return the stored object).
    List displays, comprehensions and ``.copy()`` build fresh objects —
    mutating those is not a replay effect.
    """
    if isinstance(expr, ast.Call):
        chain = receiver_chain(expr.func)
        return chain[0] == "self" and chain[-1] in ("get", "setdefault")
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return isinstance(expr, ast.Name) and expr.id == "self"


def _local_self_aliases(func: FunctionSummary) -> set[str]:
    """Local names bound to (not copied from) ``self``-reachable state.

    ``pending = self._pending.setdefault(channel, [])`` makes ``pending``
    an alias of reachable state: mutating it mutates the component.
    """
    aliases: set[str] = set()
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Assign):
            continue
        if not _aliases_component_state(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _accumulating_effects(func: FunctionSummary) -> list[CallSite]:
    """``append``/``extend`` calls on state reachable from ``self``.

    These are the duplication-sensitive effects: re-delivering the same
    record appends it twice.  Keyed upserts (``d[k] = v``), idempotent
    set-adds and monotone counters are deliberately not flagged here —
    double-applying them converges.
    """
    aliases = _local_self_aliases(func)
    roots = aliases | {"self"}
    out: list[CallSite] = []
    for site in func.calls:
        if site.name not in ("append", "extend"):
            continue
        expr = site.node.func.value \
            if isinstance(site.node.func, ast.Attribute) else None
        if expr is None:
            continue
        if isinstance(expr, ast.Call):
            chain = receiver_chain(expr.func)
            rooted = chain[0] in roots \
                and chain[-1] in ("get", "setdefault")
        else:
            probe = expr
            while isinstance(probe, (ast.Subscript, ast.Attribute)):
                probe = probe.value
            rooted = isinstance(probe, ast.Name) and probe.id in roots
        if rooted:
            out.append(site)
    return out


def _has_progress_guard(func: FunctionSummary) -> bool:
    """An early-exit conditioned on an LSN/offset/progress comparison."""
    for node in ast.walk(func.node):
        if not isinstance(node, ast.If):
            continue
        has_compare = any(isinstance(n, ast.Compare)
                          for n in ast.walk(node.test))
        if not has_compare:
            continue
        names = {n.id for n in ast.walk(node.test)
                 if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node.test)
                  if isinstance(n, ast.Attribute)}
        if not any(GUARD_NAME_RE.search(name) for name in names):
            continue
        if any(isinstance(s, (ast.Return, ast.Continue, ast.Raise))
               for s in ast.walk(node)):
            return True
    return False


def _effect_target(site: CallSite) -> str:
    """Human-readable dotted receiver of an effect call."""
    if site.receiver and site.receiver[0] != OPAQUE:
        return ".".join(site.receiver)
    # Peel the chained-call shape: ``self._buf.setdefault(...).extend``.
    expr = site.node.func.value \
        if isinstance(site.node.func, ast.Attribute) else None
    if isinstance(expr, ast.Call):
        inner = receiver_chain(expr.func)
        if inner[0] != OPAQUE:
            return ".".join(inner) + "(...)"
    return "<expr>"


def _replay_handlers(summary: ProjectSummary) -> list[ReplayHandler]:
    handlers: list[ReplayHandler] = []
    for func, groups in _delivery_handlers(summary):
        if not groups & {topology.WAL_SHARD, topology.DYNAMIC_GROUP}:
            continue
        if func.ctx.layer not in CHECKED_LAYERS:
            continue
        closure = _closure_with_parents(summary, func)
        guarded_keys = _guarded_closure_keys(closure)
        effects: list[ReplayEffect] = []
        for key, (member, _parent) in closure.items():
            if not member.module.startswith(EFFECT_MODULE_PREFIXES):
                continue
            if member.module in topology.IMPLEMENTATION_MODULES:
                continue
            for site in _accumulating_effects(member):
                guarded = key in guarded_keys
                guard = guarded_keys.get(key, "")
                effects.append(ReplayEffect(
                    func=member, site=site,
                    target=_effect_target(site),
                    guarded=guarded, guard=guard))
        declared = IDEMPOTENT_HANDLERS.get((func.module, func.qualname),
                                           "")
        handlers.append(ReplayHandler(func=func, groups=tuple(groups),
                                      effects=effects, declared=declared))
    return handlers


def _guarded_closure_keys(closure: dict) -> dict[str, str]:
    """Closure members protected by a progress guard on their call path.

    A guard in an ancestor covers every descendant: once the handler has
    decided "this record was already applied, skip", nothing below runs.
    """
    own: dict[str, str] = {}
    for key, (member, _parent) in closure.items():
        if _has_progress_guard(member):
            own[key] = f"progress guard in {member.qualname}()"
    covered: dict[str, str] = {}
    for key, (member, parent) in closure.items():
        probe: Optional[str] = key
        while probe is not None:
            if probe in own:
                covered[key] = own[probe]
                break
            probe = closure[probe][1]
    return covered


# ----------------------------------------------------------------------
# field classification (checkpoint coverage)
# ----------------------------------------------------------------------


def _self_field_of_target(node: ast.AST) -> Optional[str]:
    """The ``self.<field>`` a write target reaches, through subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _field_writes(func: FunctionSummary) -> Iterator[tuple[str, int]]:
    """``(field, line)`` for every ``self.<field>`` write in ``func``."""
    for node in ast.walk(func.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                name = _self_field_of_target(target)
                if name is not None:
                    yield name, node.lineno
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = _self_field_of_target(target)
                if name is not None:
                    yield name, node.lineno
        elif isinstance(node, ast.Call):
            chain = receiver_chain(node.func)
            if len(chain) >= 3 and chain[0] == "self" \
                    and chain[-1] in _MUTATORS:
                yield chain[1], node.lineno


def _is_restore_function(func: FunctionSummary) -> bool:
    return bool(RESTORE_NAME_RE.search(func.name)) \
        or func.module in RESTORE_MODULES


def _persists(summary: ProjectSummary, func: FunctionSummary,
              cache: dict[str, bool]) -> bool:
    """Whether ``func``'s closure writes through to durable storage."""
    key = handler_key(func)
    if key in cache:
        return cache[key]
    hit = False
    for member, _parent in _closure_with_parents(summary, func).values():
        for site in member.calls:
            if site.name not in PERSIST_SINK_NAMES:
                continue
            candidates = summary.candidates(site.name)
            if any(c.module.startswith(PERSIST_MODULE_PREFIXES)
                   or c.module in PERSIST_MODULES
                   for c in candidates):
                hit = True
                break
        if hit:
            break
    cache[key] = hit
    return hit


def _recovery_closure_keys(summary: ProjectSummary) -> set[str]:
    """Keys of every function reachable from a replay or restore root.

    Roots: broker delivery callbacks (all channel groups — coordination
    records drive recovery too) and restore-pattern functions; the
    closure follows calls and scheduled continuations.
    """
    roots: list[FunctionSummary] = [
        func for func, _groups in _delivery_handlers(summary)]
    for func in summary.functions:
        if _is_restore_function(func):
            roots.append(func)
    keys: set[str] = set()
    for root in roots:
        keys.update(_closure_with_parents(summary, root))
    return keys


def _classify_fields(summary: ProjectSummary,
                     recovery_keys: set[str],
                     ) -> tuple[list[FieldClass], list[str]]:
    fields: list[FieldClass] = []
    missing: list[str] = []
    persist_cache: dict[str, bool] = {}
    for component, module in sorted(RECOVERABLE_COMPONENTS.items()):
        methods = [f for f in summary.functions
                   if f.module == module and f.class_name == component]
        if not methods:
            missing.append(component)
            continue
        # field -> (init_lines, [(writer, line), ...])
        init_lines: dict[str, int] = {}
        writers: dict[str, list[tuple[FunctionSummary, int]]] = {}
        for method in methods:
            is_init = method.name in ("__init__", "__post_init__")
            for name, line in _field_writes(method):
                if is_init:
                    init_lines.setdefault(name, line)
                else:
                    writers.setdefault(name, []).append((method, line))
        for name in sorted(set(init_lines) | set(writers)):
            fields.append(_classify_one(
                summary, component, name, init_lines.get(name),
                writers.get(name, []), recovery_keys, persist_cache))
    return fields, missing


def _classify_one(summary: ProjectSummary, component: str, name: str,
                  init_line: Optional[int],
                  writes: list[tuple[FunctionSummary, int]],
                  recovery_keys: set[str],
                  persist_cache: dict[str, bool]) -> FieldClass:
    writer_names = tuple(sorted({w.qualname for w, _line in writes}))
    if not writes:
        return FieldClass(component=component, name=name,
                          bucket=BUCKET_CONSTRUCTOR,
                          line=init_line or 1, writers=())
    first_line = min(line for _writer, line in writes)
    # Audited declarations outrank the heuristics: a field someone has
    # reviewed and declared ephemeral/placement stays declared even when
    # a recovery closure happens to touch it.
    if (component, name) in EPHEMERAL_FIELDS:
        return FieldClass(component=component, name=name,
                          bucket=BUCKET_EPHEMERAL, line=first_line,
                          writers=writer_names,
                          reason=EPHEMERAL_FIELDS[(component, name)])
    if (component, name) in PLACEMENT_FIELDS:
        return FieldClass(component=component, name=name,
                          bucket=BUCKET_PLACEMENT, line=first_line,
                          writers=writer_names,
                          reason=PLACEMENT_FIELDS[(component, name)])
    for writer, line in sorted(writes, key=lambda w: w[1]):
        if handler_key(writer) in recovery_keys:
            return FieldClass(component=component, name=name,
                              bucket=BUCKET_REPLAYED, line=line,
                              writers=writer_names)
    for writer, line in sorted(writes, key=lambda w: w[1]):
        if _persists(summary, writer, persist_cache):
            return FieldClass(component=component, name=name,
                              bucket=BUCKET_CHECKPOINTED, line=line,
                              writers=writer_names)
    return FieldClass(component=component, name=name,
                      bucket=BUCKET_UNCOVERED, line=first_line,
                      writers=writer_names)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def build_durability_model(project: Project) -> DurabilityModel:
    """The cached :class:`DurabilityModel` for this analysis run."""
    cached = getattr(project, "_durability_model", None)
    if cached is not None:
        return cached
    summary = project_summary(project)
    durable_sites = _durable_publish_sites(summary)
    durable_points = [
        DurablePoint(module=func.module, qualname=func.qualname,
                     line=site.lineno)
        for func, sites in durable_sites.values()
        for site in sites]
    model = DurabilityModel(
        durable_points=durable_points,
        write_entries=_write_entries(summary, durable_sites),
        handlers=_replay_handlers(summary),
        fields=[],
        missing_components=())
    fields, missing = _classify_fields(
        summary, _recovery_closure_keys(summary))
    model.fields = fields
    model.missing_components = tuple(missing)
    project._durability_model = model
    return model


def verify_declared_components(model: DurabilityModel) -> None:
    """Raise :class:`RecoveryModelError` when declared components are gone.

    Only meaningful when analyzing the real source root; fixture roots
    and test trees legitimately lack the components, so the model builder
    itself merely records them as missing.
    """
    if model.missing_components:
        raise RecoveryModelError(
            "declared recoverable components not found: "
            + ", ".join(sorted(model.missing_components))
            + " (update analysis/recovery.py RECOVERABLE_COMPONENTS)")


def durability_model_for_root(root) -> dict:
    """Standalone model recovery for a source root (golden test, CLI)."""
    from pathlib import Path

    from repro.analysis.engine import load_project
    project = load_project(Path(root))
    return build_durability_model(project).to_dict()
