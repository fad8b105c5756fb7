"""manu-crash recovery model: the durability lifecycle of the log backbone.

A write follows the paper's lifecycle (§3.3):

    received -> published-to-WAL -> durable -> acked

and recovery is checkpoint-restore plus per-channel WAL replay from the
recorded offsets (``flushed_offsets/<collection>/<channel>`` in the
metastore, replayed by ``TimeTravel.restore`` and
``QueryCoordinator._move_channel``).  This module recovers the two parts
of that lifecycle a test cannot see from outside:

* **write entries** — client-facing ``insert``/``delete`` entry points
  whose call closure reaches a WAL publish, with every client-visible
  completion event (value return, future resolution) and a must-domination
  verdict: did the publish happen on *every* path before the ack?
* **replay handlers** — WAL delivery callbacks, their non-idempotent
  effects (order/duplication-sensitive ``append``/``extend`` on reachable
  state) and whether each is guarded by an LSN/offset progress check.

The model is built once per run and consumed by the two ``durability-*``
rules in :mod:`repro.analysis.durability`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Optional

from repro.analysis import topology
from repro.analysis.base import Project
from repro.analysis.pubsub import CHECKED_LAYERS, _site_groups, broker_sites
from repro.analysis.raceorder import (
    _callback_argument, _is_loop_schedule, _schedule_targets, handler_key,
)
from repro.analysis.summaries import (
    OPAQUE, CallSite, FunctionSummary, ProjectSummary, _call_compatible,
    ack_path_events, project_summary, receiver_chain,
)

#: delivery handlers that are idempotent by construction rather than by
#: an LSN/offset guard; each entry is audited in review like a
#: suppression.  (module, qualname) -> why re-delivery is harmless.
IDEMPOTENT_HANDLERS: dict[tuple[str, str], str] = {
}

#: layers whose client-facing entry points the ack rule checks.
ACK_LAYERS = frozenset({"api", "cluster", "log", "nodes"})

#: entry-point names modelling a client-visible write.  The ``_async``
#: variants return an :class:`AckFuture` instead of blocking; their
#: *return* is not an ack (see :func:`_returns_ack_future`), but any
#: future they resolve inline still is.
WRITE_ENTRY_RE = re.compile(
    r"^(insert|delete|upsert|publish_batch)(_async)?$")

#: modules whose accumulating effects count as replay effects.  Below the
#: storage API everything is keyed/content-addressed persistence
#: mechanics; tracing and monitoring are diagnostics; index structures
#: are derived caches rebuilt deterministically from segment rows.
EFFECT_MODULE_PREFIXES = ("nodes/", "coord/", "core/", "log/", "coproc/")

#: identifier shapes that make a Compare a progress guard.
GUARD_NAME_RE = re.compile(
    r"lsn|offset|ts$|^ts|watermark|applied|progress", re.IGNORECASE)

_CLOSURE_DEPTH = 6
_MAX_CANDIDATES = 6


# ----------------------------------------------------------------------
# model dataclasses
# ----------------------------------------------------------------------


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


@dataclass
class ReplayHandler:
    """A WAL delivery callback and its replay-idempotence verdict."""

    func: FunctionSummary
    effects: list[ReplayEffect]
    declared: str = ""   # IDEMPOTENT_HANDLERS reason, if any

    @property
    def guarded(self) -> bool:
        return bool(self.declared) \
            or all(effect.guarded for effect in self.effects)


@dataclass
class DurabilityModel:
    """The recovered write entries and replay handlers of the project."""

    write_entries: list[WriteEntry]
    handlers: list[ReplayHandler]


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
                effects.append(ReplayEffect(
                    func=member, site=site, target=_effect_target(site),
                    guarded=key in guarded_keys))
        declared = IDEMPOTENT_HANDLERS.get((func.module, func.qualname),
                                           "")
        handlers.append(ReplayHandler(func=func, effects=effects,
                                      declared=declared))
    return handlers


def _guarded_closure_keys(closure: dict) -> set[str]:
    """Closure members protected by a progress guard on their call path.

    A guard in an ancestor covers every descendant: once the handler has
    decided "this record was already applied, skip", nothing below runs.
    """
    own = {key for key, (member, _parent) in closure.items()
           if _has_progress_guard(member)}
    covered: set[str] = set()
    for key in closure:
        probe: Optional[str] = key
        while probe is not None:
            if probe in own:
                covered.add(key)
                break
            probe = closure[probe][1]
    return covered


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_durability_model(project: Project) -> DurabilityModel:
    """The cached :class:`DurabilityModel` for this analysis run."""
    cached = getattr(project, "_durability_model", None)
    if cached is not None:
        return cached
    summary = project_summary(project)
    model = DurabilityModel(
        write_entries=_write_entries(summary,
                                     _durable_publish_sites(summary)),
        handlers=_replay_handlers(summary))
    project._durability_model = model
    return model
