"""raceorder: lint for the scheduled-event handlers.

The static head of ``manu-race`` (DESIGN.md §6e; the dynamic head is
``MANU_RACE=<seed>``, which shuffles same-tick callbacks and is swept by
``python -m repro.race``).  The pass discovers every *handler* — every
function reachable as a scheduled callback (``loop.call_at/call_after`` →
deferred, ``loop.call_every`` → periodic) or as a broker delivery
callback (``broker.subscribe(..., callback=...)`` → delivery) — and what
its call closure does.  Two rules interrogate the handlers:

``raceorder-hidden-coupling``
    a handler reaching into another component's private state
    (``self.<broker>._x`` / ``self.<coord>._x``) instead of receiving it
    through a subscription — coupling the schedule cannot see and the
    shuffler cannot respect.
``raceorder-detached``
    a periodic handler that publishes records or opens spans without
    ``tracer.detached()`` — its background work would join whatever
    request trace happens to be stepping the clock when the timer fires.

Suppressions use the standard syntax, anchored at the handler's ``def``
line or at the offending expression; ``--strict`` requires every one to
carry a justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.base import Finding, Project, Rule
from repro.analysis.summaries import (
    OPAQUE, CallSite, FunctionSummary, ProjectSummary, _call_compatible,
    project_summary,
)

RACEORDER_HIDDEN_COUPLING = "raceorder-hidden-coupling"
RACEORDER_DETACHED = "raceorder-detached"

#: scheduling entry points on the event loop -> handler kind.
SCHEDULE_CALLS = {
    "call_at": "deferred",
    "call_after": "deferred",
    "call_every": "periodic",
}

#: receiver tails accepted as "the event loop" when static typing cannot
#: resolve the chain (``self.cluster.loop.call_every`` three links deep).
_LOOP_NAME_HINTS = frozenset({"loop", "_loop"})

#: tracer calls that open spans (attach work to the ambient trace).
_SPAN_OPENERS = frozenset({"span", "start_span", "record_span"})

_CLOSURE_DEPTH = 4
_MAX_CANDIDATES = 3


@dataclass
class Handler:
    """One function reachable as a scheduled or delivery callback."""

    func: FunctionSummary
    kinds: set[str] = field(default_factory=set)
    #: whether the handler's call closure publishes to the broker.
    publishes: bool = False
    opens_spans: bool = False
    has_detached: bool = False

    @property
    def key(self) -> str:
        return handler_key(self.func)

    @property
    def label(self) -> str:
        return f"{self.func.qualname}()"


def handler_key(func: FunctionSummary) -> str:
    return f"{func.module}::{func.qualname}"


# ----------------------------------------------------------------------
# handler discovery
# ----------------------------------------------------------------------


def _is_loop_schedule(summary: ProjectSummary, func: FunctionSummary,
                      site: CallSite) -> bool:
    if site.name not in SCHEDULE_CALLS:
        return False
    if summary.is_loop_receiver(site, func):
        return True
    recv = site.receiver
    return bool(recv) and recv[-1] in _LOOP_NAME_HINTS


def _callback_argument(site: CallSite, index: int) -> Optional[ast.AST]:
    """The callback expression of a schedule/subscribe call, if present."""
    if len(site.node.args) > index:
        arg = site.node.args[index]
        return None if isinstance(arg, ast.Starred) else arg
    for kw in site.node.keywords:
        if kw.arg == "callback":
            return kw.value
    return None


def _schedule_targets(summary: ProjectSummary, func: FunctionSummary,
                      site: CallSite) -> list[FunctionSummary]:
    expr = _callback_argument(site, 1)
    return summary.resolve_callback(expr, func) if expr is not None else []


def _class_closure(summary: ProjectSummary,
                   func: FunctionSummary) -> list[FunctionSummary]:
    """``func`` plus same-class methods / nested functions it calls.

    This is the hidden-coupling scope: the attribute chains the handler
    reads through its own ``self``.
    """
    out: list[FunctionSummary] = []
    seen: set[str] = set()
    frontier: list[tuple[FunctionSummary, int]] = [(func, 0)]
    while frontier:
        current, depth = frontier.pop()
        key = handler_key(current)
        if key in seen:
            continue
        seen.add(key)
        out.append(current)
        if depth >= _CLOSURE_DEPTH:
            continue
        for site in current.calls:
            recv = site.receiver
            targets: list[FunctionSummary] = []
            if recv == ("self",):
                targets = [f for f in summary.candidates(site.name)
                           if f.ctx is current.ctx
                           and f.class_name == current.class_name]
            elif not recv:
                targets = summary._resolve_callback_name(site.name, current)
            for target in targets[:_MAX_CANDIDATES]:
                frontier.append((target, depth + 1))
    return out


def _call_closure(summary: ProjectSummary,
                  func: FunctionSummary) -> list[FunctionSummary]:
    """``func`` plus every project function its calls plausibly reach.

    Cross-object resolution is by terminal name + argument shape (the
    same over-approximation :meth:`ProjectSummary.callers_of` uses in
    reverse).  Used for publish/span/detached detection.
    """
    out: list[FunctionSummary] = []
    seen: set[str] = set()
    frontier: list[tuple[FunctionSummary, int]] = [(func, 0)]
    while frontier:
        current, depth = frontier.pop()
        key = handler_key(current)
        if key in seen:
            continue
        seen.add(key)
        out.append(current)
        if depth >= _CLOSURE_DEPTH:
            continue
        for site in current.calls:
            if site.receiver and site.receiver[0] == OPAQUE:
                continue
            targets = [f for f in summary.candidates(site.name)
                       if _call_compatible(site.node, f)]
            if len(targets) > _MAX_CANDIDATES:
                continue
            for target in targets:
                frontier.append((target, depth + 1))
    return out


def _self_attr_chain(node: ast.AST) -> tuple[str, ...]:
    """Dotted chain of an attribute expression rooted at a name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else OPAQUE)
    parts.reverse()
    return tuple(parts)


def event_handlers(project: Project) -> dict[str, Handler]:
    """The cached handlers of this analysis run, by :func:`handler_key`."""
    cached = getattr(project, "_event_handlers", None)
    if cached is not None:
        return cached
    summary = project_summary(project)
    handlers: dict[str, Handler] = {}

    def note(func: FunctionSummary, kind: str) -> None:
        key = handler_key(func)
        handlers.setdefault(key, Handler(func=func)).kinds.add(kind)

    # Pass 1: discover handlers at every schedule / subscribe site.
    for func in summary.functions:
        for site in func.calls:
            if _is_loop_schedule(summary, func, site):
                for target in _schedule_targets(summary, func, site):
                    note(target, SCHEDULE_CALLS[site.name])
            elif site.name == "subscribe" \
                    and summary.is_broker_receiver(site, func):
                expr = _callback_argument(site, 3)
                if expr is None:
                    continue
                for target in summary.resolve_callback(expr, func):
                    note(target, "delivery")

    # Pass 2: publishes and span/detached usage over each handler's
    # call closure.
    for handler in handlers.values():
        for func in _call_closure(summary, handler.func):
            for site in func.calls:
                if site.name == "detached":
                    handler.has_detached = True
                elif site.name in _SPAN_OPENERS:
                    handler.opens_spans = True
                elif site.name == "publish" \
                        and summary.is_broker_receiver(site, func):
                    handler.publishes = True

    project._event_handlers = handlers
    return handlers


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------


class RaceOrderHiddenCouplingRule(Rule):
    id = RACEORDER_HIDDEN_COUPLING
    description = ("event handlers must not read another component's "
                   "private state (broker/coordinator internals) — "
                   "couple through subscriptions the schedule can see")
    paper_ref = ("§3.3 log backbone: cross-component state flows through "
                 "channels, not shared memory")

    def check_project(self, project: Project) -> Iterable[Finding]:
        summary = project_summary(project)
        seen: set[tuple[str, int, str]] = set()
        for handler in sorted(event_handlers(project).values(),
                              key=lambda h: h.key):
            broker_attrs = summary.broker_attrs.get(
                handler.func.class_name or "", set())
            for func in _class_closure(summary, handler.func):
                for node in ast.walk(func.node):
                    if not isinstance(node, ast.Attribute) \
                            or not node.attr.startswith("_"):
                        continue
                    chain = _self_attr_chain(node)
                    if len(chain) < 3 or chain[0] != "self":
                        continue
                    owner = chain[1]
                    if owner not in broker_attrs \
                            and "coord" not in owner:
                        continue
                    dotted = ".".join(chain)
                    dedup = (func.module, node.lineno, dotted)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    yield func.ctx.finding(
                        self.id, node,
                        f"handler {handler.label} reaches into "
                        f"{dotted} — private state of another "
                        f"component",
                        hint=("subscribe to the channel that carries "
                              "this state, or expose a public accessor "
                              "on the owning component"))


class RaceOrderDetachedRule(Rule):
    id = RACEORDER_DETACHED
    description = ("periodic handlers that publish or open spans must "
                   "run under tracer.detached() so background work never "
                   "joins a bystander request trace")
    paper_ref = "DESIGN.md §6d causal tracing: timers are detached roots"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for handler in sorted(event_handlers(project).values(),
                              key=lambda h: h.key):
            if "periodic" not in handler.kinds:
                continue
            if not handler.publishes and not handler.opens_spans:
                continue
            if handler.has_detached:
                continue
            activity = ("publishes records" if handler.publishes
                        else "opens spans")
            yield handler.func.ctx.finding(
                self.id, handler.func.node,
                f"periodic handler {handler.label} {activity} without "
                f"tracer.detached()",
                hint=("wrap the body in 'with tracer.detached():' — the "
                      "timer fires inside whatever trace is stepping "
                      "the clock"))


#: the raceorder pass's rules, in reporting order.
RACEORDER_RULES = (
    RaceOrderHiddenCouplingRule,
    RaceOrderDetachedRule,
)
