"""Inter-procedural summaries: the whole-program layer under manu-lint.

The per-module rules look at one module at a time.  The protocol
invariants of the log backbone (who publishes which channel, whether a
write's ack follows its WAL publish) are *cross-module* properties, so this
module extracts a compact summary of every function in the project once
per run:

* every call site, with the receiver attribute chain (``self._broker`` in
  ``self._broker.publish(...)``) preserved;
* which names are statically *broker-typed* — ``LogBroker`` parameters and
  annotations, ``self.<attr>`` slots assigned from them, and locals bound
  from ``LogBroker(...)`` — so ``node.subscribe(...)`` (a worker wrapper)
  and ``broker.subscribe(...)`` (the real log) are never confused;
* abstract *channel values*: the channel argument of a pub/sub call site
  resolved through local assignments, f-string shapes, ``shard_channel``
  calls, project-function return values, and — when the channel is a bare
  parameter — back-propagated through the summary call graph to the
  caller's concrete argument.

Rules obtain the cached summary with :func:`project_summary`; the summary
is built lazily once and shared by every whole-program pass in the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.base import ModuleContext, Project, qualified_name

#: receiver chain element standing in for anything that is not a plain name
#: (a call result, a subscript, ...).
OPAQUE = "()"

#: abstract channel values produced by :func:`resolve_channel`.
LITERAL = "literal"    # ("literal", "wal/coord")
PATTERN = "pattern"    # ("pattern", "wal/*/shard-*") — f-string shape
SHARD = "shard"        # ("shard",) — a shard_channel(...) call
DYNAMIC = "dynamic"    # ("dynamic",) — statically unresolvable

#: config-attribute naming convention for the two control channels
#: (``LogConfig.ddl_channel`` / ``LogConfig.coord_channel``).
_CHANNEL_NAME_CONVENTIONS = {
    "ddl_channel": "wal/ddl",
    "coord_channel": "wal/coord",
}

_MAX_DEPTH = 8
_MAX_CANDIDATES = 4


def _convention_literal(name: str) -> Optional[str]:
    """Config-convention channel names, tolerating private-attr prefixes."""
    return _CHANNEL_NAME_CONVENTIONS.get(name.lstrip("_"))


def receiver_chain(func: ast.AST) -> tuple[str, ...]:
    """The dotted chain of a call's function expression.

    ``self._broker.publish`` -> ``("self", "_broker", "publish")``;
    non-name links (call results, subscripts) become :data:`OPAQUE`.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append(OPAQUE)
    parts.reverse()
    return tuple(parts)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    chain: tuple[str, ...]
    node: ast.Call
    lineno: int

    @property
    def name(self) -> str:
        """Terminal callee name (``publish`` in ``x.y.publish(...)``)."""
        return self.chain[-1]

    @property
    def receiver(self) -> tuple[str, ...]:
        return self.chain[:-1]


@dataclass
class FunctionSummary:
    """Everything the whole-program passes need to know about one function."""

    ctx: ModuleContext
    node: ast.AST                       # FunctionDef / AsyncFunctionDef
    qualname: str                       # "Proxy.search", "shard_channel"
    class_name: Optional[str]
    calls: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def module(self) -> str:
        return self.ctx.relpath

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def params(self) -> list[str]:
        """Positional parameter names, ``self``/``cls`` stripped."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    @property
    def kwonly_params(self) -> list[str]:
        return [a.arg for a in self.node.args.kwonlyargs]

    @property
    def required_params(self) -> int:
        return len(self.params) - len(self.node.args.defaults)

    def param_default(self, name: str) -> Optional[ast.AST]:
        args = self.node.args
        pos = self.params
        defaults = args.defaults
        if name in pos:
            slot = pos.index(name) - (len(pos) - len(defaults))
            return defaults[slot] if slot >= 0 else None
        if name in self.kwonly_params:
            default = args.kw_defaults[self.kwonly_params.index(name)]
            return default
        return None


class ProjectSummary:
    """All function summaries of one analysis run, indexed for the passes."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: list[FunctionSummary] = []
        self.by_name: dict[str, list[FunctionSummary]] = {}
        #: type name -> class name -> attrs statically known to hold that
        #: type (``LogBroker`` for the pub/sub passes, ``EventLoop`` for
        #: the raceorder pass).
        self.typed_attrs: dict[str, dict[str, set[str]]] = {
            typename: {} for typename in _TRACKED_TYPES}
        for ctx in project.modules:
            self._scan_module(ctx)
        for func in self.functions:
            self.by_name.setdefault(func.name, []).append(func)

    @property
    def broker_attrs(self) -> dict[str, set[str]]:
        """class name -> attribute names statically known to hold a broker."""
        return self.typed_attrs["LogBroker"]

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------

    def _scan_module(self, ctx: ModuleContext) -> None:
        def visit(node: ast.AST, class_name: Optional[str],
                  prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name,
                          f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    summary = FunctionSummary(
                        ctx=ctx, node=child, class_name=class_name,
                        qualname=f"{prefix}{child.name}")
                    summary.calls = _collect_calls(child)
                    self.functions.append(summary)
                    self._note_typed_attrs(child, class_name)
                    visit(child, class_name,
                          f"{prefix}{child.name}.")
                else:
                    # Descend through plain statements (loops, with,
                    # try, if) so nested defs inside them are summarized
                    # too — scheduled closures often live in a loop body.
                    visit(child, class_name, prefix)

        visit(ctx.tree, None, "")

    def _note_typed_attrs(self, func: ast.AST,
                          class_name: Optional[str]) -> None:
        """Record ``self.X = <tracked type>`` assignments inside methods."""
        if class_name is None:
            return
        for typename in _TRACKED_TYPES:
            typed_params = _typed_annotated_params(func, typename)
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                value_is_typed = (
                    (isinstance(node.value, ast.Name)
                     and node.value.id in typed_params)
                    or _is_constructor(node.value, typename))
                if not value_is_typed:
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        self.typed_attrs[typename].setdefault(
                            class_name, set()).add(target.attr)

    # ------------------------------------------------------------------
    # static typing of receivers
    # ------------------------------------------------------------------

    def is_typed_receiver(self, site: CallSite, func: FunctionSummary,
                          typename: str) -> bool:
        """Whether a call site's receiver statically holds ``typename``.

        Recognised shapes: ``self.<attr>`` where the attribute was noted
        by :meth:`_note_typed_attrs`, a bare name that is a
        ``typename``-annotated parameter, and a bare name locally bound
        from ``typename(...)``.
        """
        recv = site.receiver
        if len(recv) == 2 and recv[0] == "self":
            return recv[1] in self.typed_attrs[typename].get(
                func.class_name or "", set())
        if len(recv) == 1 and recv[0] not in ("self", OPAQUE):
            name = recv[0]
            if name in _typed_annotated_params(func.node, typename):
                return True
            for node in ast.walk(func.node):
                if isinstance(node, ast.Assign) \
                        and _is_constructor(node.value, typename):
                    for target in node.targets:
                        if isinstance(target, ast.Name) \
                                and target.id == name:
                            return True
        return False

    def is_broker_receiver(self, site: CallSite,
                           func: FunctionSummary) -> bool:
        """Whether a call site's receiver statically holds a LogBroker."""
        return self.is_typed_receiver(site, func, "LogBroker")

    def is_loop_receiver(self, site: CallSite,
                         func: FunctionSummary) -> bool:
        """Whether a call site's receiver statically holds an EventLoop."""
        return self.is_typed_receiver(site, func, "EventLoop")

    # ------------------------------------------------------------------
    # call-graph helpers
    # ------------------------------------------------------------------

    def callers_of(self, func: FunctionSummary) -> Iterable[tuple]:
        """``(caller, site)`` pairs whose call plausibly targets ``func``.

        Resolution is by terminal name plus argument-shape compatibility;
        calls whose receiver is broker-typed are excluded (those target the
        broker itself, not a same-named wrapper).
        """
        for caller in self.functions:
            for site in caller.calls:
                if site.name != func.name:
                    continue
                if caller is func:
                    continue
                if self.is_broker_receiver(site, caller):
                    continue
                if _call_compatible(site.node, func):
                    yield caller, site

    def candidates(self, name: str) -> list[FunctionSummary]:
        return self.by_name.get(name, [])

    # ------------------------------------------------------------------
    # callback resolution (raceorder pass)
    # ------------------------------------------------------------------

    def resolve_callback(self, expr: ast.AST, func: FunctionSummary,
                         ) -> list[FunctionSummary]:
        """Function summaries a callback expression can invoke.

        Handles the shapes the scheduled-event graph actually uses:
        ``self.method``, a bare name (module-level function, a nested
        ``def`` inside ``func``, or a local lambda binding), an inline
        ``lambda`` (resolved through the calls in its body), and
        ``functools.partial(target, ...)``.
        """
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self":
                return self._same_class_methods(func, expr.attr)
            return []
        if isinstance(expr, ast.Name):
            return self._resolve_callback_name(expr.id, func)
        if isinstance(expr, ast.Lambda):
            out: list[FunctionSummary] = []
            for node in ast.walk(expr.body):
                if isinstance(node, ast.Call):
                    out.extend(self.resolve_callback(node.func, func))
            return out
        if isinstance(expr, ast.Call):
            chain = receiver_chain(expr.func)
            if chain[-1] == "partial" and expr.args:
                return self.resolve_callback(expr.args[0], func)
        return []

    def _same_class_methods(self, func: FunctionSummary,
                            name: str) -> list[FunctionSummary]:
        return [f for f in self.candidates(name)
                if f.ctx is func.ctx and f.class_name == func.class_name]

    def _resolve_callback_name(self, name: str, func: FunctionSummary,
                               ) -> list[FunctionSummary]:
        # A nested ``def`` of the enclosing function wins over a
        # same-named module-level function.
        nested = [f for f in self.candidates(name)
                  if f.ctx is func.ctx
                  and f.qualname == f"{func.qualname}.{name}"]
        if nested:
            return nested
        # A local ``name = lambda: ...`` binding.
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Lambda) \
                    and any(isinstance(t, ast.Name) and t.id == name
                            for t in node.targets):
                return self.resolve_callback(node.value, func)
        return [f for f in self.candidates(name)
                if f.ctx is func.ctx and f.class_name is None
                and f.qualname == name]

    # ------------------------------------------------------------------
    # channel resolution
    # ------------------------------------------------------------------

    def resolve_channel(self, expr: ast.AST, func: FunctionSummary,
                        depth: int = _MAX_DEPTH,
                        _seen: Optional[set] = None) -> set[tuple]:
        """Abstract values the channel expression can take (see header)."""
        if depth <= 0:
            return {(DYNAMIC,)}
        seen = _seen if _seen is not None else set()

        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {(LITERAL, expr.value)}

        if isinstance(expr, ast.JoinedStr):
            pattern = "".join(
                part.value if isinstance(part, ast.Constant) else "*"
                for part in expr.values)
            return {(PATTERN, pattern)}

        if isinstance(expr, ast.Call):
            return self._resolve_call_value(expr, func, depth, seen)

        if isinstance(expr, ast.Attribute):
            literal = _convention_literal(expr.attr)
            if literal is not None:
                return {(LITERAL, literal)}
            return {(DYNAMIC,)}

        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id, func, depth, seen)

        return {(DYNAMIC,)}

    def _resolve_call_value(self, call: ast.Call, func: FunctionSummary,
                            depth: int, seen: set) -> set[tuple]:
        chain = receiver_chain(call.func)
        qual = qualified_name(call.func, func.ctx.aliases)
        if chain[-1] == "shard_channel" or (
                qual is not None and qual.endswith(".shard_channel")):
            return {(SHARD,)}
        # A project function's return value: resolve its return expressions.
        targets = [t for t in self.candidates(chain[-1])
                   if _call_compatible(call, t)]
        if not targets or len(targets) > _MAX_CANDIDATES:
            return {(DYNAMIC,)}
        out: set[tuple] = set()
        for target in targets:
            key = ("ret", target.module, target.qualname)
            if key in seen:
                continue
            seen.add(key)
            returns = [n.value for n in ast.walk(target.node)
                       if isinstance(n, ast.Return) and n.value is not None]
            if not returns:
                out.add((DYNAMIC,))
            for value in returns:
                out |= self._resolve_iterable_or_value(
                    value, target, depth - 1, seen)
        return out or {(DYNAMIC,)}

    def _resolve_iterable_or_value(self, expr: ast.AST,
                                   func: FunctionSummary, depth: int,
                                   seen: set) -> set[tuple]:
        """Resolve an expression that may be a channel or a list of them."""
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.resolve_channel(expr.elt, func, depth, seen)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out: set[tuple] = set()
            for elt in expr.elts:
                out |= self.resolve_channel(elt, func, depth, seen)
            return out or {(DYNAMIC,)}
        return self.resolve_channel(expr, func, depth, seen)

    def _resolve_name(self, name: str, func: FunctionSummary,
                      depth: int, seen: set) -> set[tuple]:
        literal = _convention_literal(name)
        if literal is not None:
            return {(LITERAL, literal)}

        out: set[tuple] = set()
        # Local bindings: assignments and loop/comprehension targets.
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == name
                       for t in node.targets):
                    out |= self._resolve_iterable_or_value(
                        node.value, func, depth - 1, seen)
            elif isinstance(node, ast.For):
                if _target_binds(node.target, name):
                    out |= self._resolve_iter_source(
                        node.iter, func, depth - 1, seen)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _target_binds(gen.target, name):
                        out |= self._resolve_iter_source(
                            gen.iter, func, depth - 1, seen)
        if out:
            return out

        # Parameters: propagate backwards through the call graph.
        if name in func.params or name in func.kwonly_params:
            key = ("param", func.module, func.qualname, name)
            if key in seen:
                return {(DYNAMIC,)}
            seen.add(key)
            for caller, site in self.callers_of(func):
                arg = _argument_for(site.node, func, name)
                if arg is None:
                    arg = func.param_default(name)
                if arg is None:
                    out.add((DYNAMIC,))
                else:
                    out |= self.resolve_channel(arg, caller, depth - 1,
                                                seen)
            return out or {(DYNAMIC,)}
        return {(DYNAMIC,)}

    def _resolve_iter_source(self, expr: ast.AST, func: FunctionSummary,
                             depth: int, seen: set) -> set[tuple]:
        """Resolve the element values of an iterated expression."""
        if isinstance(expr, ast.Call):
            return self._resolve_call_value(expr, func, depth, seen)
        if isinstance(expr, ast.Name):
            # The iterated name's own binding (e.g. ``channels`` built from
            # a list comprehension above the loop).
            return self._resolve_name(expr.id, func, depth, seen)
        return self._resolve_iterable_or_value(expr, func, depth, seen)


# ----------------------------------------------------------------------
# module-level helpers
# ----------------------------------------------------------------------


def _collect_calls(func: ast.AST) -> list[CallSite]:
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            out.append(CallSite(chain=receiver_chain(node.func),
                                node=node, lineno=node.lineno))
    return out


#: types whose ``self.<attr>`` slots the summary tracks statically.
_TRACKED_TYPES = ("LogBroker", "EventLoop")


def _annotation_mentions(annotation: Optional[ast.AST],
                         typename: str) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == typename
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == typename
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        return typename in annotation.value
    if isinstance(annotation, ast.Subscript):  # Optional[LogBroker], ...
        return any(_annotation_mentions(n, typename)
                   for n in ast.walk(annotation.slice))
    return False


def _typed_annotated_params(func: ast.AST, typename: str) -> set[str]:
    args = getattr(func, "args", None)
    if args is None:
        return set()
    return {a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if _annotation_mentions(a.annotation, typename)}


def _is_constructor(expr: ast.AST, typename: str) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    chain = receiver_chain(expr.func)
    return chain[-1] == typename


def _target_binds(target: ast.AST, name: str) -> bool:
    """Whether a for/comprehension target binds ``name`` (incl. tuples)."""
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def _call_compatible(call: ast.Call, func: FunctionSummary) -> bool:
    """Argument-shape compatibility of a call site with a definition."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(kw.arg is None for kw in call.keywords):
        return True  # *args/**kwargs at the call site: assume compatible
    params = func.params
    kwonly = set(func.kwonly_params)
    has_vararg = func.node.args.vararg is not None
    has_kwarg = func.node.args.kwarg is not None
    n_pos = len(call.args)
    if n_pos > len(params) and not has_vararg:
        return False
    kw_names = {kw.arg for kw in call.keywords}
    if not has_kwarg and not kw_names <= (set(params) | kwonly):
        return False
    covered = n_pos + len(kw_names & set(params))
    return covered >= func.required_params


def _argument_for(call: ast.Call, func: FunctionSummary,
                  param: str) -> Optional[ast.AST]:
    """The call-site expression bound to ``param``, if determinable."""
    params = func.params
    if param in params:
        index = params.index(param)
        if index < len(call.args):
            arg = call.args[index]
            return None if isinstance(arg, ast.Starred) else arg
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    return None


# ----------------------------------------------------------------------
# return-path domination (durability pass)
# ----------------------------------------------------------------------
#
# The ack-before-durable rule needs a *must* analysis: on every control
# path that reaches a client-visible completion event (a value return, a
# future resolution), has a marker call — the WAL publish — already
# executed?  This is a small abstract interpretation over statement lists
# with one boolean state: "the marker has executed on all paths reaching
# here".


@dataclass(frozen=True)
class PathEvent:
    """A client-visible completion event found by :func:`ack_path_events`.

    ``kind`` is ``"return"`` (a ``return <value>`` statement) or
    ``"future-result"`` (an assignment to ``<x>.result`` or a
    ``.set_result(...)`` call).  ``dominated`` is True when a marker call
    precedes the event on *every* path from function entry.
    """

    node: ast.AST
    lineno: int
    kind: str
    dominated: bool


def _own_calls(node: ast.AST) -> Iterable[ast.Call]:
    """Call nodes of an expression, excluding nested def/lambda bodies.

    A call inside a nested ``def`` or ``lambda`` runs when the closure is
    invoked, not when the enclosing statement executes, so it must not
    count as "the marker has executed here".
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


class _DominationWalker:
    """Statement-list walker computing must-execution of a marker call."""

    def __init__(self, is_marker) -> None:
        self._is_marker = is_marker
        self.events: list[PathEvent] = []

    def _marked(self, expr: Optional[ast.AST]) -> bool:
        if expr is None:
            return False
        return any(self._is_marker(call) for call in _own_calls(expr))

    def block(self, stmts, state: bool) -> tuple[bool, bool]:
        """Returns ``(state_out, falls_through)`` for a statement list."""
        for stmt in stmts:
            state, falls_through = self._stmt(stmt, state)
            if not falls_through:
                return state, False
        return state, True

    def _stmt(self, stmt: ast.stmt, state: bool) -> tuple[bool, bool]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return state, True
        if isinstance(stmt, ast.Return):
            # The returned expression evaluates before the return
            # completes: ``return self.publish(...)`` is dominated.
            state = state or self._marked(stmt.value)
            if stmt.value is not None:
                self.events.append(PathEvent(
                    node=stmt, lineno=stmt.lineno, kind="return",
                    dominated=state))
            return state, False
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            return state, False
        if isinstance(stmt, ast.If):
            state = state or self._marked(stmt.test)
            then = self.block(stmt.body, state)
            other = self.block(stmt.orelse, state)
            outs = [s for s, falls in (then, other) if falls]
            if not outs:   # no branch falls through: what follows is dead
                return True, False
            return all(outs), True
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                else stmt.test
            state = state or self._marked(head)
            body_state, body_falls = self.block(stmt.body, state)
            # Loop optimism: the body is assumed to run at least once.
            # A zero-iteration loop has accepted no record, so there is
            # nothing to make durable before acking the empty batch.
            after = body_state if body_falls else state
            else_state, else_falls = self.block(stmt.orelse, after)
            return (else_state if else_falls else after), True
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                state = state or self._marked(item.context_expr)
            return self.block(stmt.body, state)
        if isinstance(stmt, ast.Try) or (
                hasattr(ast, "TryStar")
                and isinstance(stmt, getattr(ast, "TryStar"))):
            return self._try(stmt, state)
        if hasattr(ast, "Match") and isinstance(stmt, getattr(ast, "Match")):
            state = state or self._marked(stmt.subject)
            outs = [state]   # implicit no-match fall-through
            for case in stmt.cases:
                case_state, case_falls = self.block(case.body, state)
                if case_falls:
                    outs.append(case_state)
            return all(outs), True
        # Simple statement: scan it for markers, then record ack shapes.
        state = state or self._marked(stmt)
        self._note_future_acks(stmt, state)
        return state, True

    def _try(self, stmt, state: bool) -> tuple[bool, bool]:
        body_state, body_falls = self.block(stmt.body, state)
        outs = []
        if body_falls:
            else_state, else_falls = self.block(stmt.orelse, body_state)
            if else_falls:
                outs.append(else_state)
        for handler in stmt.handlers:
            # The exception may fire before the marker ran: handlers
            # start from the state at try entry, not after the body.
            handler_state, handler_falls = self.block(handler.body, state)
            if handler_falls:
                outs.append(handler_state)
        merged, falls = (all(outs), True) if outs else (True, False)
        if stmt.finalbody:
            final_state, final_falls = self.block(stmt.finalbody, merged)
            return final_state, falls and final_falls
        return merged, falls

    def _note_future_acks(self, stmt: ast.stmt, state: bool) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr == "result":
                    self.events.append(PathEvent(
                        node=stmt, lineno=stmt.lineno,
                        kind="future-result", dominated=state))
        for call in _own_calls(stmt):
            if receiver_chain(call.func)[-1] == "set_result":
                self.events.append(PathEvent(
                    node=call, lineno=call.lineno,
                    kind="future-result", dominated=state))


def ack_path_events(func: FunctionSummary, is_marker) -> list[PathEvent]:
    """Completion events of ``func`` with marker must-domination verdicts.

    ``is_marker`` is a predicate over ``ast.Call`` nodes (typically "this
    call makes the record durable").  Events are returned in source order.
    """
    walker = _DominationWalker(is_marker)
    walker.block(list(func.node.body), False)
    walker.events.sort(key=lambda e: e.lineno)
    return walker.events


def project_summary(project: Project) -> ProjectSummary:
    """The cached :class:`ProjectSummary` for this analysis run."""
    cached = getattr(project, "_summary", None)
    if cached is None:
        cached = ProjectSummary(project)
        project._summary = cached
    return cached
