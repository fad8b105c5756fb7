"""consistency-discipline: guarantee timestamps must reach every fan-out.

Delta consistency (paper §3.4) only works if *every* path from the user
API to a query-node search (a) derives its guarantee timestamp from
``guarantee_ts()`` and (b) blocks until each involved node's watermark
passes it (``ready()`` / ``_wait_for_consistency``) *before* dispatching.
A search that skips the wait silently serves stale data; a hard-coded
guarantee defeats the tunable-staleness contract.

The pass works on the inter-procedural summary:

* a function *fans out* when it dispatches ``search`` /
  ``search_multivector`` / ``range_search`` / ``fetch`` — by attribute, or
  by name through ``getattr(node, ...)`` as the proxy's one shared fan-out
  does — on nodes obtained from a plan source (``search_plan()`` and
  friends); plan-boundness is propagated through assignments, loops and
  comprehensions;
* each fan-out function must call ``guarantee_ts()`` (or receive a
  ``*guarantee*`` parameter threaded by its caller) and must wait before
  the first dispatch;
* numeric-literal guarantees passed to ``ready()`` /
  ``_wait_for_consistency()`` are flagged anywhere in the checked layers.

Findings name an example entry path (``Collection.search -> ...``) when
the function is reachable from the public API, so the report reads as a
protocol trace, not a style nit.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.analysis.base import Finding, Project, Rule
from repro.analysis.summaries import (
    FunctionSummary, ProjectSummary, project_summary,
)

#: layers whose code may fan a search out to query nodes.
CHECKED_LAYERS = frozenset({"api", "nodes", "cluster", "coproc"})

#: calls whose result is a plan: sequences of (node, scope) to search.
PLAN_SOURCES = frozenset({"search_plan", "live_nodes", "nodes_serving"})

#: node methods that perform an actual read on a query node.
SEARCH_METHODS = frozenset({"search", "search_multivector", "range_search",
                            "fetch"})

#: calls that block on the consistency watermark.
WAIT_CALLS = frozenset({"_wait_for_consistency", "wait_for_consistency"})

#: public entry points used to label findings with an example path.
ENTRY_NAMES = frozenset({
    "search", "search_multivector", "range_search", "query", "get",
    "submit_search",
})


def _plan_bound_names(func: FunctionSummary) -> set[str]:
    """Names that (transitively) hold plan nodes inside ``func``."""
    bound: set[str] = set()

    def is_plan_expr(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            callee = expr.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", None)
            return name in PLAN_SOURCES
        if isinstance(expr, ast.Name):
            return expr.id in bound
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return any(is_plan_expr(gen.iter) for gen in expr.generators)
        return False

    def bind_target(target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                bound.add(node.id)

    changed = True
    while changed:
        changed = False
        before = len(bound)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and is_plan_expr(node.value):
                for target in node.targets:
                    bind_target(target)
            elif isinstance(node, ast.For) and is_plan_expr(node.iter):
                bind_target(node.target)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if is_plan_expr(gen.iter):
                        bind_target(gen.target)
        changed = len(bound) > before
    return bound


def _dispatch_sites(func: FunctionSummary, bound: set[str]) -> list:
    """Plan-node read dispatches inside ``func``."""
    return [site for site in func.calls
            if (site.name in SEARCH_METHODS and len(site.chain) >= 2
                and site.chain[0] in bound)
            or (site.chain == ("getattr",) and site.node.args
                and isinstance(site.node.args[0], ast.Name)
                and site.node.args[0].id in bound)]


def _has_guarantee_source(func: FunctionSummary) -> bool:
    if any("guarantee" in p for p in func.params + func.kwonly_params):
        return True
    return any(site.name == "guarantee_ts" for site in func.calls)


def _wait_lines(func: FunctionSummary, bound: set[str]) -> list[int]:
    lines = []
    for site in func.calls:
        if site.name in WAIT_CALLS:
            lines.append(site.lineno)
        elif site.name == "ready" and len(site.chain) >= 2:
            lines.append(site.lineno)
    return lines


def _entry_paths(summary: ProjectSummary) -> dict:
    """BFS over name-resolved call edges from the public entry points.

    Returns ``{qualname: "Entry.qualname -> ... -> qualname"}`` for every
    checked-layer function reachable from an API / proxy entry.
    """
    entries = [f for f in summary.functions
               if f.name in ENTRY_NAMES
               and (f.ctx.layer == "api"
                    or f.module == "nodes/proxy.py")]
    paths: dict[str, str] = {}
    queue: list[FunctionSummary] = []
    for func in entries:
        key = f"{func.module}:{func.qualname}"
        if key not in paths:
            paths[key] = func.qualname
            queue.append(func)
    while queue:
        func = queue.pop(0)
        for site in func.calls:
            for callee in summary.candidates(site.name):
                if callee.ctx.layer not in CHECKED_LAYERS:
                    continue
                key = f"{callee.module}:{callee.qualname}"
                if key in paths:
                    continue
                paths[key] = (f"{paths[f'{func.module}:{func.qualname}']}"
                              f" -> {callee.qualname}")
                queue.append(callee)
    return paths


def _path_note(paths: dict, func: FunctionSummary) -> str:
    path = paths.get(f"{func.module}:{func.qualname}")
    return f" [entry path: {path}]" if path and " -> " in path else ""


def _numeric_literal(expr: ast.AST) -> bool:
    return (isinstance(expr, ast.Constant)
            and isinstance(expr.value, (int, float))
            and not isinstance(expr.value, bool))


class ConsistencyDisciplineRule(Rule):
    id = "consistency-discipline"
    description = ("every query-node fan-out must derive its guarantee "
                   "timestamp from guarantee_ts() and wait for ready() "
                   "before dispatching; no hard-coded guarantees")
    paper_ref = "§3.4 delta consistency: tunable staleness via the guarantee ts"

    def check_project(self, project: Project) -> Iterable[Finding]:
        summary = project_summary(project)
        paths: Optional[dict] = None
        for func in summary.functions:
            if func.ctx.layer not in CHECKED_LAYERS:
                continue
            yield from self._check_literals(func)
            bound = _plan_bound_names(func)
            if not bound:
                continue
            dispatches = _dispatch_sites(func, bound)
            if not dispatches:
                continue
            if paths is None:
                paths = _entry_paths(summary)
            first = min(site.lineno for site in dispatches)
            note = _path_note(paths, func)
            if not _has_guarantee_source(func):
                yield func.ctx.finding(
                    self.id, dispatches[0].node,
                    f"{func.qualname}() dispatches a search to plan nodes "
                    f"without a guarantee timestamp{note}",
                    hint=("derive one via guarantee_ts(level, issue_ts, "
                          "staleness_ms, session_ts) or accept a "
                          "'guarantee' parameter from the caller"))
                continue
            waits = _wait_lines(func, bound)
            if not waits:
                yield func.ctx.finding(
                    self.id, dispatches[0].node,
                    f"{func.qualname}() dispatches a search without "
                    f"waiting for the consistency watermark{note}",
                    hint=("call _wait_for_consistency(...) / "
                          "node.ready(collection, guarantee) before "
                          "dispatching"))
            elif min(waits) > first:
                yield func.ctx.finding(
                    self.id, dispatches[0].node,
                    f"{func.qualname}() waits for consistency only "
                    f"*after* the first search dispatch{note}",
                    hint="move the ready()/wait call above the fan-out loop")

    def _check_literals(self,
                        func: FunctionSummary) -> Iterator[Finding]:
        for site in func.calls:
            literal = None
            if site.name == "ready" and len(site.chain) >= 2:
                literal = next((a for a in site.node.args
                                if _numeric_literal(a)), None)
            elif site.name in WAIT_CALLS:
                literal = next((a for a in site.node.args
                                if _numeric_literal(a)), None)
            if literal is not None:
                yield func.ctx.finding(
                    self.id, site.node,
                    f"hard-coded guarantee timestamp "
                    f"{literal.value!r} in {func.qualname}()",
                    hint=("guarantees come from guarantee_ts(); a literal "
                          "defeats tunable staleness (§3.4)"))
