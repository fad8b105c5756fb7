"""Analysis driver: walk a source tree, run rules, apply suppressions.

The engine parses every ``*.py`` under the root into a
:class:`~repro.analysis.base.Project`, runs the selected rules, and then
filters findings through the ``# manu-lint: disable=`` comments.  In strict
mode a suppression without a ``-- reason`` justification, or one naming a
rule id that does not exist, is itself reported (rule id
``suppression-hygiene``), so the escape hatch stays auditable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.base import Finding, ModuleContext, Project
from repro.analysis.determinism import DeterminismRule
from repro.analysis.durability import DURABILITY_RULES
from repro.analysis.errhygiene import ErrorHygieneRule
from repro.analysis.frozen import FrozenRecordRule
from repro.analysis.layering import LayeringRule
from repro.analysis.pubsub import PubSubTopologyRule
from repro.analysis.raceorder import RACEORDER_RULES
from repro.analysis.timestamps import TimestampDisciplineRule

SUPPRESSION_HYGIENE = "suppression-hygiene"

#: directories never analyzed (the linter does not lint itself for LSN
#: names, and caches are noise).
SKIP_DIRS = {"__pycache__"}


def all_rules() -> list:
    """Fresh instances of every registered rule, in reporting order."""
    return [
        LayeringRule(),
        TimestampDisciplineRule(),
        DeterminismRule(),
        ErrorHygieneRule(),
        FrozenRecordRule(),
        # whole-program passes over the inter-procedural summary
        PubSubTopologyRule(),
        # passes over the scheduled-event handlers (manu-race)
        *[rule() for rule in RACEORDER_RULES],
        # crash-consistency passes over the durability model (manu-crash)
        *[rule() for rule in DURABILITY_RULES],
    ]


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    root: Path
    findings: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)
    parse_errors: list = field(default_factory=list)
    modules_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _iter_sources(root: Path) -> Iterable[Path]:
    for path in sorted(root.rglob("*.py")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def load_project(root: Path) -> Project:
    """Parse every source file under ``root`` into module contexts."""
    project = Project(root=root)
    for path in _iter_sources(root):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            project.parse_errors.append(Finding(
                rule="parse-error", path=path.relative_to(root).as_posix(),
                line=exc.lineno or 1, message=f"syntax error: {exc.msg}"))
            continue
        project.modules.append(ModuleContext(path, root, tree, source))
    return project


def _select_rules(select: Optional[Sequence[str]],
                  disable: Optional[Sequence[str]]) -> list:
    rules = all_rules()
    known = {rule.id for rule in rules}
    for requested in list(select or []) + list(disable or []):
        if requested not in known:
            raise ValueError(
                f"unknown rule {requested!r}; known: {sorted(known)}")
    if select:
        rules = [r for r in rules if r.id in set(select)]
    if disable:
        rules = [r for r in rules if r.id not in set(disable)]
    return rules


def run_analysis(root, select: Optional[Sequence[str]] = None,
                 disable: Optional[Sequence[str]] = None,
                 strict: bool = False) -> AnalysisReport:
    """Run the selected rules over ``root`` and return a report.

    ``strict`` additionally requires every suppression comment to carry a
    ``-- reason`` justification and to name only known rule ids.
    """
    root = Path(root)
    project = load_project(root)
    report = AnalysisReport(root=root, parse_errors=project.parse_errors,
                            modules_checked=len(project.modules))
    contexts = {ctx.relpath: ctx for ctx in project.modules}

    for rule in _select_rules(select, disable):
        for finding in rule.check_project(project):
            ctx = contexts.get(finding.path)
            sup = ctx.suppression_for(rule.id, finding.line) if ctx else None
            if sup is not None:
                report.suppressed.append((finding, sup))
            else:
                report.findings.append(finding)

    if strict:
        known = {rule.id for rule in all_rules()} | {"all"}
        for ctx in project.modules:
            for sup in ctx.suppressions:
                if not sup.reason:
                    report.findings.append(Finding(
                        rule=SUPPRESSION_HYGIENE, path=ctx.relpath,
                        line=sup.line,
                        message=("suppression without justification: add "
                                 "'-- <reason>' after the rule list"),
                        hint=("# manu-lint: disable=<rule> -- why this is "
                              "safe here")))
                unknown = sorted(sup.rules - known)
                if unknown:
                    report.findings.append(Finding(
                        rule=SUPPRESSION_HYGIENE, path=ctx.relpath,
                        line=sup.line,
                        message=(f"suppression names unknown rule(s) "
                                 f"{', '.join(unknown)}: it suppresses "
                                 "nothing"),
                        hint="python -m repro.analysis --list-rules"))

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
