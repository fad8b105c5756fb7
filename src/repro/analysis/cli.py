"""Command line front end: ``python -m repro.analysis``.

Exit codes: 0 clean, 1 findings (or parse errors), 2 usage error.

Output formats:

* ``text`` (default) — file:line findings with fix hints;
* ``json`` — machine-readable report;
* ``github`` — GitHub workflow-annotation lines (``::error file=...``)
  so CI failures annotate PRs inline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import all_rules, run_analysis


def _default_root() -> Path:
    """Prefer ``src/repro`` under the working directory, else the installed
    package directory, so the command works from a checkout or anywhere."""
    candidate = Path("src/repro")
    if candidate.is_dir():
        return candidate
    return Path(__file__).resolve().parent.parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("manu-lint: invariant-checking static analysis for the "
                     "Manu reproduction"))
    parser.add_argument("root", nargs="?", default=None,
                        help="directory to analyze (default: src/repro)")
    parser.add_argument("--strict", action="store_true",
                        help=("also require every suppression comment to "
                              "carry a '-- reason' justification and name "
                              "only known rule ids"))
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE", help="run only these rule ids")
    parser.add_argument("--disable", action="append", default=None,
                        metavar="RULE", help="skip these rule ids")
    parser.add_argument("--format",
                        choices=("text", "json", "github"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        print(f"{rule.id:22s} {rule.description}")
        if rule.paper_ref:
            print(f"{'':22s} guards: {rule.paper_ref}")


def _github_line(finding) -> str:
    # One line per finding in GitHub's workflow-command syntax; the
    # message must stay single-line.
    message = finding.message.replace("\n", " ")
    if finding.hint:
        message += f" | hint: {finding.hint}"
    return (f"::error file={finding.path},line={finding.line},"
            f"title=manu-lint {finding.rule}::{message}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    root = Path(args.root) if args.root else _default_root()
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2

    try:
        report = run_analysis(root, select=args.select,
                              disable=args.disable, strict=args.strict)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps({
            "root": str(report.root),
            "modules_checked": report.modules_checked,
            "findings": [vars(f) for f in report.findings],
            "parse_errors": [vars(f) for f in report.parse_errors],
            "suppressed": [
                {"finding": vars(f), "reason": s.reason,
                 "suppression_line": s.line}
                for f, s in report.suppressed],
        }, indent=2))
        return report.exit_code()

    if args.format == "github":
        for finding in report.parse_errors + report.findings:
            print(_github_line(finding))
        return report.exit_code()

    for finding in report.parse_errors + report.findings:
        print(finding.format())
    summary = (f"manu-lint: {report.modules_checked} modules, "
               f"{len(report.findings)} finding(s), "
               f"{len(report.suppressed)} suppressed")
    if report.parse_errors:
        summary += f", {len(report.parse_errors)} parse error(s)"
    print(summary)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
