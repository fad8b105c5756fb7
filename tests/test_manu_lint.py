"""Tier-1 integration: the repository itself must stay manu-lint clean.

This is the pytest wiring that makes every tier-1 run also enforce the
paper's invariants statically — a refactor that introduces a forbidden
layer edge, raw LSN arithmetic, a wall-clock read, a non-ManuError raise
in the public API, or a frozen-record mutation fails here with the exact
file:line and a fix hint.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import run_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src" / "repro"
TESTS_ROOT = REPO_ROOT / "tests"
BENCHMARKS_ROOT = REPO_ROOT / "benchmarks"


def _assert_clean(root, min_modules):
    report = run_analysis(root, strict=True)
    details = "\n".join(f.format() for f in
                        report.parse_errors + report.findings)
    assert report.ok, f"manu-lint findings under {root.name}:\n{details}"
    # the whole tree was actually walked
    assert report.modules_checked >= min_modules


def test_repo_is_manu_lint_clean_strict():
    _assert_clean(REPO_SRC, min_modules=80)


def test_tests_are_manu_lint_clean_strict():
    _assert_clean(TESTS_ROOT, min_modules=40)


def test_benchmarks_are_manu_lint_clean_strict():
    _assert_clean(BENCHMARKS_ROOT, min_modules=10)


def test_every_repo_suppression_is_justified():
    for root in (REPO_SRC, TESTS_ROOT, BENCHMARKS_ROOT):
        report = run_analysis(root, strict=True)
        for finding, suppression in report.suppressed:
            assert suppression.reason, (
                f"{finding.path}:{finding.line} suppressed without a reason")


def test_exports_from_package_roots():
    import repro.analysis as analysis
    assert callable(analysis.run_analysis)
    # The runtime package does not load the linter.
    probe = ("import sys, repro; "
             "sys.exit('repro.analysis' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(
                                REPO_SRC.parent)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or \
        "import repro loaded repro.analysis"
