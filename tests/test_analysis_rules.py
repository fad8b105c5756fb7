"""Unit tests for the manu-lint rule families (repro.analysis).

Each rule family gets three fixtures: a deliberate violation, a clean
counterpart, and a ``# manu-lint: disable=`` suppression — asserting the
rule fires exactly where expected and nowhere else.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import run_analysis
from repro.analysis.engine import all_rules

MINI_ERRORS = """
class ManuError(Exception):
    pass

class SchemaError(ManuError):
    pass

IndexBuildError = SchemaError
"""


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` under a fresh analysis root."""
    root = tmp_path / "repro_root"
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint(tmp_path, files, rule=None, strict=False):
    root = make_tree(tmp_path, files)
    select = [rule] if rule else None
    return run_analysis(root, select=select, strict=strict)


def findings_at(report, rule):
    return [(f.path, f.line) for f in report.findings if f.rule == rule]


class TestLayeringRule:
    def test_forbidden_edge_fires_with_edge_named(self, tmp_path):
        report = lint(tmp_path, {
            "core/bad.py": "from repro.nodes.proxy import Proxy\n",
        }, rule="layering")
        assert findings_at(report, "layering") == [("core/bad.py", 1)]
        assert "'core' -> 'nodes'" in report.findings[0].message
        assert "repro.nodes.proxy" in report.findings[0].message

    def test_log_must_not_import_nodes(self, tmp_path):
        report = lint(tmp_path, {
            "log/bad.py": "import repro.nodes.data_node\n",
        }, rule="layering")
        assert findings_at(report, "layering") == [("log/bad.py", 1)]

    def test_allowed_edges_clean(self, tmp_path):
        report = lint(tmp_path, {
            # downward edges and upper-layer imports are all fine
            "log/ok.py": "from repro.core.tso import Timestamp\n",
            "nodes/ok.py": "from repro.index.hnsw import Hnsw\n",
            "api/ok.py": "from repro.cluster.manu import ManuCluster\n",
        }, rule="layering")
        assert report.findings == []

    def test_relative_import_resolves_to_layer(self, tmp_path):
        report = lint(tmp_path, {
            "storage/__init__.py": "",
            "storage/bad.py": "from ..api import rest\n",
        }, rule="layering")
        assert findings_at(report, "layering") == [("storage/bad.py", 1)]

    def test_suppression(self, tmp_path):
        report = lint(tmp_path, {
            "core/sup.py": ("from repro.api import rest  "
                            "# manu-lint: disable=layering -- test\n"),
        }, rule="layering")
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestTimestampDisciplineRule:
    def test_raw_arithmetic_fires(self, tmp_path):
        report = lint(tmp_path, {
            "log/bad.py": """
                def bump(ts, last_lsn):
                    a = ts + 1
                    b = last_lsn - 10
                    return a, b
            """,
        }, rule="timestamp-discipline")
        assert findings_at(report, "timestamp-discipline") == [
            ("log/bad.py", 3), ("log/bad.py", 4)]

    def test_literal_ordering_comparison_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/bad.py": """
                def stale(issue_ts):
                    return issue_ts < 5000
            """,
        }, rule="timestamp-discipline")
        assert findings_at(report, "timestamp-discipline") == [
            ("nodes/bad.py", 3)]

    def test_clean_counterparts(self, tmp_path):
        report = lint(tmp_path, {
            "core/ok.py": """
                def ok(ts, seen_ts, counts, interval_ms):
                    newer = ts > seen_ts      # LSN-vs-LSN ordering is fine
                    sentinel = ts == 0        # equality is fine
                    n = counts + 1            # not an LSN-shaped name
                    later = interval_ms + 5.0
                    return newer, sentinel, n, later
            """,
        }, rule="timestamp-discipline")
        assert report.findings == []

    def test_tso_module_is_exempt(self, tmp_path):
        report = lint(tmp_path, {
            "core/tso.py": """
                def pack(ts):
                    return ts + 1  # the TSO owns the bit layout
            """,
        }, rule="timestamp-discipline")
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = lint(tmp_path, {
            "log/sup.py": """
                def bump(ts):
                    # manu-lint: disable=timestamp-discipline -- test
                    return ts + 1
            """,
        }, rule="timestamp-discipline")
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestDeterminismRule:
    def test_wall_clock_and_global_random_fire(self, tmp_path):
        report = lint(tmp_path, {
            "index/bad.py": """
                import time
                import random
                import numpy as np

                def f():
                    t = time.time()
                    random.shuffle([1, 2])
                    x = np.random.rand(3)
                    rng = np.random.default_rng()
                    return t, x, rng
            """,
        }, rule="determinism")
        assert findings_at(report, "determinism") == [
            ("index/bad.py", 7), ("index/bad.py", 8),
            ("index/bad.py", 9), ("index/bad.py", 10)]

    def test_from_import_and_datetime_resolve(self, tmp_path):
        report = lint(tmp_path, {
            "coord/bad.py": """
                from time import perf_counter
                from datetime import datetime

                def f():
                    return perf_counter(), datetime.now()
            """,
        }, rule="determinism")
        assert findings_at(report, "determinism") == [
            ("coord/bad.py", 6), ("coord/bad.py", 6)]

    def test_seeded_generators_clean(self, tmp_path):
        report = lint(tmp_path, {
            "index/ok.py": """
                import numpy as np

                def f(rng):
                    seeded = np.random.default_rng(42)
                    draws = rng.random(10)   # generator object, not global
                    return seeded, draws
            """,
        }, rule="determinism")
        assert report.findings == []

    def test_sim_clock_is_whitelisted(self, tmp_path):
        report = lint(tmp_path, {
            "sim/clock.py": "import time\n\ndef now():\n"
                            "    return time.time()\n",
        }, rule="determinism")
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = lint(tmp_path, {
            "sim/sup.py": """
                import time

                def calibrate():
                    return time.perf_counter()  # manu-lint: disable=determinism -- test
            """,
        }, rule="determinism")
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestErrorHygieneRule:
    def test_public_layer_non_manu_raise_fires(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": MINI_ERRORS,
            "api/bad.py": """
                def f():
                    raise ValueError("nope")
            """,
        }, rule="error-hygiene")
        assert findings_at(report, "error-hygiene") == [("api/bad.py", 3)]

    def test_manu_subclasses_and_aliases_clean(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": MINI_ERRORS,
            "cluster/ok.py": """
                from repro.errors import IndexBuildError, SchemaError

                def f(err):
                    if err == "schema":
                        raise SchemaError("bad schema")
                    if err == "index":
                        raise IndexBuildError("bad index")
                    raise err  # re-raising a caught variable is allowed
            """,
        }, rule="error-hygiene")
        assert report.findings == []

    def test_internal_layers_may_raise_builtins(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": MINI_ERRORS,
            "storage/ok.py": """
                def f():
                    raise ValueError("internal precondition")
            """,
        }, rule="error-hygiene")
        assert report.findings == []

    def test_bare_and_broad_except_fire_everywhere(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": MINI_ERRORS,
            "index/bad.py": """
                def f():
                    try:
                        pass
                    except Exception:
                        pass
                    try:
                        pass
                    except:
                        pass
            """,
        }, rule="error-hygiene")
        assert findings_at(report, "error-hygiene") == [
            ("index/bad.py", 5), ("index/bad.py", 9)]

    def test_suppression(self, tmp_path):
        report = lint(tmp_path, {
            "errors.py": MINI_ERRORS,
            "api/sup.py": """
                def f():
                    try:
                        pass
                    except Exception:  # manu-lint: disable=error-hygiene -- test
                        pass
            """,
        }, rule="error-hygiene")
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestFrozenRecordRule:
    FIXTURE_WAL = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class WalRecord:
            ts: int

        @dataclass(frozen=True)
        class InsertRecord(WalRecord):
            pks: tuple = ()
    """

    def test_setattr_and_annotated_mutation_fire(self, tmp_path):
        report = lint(tmp_path, {
            "log/wal.py": self.FIXTURE_WAL,
            "log/bad.py": """
                from repro.log.wal import InsertRecord

                def mutate(rec: InsertRecord):
                    rec.pks = (1,)
                    object.__setattr__(rec, "ts", 0)
            """,
        }, rule="frozen-record")
        assert findings_at(report, "frozen-record") == [
            ("log/bad.py", 5), ("log/bad.py", 6)]

    def test_constructor_assignment_tracked(self, tmp_path):
        report = lint(tmp_path, {
            "log/wal.py": self.FIXTURE_WAL,
            "nodes/bad.py": """
                from repro.log.wal import InsertRecord

                def build():
                    rec = InsertRecord(ts=1)
                    rec.ts = 2
                    return rec
            """,
        }, rule="frozen-record")
        assert findings_at(report, "frozen-record") == [("nodes/bad.py", 6)]

    def test_post_init_and_replace_clean(self, tmp_path):
        report = lint(tmp_path, {
            "log/wal.py": self.FIXTURE_WAL,
            "log/ok.py": """
                from dataclasses import dataclass, replace
                from repro.log.wal import InsertRecord

                @dataclass(frozen=True)
                class Derived:
                    n: int

                    def __post_init__(self):
                        object.__setattr__(self, "n", abs(self.n))

                def rewrite(rec: InsertRecord):
                    return replace(rec, pks=(9,))
            """,
        }, rule="frozen-record")
        assert report.findings == []

    def test_mutating_non_record_objects_clean(self, tmp_path):
        report = lint(tmp_path, {
            "log/wal.py": self.FIXTURE_WAL,
            "nodes/ok.py": """
                def f(cursor):
                    cursor.offset = 3  # plain mutable object
            """,
        }, rule="frozen-record")
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = lint(tmp_path, {
            "log/wal.py": self.FIXTURE_WAL,
            "log/sup.py": """
                from repro.log.wal import InsertRecord

                def mutate(rec: InsertRecord):
                    # manu-lint: disable=frozen-record -- test
                    rec.pks = (1,)
            """,
        }, rule="frozen-record")
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestSuppressionMechanics:
    def test_file_level_disable(self, tmp_path):
        report = lint(tmp_path, {
            "core/legacy.py": """
                # manu-lint: disable-file=timestamp-discipline -- legacy test
                def f(ts):
                    return ts + 1

                def g(ts):
                    return ts - 1
            """,
        }, rule="timestamp-discipline")
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_standalone_comment_covers_next_code_line(self, tmp_path):
        report = lint(tmp_path, {
            "core/sup.py": """
                def f(ts):
                    # manu-lint: disable=timestamp-discipline -- spans the
                    # follow-on comment line too
                    return ts + 1
            """,
        }, rule="timestamp-discipline")
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_suppressing_one_rule_does_not_hide_another(self, tmp_path):
        report = lint(tmp_path, {
            "core/mixed.py": """
                import time

                def f(ts):
                    return ts + int(time.time())  # manu-lint: disable=determinism -- test
            """,
        })
        assert findings_at(report, "timestamp-discipline") == [
            ("core/mixed.py", 5)]
        assert findings_at(report, "determinism") == []

    def test_strict_mode_requires_justification(self, tmp_path):
        report = lint(tmp_path, {
            "core/sup.py": """
                def f(ts):
                    return ts + 1  # manu-lint: disable=timestamp-discipline
            """,
        }, strict=True)
        assert findings_at(report, "suppression-hygiene") == [
            ("core/sup.py", 3)]
        # Non-strict mode accepts the same suppression silently.
        relaxed = lint(tmp_path, {
            "core/sup2.py": """
                def f(ts):
                    return ts + 1  # manu-lint: disable=timestamp-discipline
            """,
        })
        assert relaxed.findings == []

    def test_strict_mode_rejects_unknown_rule_ids(self, tmp_path):
        report = lint(tmp_path, {
            "core/sup.py": """
                x = 1  # manu-lint: disable=no-such-rule -- typo stays silent
                y = 2  # manu-lint: disable=all -- blanket, but known
                # manu-lint: disable-file=determinism,gone-rule -- mixed
            """,
        }, strict=True)
        hygiene = [f for f in report.findings
                   if f.rule == "suppression-hygiene"]
        assert [(f.path, f.line) for f in hygiene] == [
            ("core/sup.py", 2), ("core/sup.py", 4)]
        assert "no-such-rule" in hygiene[0].message
        assert "gone-rule" in hygiene[1].message
        assert "determinism" not in hygiene[1].message
        # Non-strict mode does not audit suppressions.
        assert lint(tmp_path / "relaxed", {
            "core/sup.py": "x = 1  # manu-lint: disable=no-such-rule\n",
        }).findings == []


class TestEngineAndCli:
    def test_unknown_rule_rejected(self, tmp_path):
        root = make_tree(tmp_path, {"core/x.py": "pass\n"})
        with pytest.raises(ValueError, match="unknown rule"):
            run_analysis(root, select=["no-such-rule"])

    def test_parse_error_reported_not_crashing(self, tmp_path):
        report = lint(tmp_path, {"core/broken.py": "def f(:\n"})
        assert not report.ok
        assert report.parse_errors[0].rule == "parse-error"

    def test_rule_registry_complete(self):
        assert sorted(rule.id for rule in all_rules()) == [
            "determinism", "error-hygiene", "frozen-record", "layering",
            "timestamp-discipline"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.analysis.cli import main
        root = make_tree(tmp_path, {
            "core/bad.py": "from repro.api import rest\n"})
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "core/bad.py:1" in out and "[layering]" in out
        clean = make_tree(tmp_path / "clean", {"core/ok.py": "x = 1\n"})
        assert main([str(clean)]) == 0
        assert main([str(clean), "--format", "json"]) == 0

    def test_github_format(self, tmp_path, capsys):
        from repro.analysis.cli import main
        root = make_tree(tmp_path, {
            "core/bad.py": "from repro.api import rest\n"})
        assert main([str(root), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=core/bad.py,line=1,"
                              "title=manu-lint layering::")

    def test_json_report_keys(self, tmp_path, capsys):
        from repro.analysis.cli import main
        root = make_tree(tmp_path, {"core/ok.py": "x = 1\n"})
        assert main([str(root), "--strict", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "findings", "modules_checked", "parse_errors", "root",
            "suppressed"]
