"""Tests for the manu-crash crash-consistency pass (repro.analysis).

Each rule family gets a fixture triple: the violation fires, a guarded
counterpart stays silent, and an in-place suppression is honoured.  On
top of that the recovered durability model is pinned: deterministic
across builds, cached per run, and the real repository must be
strict-clean under both rules.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.durability import DURABILITY_ACK, DURABILITY_REPLAY
from repro.analysis.engine import load_project
from repro.analysis.recovery import build_durability_model

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

BROKER_STUB = """
class LogBroker:
    pass
"""


def make_tree(tmp_path, files):
    root = tmp_path / "repro_root"
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint(tmp_path, files, rule=None):
    select = [rule] if rule else None
    return run_analysis(make_tree(tmp_path, files), select=select)


def findings_at(report, rule):
    return [(f.path, f.line) for f in report.findings if f.rule == rule]


# ----------------------------------------------------------------------
# durability-ack-before-durable
# ----------------------------------------------------------------------


class TestAckBeforeDurable:
    def test_early_return_before_publish_fires(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": """
                from repro.log.broker import LogBroker

                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                class Logger:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def publish_batch(self, collection, shard, record):
                        if record is None:
                            return 0
                        self._broker.publish(
                            shard_channel(collection, shard), record)
                        return 1
            """,
        }, rule=DURABILITY_ACK)
        assert findings_at(report, DURABILITY_ACK) == [
            ("log/logger_node.py", 13)]
        assert "not dominated" in report.findings[0].message

    def test_publish_dominates_every_return_is_clean(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": """
                from repro.log.broker import LogBroker

                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                class Logger:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def publish_batch(self, collection, shard, record):
                        self._broker.publish(
                            shard_channel(collection, shard), record)
                        if record is None:
                            return 0
                        return 1
            """,
        }, rule=DURABILITY_ACK)
        assert report.findings == []

    def test_suppression_honoured(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": """
                from repro.log.broker import LogBroker

                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                class Logger:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def publish_batch(self, collection, shard, record):
                        if record is None:
                            return 0  # manu-lint: disable=durability-ack-before-durable -- zero-effect ack
                        self._broker.publish(
                            shard_channel(collection, shard), record)
                        return 1
            """,
        }, rule=DURABILITY_ACK)
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# durability-ack-before-durable: deferred acks (group commit)
# ----------------------------------------------------------------------

_RESOLVER_PRELUDE = textwrap.dedent("""
    from repro.log.broker import LogBroker

    def shard_channel(collection, shard):
        return f"wal/{collection}/shard-{shard}"

    class AckFuture:
        def set_result(self, lsn, rows):
            self.done = True
""")


class TestAckFutureResolver:
    """Group-commit shape: writes enter via ``*_async`` returning an
    AckFuture; the client-visible ack is the future's resolution inside
    the flush function, which must follow the batch publish."""

    def test_resolve_before_publish_fires(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": _RESOLVER_PRELUDE + textwrap.dedent("""
                class LoggerService:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._groups = {}

                    def flush_group(self, collection, shard):
                        ops = self._groups.pop((collection, shard), [])
                        for record, future in ops:
                            future.set_result(1, 1)
                        for record, future in ops:
                            self._broker.publish(
                                shard_channel(collection, shard), record)
            """),
        }, rule=DURABILITY_ACK)
        assert findings_at(report, DURABILITY_ACK) == [
            ("log/logger_node.py", 19)]
        assert "future resolution" in report.findings[0].message

    def test_resolve_after_publish_is_clean(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": _RESOLVER_PRELUDE + textwrap.dedent("""
                class LoggerService:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._groups = {}

                    def flush_group(self, collection, shard):
                        ops = self._groups.pop((collection, shard), [])
                        for record, future in ops:
                            self._broker.publish(
                                shard_channel(collection, shard), record)
                        for record, future in ops:
                            future.set_result(1, 1)
            """),
        }, rule=DURABILITY_ACK)
        assert report.findings == []

    def test_resolver_suppression_honoured(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": _RESOLVER_PRELUDE + textwrap.dedent("""
                class LoggerService:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._groups = {}

                    def flush_group(self, collection, shard):
                        ops = self._groups.pop((collection, shard), [])
                        if not ops:
                            future = AckFuture()
                            future.set_result(0, 0)  # manu-lint: disable=durability-ack-before-durable -- zero-effect ack
                            return
                        for record, future in ops:
                            self._broker.publish(
                                shard_channel(collection, shard), record)
                        for record, future in ops:
                            future.set_result(1, 1)
            """),
        }, rule=DURABILITY_ACK)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_async_entry_returning_future_is_not_an_ack(self, tmp_path):
        """``insert_async`` hands back an unresolved AckFuture before the
        publish — that is the deferred-ack contract, not a violation; the
        resolution inside ``flush_group`` is what gets checked."""
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "log/logger_node.py": _RESOLVER_PRELUDE + textwrap.dedent("""
                class LoggerService:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._groups = {}

                    def insert_async(self, collection, shard,
                                     record) -> "AckFuture":
                        future = AckFuture()
                        self._groups[(collection, shard)] = \\
                            (record, future)
                        if len(self._groups) > 4:
                            self.flush_group(collection, shard)
                        return future

                    def flush_group(self, collection, shard):
                        entry = self._groups.pop((collection, shard))
                        record, future = entry
                        self._broker.publish(
                            shard_channel(collection, shard), record)
                        future.set_result(1, 1)
            """),
        }, rule=DURABILITY_ACK)
        assert report.findings == []


# ----------------------------------------------------------------------
# durability-replay-unguarded
# ----------------------------------------------------------------------


class TestReplayUnguarded:
    def test_blind_append_in_handler_fires(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "nodes/archiver.py": """
                from repro.log.broker import LogBroker

                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                class Archiver:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._rows = []
                        self._sub = None

                    def attach(self, collection, shard):
                        self._sub = self._broker.subscribe(
                            shard_channel(collection, shard),
                            "archiver", 0, callback=self._on_entry)

                    def _on_entry(self, entry):
                        self._rows.append(entry.payload)
            """,
        }, rule=DURABILITY_REPLAY)
        assert findings_at(report, DURABILITY_REPLAY) == [
            ("nodes/archiver.py", 19)]
        assert "without a progress guard" in report.findings[0].message

    def test_offset_guard_silences(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "nodes/archiver.py": """
                from repro.log.broker import LogBroker

                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                class Archiver:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._rows = []
                        self._next_offset = 0
                        self._sub = None

                    def attach(self, collection, shard):
                        self._sub = self._broker.subscribe(
                            shard_channel(collection, shard),
                            "archiver", 0, callback=self._on_entry)

                    def _on_entry(self, entry):
                        if entry.offset < self._next_offset:
                            return
                        self._next_offset = entry.offset + 1
                        self._rows.append(entry.payload)
            """,
        }, rule=DURABILITY_REPLAY)
        assert report.findings == []

    def test_suppression_honoured(self, tmp_path):
        report = lint(tmp_path, {
            "log/broker.py": BROKER_STUB,
            "nodes/archiver.py": """
                from repro.log.broker import LogBroker

                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                class Archiver:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._rows = []
                        self._sub = None

                    def attach(self, collection, shard):
                        self._sub = self._broker.subscribe(
                            shard_channel(collection, shard),
                            "archiver", 0, callback=self._on_entry)

                    def _on_entry(self, entry):
                        self._rows.append(entry.payload)  # manu-lint: disable=durability-replay-unguarded -- dedup happens at flush
            """,
        }, rule=DURABILITY_REPLAY)
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# the recovered model itself
# ----------------------------------------------------------------------


class TestDurabilityModel:
    def test_model_is_deterministic_across_builds(self):
        def verdicts(model):
            return (
                [(e.func.module, e.func.qualname, e.acks)
                 for e in model.write_entries],
                [(h.func.module, h.func.qualname,
                  [(x.func.qualname, x.site.lineno, x.target, x.guarded)
                   for x in h.effects])
                 for h in model.handlers])

        first = build_durability_model(load_project(REPO_SRC))
        second = build_durability_model(load_project(REPO_SRC))
        assert verdicts(first) == verdicts(second)

    def test_model_is_cached_per_project(self):
        project = load_project(REPO_SRC)
        assert build_durability_model(project) \
            is build_durability_model(project)

    def test_real_write_path_is_modelled(self):
        """The paper's write path shows up in the recovered model: every
        client entry (api/cluster proxy insert/delete/upsert) reaches the
        logger's WAL publish, and every ack is dominated."""
        model = build_durability_model(load_project(REPO_SRC))
        entries = {e.func.qualname: e.ok for e in model.write_entries}
        for qualname in ("Collection.insert", "ManuCluster.insert",
                         "ManuCluster.insert_async",
                         "Proxy.insert", "Proxy.delete", "Proxy.upsert",
                         "Logger.publish_batch",
                         "LoggerService.insert"):
            assert qualname in entries, qualname
            assert entries[qualname], f"{qualname} ack not dominated"
        # The group-commit resolver is modelled: its in-band resolution
        # (after the batch publish) is dominated; the zero-effect empty-
        # flush ack is the one suppressed site.
        flush = [e for e in model.write_entries
                 if e.func.qualname == "LoggerService.flush_group"]
        assert len(flush) == 1
        kinds = {a.kind for a in flush[0].acks}
        assert kinds == {"future-result"}
        assert any(a.dominated for a in flush[0].acks)

    def test_real_replay_handlers_are_guarded(self):
        model = build_durability_model(load_project(REPO_SRC))
        handlers = {h.func.qualname: h for h in model.handlers}
        assert "DataNode._on_entry" in handlers
        assert "QueryNode._on_entry" in handlers
        for handler in model.handlers:
            assert handler.guarded, (
                f"{handler.func.qualname} has unguarded replay effects: "
                f"{[e.target for e in handler.effects if not e.guarded]}")

    def test_repo_is_strict_clean(self):
        report = run_analysis(REPO_SRC, strict=True)
        assert report.parse_errors == []
        assert report.findings == []


# ----------------------------------------------------------------------
# export surface
# ----------------------------------------------------------------------


def test_exports_from_package_roots():
    import repro.analysis as analysis
    assert analysis.DURABILITY_ACK == "durability-ack-before-durable"
    assert analysis.DURABILITY_REPLAY == "durability-replay-unguarded"
    assert len(analysis.DURABILITY_RULES) == 2
    assert callable(analysis.build_durability_model)
    # The runtime package does not load the linter.
    probe = ("import sys, repro; "
             "sys.exit('repro.analysis' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(
                                REPO_SRC.parent)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or \
        "import repro loaded repro.analysis"
