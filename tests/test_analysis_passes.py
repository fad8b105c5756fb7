"""Tests for the whole-program manu-lint passes (PR 2).

Fixture trees exercise each pass both ways (violation fires / clean
counterpart stays silent), and a golden test pins the *recovered* pub/sub
topology of ``src/repro`` to the declared graph in
``repro/analysis/topology.py`` — a refactor that moves a publish or
subscribe to a new module must update the declaration deliberately.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import recover_topology, run_analysis
from repro.analysis.topology import (
    DECLARED_PUBLISHERS, DECLARED_SUBSCRIBERS, declared_edges,
    topology_to_dot,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


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
# pubsub-topology
# ----------------------------------------------------------------------

BROKER_STUB = """
class LogBroker:
    pass
"""


class TestPubSubTopologyPass:
    def test_declared_publisher_is_clean(self, tmp_path):
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
            """,
        }, rule="pubsub-topology")
        assert report.findings == []

    def test_undeclared_wal_publisher_fires(self, tmp_path):
        report = lint(tmp_path, {
            "coord/query.py": """
                from repro.log.broker import LogBroker

                class QueryCoord:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def oops(self, record):
                        self._broker.publish("wal/c/shard-0", record)
            """,
        }, rule="pubsub-topology")
        assert findings_at(report, "pubsub-topology") == [
            ("coord/query.py", 9)]
        assert "not a declared publisher" in report.findings[0].message

    def test_undeclared_channel_literal_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/data_node.py": """
                from repro.log.broker import LogBroker

                class DataNode:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def gossip(self, record):
                        self._broker.publish("wal/gossip", record)
            """,
        }, rule="pubsub-topology")
        assert len(report.findings) == 1
        assert "'wal/gossip'" in report.findings[0].message

    def test_dynamic_channel_outside_allowance_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/query_node.py": """
                from repro.log.broker import LogBroker

                class QueryNode:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def tap(self, channel):
                        self._sub = self._broker.subscribe(channel, "tap")
            """,
        }, rule="pubsub-topology")
        assert len(report.findings) == 1
        assert "statically unresolvable" in report.findings[0].message

    def test_channel_resolved_through_caller(self, tmp_path):
        # The channel is a bare parameter at the subscribe site; the
        # caller passes a shard channel, so the edge resolves to
        # wal-shard and data_node is a declared subscriber.
        report = lint(tmp_path, {
            "nodes/data_node.py": """
                from repro.log.broker import LogBroker

                class DataNode:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._subs = {}

                    def subscribe(self, channel):
                        self._subs[channel] = self._broker.subscribe(
                            channel, "dn")
            """,
            "cluster/manu.py": """
                def shard_channel(collection, shard):
                    return f"wal/{collection}/shard-{shard}"

                def wire(node, collection):
                    for shard in range(2):
                        node.subscribe(shard_channel(collection, shard))
            """,
        }, rule="pubsub-topology")
        assert report.findings == []

    def test_wrapper_subscribe_not_confused_with_broker(self, tmp_path):
        # node.subscribe(...) on a non-broker receiver is a worker
        # wrapper, not a log subscription — never flagged.
        report = lint(tmp_path, {
            "coord/query.py": """
                class QueryCoord:
                    def assign(self, node, channel):
                        node.subscribe("anything-goes", channel)
            """,
        }, rule="pubsub-topology")
        assert report.findings == []

    def test_binlog_writer_restricted(self, tmp_path):
        report = lint(tmp_path, {
            "coord/data.py": """
                class DataCoord:
                    def sneak(self, writer, collection):
                        writer.write_segment(collection, "seg", [], [])
            """,
        }, rule="pubsub-topology")
        assert len(report.findings) == 1
        assert "binlog" in report.findings[0].message

    def test_harness_layers_exempt(self, tmp_path):
        # Top-level files (tests/benchmarks analyzed from their own
        # roots) may publish freely.
        report = lint(tmp_path, {
            "test_broker.py": """
                def test_publish(broker):
                    broker.publish("events", object())
            """,
        }, rule="pubsub-topology")
        assert report.findings == []


class TestGoldenTopology:
    def test_recovered_matches_declared(self):
        topo = recover_topology(REPO_SRC)
        assert topo["matches_declared"], json.dumps(topo, indent=2)

    def test_declared_graph_spot_checks(self):
        # The load-bearing §3.3 facts, stated directly.
        assert DECLARED_PUBLISHERS["wal-shard"] == {"log/logger_node.py"}
        assert DECLARED_PUBLISHERS["ddl"] == {"coord/root.py"}
        assert "coord/query.py" not in DECLARED_PUBLISHERS["coord"]
        assert "nodes/query_node.py" in DECLARED_SUBSCRIBERS["wal-shard"]

    def test_dot_export_renders_every_edge(self):
        dot = topology_to_dot(declared_edges())
        assert dot.startswith("digraph")
        assert '"log/logger_node.py" -> "chan:wal-shard";' in dot
        assert '"chan:coord" -> "coord/query.py";' in dot


# ----------------------------------------------------------------------
# CLI: --format github/dot/json
# ----------------------------------------------------------------------


class TestCliExtensions:
    def _bad_root(self, tmp_path):
        return make_tree(tmp_path, {
            "core/bad.py": "from repro.api import rest\n"})

    def test_github_format(self, tmp_path, capsys):
        from repro.analysis.cli import main
        assert main([str(self._bad_root(tmp_path)),
                     "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=core/bad.py,line=1,"
                              "title=manu-lint layering::")

    def test_dot_format(self, tmp_path, capsys):
        from repro.analysis.cli import main
        assert main([str(REPO_SRC), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph manu_pubsub")
        assert '"log/logger_node.py" -> "chan:wal-shard";' in out

    def test_json_embeds_topology(self, capsys):
        from repro.analysis.cli import main
        assert main([str(REPO_SRC), "--strict", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "findings", "modules_checked", "parse_errors", "root",
            "suppressed", "topology"]
        assert payload["topology"]["matches_declared"] is True
        assert "wal-shard" in payload["topology"]["publishers"]
