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
# consistency-discipline
# ----------------------------------------------------------------------

PROXY_HEADER = """
    from repro.core.consistency import guarantee_ts

    class Proxy:
        def _wait_for_consistency(self, collection, nodes, guarantee):
            while any(not n.ready(collection, guarantee) for n in nodes):
                self._loop.step()
"""


class TestConsistencyDisciplinePass:
    def test_clean_proxy_pattern_passes(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/proxy.py": PROXY_HEADER + """
        def search(self, collection, queries, k, consistency, staleness):
            issue_ts = self._tso.allocate_packed()
            guarantee = guarantee_ts(consistency, issue_ts, staleness,
                                     self._session_ts)
            plan = self._query_coord.search_plan(collection)
            nodes = [node for node, _scope in plan]
            self._wait_for_consistency(collection, nodes, guarantee)
            out = []
            for node, scope in plan:
                out.append(node.search(collection, queries, k,
                                       scope=scope))
            return out
            """,
        }, rule="consistency-discipline")
        assert report.findings == []

    def test_missing_guarantee_ts_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/proxy.py": """
                class Proxy:
                    def search(self, collection, queries, k):
                        plan = self._query_coord.search_plan(collection)
                        return [node.search(collection, queries, k)
                                for node, _scope in plan]
            """,
        }, rule="consistency-discipline")
        assert len(report.findings) == 1
        assert "without a guarantee timestamp" in report.findings[0].message

    def test_skipped_ready_wait_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/proxy.py": """
                from repro.core.consistency import guarantee_ts

                class Proxy:
                    def search(self, collection, queries, k, level, stale):
                        guarantee = guarantee_ts(level, 1, stale, 0)
                        plan = self._query_coord.search_plan(collection)
                        return [node.search(collection, queries, k,
                                            guarantee)
                                for node, _scope in plan]
            """,
        }, rule="consistency-discipline")
        assert len(report.findings) == 1
        assert "without waiting" in report.findings[0].message

    def test_wait_after_dispatch_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/proxy.py": PROXY_HEADER + """
        def search(self, collection, queries, k, level, stale):
            guarantee = guarantee_ts(level, 1, stale, 0)
            plan = self._query_coord.search_plan(collection)
            out = [node.search(collection, queries, k)
                   for node, _scope in plan]
            self._wait_for_consistency(collection,
                                       [n for n, _s in plan], guarantee)
            return out
            """,
        }, rule="consistency-discipline")
        assert len(report.findings) == 1
        assert "after" in report.findings[0].message

    def test_hardcoded_guarantee_fires(self, tmp_path):
        report = lint(tmp_path, {
            "api/pymanu.py": """
                class Collection:
                    def poke(self, node, collection):
                        return node.ready(collection, 12345)
            """,
        }, rule="consistency-discipline")
        assert len(report.findings) == 1
        assert "hard-coded guarantee" in report.findings[0].message

    def test_guarantee_may_be_threaded_via_parameter(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/helper.py": """
                class Helper:
                    def fan_out(self, collection, queries, k, guarantee):
                        plan = self._coord.search_plan(collection)
                        for node, scope in plan:
                            node.ready(collection, guarantee)
                        return [node.search(collection, queries, k)
                                for node, _s in plan]
            """,
        }, rule="consistency-discipline")
        assert report.findings == []

    def test_entry_path_named_in_finding(self, tmp_path):
        report = lint(tmp_path, {
            "api/pymanu.py": """
                class Collection:
                    def search(self, collection, queries, k):
                        return self._cluster.do_search(collection,
                                                       queries, k)
            """,
            "nodes/proxy.py": """
                class Proxy:
                    def do_search(self, collection, queries, k):
                        plan = self._query_coord.search_plan(collection)
                        return [node.search(collection, queries, k)
                                for node, _scope in plan]
            """,
        }, rule="consistency-discipline")
        assert len(report.findings) == 1
        assert "entry path: Collection.search -> Proxy.do_search" \
            in report.findings[0].message

    SHARED_FAN_OUT = PROXY_HEADER + """
        def _scatter_gather(self, req, ask, args):
            guarantee = guarantee_ts(req.consistency, 1, req.staleness_ms,
                                     self._session_ts)
            plan = self._query_coord.search_plan(req.collection)
            {first}
            partials = []
            for node, scope in plan:
                partials.append(getattr(node, ask)(req.collection, *args,
                                                   scope=scope))
            {last}
            return partials

        def range_search(self, collection, query, radius):
            return self._scatter_gather(self._admit(collection),
                                        "range_search", (query, radius))
    """
    WAIT = ("self._wait_for_consistency(req.collection, "
            "[n for n, _s in plan], guarantee)")

    def test_shared_fan_out_dispatching_by_name_is_seen(self, tmp_path):
        """The proxy's one scatter-gather names the node method it asks;
        the pass must still see the fan-out through the getattr."""
        clean = lint(tmp_path / "clean", {
            "nodes/proxy.py": self.SHARED_FAN_OUT.format(first=self.WAIT,
                                                         last="pass"),
        }, rule="consistency-discipline")
        assert clean.findings == []
        late = lint(tmp_path / "late", {
            "nodes/proxy.py": self.SHARED_FAN_OUT.format(first="pass",
                                                         last=self.WAIT),
        }, rule="consistency-discipline")
        assert len(late.findings) == 1
        assert "after" in late.findings[0].message
        assert "_scatter_gather" in late.findings[0].message
        never = lint(tmp_path / "never", {
            "nodes/proxy.py": self.SHARED_FAN_OUT.format(first="pass",
                                                         last="pass"),
        }, rule="consistency-discipline")
        assert len(never.findings) == 1
        assert "without waiting" in never.findings[0].message

    def test_unwaited_point_read_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/proxy.py": """
                class Proxy:
                    def get(self, collection, pks):
                        out = {}
                        plan = self._query_coord.search_plan(collection)
                        for node, _scope in plan:
                            out.update(node.fetch(collection, pks))
                        return out
            """,
        }, rule="consistency-discipline")
        assert len(report.findings) == 1
        assert "without a guarantee timestamp" in report.findings[0].message

    def test_real_repo_sees_the_single_fan_out(self):
        """One function in src fans out, and it is the shared one."""
        from repro.analysis.consistency import (
            _dispatch_sites, _plan_bound_names)
        from repro.analysis.engine import load_project
        from repro.analysis.summaries import project_summary
        fan_outs = [
            func.qualname
            for func in project_summary(load_project(REPO_SRC)).functions
            if _dispatch_sites(func, _plan_bound_names(func))]
        assert fan_outs == ["Proxy._scatter_gather"]

    def test_real_repo_is_clean(self):
        report = run_analysis(REPO_SRC,
                              select=["consistency-discipline"])
        assert report.findings == [], \
            "\n".join(f.format() for f in report.findings)


# ----------------------------------------------------------------------
# resource-discipline
# ----------------------------------------------------------------------


class TestResourceDisciplinePass:
    def test_discarded_subscription_fires(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/query_node.py": """
                from repro.log.broker import LogBroker

                class QueryNode:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker

                    def tap(self):
                        self._broker.subscribe("wal/c/shard-0", "tap")
            """,
        }, rule="resource-discipline")
        assert findings_at(report, "resource-discipline") == [
            ("nodes/query_node.py", 9)]
        assert "discarded" in report.findings[0].message

    def test_retained_subscription_is_clean(self, tmp_path):
        report = lint(tmp_path, {
            "nodes/query_node.py": """
                from repro.log.broker import LogBroker

                class QueryNode:
                    def __init__(self, broker: LogBroker) -> None:
                        self._broker = broker
                        self._subs = {}

                    def tap(self, channel):
                        self._subs[channel] = self._broker.subscribe(
                            channel, "tap")
            """,
        }, rule="resource-discipline")
        assert report.findings == []

    def test_open_outside_with_fires(self, tmp_path):
        report = lint(tmp_path, {
            "storage/object_store.py": """
                def slurp(path):
                    f = open(path, "rb")
                    return f.read()
            """,
        }, rule="resource-discipline")
        assert len(report.findings) == 1
        assert "open()" in report.findings[0].message

    def test_open_in_with_is_clean(self, tmp_path):
        report = lint(tmp_path, {
            "storage/object_store.py": """
                def slurp(path):
                    with open(path, "rb") as f:
                        return f.read()
            """,
        }, rule="resource-discipline")
        assert report.findings == []

    def test_bare_acquire_fires_and_finally_release_is_clean(
            self, tmp_path):
        report = lint(tmp_path, {
            "storage/locks.py": """
                def bad(lock):
                    lock.acquire()
                    return 1

                def good(lock):
                    lock.acquire()
                    try:
                        return 1
                    finally:
                        lock.release()

                def best(lock):
                    with lock:
                        return 1
            """,
        }, rule="resource-discipline")
        assert findings_at(report, "resource-discipline") == [
            ("storage/locks.py", 3)]

    def test_real_repo_is_clean(self):
        report = run_analysis(REPO_SRC, select=["resource-discipline"])
        assert report.findings == [], \
            "\n".join(f.format() for f in report.findings)


# ----------------------------------------------------------------------
# CLI: --format github/dot, --baseline
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
        assert payload["topology"]["matches_declared"] is True
        assert "wal-shard" in payload["topology"]["publishers"]

    def test_baseline_roundtrip(self, tmp_path, capsys):
        from repro.analysis.cli import main
        root = self._bad_root(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main([str(root), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        # With the baseline in place the same finding no longer fails.
        assert main([str(root), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out
        # A fresh violation still fails through the baseline.
        (root / "core" / "worse.py").write_text(
            "from repro.nodes import proxy\n", encoding="utf-8")
        assert main([str(root), "--baseline", str(baseline)]) == 1

    def test_update_baseline_requires_file(self, capsys):
        from repro.analysis.cli import main
        assert main([str(REPO_SRC), "--update-baseline"]) == 2
