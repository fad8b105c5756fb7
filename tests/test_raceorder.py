"""Unit tests for the raceorder handler pass (manu-race static head).

Fixture trees exercise each rule (hidden-coupling and detached fixtures
fire, their clean counterparts stay silent), and the handler discovery
itself is checked for kinds, determinism, caching and the real repo.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.engine import load_project
from repro.analysis.raceorder import (
    RACEORDER_DETACHED,
    RACEORDER_HIDDEN_COUPLING,
    event_handlers,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_tree(tmp_path, files):
    root = tmp_path / "repro_root"
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint(tmp_path, files, rule=None):
    return run_analysis(make_tree(tmp_path, files),
                        select=[rule] if rule else None)


def findings_at(report, rule):
    return [(f.path, f.line) for f in report.findings if f.rule == rule]


#: a node with two delivery handlers, one per channel group.
NODE = """
from repro.log.broker import LogBroker

class Node:
    def __init__(self, broker: LogBroker) -> None:
        self._broker = broker
        self._state = {}
        self._broker.subscribe("wal/c/shard-0", "n", 0,
                               callback=self._on_data)
        self._broker.subscribe("wal/coord", "nc", 0,
                               callback=self._on_ctrl)

    def _on_data(self, entry) -> None:
        self._state[entry.offset] = entry.payload

    def _on_ctrl(self, entry) -> None:
        self._state.clear()
"""


class TestHiddenCouplingRule:
    def test_handler_reading_broker_private_state_fires(self, tmp_path):
        report = lint(tmp_path, {"nodes/node.py": """
            from repro.log.broker import LogBroker

            class Node:
                def __init__(self, broker: LogBroker) -> None:
                    self._broker = broker
                    self._lag = 0
                    self._broker.subscribe("wal/c/shard-0", "n", 0,
                                           callback=self._on_data)

                def _on_data(self, entry) -> None:
                    self._lag = len(self._broker._channels)
            """}, rule=RACEORDER_HIDDEN_COUPLING)
        found = findings_at(report, RACEORDER_HIDDEN_COUPLING)
        assert len(found) == 1
        assert "_broker._channels" in report.findings[0].message

    def test_handler_reading_coord_private_state_fires(self, tmp_path):
        report = lint(tmp_path, {"nodes/node.py": """
            from repro.log.broker import LogBroker

            class Node:
                def __init__(self, broker: LogBroker, coord) -> None:
                    self._broker = broker
                    self._coord = coord
                    self.seen = 0
                    self._broker.subscribe("wal/coord", "n", 0,
                                           callback=self._on_ctrl)

                def _on_ctrl(self, entry) -> None:
                    self.seen = len(self._coord._assignments)
            """}, rule=RACEORDER_HIDDEN_COUPLING)
        assert len(findings_at(report, RACEORDER_HIDDEN_COUPLING)) == 1

    def test_public_accessor_is_silent(self, tmp_path):
        report = lint(tmp_path, {"nodes/node.py": """
            from repro.log.broker import LogBroker

            class Node:
                def __init__(self, broker: LogBroker) -> None:
                    self._broker = broker
                    self._lag = 0
                    self._broker.subscribe("wal/c/shard-0", "n", 0,
                                           callback=self._on_data)

                def _on_data(self, entry) -> None:
                    self._lag = self._broker.end_offset(entry.channel)
            """}, rule=RACEORDER_HIDDEN_COUPLING)
        assert findings_at(report, RACEORDER_HIDDEN_COUPLING) == []

    def test_non_handler_code_is_silent(self, tmp_path):
        # Private reach-ins outside the scheduled-event graph are the
        # layering/abstraction rules' business, not raceorder's.
        report = lint(tmp_path, {"nodes/node.py": """
            from repro.log.broker import LogBroker

            class Admin:
                def __init__(self, broker: LogBroker) -> None:
                    self._broker = broker

                def debug_dump(self):
                    return dict(self._broker._channels)
            """}, rule=RACEORDER_HIDDEN_COUPLING)
        assert findings_at(report, RACEORDER_HIDDEN_COUPLING) == []


class TestDetachedRule:
    def test_periodic_publisher_without_detached_fires(self, tmp_path):
        report = lint(tmp_path, {"log/ticker.py": """
            from repro.log.broker import LogBroker
            from repro.sim.events import EventLoop

            class Ticker:
                def __init__(self, loop: EventLoop,
                             broker: LogBroker, tracer) -> None:
                    self._loop = loop
                    self._broker = broker
                    self._tracer = tracer
                    self._loop.call_every(10.0, self._emit)

                def _emit(self) -> None:
                    self._broker.publish("wal/coord", "tick")
            """}, rule=RACEORDER_DETACHED)
        found = findings_at(report, RACEORDER_DETACHED)
        assert len(found) == 1
        assert "_emit" in report.findings[0].message

    def test_periodic_publisher_with_detached_is_silent(self, tmp_path):
        report = lint(tmp_path, {"log/ticker.py": """
            from repro.log.broker import LogBroker
            from repro.sim.events import EventLoop

            class Ticker:
                def __init__(self, loop: EventLoop,
                             broker: LogBroker, tracer) -> None:
                    self._loop = loop
                    self._broker = broker
                    self._tracer = tracer
                    self._loop.call_every(10.0, self._emit)

                def _emit(self) -> None:
                    with self._tracer.detached():
                        self._broker.publish("wal/coord", "tick")
            """}, rule=RACEORDER_DETACHED)
        assert findings_at(report, RACEORDER_DETACHED) == []

    def test_quiet_periodic_handler_is_exempt(self, tmp_path):
        # Neither publishes nor opens spans: nothing to detach.
        report = lint(tmp_path, {"log/ticker.py": """
            from repro.sim.events import EventLoop

            class Beat:
                def __init__(self, loop: EventLoop) -> None:
                    self._loop = loop
                    self.beats = 0
                    self._loop.call_every(10.0, self._beat)

                def _beat(self) -> None:
                    self.beats += 1
            """}, rule=RACEORDER_DETACHED)
        assert findings_at(report, RACEORDER_DETACHED) == []


class TestHBGraphBuilder:
    def test_graph_recovers_handler_kinds(self, tmp_path):
        root = make_tree(tmp_path, {"nodes/node.py": NODE})
        handlers = event_handlers(load_project(root))
        assert sorted(handlers) == ["nodes/node.py::Node._on_ctrl",
                                    "nodes/node.py::Node._on_data"]
        for handler in handlers.values():
            assert handler.kinds == {"delivery"}
            assert not handler.publishes and not handler.opens_spans

    def test_graph_build_is_deterministic(self, tmp_path):
        def shape(handlers):
            return {key: (sorted(h.kinds), h.publishes, h.opens_spans,
                          h.has_detached)
                    for key, h in handlers.items()}

        root = make_tree(tmp_path, {"nodes/node.py": NODE})
        assert shape(event_handlers(load_project(root))) \
            == shape(event_handlers(load_project(root)))

    def test_graph_is_cached_per_project(self, tmp_path):
        root = make_tree(tmp_path, {"nodes/node.py": NODE})
        project = load_project(root)
        assert event_handlers(project) is event_handlers(project)

    def test_real_repo_graph_has_expected_handlers(self):
        handlers = event_handlers(load_project(SRC_ROOT))
        # Spot checks across the three handler kinds.
        assert handlers[
            "nodes/data_node.py::DataNode._on_entry"].kinds == {"delivery"}
        housekeeping = handlers["cluster/manu.py::ManuCluster._housekeeping"]
        assert "periodic" in housekeeping.kinds
        assert "deferred" in handlers[
            "nodes/data_node.py::DataNode._retry_seal"].kinds

    def test_real_repo_is_clean_under_strict(self):
        report = run_analysis(
            SRC_ROOT, select=[RACEORDER_HIDDEN_COUPLING, RACEORDER_DETACHED],
            strict=True)
        assert [f.format() for f in report.findings] == []
        # Every raceorder suppression (if any) carries a justification.
        for finding, suppression in report.suppressed:
            if finding.rule.startswith("raceorder-"):
                assert suppression.reason
