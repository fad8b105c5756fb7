"""Module boundaries that a grep or an AST walk states exactly; each test
names one "only here" fact and fails with the offending ``path:line``:
coordination through the log or public methods (which the schedule
shuffler sees); one graph walk; one log applier; binlog written by data
nodes and compaction only (paper §3.3); layers import down the DAG (§2);
the virtual clock is the only clock; a broad ``except`` only in the race
runner and the REST handler's 500; log records stay as born (§3.3)."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro.log

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
TESTS = REPO_ROOT / "tests"

#: layer -> layers it must never import (the architecture DAG, inverted).
FORBIDDEN_EDGES = {
    "core": ("nodes", "coord", "cluster", "api", "monitoring",
             "profiling"),
    "index": ("nodes", "coord", "cluster", "api", "monitoring",
              "profiling"),
    "storage": ("nodes", "coord", "cluster", "api", "monitoring",
                "profiling"),
    "log": ("nodes", "monitoring", "profiling"),
    "tenancy": ("nodes", "coord", "cluster", "api", "monitoring",
                "profiling"),
    "tracing": ("nodes", "coord", "cluster", "api", "log", "monitoring",
                "profiling"),
    "monitoring": ("nodes", "coord", "api", "log", "profiling"),
    "profiling": ("nodes", "coord", "cluster", "api", "monitoring",
                  "tracing", "log", "tenancy", "storage"),
}


def _sources(*roots: Path):
    """``(repo-relative path, dotted module, source)`` per module."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            yield (rel, rel.removeprefix("src/").removesuffix(".py")
                   .replace("/", "."), path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def trees():
    """``_sources`` of ``src/repro`` and ``tests``, each with its AST."""
    return [(*module, ast.parse(module[2]))
            for module in _sources(SRC, TESTS)]


def _hits(pattern: str, *roots: Path, allowed=()) -> list[str]:
    """``path:line`` of every line matching ``pattern`` under ``roots`` but
    in files whose repo-relative path starts with an ``allowed`` prefix."""
    regex = re.compile(pattern)
    return [f"{rel}:{number}: {line.strip()}"
            for rel, _module, source in _sources(*roots)
            if not rel.startswith(tuple(allowed))
            for number, line in enumerate(source.splitlines(), 1)
            if regex.search(line)]


def _imported(module: str, tree: ast.AST):
    """``(line, dotted name)`` of every imported module and name, a
    relative import made absolute."""
    package = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, item.name) for item in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(
                package[:len(package) + 1 - node.level]
                + [node.module] * bool(node.module))
            yield node.lineno, base
            yield from ((node.lineno, f"{base}.{item.name}")
                        for item in node.names)


def _called(tree: ast.AST):
    """``(call, dotted callee)`` per call of a name or attribute chain, its
    root resolved through imports (``np.random.x`` -> ``numpy.random.x``)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((item.asname, item.name) for item in node.names
                           if item.asname)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            aliases.update((item.asname or item.name,
                            f"{node.module}.{item.name}")
                           for item in node.names)
    for node in ast.walk(tree):
        parts, func = [], getattr(node, "func", None)
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(node, ast.Call) and isinstance(func, ast.Name):
            yield node, ".".join([aliases.get(func.id, func.id),
                                  *reversed(parts)])


def test_no_reach_into_a_coordinator_or_the_broker():
    roots = (SRC, REPO_ROOT / "examples")
    assert _hits(r"\w*broker\w*\._[a-z]", *roots,
                 allowed=("src/repro/log/broker.py",)) == []
    assert _hits(r"\w*coord\w*\._[a-z]", *roots,
                 allowed=("src/repro/coord/",)) == []


def test_one_walk():
    assert _hits(r"^\s*(import|from)\s+heapq\b", SRC / "index",
                 allowed=("src/repro/index/graph.py",)) == []


def test_one_applier():
    assert _hits(r"max_insert_lsn|\bSegment\(", SRC, allowed=(
        "src/repro/core/segment.py", "src/repro/core/segment_set.py")) == []


def test_only_data_nodes_write_binlog():
    assert _hits(r"\bwrite_segment\(", SRC, allowed=(
        "src/repro/log/binlog.py", "src/repro/nodes/data_node.py",
        "src/repro/core/compaction.py")) == []


def test_layers_import_down_the_dag(trees):
    hits = []
    for rel, module, _source, tree in trees:
        parts = module.split(".")
        layer = parts[1] if parts[0] == "repro" and len(parts) > 2 else ""
        for line, target in _imported(module, tree):
            edge = target.split(".")
            if edge[0] == "repro" and len(edge) > 1 \
                    and edge[1] in FORBIDDEN_EDGES.get(layer, ()):
                hits.append(f"{rel}:{line}: {layer} -> {edge[1]} "
                            f"(import of {target})")
    assert sorted(set(hits)) == []


def test_the_virtual_clock_is_the_only_clock(trees):
    hits = []
    for rel, module, _source, tree in trees:
        hits += [f"{rel}:{line}: import of {target}"
                 for line, target in _imported(module, tree)
                 if target.split(".")[0] in ("time", "random", "uuid",
                                             "datetime")
                 # the cost model's calibration times the host by design
                 and rel != "src/repro/sim/costmodel.py"]
        # numpy.random's lower-case names but default_rng draw from the
        # global stream; its constructors need a seed.
        hits += [f"{rel}:{call.lineno}: {name}()"
                 for call, name in _called(tree)
                 if name.rpartition(".")[0] == "numpy.random" and (
                     name[13].islower() and name != "numpy.random.default_rng"
                     or not call.args and not call.keywords)]
    assert sorted(set(hits)) == []


#: Modules allowed a broad ``except``, and why.
BROAD_EXCEPT = {
    "src/repro/race/runner.py": "a crashed seed is a result of the sweep",
    "src/repro/api/rest.py": "a request the server fails answers 500",
}


def test_broad_except_only_in_the_race_runner(trees):
    hits = [f"{rel}:{node.lineno}: broad except"
            for rel, _module, _source, tree in trees
            if rel not in BROAD_EXCEPT
            for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
            for kind in getattr(node.type, "elts", [node.type])
            if kind is None or getattr(kind, "id", "") in ("Exception",
                                                           "BaseException")]
    assert hits == []


def test_object_setattr_only_where_a_record_is_born(trees):
    hits = []
    for rel, _module, source, tree in trees:
        if "__setattr__" not in source:
            continue
        born = {id(node) for func in ast.walk(tree)
                if getattr(func, "name", "") in (
                    "__post_init__", "__setstate__", "_system_auto_id_field")
                for node in ast.walk(func)}
        hits += [f"{rel}:{call.lineno}: object.__setattr__"
                 for call, name in _called(tree)
                 if name == "object.__setattr__" and id(call) not in born]
    assert hits == []


def test_every_log_dataclass_is_frozen():
    """WAL records, log entries and binlog manifests are history: every
    dataclass under ``log/`` is frozen, so Python refuses a write."""
    frozen = {}
    for info in pkgutil.iter_modules(repro.log.__path__, "repro.log."):
        module = importlib.import_module(info.name)
        frozen.update((name, value.__dataclass_params__.frozen)
                      for name, value in vars(module).items()
                      if dataclasses.is_dataclass(value)
                      and value.__module__ == module.__name__)
    assert {"InsertRecord", "DeleteRecord", "LogEntry",
            "BinlogManifest"} <= set(frozen)
    assert [name for name, done in frozen.items() if not done] == []
