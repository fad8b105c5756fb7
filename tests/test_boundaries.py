"""Module boundaries that a grep states exactly.

Each test names one "only here" fact of the code base and fails with the
offending ``path:line``:

* no module reaches into a coordinator's or the broker's private state
  outside the owner's own module — coordination goes through the log or
  public methods, which the schedule shuffler can see (this covers
  placement too: placement changes go through coordinator methods);
* one walk: ``heapq`` is imported under ``index/`` only by ``graph.py``,
  whose beam search every graph index shares;
* one applier: ``max_insert_lsn`` and ``Segment(`` appear only in
  ``core/segment.py`` and ``core/segment_set.py``, whose ``SegmentSet``
  turns WAL records and binlogs into segments for every node and restore;
* only data nodes write binlog (paper §3.3): ``write_segment(`` is called
  only by the data node and by compaction, which rewrites through the
  same writer.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _hits(pattern: str, *roots: Path, allowed=()) -> list[str]:
    """``path:line`` of every line matching ``pattern`` under ``roots``,
    except in files whose repo-relative path starts with an ``allowed``
    prefix."""
    regex = re.compile(pattern)
    hits = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            if rel.startswith(tuple(allowed)):
                continue
            for number, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{rel}:{number}: {line.strip()}")
    return hits


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
