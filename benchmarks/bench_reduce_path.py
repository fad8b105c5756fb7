"""Microbenchmark: the block reduce vs the object-based two-phase reduce.

The reduce path (Section 3.6) merges segment-wise partial results into
node-wise lists and node lists into the global answer, removing duplicate
pks contributed by replicated segment copies.  This benchmark replays that
two-level merge over synthetic sorted partials — the exact shape segment
scans hand to :class:`~repro.core.results.HitBlock` — and compares

* the **reference** path: ``hits_from_arrays`` materializing one
  ``SearchHit`` per candidate, ``merge_topk_reference`` (``heapq.merge``
  plus a seen-set) per query at the node and proxy levels; this is the
  pre-HitBatch implementation, kept in ``tests/reference/reduce.py`` as
  the oracle;
* the **block** path, what ``QueryNode._scan`` and the proxy do: the
  segments' ``(nq, k)`` blocks side by side, one ``merge_topk`` per node
  for every query row at once (concatenate + one stable sort +
  first-occurrence dedup), one more over the nodes' blocks at the proxy,
  ``SearchHit`` objects materialized only for the final global top-k.

Wall-clock time is the deliverable here (the virtual cost model does not
see Python interpreter overhead — this measures the real thing), so the
timer reads are sanctioned deviations from the virtual-clock rule.
Results land in ``BENCH_reduce.json`` at the repo root (a full-mode run is
committed: the record of this layer); the headline configuration (nq=64,
k=100, 32 segments) must show at least the 3x speedup the optimisation is
sold on, and every configuration must stay hit-for-hit identical to the
reference.

``MANU_BENCH_QUICK=1`` (CI smoke) trims repeats and drops the largest
sweep points but keeps the headline configuration and both asserts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.results import HitBlock, hits_from_arrays, merge_topk

from conftest import print_series
from tests.reference.reduce import merge_topk_reference

QUICK = os.environ.get("MANU_BENCH_QUICK", "") not in ("", "0")

#: (nq, k, segments) sweep; the last point is the headline configuration
#: the >=3x acceptance assert runs against.
POINTS = ((8, 10, 8), (64, 100, 32)) if QUICK else \
    ((1, 10, 8), (16, 100, 16), (16, 10, 32), (64, 100, 32))
SEGMENTS_PER_NODE = 8
REPEATS = 1 if QUICK else 5
HEADLINE = (64, 100, 32)
MIN_SPEEDUP = 3.0


def _partials(rng, nq: int, k: int, nseg: int):
    """Per-segment ``(pks, dists)`` blocks of shape ``(nq, k)``, rows
    sorted ascending.

    Pks are drawn from a shared space sized so replicated copies collide
    across segments — the duplicate-removal case the proxy merge exists
    for ("the proxies remove duplicate result vectors for a query").
    """
    pk_space = np.arange(nseg * k * 4, dtype=np.int64)
    return [(np.stack([rng.choice(pk_space, size=k, replace=False)
                       for _qi in range(nq)]),
             np.sort(rng.random((nq, k)).astype(np.float32), axis=1))
            for _si in range(nseg)]


def _nodes(partials):
    """Group segment partials into proxy fan-out units."""
    return [partials[i:i + SEGMENTS_PER_NODE]
            for i in range(0, len(partials), SEGMENTS_PER_NODE)]


def _reduce_reference(partials, nq: int, k: int):
    """Object-based two-level reduce, one query at a time (the oracle)."""
    out = []
    for qi in range(nq):
        node_partials = []
        for node_segments in _nodes(partials):
            segment_hits = [hits_from_arrays(pks[qi], dists[qi])
                            for pks, dists in node_segments]
            node_partials.append(
                merge_topk_reference(segment_hits, k))
        out.append(merge_topk_reference(node_partials, k))
    return out


def _node_merges(partials, k: int) -> list[HitBlock]:
    """The node level: each node's segment blocks, every row at once."""
    return [merge_topk([HitBlock(pks, dists)
                        for pks, dists in node_segments], k)
            for node_segments in _nodes(partials)]


def _reduce_blocks(partials, nq: int, k: int):
    """Block two-level reduce (the production path)."""
    return [row.to_hits()
            for row in merge_topk(_node_merges(partials, k), k)]


def _time_best(fn, repeats: int) -> float:
    """Best-of-N wall-clock milliseconds for one reduce pass."""
    best = float("inf")
    for _ in range(repeats):
        # manu-lint: disable=determinism -- wall-clock is the measured
        # quantity of this microbenchmark, not simulation time.
        start = time.perf_counter()
        fn()
        # manu-lint: disable=determinism -- closes the timed interval
        # opened above; same sanctioned measurement.
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def test_reduce_path_speedup(benchmark, rng):
    rows = []
    points = []

    def run() -> None:
        for nq, k, nseg in POINTS:
            partials = _partials(rng, nq, k, nseg)

            reference = _reduce_reference(partials, nq, k)
            blocks = _reduce_blocks(partials, nq, k)
            # Hit-for-hit equivalence before timing anything: same pks,
            # same adjusted distances, same order, every query.
            assert [[(h.pk, h.adjusted_distance) for h in q]
                    for q in blocks] == \
                   [[(h.pk, h.adjusted_distance) for h in q]
                    for q in reference]

            ref_ms = _time_best(
                lambda: _reduce_reference(partials, nq, k), REPEATS)
            vec_ms = _time_best(
                lambda: _reduce_blocks(partials, nq, k), REPEATS)
            node_ms = _time_best(lambda: _node_merges(partials, k), REPEATS)
            node_blocks = _node_merges(partials, k)
            proxy_ms = _time_best(lambda: merge_topk(node_blocks, k),
                                  REPEATS)
            speedup = ref_ms / vec_ms
            rows.append((nq, k, nseg, ref_ms, vec_ms, node_ms, proxy_ms,
                         speedup))
            points.append({"nq": nq, "k": k, "segments": nseg,
                           "reference_ms": ref_ms,
                           "vectorized_ms": vec_ms,
                           "node_merges_ms": node_ms,
                           "proxy_merge_ms": proxy_ms,
                           "speedup": speedup})

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series("Reduce path: object-based per query vs one block merge "
                 "per level (best-of-%d wall-clock ms)" % REPEATS,
                 ["nq", "k", "segments", "reference ms", "block ms",
                  "node merges ms", "proxy merge ms", "speedup"], rows)

    out_path = Path(__file__).resolve().parent.parent / "BENCH_reduce.json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"quick": QUICK, "repeats": REPEATS,
                   "segments_per_node": SEGMENTS_PER_NODE,
                   "min_speedup_required": MIN_SPEEDUP,
                   "points": points}, f, indent=2)

    headline = [p for p in points
                if (p["nq"], p["k"], p["segments"]) == HEADLINE]
    assert headline, "headline configuration missing from sweep"
    assert headline[0]["speedup"] >= MIN_SPEEDUP, (
        f"the block reduce must be >= {MIN_SPEEDUP}x faster than the "
        f"object-based reference at {HEADLINE}, got "
        f"{headline[0]['speedup']:.2f}x")
