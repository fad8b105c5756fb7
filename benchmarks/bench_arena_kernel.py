"""Microbenchmark: the node arena's kernel against its members one by one.

A query node searches its sealed ``IVF_FLAT`` segments through one
``ArenaIndex`` (``repro.index.ivf``): one coarse step and one list-major
scan for all of them, where the members' own ``search`` would each pay a
coarse step, a scan and a top-k.  This benchmark times the two on the shape
of the end-to-end benchmark's sealed node: 7 members of 4096 SIFT-like
128-d rows (``seal_entity_count`` rows each), ``nlist`` 64, ``nprobe`` 8,
``k`` 10, and one member of ``SMALL`` rows, whose ``nlist`` is its row
count: 33 is no multiple of 4, so at one query that member keeps its own
coarse GEMV beside the one GEMV over the others' stacked centroids.

Per block height ``nq`` of 1, 8 and 64 it records the wall microseconds of
one call — ``arena.search`` over all members, and the members' own
``search`` one after another — as the median of ``REPEATS`` timings of
``CALLS`` calls each, the two timed alternately, and their ratio; at one
query, where its row is one pass (``ArenaIndex.scans_once``), also
``select_us``, one call of ``arena.search(together=True)``, the one
selection over every member's rows that a query node's reduce is (a
block of several queries is never selected so: the node merges).
``equal`` is whether, at every height, every member's coarse distances
from the arena's coarse step are its own probe's bit for bit (at one
query the stacked GEMV's and the outsider's own call, checked on every
one of the 256 queries), its probed lists its own, its distances bit for
bit its own, its ids its own (up to the order of equal distances, and
which of them the ``k`` cut keeps) and its ``SearchStats`` counters its
own.
``selected_equal`` is whether, on every one-query block and swept
setting (``selected_cases`` of them), the one selection answers what the
members' own answers merged by ``merge_topk`` are — distances bit for
bit, ids up to the ties the ``k`` cut splits, the same counters — and so
does it on a fresh node's shape (``fresh_cases`` of them, counted among
the ``selected_cases``): the sealed members beside ``SLICES`` full slices of a growing segment
(``SLICE`` rows, temporary ``IVF_FLAT`` of ``nlist`` 16, ``nprobe`` 2),
the exact columns of two tails (``TAIL`` rows), and a member that lost
``DELETED`` rows, which the selection drops after the cut its own answer
amplifies ``k`` to (``segment.amplified_k``): the members' answers
post-filtered and merged with the tails' top-``k``.

Per height it also records the floats of one call's scan passes: the
padded score blocks (one row per (query, probed list) pair, as wide as
the pass's widest list), the candidates handed to the top-k (the chunk
grid where a pass is laid out in chunks, ``repro.index.ivf._ChunkGrid``)
and the scores computed.  ``grid_within_padded`` is whether no pass
handed the top-k more floats than its padded block.  Last, the sweep the
chunk constants were chosen from: the arena's wall time and top-k floats
with every pass laid out in chunks of 16 to 128 scores
(``_CHUNK_FROM`` 0) and with none (``chunk_width`` null), the settings
timed alternately.

``equal`` and ``selected_equal`` (under the shipped constants and every
swept setting) and ``grid_within_padded`` are the gate: CI runs the quick
mode and fails unless all are true.  The times are the record and assert
nothing.

Wall-clock time is the deliverable here, so the timer reads are sanctioned
deviations from the virtual-clock rule.  Results land in
``BENCH_arena_kernel.json`` at the repo root (a full-mode run is
committed).  Run it as ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:. python
benchmarks/bench_arena_kernel.py`` (one BLAS thread, as the end-to-end
benchmark pins) or through pytest like its siblings; ``MANU_BENCH_QUICK=1``
trims the repeats.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.results import HitBlock, merge_topk
from repro.core.schema import MetricType
from repro.core.segment import amplified_k
from repro.datasets.synthetic import make_sift_like
from repro.index import ivf
from repro.index.base import STAT_FIELDS, SearchStats
from repro.index.distances import adjusted_distances, squared_l2, \
    topk_smallest
from repro.index.ivf import ArenaIndex, IvfFlatIndex, ListArena

from conftest import print_series

QUICK = os.environ.get("MANU_BENCH_QUICK", "") not in ("", "0")

REPEATS = 3 if QUICK else 11
SEED = 3
MEMBERS, ROWS, DIM = 7, 4096, 128
#: Rows (and lists) of the one member outside the one-query coarse stack.
SMALL = 33
NLIST, NPROBE, K = 64, 8, 10
#: query block height -> calls per timing (about the same rows each).
CALLS = {1: 16 if QUICK else 64, 8: 8 if QUICK else 16,
         64: 2 if QUICK else 4}
#: Chunk widths swept, each with every pass laid out in chunks; ``None``
#: lays out none.
SWEEP = (None, 16, 32, 64, 128)
#: A fresh node: full slices of a growing segment (rows each), two tails
#: (rows each), and the rows one sealed member lost.
SLICES, SLICE, TAIL, DELETED = 2, 1024, 300, 30


def _wall_us(work, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        work()
    return (time.perf_counter() - t0) / calls * 1e6


def _same_up_to_ties(got: np.ndarray, want: np.ndarray,
                     dists: np.ndarray) -> bool:
    """Ids equal as sets within every run of equal distances of a row,
    except the last run, which the ``k`` cut may split differently."""
    for got_row, want_row, row in zip(got, want, dists):
        finite = row[row < np.inf]
        for value in np.unique(finite)[:-1]:
            if set(got_row[row == value]) != set(want_row[row == value]):
                return False
        if not (got_row[len(finite):] == want_row[len(finite):]).all():
            return False
    return True


def _equal(arena: ArenaIndex, members: list[IvfFlatIndex],
           queries: np.ndarray) -> bool:
    """Whether every member's answer from the arena is its own."""
    stats = [SearchStats() for _ in members]
    ids, dists = arena.search(queries, K, stats=stats)
    scope = list(range(len(members)))
    probes = arena._probe(scope, queries,
                          np.zeros((len(members), len(STAT_FIELDS)),
                                   dtype=np.int64))
    coarse = arena._coarse(scope, arena._scope(scope), queries)
    for number, member in enumerate(members):
        own = member._probe(queries, K, None)
        own_coarse = adjusted_distances(queries, member.bucketer.centroids,
                                        member.metric)
        want_ids, want_dists = member.search(queries, K)    # resets stats
        want_ids = np.where(want_ids < 0, -1,
                            want_ids + arena.lists.row_base[number])
        if not (np.array_equal(
                    coarse[number, :, :own_coarse.shape[1]].view(np.int32),
                    own_coarse.view(np.int32))
                and np.array_equal(probes[number, :, :own.shape[1]]
                                   - arena.lists.list_base[number], own)
                and np.array_equal(dists[number].view(np.int32),
                                   want_dists.view(np.int32))
                and _same_up_to_ties(ids[number], want_ids, want_dists)
                and stats[number].as_dict() == member.stats.as_dict()):
            return False
    return True


def _selected_equal(arena: ArenaIndex, members: list[IvfFlatIndex],
                    queries: np.ndarray) -> bool:
    """Whether the one selection of one query over every member's rows is
    the members' own answers merged (a query node selects so only where
    the query's row is one pass, but the answer must not depend on
    that)."""
    scope = list(range(len(members)))
    stats = [SearchStats() for _ in members]
    ids, dists, rows, _pruned = arena.search(queries, K, scope, stats,
                                             together=True)
    answers = []
    for number, member in enumerate(members):
        want_ids, want_dists = member.search(queries, K)
        first = arena.lists.row_base[number]
        answers.append(HitBlock(np.where(want_ids < 0, -1, want_ids + first),
                                want_dists))
        if stats[number].as_dict() != member.stats.as_dict() or \
                min(rows[number], K) != np.isfinite(want_dists).sum():
            return False
    want = merge_topk(answers, K)
    width = dists.shape[1]
    return (np.array_equal(dists.view(np.int32),
                           want.dists[:, :width].view(np.int32))
            and not np.isfinite(want.dists[:, width:]).any()
            and _same_up_to_ties(ids, want.pks[:, :width],
                                 want.dists[:, :width]))


def _fresh_selected_equal(arena: ArenaIndex, members: list[IvfFlatIndex],
                          excluded: np.ndarray, tails: list[np.ndarray],
                          queries: np.ndarray) -> bool:
    """Whether the one selection over sealed and slice members, member 0
    excluding the rows ``excluded`` marks, and the exact columns of the
    ``tails`` is what the members' own answers post-filtered to ``K``
    (the ``amplified_k`` asked) and merged with the tails' top-``K``
    are, with the same counters — or declines exactly where member 0's
    own answer is not decided by its scores: its cut splits a tie that
    holds an excluded row (SIFT-like distances are integers)."""
    scope = list(range(len(members)))
    stats = [SearchStats() for _ in members]
    asked = amplified_k(K, members[0].ntotal, int(excluded.sum()))
    columns = [squared_l2(queries, tail) for tail in tails]
    found = arena.search(queries, K, scope, stats, together=True,
                         cuts={0: (excluded, asked)}, columns=columns,
                         ranks=range(len(members) + len(tails)))
    probed_ids, probed = members[0].search(queries, members[0].ntotal)
    cut = probed[:, asked - 1:asked]
    tied = (probed == cut) & (probed_ids >= 0) \
        & excluded[np.maximum(probed_ids, 0)]
    undecided = ((probed < cut).sum(axis=1) + (probed == cut).sum(axis=1)
                 > asked) & tied.any(axis=1)
    if found is None or undecided.any():
        return found is None and undecided.any()
    ids, dists, rows, pruned = found
    answers = []
    for number, member in enumerate(members):
        want_ids, want_dists = member.search(queries,
                                             asked if number == 0 else K)
        if number == 0:
            dead = (want_ids >= 0) & excluded[np.maximum(want_ids, 0)]
            if dead.sum() != pruned[0]:
                return False
            order = np.argsort(dead, axis=1, kind="stable")[:, :K]
            want_ids = np.take_along_axis(want_ids, order, axis=1)
            want_dists = np.where(np.take_along_axis(dead, order, axis=1),
                                  np.float32(np.inf),
                                  np.take_along_axis(want_dists, order,
                                                     axis=1))
            if (np.isfinite(want_dists).sum(axis=1) < K).any():
                return False            # it would have escalated
        elif pruned[number].any():
            return False
        first = arena.lists.row_base[number]
        answers.append(HitBlock(np.where(want_ids < 0, -1, want_ids + first),
                                want_dists))
        if stats[number].as_dict() != member.stats.as_dict():
            return False
    base = arena.ntotal
    for column in columns:
        cols, best = topk_smallest(column, K)
        answers.append(HitBlock(cols + base, best))
        base += column.shape[1]
    want = merge_topk(answers, K)
    width = dists.shape[1]
    return (np.array_equal(dists.view(np.int32),
                           want.dists[:, :width].view(np.int32))
            and not np.isfinite(want.dists[:, width:]).any()
            and np.array_equal(rows, [
                stats[number].float_comparisons
                - queries.shape[0] * member.effective_nlist
                for number, member in enumerate(members)])
            and _same_up_to_ties(ids, want.pks[:, :width],
                                 want.dists[:, :width]))


@contextmanager
def _chunking(width: int | None):
    """Every pass laid out in chunks of ``width`` scores, or none."""
    kept = ivf._CHUNK_FROM, ivf._CHUNK_WIDTH
    if width is None:
        ivf._CHUNK_FROM = 1 << 62
    else:
        ivf._CHUNK_FROM, ivf._CHUNK_WIDTH = 0, width
    try:
        yield
    finally:
        ivf._CHUNK_FROM, ivf._CHUNK_WIDTH = kept


def _floats(arena: ArenaIndex, blocks: list[np.ndarray]) -> dict:
    """The scan passes' floats per call over ``blocks``: padded blocks,
    candidates handed to the top-k, scores; and whether no pass handed
    the top-k more than its padded block."""
    real_pass, real_topk = ListArena._scan_pass, ivf.topk_smallest
    handed, passes = [], []

    def topk(values, k):
        handed.append(values.size)
        return real_topk(values, k)

    def scan_pass(self, scope, queries, probes, k):
        at, dists, scored = real_pass(self, scope, queries, probes, k)
        padded = probes.size * int(self.sizes[probes].max())
        passes.append((padded, handed[-1], int(scored.sum())))
        return at, dists, scored

    ListArena._scan_pass, ivf.topk_smallest = scan_pass, topk
    try:
        for queries in blocks:
            arena.search(queries, K)
    finally:
        ListArena._scan_pass, ivf.topk_smallest = real_pass, real_topk
    padded, grid, scored = (sum(column) / len(blocks)
                            for column in zip(*passes))
    return {"passes": len(passes) / len(blocks),
            "largest_padded_pass": max(p for p, _, _ in passes),
            "padded_floats": padded, "grid_floats": grid,
            "scored_floats": scored,
            "grid_within_padded": all(g <= p for p, g, _ in passes)}


def run() -> dict:
    rng = np.random.default_rng(SEED)
    sealed_rows = MEMBERS * ROWS + SMALL
    fresh_rows = SLICES * SLICE + 2 * TAIL
    data = make_sift_like(n=sealed_rows + fresh_rows, nq=256, dim=DIM)
    corpus = data.vectors[rng.permutation(sealed_rows + fresh_rows)]
    members = []
    # The small member mid-arena: the stack's rows after it would round
    # otherwise were it stacked.
    bounds = [0, *range(ROWS, MEMBERS * ROWS + 1, ROWS)]
    bounds[MEMBERS // 2 + 1:] = [at + SMALL for at in bounds[MEMBERS // 2:]]
    for lo, hi in itertools.pairwise(bounds):
        member = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=NLIST,
                              nprobe=NPROBE)
        member.build(corpus[lo:hi])
        members.append(member)
    arena = ArenaIndex(members)
    fresh = corpus[sealed_rows:]
    slices = []
    for number in range(SLICES):
        member = IvfFlatIndex(MetricType.EUCLIDEAN, DIM, nlist=16, nprobe=2)
        member.build(fresh[number * SLICE:(number + 1) * SLICE])
        slices.append(member)
    fresh_arena = arena.grown(slices)
    tails = [fresh[SLICES * SLICE:SLICES * SLICE + TAIL],
             fresh[SLICES * SLICE + TAIL:]]
    excluded = np.zeros(ROWS, dtype=bool)
    excluded[rng.choice(ROWS, DELETED, replace=False)] = True
    rows, sweep = [], []
    selected = []       # one entry per (case, block)
    fresh_cases = []

    def check_selection(blocks):
        selected.extend(_selected_equal(arena, members, queries)
                        for queries in blocks)
        fresh_cases.extend(_fresh_selected_equal(
            fresh_arena, members + slices, excluded, tails, queries)
            for queries in blocks)

    # At one query over every query: a stack row that rounds otherwise
    # than its member's own call moves a last bit on some queries only.
    equal = all(_equal(arena, members, data.queries[i:i + 1])
                for i in range(len(data.queries)))
    for nq, calls in CALLS.items():
        blocks = [data.queries[(i * nq) % 256:(i * nq) % 256 + nq]
                  for i in range(calls)]
        equal = equal and all(_equal(arena, members, queries)
                              for queries in blocks)
        selects = nq == 1 and arena.scans_once(range(len(members)))
        if nq == 1:
            check_selection(blocks)
        turn = iter(range(1 << 30))
        arena_us, members_us, select_us = [], [], []

        def arena_call():
            arena.search(blocks[next(turn) % calls], K)

        def select_call():
            arena.search(blocks[next(turn) % calls], K, together=True)

        def members_call():
            queries = blocks[next(turn) % calls]
            for member in members:
                member.search(queries, K)

        for _ in range(REPEATS):
            arena_us.append(_wall_us(arena_call, calls))
            members_us.append(_wall_us(members_call, calls))
            if selects:
                select_us.append(_wall_us(select_call, calls))
        arena_med = statistics.median(arena_us)
        members_med = statistics.median(members_us)
        rows.append({"nq": nq, "calls": calls, "arena_us": arena_med,
                     "members_us": members_med,
                     "ratio": arena_med / members_med,
                     "select_us": statistics.median(select_us)
                     if selects else None,
                     **_floats(arena, blocks)})

        swept = {width: [] for width in SWEEP}
        for width in SWEEP:
            with _chunking(width):
                equal = equal and all(_equal(arena, members, queries)
                                      for queries in blocks)
                if nq == 1:
                    check_selection(blocks)
        for _ in range(REPEATS):
            for width in SWEEP:
                with _chunking(width):
                    swept[width].append(_wall_us(arena_call, calls))
        for width in SWEEP:
            with _chunking(width):
                floats = _floats(arena, blocks)
            sweep.append({"nq": nq, "chunk_width": width,
                          "arena_us": statistics.median(swept[width]),
                          "grid_floats": floats["grid_floats"]})
    within = all(row["grid_within_padded"] for row in rows)
    selected = selected + fresh_cases
    selected_equal = bool(fresh_cases) and all(selected)
    doc = {"quick": QUICK, "repeats": REPEATS, "seed": SEED,
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
           "members": MEMBERS, "rows": ROWS, "small_member_rows": SMALL,
           "dim": DIM, "nlist": NLIST,
           "nprobe": NPROBE, "k": K, "chunk_width": ivf._CHUNK_WIDTH,
           "chunk_from": ivf._CHUNK_FROM, "equal": equal,
           "selected_equal": selected_equal,
           "selected_cases": len(selected),
           "fresh_cases": len(fresh_cases),
           "grid_within_padded": within, "by_nq": rows, "sweep": sweep}
    out_path = Path(__file__).resolve().parent.parent / \
        "BENCH_arena_kernel.json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    print_series(
        "node arena kernel: %d IVF_FLAT members of %d x %d and one of %d, "
        "one search vs each member's own (median-of-%d wall-clock us per "
        "call; equal %s; one selection equal %s over %d cases)"
        % (MEMBERS, ROWS, DIM, SMALL, REPEATS, equal, selected_equal,
           len(selected)),
        ["nq", "arena us", "select us", "members us", "ratio",
         "padded floats", "grid floats", "scored floats"],
        [(r["nq"], r["arena_us"], r["select_us"] or "-", r["members_us"],
          r["ratio"], r["padded_floats"], r["grid_floats"],
          r["scored_floats"]) for r in rows])
    print_series(
        "chunk sweep: every pass in chunks of the width (none: padded)",
        ["nq", "chunk width", "arena us", "grid floats"],
        [(r["nq"], r["chunk_width"] or "none", r["arena_us"],
          r["grid_floats"]) for r in sweep])
    return doc


def _passed(doc: dict) -> bool:
    return doc["equal"] and doc["selected_equal"] \
        and doc["grid_within_padded"]


def test_arena_kernel_equal(benchmark):
    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert _passed(doc), doc


if __name__ == "__main__":
    sys.exit(0 if _passed(run()) else 1)
