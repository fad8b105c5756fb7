"""Microbenchmark: the k-means under every index build vs the loop it was.

Index building is the heavy half of the write path (Section 3.5 gives it
a node type of its own), and k-means is >= 90 % of an ``IVF_FLAT`` build:
the coarse quantizer of every inverted-list index, the sub-space codebooks
of PQ / OPQ / RQ / IMI, the SSD index's balanced tree and the temporary
index of every growing slice all call ``repro.index.kmeans.kmeans``.  This
benchmark times it against ``kmeans_reference`` — the loop that recomputed
the row norms, three ``(n, k)`` temporaries and all ``k`` centroids every
round, kept verbatim in ``tests/reference/build.py`` as the
oracle — on the three shapes that matter:

* **sealed** 4096 x 128, k=64: one sealed segment's ``IVF_FLAT`` build
  (``seal_entity_count`` rows, ``nlist`` 64), the shape ``index_ready_s``
  of the end-to-end benchmark is made of;
* **temp slice** 1024 x 128, k=16: a growing slice's temporary index,
  built inside the delivery callback;
* **pq sub-space** 4096 x 16, k=256: one of a product quantizer's
  codebooks.

Per shape it records the wall ms of both (median of ``REPEATS``, the two
timed alternately), the Lloyd rounds run, how many of the ``k`` clusters
each round *touched* — gained or lost a row, or were empty: the ones whose
centroid is recomputed — and ``equal``: centroids and assignments
``array_equal``, the same ``iterations`` and the same next draw from the
generator.  ``equal`` is the gate (CI runs the quick mode and fails unless
every shape's is true); the times are the record and assert nothing.

Wall-clock time is the deliverable here, so the timer reads are sanctioned
deviations from the virtual-clock rule.  Results land in
``BENCH_kmeans_build.json`` at the repo root (a full-mode run is
committed).  Run it as ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:. python
benchmarks/bench_kmeans_build.py`` (one BLAS thread, as the end-to-end
benchmark pins) or through pytest like its siblings; ``MANU_BENCH_QUICK=1``
trims the repeats.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import make_sift_like
from repro.index.kmeans import kmeans

from conftest import print_series
from tests.reference.build import kmeans_reference

QUICK = os.environ.get("MANU_BENCH_QUICK", "") not in ("", "0")

REPEATS = 3 if QUICK else 11
SEED = 3
#: name -> (rows, columns, k) cut from one SIFT-like corpus, the data of
#: the end-to-end benchmark, in a shuffled order as its segments hold it.
SHAPES = {
    "sealed_4096x128_k64": (4096, 128, 64),
    "temp_slice_1024x128_k16": (1024, 128, 16),
    "pq_subspace_4096x16_k256": (4096, 16, 256),
}


def _wall_ms(work) -> float:
    t0 = time.perf_counter()  # manu-lint: disable=determinism -- benchmark measures real wall-time
    work()
    return (time.perf_counter() - t0) * 1e3  # manu-lint: disable=determinism -- benchmark measures real wall-time


def _rounds_if_equal(data: np.ndarray, k: int) -> tuple[int, bool]:
    """Lloyd rounds run, and whether both functions returned the same."""
    ours, theirs = (np.random.default_rng(SEED) for _ in range(2))
    got = kmeans(data, k, seed=ours)
    want = kmeans_reference(data, k, seed=theirs)
    return got.iterations, bool(
        got.iterations == want.iterations
        and np.array_equal(got.centroids, want.centroids)
        and np.array_equal(got.assignments, want.assignments)
        and ours.random() == theirs.random())


def _touched_per_round(data: np.ndarray, k: int, rounds: int) -> list[int]:
    """Clusters whose centroid each round recomputes.

    Stopped after ``r`` rounds, ``kmeans`` returns the labels round
    ``r + 1`` starts from, so the public function replays its own rounds.
    """
    labels = [kmeans(data, k, max_iters=r, seed=SEED).assignments
              for r in range(rounds)]
    touched = [min(k, len(data))]         # the first round computes them all
    for before, after in zip(labels, labels[1:]):
        stale = np.bincount(after, minlength=k) == 0
        changed = before != after
        stale[before[changed]] = True
        stale[after[changed]] = True
        touched.append(int(stale.sum()))
    return touched


def run() -> dict:
    corpus = make_sift_like(n=8192, nq=1).vectors
    corpus = corpus[np.random.default_rng(SEED).permutation(len(corpus))]
    shapes = []
    for name, (rows, cols, k) in SHAPES.items():
        data = np.ascontiguousarray(corpus[:rows, :cols])
        iterations, equal = _rounds_if_equal(data, k)
        reference_ms, ours_ms = [], []
        for _ in range(REPEATS):
            reference_ms.append(
                _wall_ms(lambda: kmeans_reference(data, k, seed=SEED)))
            ours_ms.append(_wall_ms(lambda: kmeans(data, k, seed=SEED)))
        reference = statistics.median(reference_ms)
        ours = statistics.median(ours_ms)
        shapes.append({
            "shape": name, "rows": rows, "dim": cols, "k": k,
            "equal": equal, "iterations": iterations,
            "touched_per_round": _touched_per_round(data, k, iterations),
            "reference_ms": reference, "kmeans_ms": ours,
            "ratio": ours / reference})
    doc = {"quick": QUICK, "repeats": REPEATS, "seed": SEED,
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
           "shapes": shapes}
    out_path = Path(__file__).resolve().parent.parent / \
        "BENCH_kmeans_build.json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    print_series(
        "k-means build: the reference loop vs redoing only what moved "
        "(median-of-%d wall-clock ms)" % REPEATS,
        ["shape", "equal", "rounds", "reference ms", "kmeans ms", "ratio",
         "touched / round"],
        [(s["shape"], s["equal"], s["iterations"], s["reference_ms"],
          s["kmeans_ms"], s["ratio"],
          " ".join(map(str, s["touched_per_round"]))) for s in shapes])
    return doc


def test_kmeans_build_equal(benchmark):
    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(shape["equal"] for shape in doc["shapes"]), doc["shapes"]


if __name__ == "__main__":
    sys.exit(0 if all(shape["equal"] for shape in run()["shapes"]) else 1)
