"""Host clocks: the only place the e2e benchmark reads real time.

Everything else in ``benchmarks/`` replays paper figures on the virtual
clock; this directory measures what the Python itself costs, so it has to
read the host's wall and CPU clocks.  All reads go through this module so
manu-lint's ``determinism`` rule needs exactly one suppression.
"""
# manu-lint: disable-file=determinism -- the e2e harness measures host wall/CPU cost of the simulator by design; these reads never feed the virtual clock or an LSN

from __future__ import annotations

import resource
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np


def wall() -> float:
    """Monotonic wall-clock seconds."""
    return time.perf_counter()


def cpu() -> float:
    """Process CPU seconds (user + system)."""
    return time.process_time()


def peak_rss_mb() -> float:
    """High-water resident set size of this process (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- machine speed ------------------------------------------------------------
#
# The sandbox's cores are shared: everything (bytecode, dict churn and BLAS
# alike) runs 1.0x, ~1.3x or ~2x slower in spells of 0.1-15 s, so a raw wall
# time spreads 10-17 % (quartiles over median) between ten runs, whichever of
# best round, per-op minimum or median is taken over a 15 s run; see README.md
# for the measurements.  The harness therefore times a fixed kernel between
# ops and divides each op's wall time by how slow the kernel ran around it,
# which brings the spread to 2-8 %.

#: the kernel's reading on an undisturbed core of the sandbox this benchmark
#: was defined on (5th percentile of 7600 readings over ten runs), so scaled
#: times read like undisturbed wall times there; elsewhere it only fixes the
#: unit, alike for the two commits being compared.
REFERENCE_PROBE_S = 1.5e-3
PROBE_EVERY_S = 0.05
#: readings this close to an interval judge it
PROBE_WINDOW_S = 0.25

_PROBE_RNG = np.random.default_rng(0)
_PROBE_QUERIES = _PROBE_RNG.standard_normal((64, 128)).astype(np.float32)
_PROBE_BLOCK = _PROBE_RNG.standard_normal((4096, 128)).astype(np.float32)


def speed_probe() -> float:
    """Seconds the fixed kernel takes right now: interpreter bytecode,
    allocation and hashing, and a float32 BLAS product (about a third
    each), none of it the program's code."""
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    table = {}
    for i in range(1_500):
        table[str(i)] = (i, acc)
    float((_PROBE_QUERIES @ _PROBE_BLOCK.T).sum())
    return time.perf_counter() - start


class SpeedLog:
    """Kernel readings over time, and how slow the machine ran around an
    interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []

    def probe_if_due(self) -> None:
        """Called between ops, so a reading never falls inside one."""
        if not self.times or \
                time.perf_counter() - self.times[-1] > PROBE_EVERY_S:
            self.times.append(time.perf_counter())
            self.readings.append(speed_probe())

    def slowdown(self, start: float, end: float) -> float:
        """Median reading near ``[start, end]`` over the reference."""
        lo = bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect_right(self.times, end + PROBE_WINDOW_S)
        if lo == hi:  # none near: take the nearest one
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.median(self.readings[lo:hi]) / REFERENCE_PROBE_S

    def summary(self) -> dict:
        """The readings of a run, for its result file."""
        ordered = sorted(self.readings)
        return {"probes": len(ordered), "reference_s": REFERENCE_PROBE_S,
                "p05_s": ordered[len(ordered) // 20],
                "median_s": statistics.median(ordered)}
