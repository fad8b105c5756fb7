"""Workload generators for the evaluation scenarios.

* :func:`diurnal_traffic` — the Figure 9 search-traffic curve: a one-day
  e-commerce pattern with a deep night valley, an evening peak and sharp
  promotional spikes (the original Taobao trace is not redistributable;
  the statistics are documented here);
* :class:`InsertDriver` — fixed-rate insert load (Figure 6's "insert
  vectors at a fixed rate");
* :class:`SearchDriver` — issues searches at scheduled arrival times and
  records per-request latency curves;
* :func:`poisson_arrivals` — arrival-time generation for open-loop load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import MetricType


def diurnal_traffic(hours: np.ndarray, base_qps: float = 40.0,
                    peak_qps: float = 400.0,
                    promo_hours: tuple[float, ...] = (10.0, 20.0),
                    promo_boost: float = 1.8) -> np.ndarray:
    """QPS at each hour-of-day: night valley, evening peak, promo spikes.

    Shape: minimum around 4am at ``base_qps``, smooth rise through the day,
    maximum around 9pm near ``peak_qps``; promotional events multiply
    traffic briefly ("very high at promotion events").
    """
    hours = np.asarray(hours, dtype=np.float64)
    # Peak at 21:00, deep valley around 9:00 on the opposite phase.
    peak_phase = (hours - 21.0) / 24.0 * 2.0 * np.pi
    smooth = 0.5 * (1.0 + np.cos(peak_phase)) ** 1.5
    qps = base_qps + (peak_qps - base_qps) * smooth
    for promo in promo_hours:
        bump = np.exp(-0.5 * ((hours - promo) / 0.35) ** 2)
        qps *= 1.0 + (promo_boost - 1.0) * bump
    return qps


def poisson_arrivals(rate_per_s: float, duration_ms: float,
                     rng: np.random.Generator,
                     start_ms: float = 0.0) -> np.ndarray:
    """Open-loop Poisson arrival times (ms) over a window."""
    if rate_per_s <= 0:
        return np.empty(0)
    expected = rate_per_s * duration_ms / 1000.0
    count = rng.poisson(expected)
    times = rng.uniform(start_ms, start_ms + duration_ms, size=count)
    return np.sort(times)


@dataclass
class InsertDriver:
    """Schedules fixed-rate inserts of dataset rows onto the event loop."""

    cluster: ManuCluster
    collection: str
    vectors: np.ndarray
    rate_per_s: float
    batch_size: int = 50
    inserted: int = 0
    _cursor: int = 0

    def start(self, duration_ms: float) -> None:
        """Schedule periodic insert batches for ``duration_ms``."""
        if self.rate_per_s <= 0:
            return
        interval_ms = self.batch_size / self.rate_per_s * 1000.0
        t = self.cluster.now() + interval_ms
        end = self.cluster.now() + duration_ms
        while t <= end and self._cursor < len(self.vectors):
            start_row = self._cursor
            stop_row = min(start_row + self.batch_size, len(self.vectors))
            self._cursor = stop_row
            self.cluster.loop.call_at(
                t, self._make_insert(start_row, stop_row),
                name="insert-driver")
            t += interval_ms

    def _make_insert(self, start_row: int, stop_row: int
                     ) -> Callable[[], None]:
        def do_insert() -> None:
            # A loop event: each insert roots its own trace.
            self.cluster.insert(self.collection,
                                {"vector": self.vectors[start_row:stop_row]})
            self.inserted += stop_row - start_row
        return do_insert


@dataclass
class SearchDriver:
    """Issues searches at given virtual times, recording latencies."""

    cluster: ManuCluster
    collection: str
    queries: np.ndarray
    k: int = 50
    metric: MetricType = MetricType.EUCLIDEAN
    consistency: ConsistencyLevel = ConsistencyLevel.EVENTUAL
    staleness_ms: float = 1_000.0
    times_ms: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    _rng: Optional[np.random.Generator] = None

    def run_at(self, arrival_times_ms: np.ndarray) -> None:
        """Execute searches at the arrival times, in order.

        Each call advances virtual time to the arrival (running all
        scheduled inserts/flushes/builds in between), then executes the
        search with queueing on the query nodes.
        """
        rng = self._rng or np.random.default_rng(123)
        self._rng = rng
        for at in np.sort(np.asarray(arrival_times_ms, dtype=np.float64)):
            query = self.queries[int(rng.integers(len(self.queries)))]
            results = self.cluster.search(
                self.collection, query, self.k, metric=self.metric,
                consistency=self.consistency,
                staleness_ms=self.staleness_ms,
                at_ms=float(at))
            self.times_ms.append(float(self.cluster.now()))
            self.latencies_ms.append(results[0].latency_ms)

    def mean_latency(self) -> float:
        return float(np.mean(self.latencies_ms)) if self.latencies_ms \
            else float("nan")
