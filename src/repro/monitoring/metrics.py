"""Counters, gauges, histograms and labeled metric families.

All time arguments are virtual milliseconds.  The telemetry plane is built
from :class:`MetricFamily` objects — a named metric with a fixed label
schema whose children (one per label combination) are plain
:class:`Counter`/:class:`Gauge`/:class:`Histogram` instances — exactly the
Prometheus data model, which is also what :func:`MetricsRegistry
.expose_text` serializes.  An unlabeled metric is a family with zero
labels and a single child, ``family.labels()``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional, Union


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (memory, node count, queue depth)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


#: Default bucket upper bounds for latency-style histograms, in virtual ms.
#: An implicit +inf bucket always follows the last bound.
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                   500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0)


class Histogram:
    """Fixed-bucket cumulative histogram with percentile estimation.

    Observations land in the first bucket whose upper bound is >= the
    value (plus an implicit +inf overflow bucket).  Percentiles are
    estimated by linear interpolation inside the target bucket, clamped to
    the observed min/max so small sample counts do not report bucket
    bounds nobody ever hit.  Two histograms over the same bounds
    :meth:`merge` by adding bucket counts — the cross-component
    aggregation the exposition and alerting paths use.

    ``observe(value, exemplar=trace_id)`` additionally retains the most
    recent (trace id, value) pair per bucket — the OpenMetrics exemplar
    linkage the exposition renders, turning "the p99 bucket grew" into
    "and here is a sampled trace that landed in it".  Exemplar storage is
    lazy: a histogram that never sees one stays a plain counter array.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum",
                 "_min", "_max", "exemplars")

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must increase strictly")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: +inf overflow
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: bucket index -> (trace id, value) of its latest exemplar.
        self.exemplars: Optional[dict[int, tuple[str, float]]] = None

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if exemplar is not None:
            if self.exemplars is None:
                self.exemplars = {}
            self.exemplars[idx] = (str(exemplar), value)

    @property
    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.sum / self.count

    def percentile(self, pct: float) -> Optional[float]:
        """Estimated percentile in [0, 100]; None when empty."""
        if self.count == 0:
            return None
        if not 0 <= pct <= 100:
            pct = min(100.0, max(0.0, pct))
        target = pct / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                low = self.bounds[i - 1] if i > 0 else 0.0
                high = self.bounds[i] if i < len(self.bounds) \
                    else (self._max if self._max is not None else low)
                fraction = (target - cumulative) / bucket_count
                estimate = low + (high - low) * max(0.0, min(1.0, fraction))
                # Clamp to the observed range: a lone 3 ms sample in the
                # (2.5, 5] bucket must not report p99 = 5 ms.
                if self._max is not None:
                    estimate = min(estimate, self._max)
                if self._min is not None:
                    estimate = max(estimate, self._min)
                return estimate
            cumulative += bucket_count
        return self._max

    def merge(self, other: "Histogram") -> "Histogram":
        """New histogram with both operands' observations."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        merged = Histogram(self.bounds)
        merged.bucket_counts = [a + b for a, b in zip(self.bucket_counts,
                                                      other.bucket_counts)]
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        mins = [m for m in (self._min, other._min) if m is not None]
        maxs = [m for m in (self._max, other._max) if m is not None]
        merged._min = min(mins) if mins else None
        merged._max = max(maxs) if maxs else None
        if self.exemplars or other.exemplars:
            merged.exemplars = dict(self.exemplars or {})
            merged.exemplars.update(other.exemplars or {})
        return merged

    @staticmethod
    def merged(histograms) -> Optional["Histogram"]:
        """Merge an iterable of same-bounds histograms (None if empty)."""
        result: Optional[Histogram] = None
        for histogram in histograms:
            result = histogram if result is None else result.merge(histogram)
        return result

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +inf."""
        out = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((float("inf"), self.count))
        return out


Metric = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: aggregation applied by :meth:`MetricFamily.aggregate` when none is named.
_DEFAULT_AGG = {"counter": "sum", "gauge": "max", "histogram": "p99"}


class MetricFamily:
    """A named metric with a fixed label schema and one child per labeling.

    ``family.labels(channel="wal/c/shard-0")`` returns the child metric for
    that label combination, creating it on first use.  Children are plain
    Counter/Gauge/Histogram objects — callers hold onto them and record
    without re-resolving labels on the hot path.
    """

    def __init__(self, name: str, kind: str,
                 label_names: tuple = (),
                 help: str = "", unit: str = "",
                 buckets: tuple = DEFAULT_BUCKETS) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.label_names = tuple(label_names)
        self.help = help
        self.unit = unit
        self._buckets = tuple(buckets)
        self._children: dict[tuple, Metric] = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.label_names)

    def labels(self, **labels) -> Metric:
        """Child metric for one label combination (created on first use)."""
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self._buckets) if self.kind == "histogram" \
                else _KINDS[self.kind]()
            self._children[key] = child
        return child

    def remove(self, **labels) -> bool:
        """Drop one child (e.g. a gauge for a decommissioned node)."""
        return self._children.pop(self._key(labels), None) is not None

    def samples(self) -> Iterator[tuple[dict, Metric]]:
        """(label dict, child metric) pairs in label order."""
        for key in sorted(self._children):
            yield dict(zip(self.label_names, key)), self._children[key]

    def set_gauges(self, values: dict) -> None:
        """Replace a gauge family's series wholesale.

        ``values`` maps label-value tuples (in ``label_names`` order) to
        gauge values.  Children absent from ``values`` are dropped — the
        idiom for sampled state (subscriber lag, backlogs) where a series
        must disappear when its subject does, instead of freezing at its
        last value.
        """
        if self.kind != "gauge":
            raise ValueError(f"set_gauges on {self.kind} family {self.name!r}")
        keep = {tuple(str(v) for v in key) for key in values}
        for stale in [key for key in self._children if key not in keep]:
            del self._children[stale]
        for key, value in values.items():
            labels = dict(zip(self.label_names, key))
            self.labels(**labels).set(value)

    def __len__(self) -> int:
        return len(self._children)

    def aggregate(self, agg: Optional[str] = None) -> Optional[float]:
        """One number across all children; None when there is no data.

        Counters/gauges support ``sum``/``max``/``min``/``mean``;
        histograms support ``p50``/``p95``/``p99`` (any ``pNN``),
        ``mean``, ``sum`` and ``count`` over the merged distribution.
        """
        if agg is None:
            agg = _DEFAULT_AGG[self.kind]
        if not self._children:
            return None
        if self.kind == "histogram":
            merged = Histogram.merged(self._children.values())
            if merged is None or merged.count == 0:
                return None
            if agg.startswith("p") and agg[1:].isdigit():
                return merged.percentile(float(agg[1:]))
            if agg == "mean":
                return merged.mean
            if agg == "sum":
                return merged.sum
            if agg == "count":
                return float(merged.count)
            raise ValueError(f"unknown histogram aggregation {agg!r}")
        values = [child.value for child in self._children.values()]
        if agg == "sum":
            return sum(values)
        if agg == "max":
            return max(values)
        if agg == "min":
            return min(values)
        if agg == "mean":
            return sum(values) / len(values)
        raise ValueError(f"unknown aggregation {agg!r} for {self.kind}")


class LatencyWindow:
    """Sliding-window latency samples over virtual time.

    ``record(now_ms, latency_ms)`` appends and prunes samples older than
    ``window_ms`` — a window that is written but never queried stays
    bounded (regression: it used to grow without limit).  ``max_samples``
    additionally caps the deque so a burst inside one window cannot grow
    memory either.
    """

    def __init__(self, window_ms: float = 60_000.0,
                 max_samples: int = 65_536) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = window_ms
        self._samples: Deque[tuple[float, float]] = deque(maxlen=max_samples)

    def record(self, now_ms: float, latency_ms: float) -> None:
        self._samples.append((now_ms, latency_ms))
        self._prune(now_ms)

    def _prune(self, now_ms: float) -> None:
        cutoff = now_ms - self.window_ms
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)

    def count(self, now_ms: float) -> int:
        self._prune(now_ms)
        return len(self._samples)

    def qps(self, now_ms: float) -> float:
        """Requests per second over the window."""
        self._prune(now_ms)
        return len(self._samples) / (self.window_ms / 1000.0)

    def mean(self, now_ms: float) -> Optional[float]:
        self._prune(now_ms)
        if not self._samples:
            return None
        return sum(lat for _, lat in self._samples) / len(self._samples)

    def percentile(self, now_ms: float, pct: float) -> Optional[float]:
        """Latency percentile in [0, 100] over the window."""
        self._prune(now_ms)
        if not self._samples:
            return None
        values = sorted(lat for _, lat in self._samples)
        rank = min(len(values) - 1,
                   max(0, round(pct / 100.0 * (len(values) - 1))))
        return values[rank]


class MetricsRegistry:
    """Shared metric store: labeled families (``registry.gauge_family(
    "wal_subscriber_lag", ("channel", "subscriber"))``) plus ``windows``,
    the time-sliding :class:`LatencyWindow` objects — a different beast from
    cumulative histograms: they forget, which the autoscaler needs.
    """

    def __init__(self) -> None:
        self.families: dict[str, MetricFamily] = {}
        self.windows: dict[str, LatencyWindow] = {}

    # ------------------------------------------------------------------
    # families
    # ------------------------------------------------------------------

    def family(self, name: str, kind: str, label_names: tuple = (),
               help: str = "", unit: str = "",
               buckets: tuple = DEFAULT_BUCKETS) -> MetricFamily:
        existing = self.families.get(name)
        if existing is not None:
            if existing.kind != kind \
                    or existing.label_names != tuple(label_names):
                raise ValueError(
                    f"family {name!r} already registered as "
                    f"{existing.kind}{existing.label_names}, requested "
                    f"{kind}{tuple(label_names)}")
            return existing
        family = MetricFamily(name, kind, label_names, help=help,
                              unit=unit, buckets=buckets)
        self.families[name] = family
        return family

    def counter_family(self, name: str, label_names: tuple = (),
                       help: str = "") -> MetricFamily:
        return self.family(name, "counter", label_names, help=help)

    def gauge_family(self, name: str, label_names: tuple = (),
                     help: str = "", unit: str = "") -> MetricFamily:
        return self.family(name, "gauge", label_names, help=help, unit=unit)

    def histogram_family(self, name: str, label_names: tuple = (),
                         help: str = "", unit: str = "",
                         buckets: tuple = DEFAULT_BUCKETS) -> MetricFamily:
        return self.family(name, "histogram", label_names, help=help,
                           unit=unit, buckets=buckets)

    def latency(self, name: str,
                window_ms: float = 60_000.0) -> LatencyWindow:
        if name not in self.windows:
            self.windows[name] = LatencyWindow(window_ms)
        return self.windows[name]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def snapshot(self, now_ms: float) -> dict[str, float]:
        """Flat name -> value view (REST ``/system``, flight recorder).

        Labeled children render as ``name{k=v,...}.suffix`` so the flat
        view stays lossless over the family structure.
        """
        out: dict[str, float] = {}
        for name, family in sorted(self.families.items()):
            for labels, metric in family.samples():
                key = name
                if labels:
                    inner = ",".join(f"{k}={v}"
                                     for k, v in sorted(labels.items()))
                    key = f"{name}{{{inner}}}"
                if family.kind == "counter":
                    out[f"{key}.count"] = metric.value
                elif family.kind == "gauge":
                    out[f"{key}.value"] = metric.value
                else:
                    out[f"{key}.count"] = float(metric.count)
                    for pct in (50, 95, 99):
                        value = metric.percentile(pct)
                        if value is not None:
                            out[f"{key}.p{pct}"] = value
        for name, window in sorted(self.windows.items()):
            mean = window.mean(now_ms)
            if mean is not None:
                out[f"{name}.mean_ms"] = mean
            out[f"{name}.qps"] = window.qps(now_ms)
        return out

    def expose_text(self, now_ms: float) -> str:
        """Prometheus-style text exposition of every family and window."""
        from repro.monitoring.exposition import render_exposition
        return render_exposition(self, now_ms)
