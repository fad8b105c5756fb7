"""Latency-band autoscaler (Figure 9), lag-aware.

"Manu is configured to reduce query nodes by 0.5x when search latency is
shorter than 100ms and add query nodes to 2x when search latency is over
150ms."  The autoscaler samples a configurable latency signal from the
metrics registry on a fixed evaluation period and applies exactly that
policy, bounded by the configured min/max node counts.

On top of the paper's latency bands it optionally watches a log-backbone
lag signal (the ``wal_subscriber_lag`` gauge family): when any subscriber falls
more than ``lag_high_records`` behind, the cluster scales up even if
latency still looks fine — lag is the leading indicator (slow consumers
surface in latency only after the consistency gates start stalling), and
a lag breach also vetoes scale-down.  Signals are resolved through
:func:`repro.monitoring.alerts.resolve_signal`, so a missing metric or an
empty window is a no-op rather than a crash.

Scale events are recorded for the figure's colored-band rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.manu import ManuCluster
from repro.config import ScalingConfig
from repro.errors import ClusterStateError
from repro.monitoring.alerts import resolve_signal
from repro.sim.events import Event

#: Gauge family watched for log-backbone backlog (records behind).
LAG_SIGNAL = "wal_subscriber_lag"


@dataclass
class ScaleEvent:
    """One autoscaler decision, kept for plotting and assertions."""

    at_ms: float
    action: str  # 'up' | 'down'
    from_nodes: int
    to_nodes: int
    observed_latency_ms: float
    reason: str = "latency"  # 'latency' | 'lag'


@dataclass
class Autoscaler:
    """Periodic latency-band scaler for query nodes."""

    cluster: ManuCluster
    policy: Optional[ScalingConfig] = None
    events: list[ScaleEvent] = field(default_factory=list)
    _timer: Optional[Event] = None

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = self.cluster.config.scaling

    def start(self) -> None:
        if self._timer is not None:
            raise ClusterStateError("autoscaler already started")
        self._timer = self.cluster.loop.call_every(
            self.policy.evaluation_interval_ms, self.evaluate,
            name="autoscaler")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _latency(self, now: float) -> Optional[float]:
        return resolve_signal(self.cluster.metrics,
                              self.policy.latency_signal,
                              self.policy.latency_agg, now)

    def _lag(self, now: float) -> Optional[float]:
        if self.policy.lag_high_records <= 0:
            return None
        return resolve_signal(self.cluster.metrics,
                              LAG_SIGNAL, "max", now)

    def evaluate(self) -> Optional[ScaleEvent]:
        """One policy evaluation; returns the event if scaling happened.

        No latency signal and no lag breach → no-op: an idle cluster (or
        one whose windows have all pruned empty) must not thrash.

        Runs detached: the evaluation timer fires inside whatever trace
        is stepping the clock, and a scale-up's segment-load spans must
        not join a bystander search trace.
        """
        with self.cluster.tracer.detached():
            return self._evaluate()

    def _evaluate(self) -> Optional[ScaleEvent]:
        now = self.cluster.now()
        latency = self._latency(now)
        lag = self._lag(now)
        lag_breach = (lag is not None
                      and lag > self.policy.lag_high_records)
        current = self.cluster.num_query_nodes
        event: Optional[ScaleEvent] = None
        latency_breach = (latency is not None
                          and latency > self.policy.latency_high_ms)
        if (latency_breach or lag_breach) \
                and current < self.policy.max_query_nodes:
            target = min(current * 2, self.policy.max_query_nodes)
            for _ in range(target - current):
                self.cluster.add_query_node()
            event = ScaleEvent(now, "up", current, target,
                               latency if latency is not None else 0.0,
                               reason="latency" if latency_breach
                               else "lag")
        elif latency is not None \
                and latency < self.policy.latency_low_ms \
                and not lag_breach \
                and current > self.policy.min_query_nodes:
            target = max(current // 2, self.policy.min_query_nodes)
            for _ in range(current - target):
                self.cluster.remove_query_node()
            event = ScaleEvent(now, "down", current, target, latency)
        if event is not None:
            self.events.append(event)
        return event
