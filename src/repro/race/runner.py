"""The chaos driver and the seeded schedule-shuffle sweep that replays it.

:func:`run_chaos_scenario` is the one seeded cluster op stream checked
against a dict model, after every step.  The sweep replays one op
stream; across runs the only varying input is the
:class:`~repro.sim.clock.SchedulePolicy` — which same-tick order the
event loop picks and how broker delivery flushes jitter.  Any difference
in the final semantic state is therefore an order-dependence bug, pinned
to the schedule seed that produced it.

Fingerprints are semantic on purpose.  Two legal schedules may assign
different segment ids, interleave seals differently or compact different
groups; what must NOT move is what a client can observe: live row count,
strong-consistency search results (pks and distances), point reads of
known-live entities, and which entities stay deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.cluster.manu import ManuCluster
from repro.config import ManuConfig, SegmentConfig
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.sim.clock import (
    FIFO_POLICY,
    SchedulePolicy,
    ShuffledSchedulePolicy,
)

#: collection name used by the chaos scenario.
COLLECTION = "race"

#: the sweep's op-stream seed: it varies the schedule, never the workload.
OPS_SEED = 0

#: vector dimensionality of the scenario's collection.
DIM = 12

#: distances are rounded to this many decimals before comparison so float
#: summation-order noise (reductions over differently-ordered segments)
#: does not masquerade as an order-dependence bug.
DISTANCE_DECIMALS = 4


@dataclass
class SeedOutcome:
    """Result of one scenario run under one schedule policy."""

    policy: str                      # "fifo" or "shuffle"
    seed: Optional[int]              # None for the FIFO baseline
    fingerprint: Optional[dict] = None
    error: Optional[str] = None      # exception repr when the run crashed
    schedule_trace: list[tuple[float, int, str]] = field(
        default_factory=list)
    executed_events: int = 0

    @property
    def label(self) -> str:
        return "fifo" if self.seed is None else f"seed={self.seed}"


@dataclass
class RaceSweepReport:
    """A FIFO baseline plus N seeded runs and their diffs."""

    baseline: SeedOutcome
    outcomes: list[SeedOutcome]
    #: seed -> list of human-readable differences vs the baseline
    divergent: dict[int, list[str]]

    @property
    def ok(self) -> bool:
        return (self.baseline.error is None and not self.divergent
                and all(o.error is None for o in self.outcomes))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "baseline": {"label": self.baseline.label,
                         "error": self.baseline.error,
                         "executed_events": self.baseline.executed_events},
            "seeds": [{"label": o.label, "error": o.error,
                       "executed_events": o.executed_events,
                       "divergences": self.divergent.get(o.seed, [])}
                      for o in self.outcomes],
        }


def _build_cluster(policy: SchedulePolicy,
                   trace: bool = False) -> ManuCluster:
    config = ManuConfig(
        segment=SegmentConfig(
            seal_entity_count=64, slice_size=32, compaction_min_size=48,
            compaction_target_size=192))
    cluster = ManuCluster(config=config, num_query_nodes=2,
                          num_index_nodes=1, num_loggers=2,
                          schedule_policy=policy)
    # Arm the runtime monotonicity twin for the whole run: a shuffle that
    # breaks the per-WAL-channel LSN contract must fail loudly, not show
    # up later as a mysterious fingerprint diff.
    cluster.broker.manu_check = True
    if trace:
        cluster.loop.schedule_log = []
    return cluster


def inject_crash(cluster: ManuCluster) -> str:
    """Kill one established query node, deterministically, as a crash
    point, and bring up a replacement.

    Consumes nothing from the scenario RNG *and* restores the node
    count, so the op stream's state-dependent branches (``fail_node``
    needs >1 nodes, ``add_node`` <5, ...) draw the identical RNG
    sequence with and without the crash.  The recovered run must then
    converge to the uncrashed fingerprint: checkpointed segments reload
    from their binlogs and channels replay from the recorded flushed
    offsets.
    """
    victim = cluster.query_coord.node_names[0]
    cluster.add_query_node()
    cluster.run_for(100)
    cluster.fail_query_node(victim)
    return victim


#: the op stream's choices; ``run`` only lets virtual time pass.
OPS = ("insert", "insert", "insert", "upsert", "delete", "delete", "flush",
       "compact", "fail_node", "add_node", "remove_node", "logger_churn",
       "run")

#: a range-search row this close (L2) to the radius may fall either side:
#: the ``|q|^2 - 2q.v + |v|^2`` expansion puts an exact duplicate at ~2e-3.
RADIUS_SLACK = 1e-2


def _sample(rng: np.random.Generator, pks: list, most: int) -> list:
    return [pks[int(i)] for i in
            rng.choice(len(pks), min(most, len(pks)), replace=False)]


def check_against_model(cluster: ManuCluster, model: dict[int, np.ndarray],
                        deleted: set, rng: np.random.Generator
                        ) -> Optional[str]:
    """What a STRONG client sees against the model; the first
    disagreement, or ``None``."""
    strong = ConsistencyLevel.STRONG
    live = sorted(model)
    if live:
        sample = _sample(rng, live, 8)
        got = cluster.get(COLLECTION, sample, consistency=strong)
        if sorted(got) != sorted(sample):
            return f"get of live {sorted(sample)} returned {sorted(got)}"
        for pk in sample:
            if not np.array_equal(got[pk]["vector"], model[pk]):
                return f"get({pk}) returned a vector the model never held"
    if deleted:
        sample = _sample(rng, sorted(deleted), 8)
        got = cluster.get(COLLECTION, sample, consistency=strong)
        if got:
            return f"get of deleted {sorted(sample)} returned {sorted(got)}"
    if live:
        probe = live[int(rng.integers(len(live)))]
        query = model[probe]
        pks = cluster.search(COLLECTION, query, 5, consistency=strong)[0].pks
        if not pks or pks[0] != probe or any(pk not in model for pk in pks):
            return f"search for pk {probe}'s own vector returned {pks}"
        radius = float(rng.uniform(1.0, 4.5))
        vectors = np.stack([model[pk] for pk in live]).astype(np.float64)
        dists = np.sqrt(((vectors - query) ** 2).sum(axis=1))
        edge = {pk for pk, d in zip(live, dists)
                if abs(d - radius) <= RADIUS_SLACK}
        want = {pk for pk, d in zip(live, dists) if d < radius} - edge
        hits = cluster.range_search(COLLECTION, query, radius,
                                    consistency=strong).pks
        if set(hits) - edge != want:
            return (f"range_search(pk {probe}, radius {radius:.3f}) "
                    f"returned {sorted(set(hits) - edge)}, model "
                    f"{sorted(want)}")
    rows = cluster.collection_row_count(COLLECTION)
    if rows != len(model):
        return f"collection_row_count {rows}, model {len(model)}"
    return None


def run_chaos_scenario(policy: SchedulePolicy, steps: int = 30,
                       trace: bool = False,
                       crash_step: Optional[int] = None,
                       ops_seed: int = OPS_SEED,
                       ) -> tuple[ManuCluster, dict[int, np.ndarray]]:
    """Run the op stream of ``ops_seed`` under ``policy``; after every
    step and once settled, :func:`check_against_model` must find nothing,
    else ``AssertionError`` names the op seed, schedule, step and op.

    Returns the settled cluster and the model of expected live entities
    (pk -> vector).  ``crash_step`` injects :func:`inject_crash` after
    that step's operation; the checks draw from their own RNG, so the op
    stream is the same for every policy and crash point.
    """
    rng = np.random.default_rng(ops_seed)
    check_rng = np.random.default_rng([ops_seed, 1])
    cluster = _build_cluster(policy, trace=trace)
    schema = CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
    ])
    cluster.create_collection(COLLECTION, schema)
    cluster.create_index(COLLECTION, "vector", "IVF_FLAT",
                         MetricType.EUCLIDEAN, {"nlist": 4, "nprobe": 4})

    model: dict[int, np.ndarray] = {}
    deleted: set[int] = set()
    next_pk = 0
    logger_seq = 0

    def check(step, op, failure: Optional[str] = None) -> None:
        failure = failure or check_against_model(cluster, model, deleted,
                                                 check_rng)
        if failure is not None:
            raise AssertionError(
                f"ops seed {ops_seed}, schedule {policy.name} "
                f"seed={policy.seed}, step {step} ({op}): {failure}")

    for step in range(steps):
        op = str(rng.choice(OPS))
        if op == "insert":
            n = int(rng.integers(5, 40))
            pks = list(range(next_pk, next_pk + n))
            vectors = rng.standard_normal((n, DIM)).astype(np.float32)
            cluster.insert(COLLECTION, {"pk": pks, "vector": vectors})
            model.update(zip(pks, vectors))
            next_pk += n
        elif op == "upsert" and model:
            pks = _sample(rng, sorted(model), int(rng.integers(1, 8)))
            vectors = rng.standard_normal((len(pks), DIM)).astype(np.float32)
            cluster.upsert(COLLECTION, {"pk": pks, "vector": vectors})
            model.update(zip(pks, vectors))
        elif op == "delete" and model:
            victims = _sample(rng, sorted(model), int(rng.integers(1, 6)))
            expr = "pk in [" + ", ".join(map(str, victims)) + "]"
            count = cluster.delete(COLLECTION, expr)
            if count != len(victims):
                check(step, op, f"deleted {count} of {len(victims)} pks")
            for pk in victims:
                model.pop(pk)
            deleted.update(victims)
        elif op == "flush":
            cluster.flush(COLLECTION)
        elif op == "compact":
            cluster.flush(COLLECTION)
            cluster.compact(COLLECTION)
        elif op == "fail_node":
            if cluster.num_query_nodes > 1:
                names = cluster.query_coord.node_names
                cluster.fail_query_node(
                    names[int(rng.integers(len(names)))])
        elif op == "add_node":
            if cluster.num_query_nodes < 5:
                cluster.add_query_node()
        elif op == "remove_node":
            if cluster.num_query_nodes > 2:
                cluster.remove_query_node()
        elif op == "logger_churn":
            cluster.add_logger(f"race-logger-{logger_seq}")
            logger_seq += 1
            if len(cluster.logger_service.logger_names) > 3:
                cluster.fail_logger(
                    cluster.logger_service.logger_names[0])
        cluster.run_for(float(rng.integers(50, 400)))
        if crash_step is not None and step == crash_step:
            inject_crash(cluster)
        check(step, op)

    # Settle: let deliveries, seals, handoffs and index builds complete so
    # the fingerprint reads a quiescent cluster, not an in-flight one.
    cluster.flush(COLLECTION)
    cluster.run_for(2_000)
    check(steps, "settle")
    return cluster, model


def cluster_fingerprint(cluster: ManuCluster,
                        model: dict[int, np.ndarray],
                        probes: int = 8) -> dict:
    """Client-observable state: what must be schedule-invariant.

    Deliberately excludes segment ids, LSNs, channel offsets and event
    counts — all legitimately schedule-dependent.
    """
    rng = np.random.default_rng(OPS_SEED + 1)
    fp: dict[str, Any] = {
        "row_count": cluster.collection_row_count(COLLECTION),
        "model_size": len(model),
    }
    pks = sorted(model)
    # Point reads of a deterministic sample of live entities.
    sample = [pks[int(i)] for i in
              rng.choice(len(pks), min(16, len(pks)), replace=False)] \
        if pks else []
    got = cluster.get(COLLECTION, sample)
    fp["point_reads"] = sorted(got)
    # Strong-consistency searches: result pks and rounded distances.
    searches = []
    for _ in range(probes):
        if pks:
            probe = pks[int(rng.integers(len(pks)))]
            query = model[probe]
        else:
            query = rng.standard_normal(DIM).astype(np.float32)
        result = cluster.search(COLLECTION, query, 5,
                                consistency=ConsistencyLevel.STRONG)[0]
        searches.append({
            "pks": list(result.pks),
            "distances": [round(float(d), DISTANCE_DECIMALS)
                          for d in result.distances],
        })
    fp["searches"] = searches
    return fp


def diff_fingerprints(baseline: dict, other: dict) -> list[str]:
    """Human-readable differences between two fingerprints."""
    diffs: list[str] = []
    for key in ("row_count", "model_size", "point_reads"):
        if baseline.get(key) != other.get(key):
            diffs.append(f"{key}: baseline={baseline.get(key)!r} "
                         f"vs {other.get(key)!r}")
    base_searches = baseline.get("searches", [])
    other_searches = other.get("searches", [])
    for i, (a, b) in enumerate(zip(base_searches, other_searches)):
        if a != b:
            diffs.append(f"search[{i}]: baseline={a!r} vs {b!r}")
    return diffs


def _run_one(policy: SchedulePolicy, steps: int,
             trace: bool) -> SeedOutcome:
    outcome = SeedOutcome(policy=policy.name, seed=policy.seed)
    try:
        cluster, model = run_chaos_scenario(policy, steps=steps,
                                            trace=trace)
        outcome.fingerprint = cluster_fingerprint(cluster, model)
        outcome.executed_events = cluster.loop.executed_events
        if cluster.loop.schedule_log is not None:
            outcome.schedule_trace = cluster.loop.schedule_log
    # A crashed seed is a *result* the sweep must report (with the seed
    # pinned for replay), never a crash of the sweep itself; any
    # exception type qualifies.
    except Exception as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def run_race_sweep(seeds, steps: int = 30,
                   trace: bool = False) -> RaceSweepReport:
    """Run the scenario under FIFO plus each seed; diff the outcomes.

    ``trace=True`` captures each run's executed-event schedule (the
    artifact CI uploads when a seed diverges, replayable with
    ``MANU_RACE=<seed>``).
    """
    baseline = _run_one(FIFO_POLICY, steps, trace)
    outcomes = [_run_one(ShuffledSchedulePolicy(seed), steps, trace)
                for seed in seeds]
    divergent: dict[int, list[str]] = {}
    for outcome in outcomes:
        if outcome.error is not None:
            divergent[outcome.seed] = [f"run failed: {outcome.error}"]
        elif baseline.fingerprint is not None \
                and outcome.fingerprint is not None:
            diffs = diff_fingerprints(baseline.fingerprint,
                                      outcome.fingerprint)
            if diffs:
                divergent[outcome.seed] = diffs
    return RaceSweepReport(baseline=baseline, outcomes=outcomes,
                           divergent=divergent)
