"""Compare two sets of end-to-end results, one row per workload x metric.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are result files, or directories searched for them, as
written by ``run.py --out``; a side may hold several runs of a workload.
``A`` is the base of every ratio.  A side's value is the median of its
runs; its spread is the interquartile range over the median of those runs'
values or, when it holds a single run, of what that run's rounds read each
on their own.  Verdicts, by the bound ``BENCHMARK.json`` fixes for the
metric:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — the spread of either side is wider than the bound, so
  the bound cannot be resolved and "unchanged" must not be claimed;
* ``ok``         — neither;
* ``info``       — the workload is not one the metric is defined on (the
  driver's contract wants every metric from every run; see README.md):
  shown, never judged.

``recall_at_10`` and ``failed_op_ratio`` are judged on the absolute
difference.  Exit status 1 when any row regressed.  This is the tool for
the "two sets of runs of one commit agree" acceptance check and for
before/after tables of later performance changes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SEARCH = {"search_sealed_nq1", "search_sealed_nq64"}
#: the workloads each metric is defined on; elsewhere it is ``info``
REPORTED_ON = {
    "search_p50_ms": SEARCH | {"mixed_fresh"},
    "search_p99_ms": {"search_sealed_nq1", "mixed_fresh"},
    "search_qps": SEARCH,
    "recall_at_10": SEARCH | {"mixed_fresh"},
    "ingest_rows_per_s": {"ingest_stream"},
    "ingest_step_p50_ms": {"ingest_stream", "mixed_fresh"},
    "ingest_step_p99_ms": {"ingest_stream", "mixed_fresh"},
    "index_ready_s": {"ingest_stream"},
}
#: metrics bounded on the absolute difference, not the ratio
ABSOLUTE = {"recall_at_10": 0.005, "failed_op_ratio": 0.0}
FAILED = {"name": "failed_op_ratio", "unit": "ratio", "better": "lower",
          "bound": 0.0}


def load(path: Path) -> dict[str, list[dict]]:
    """workload -> the ``end_to_end`` result documents found for it."""
    files = sorted(p for p in path.rglob("*.json")
                   if not p.name.startswith("trace.")) \
        if path.is_dir() else [path]
    out: dict[str, list[dict]] = {}
    for file in files:
        doc = json.loads(file.read_text()).get("end_to_end")
        if doc is not None:
            out.setdefault(doc["workload"], []).append(doc)
    return out


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    median = statistics.median(values) if values else 0.0
    if len(values) < 2 or not median:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def side(docs: list[dict], name: str) -> tuple[float, float]:
    """(value, spread) of one metric over one side's runs."""
    values = [doc["failed_op_ratio"] if name == FAILED["name"]
              else doc["metrics"][name]["value"] for doc in docs]
    rounds = values if len(docs) > 1 \
        else docs[0].get("per_round", {}).get(name, [])
    return statistics.median(values), spread(rounds)


def compare(base: dict[str, list], other: dict[str, list],
            declared: list[dict]) -> list[tuple]:
    rows = []
    for workload in sorted(set(base) & set(other)):
        for metric in declared + [FAILED]:
            name = metric["name"]
            (va, noise_a), (vb, noise_b) = (side(docs[workload], name)
                                            for docs in (base, other))
            worse = vb - va if metric["better"] == "lower" else va - vb
            bound = ABSOLUTE.get(name, metric["bound"] * abs(va))
            noise = max(noise_a, noise_b)
            if workload not in REPORTED_ON.get(name, {workload}):
                verdict = "info"
            elif worse > bound:
                verdict = "regressed"
            elif name not in ABSOLUTE and noise > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, metric["unit"], va, vb,
                         vb / va if va else float("nan"),
                         metric["bound"], noise, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), declared)
    if not rows:
        print("compare.py: no workload has end-to-end results on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<20} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    for workload, name, unit, va, vb, ratio, bound, noise, verdict in rows:
        print(f"{workload:<20} {name:<20} {va:>12.5g} {vb:>12.5g} "
              f"{ratio:>7.3f} {bound:>6.3f} {noise:>7.3f}  {verdict}"
              f"  ({unit})")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
