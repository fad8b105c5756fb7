"""Standing end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload <name> --seed <int>
        [--seconds <int>] [--trace <0|1>] [--out <dir>]

``--trace 0`` (default) measures the end-to-end metrics, wall clock at
reference machine speed, with the benchmark's tracing off; ``--trace 1``
runs one lifecycle plain and one with wall-clock spans installed around
the layers (``spans.py``) and reports the per-layer ledger instead.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_SCALE = 0.25


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="how long to measure: after the workload's "
                             "fixed number of rounds, more of them are "
                             "started until then (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", help="directory for <workload>.json (and "
                                      "trace.<workload>.json when tracing)")
    return parser.parse_args(argv)


def environment(args: argparse.Namespace) -> dict:
    """Noise hygiene, recorded in every result."""
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"blas_threads": {name: os.environ[name] for name in BLAS_PINS},
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "git_sha": sha, "seed": args.seed,
            "seconds": args.seconds, "load": "closed loop, 1 client, "
            "1 process, 1 thread; gc.collect() before every section; one "
            "discarded quarter-scale warm-up lifecycle, and one discarded "
            "warm-up round on a cluster that serves several rounds"}


def measured_sections(spec) -> tuple[str, ...]:
    """Sections whose ops feed metrics: every set-up and round, and the
    recall check's searches where the rounds themselves have none."""
    own_searches = spec.sealed or spec.steps
    return ("setup", "round") if own_searches else ("setup", "round", "check")


def measure_end_to_end(spec, data, truth, seconds: float, prepare_s: float,
                       speed):
    """Run the lifecycles; returns (metrics, per-round values, lives).

    Rounds replay the same ops, so sections of one name are laid side by
    side and each op takes its median duration across them: one typical
    set-up, one typical round.  The metrics are computed once on those
    (a percentile is steadier over per-request medians than as a median
    of per-round percentiles); what each round read on its own is kept
    beside them."""
    import numpy as np

    from clock import peak_rss_mb
    from workloads import KIND, STEP, run_workload, summarise

    lives = run_workload(spec, data, truth, speed, seconds)
    metrics: dict[str, float] = {}
    per_round: dict[str, list] = {}
    for name in measured_sections(spec):
        rounds = [(life.ops[section.ops], life.durations[section.ops],
                   life.slowdowns[section.ops], section)
                  for life in lives for section in life.sections
                  if section.name == name]
        shape = [(op[KIND], op[STEP]) for op in rounds[0][0]]
        if any([(op[KIND], op[STEP]) for op in ops] != shape
               for ops, *_ in rounds):
            raise RuntimeError(f"{name} sections did not replay the same "
                               "ops: the simulator is not deterministic")
        typical = summarise(rounds[0][0], np.median(
            np.stack([durations for _, durations, *_ in rounds]), axis=0))
        for ops, durations, slowdowns, section in rounds:
            own = summarise(ops, durations)
            if name == "setup":
                own["setup_s"] = prepare_s + own["section_s"]
            elif name == "round":
                own["proc.cpu_over_wall"] = section.cpu_over_wall
                own["machine.slowdown"] = float(np.median(slowdowns))
            for key, value in own.items():
                per_round.setdefault(key, []).append(value)
        if name == "setup":
            # one lifecycle's set-up, with the run's data generation and
            # ground truth
            typical["setup_s"] = prepare_s + typical["section_s"]
        metrics.update(typical)
    del metrics["section_s"], per_round["section_s"]
    metrics["recall_at_10"] = min(life.recall for life in lives
                                  if life.recall == life.recall)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, per_round, lives


def measure_per_layer(spec, data, truth, out_dir, speed):
    """One untraced and one traced lifecycle of one round each; returns
    (metrics, extra result sections, lives)."""
    import ledger as ledger_module
    from spans import Recorder
    from workloads import run_lifecycle

    plain = run_lifecycle(spec, data, truth, speed, 1)
    metrics = {"tracing.plane_overhead_ratio":
               ledger_module.plane_overhead_ratio(plain)}
    metrics.update(ledger_module.explain_counts(plain))
    plain.release()

    recorder = Recorder()
    recorder.install()
    try:
        traced = run_lifecycle(spec, data, truth, speed, 1)
    finally:
        recorder.uninstall()
    ledger = ledger_module.Ledger(recorder, traced)
    for problem in ledger.reconcile():
        traced.fail(f"ledger does not reconcile: {problem}")
    metrics.update(ledger.metrics())
    metrics.update(ledger_module.index_probe(data))
    metrics["costmodel.mac_rate_ratio"] = ledger_module.mac_rate_ratio()
    metrics["bench.trace_overhead_ratio"] = (
        ledger_module.timed_s(traced) / ledger_module.timed_s(plain))
    metrics["proc.cpu_over_wall"] = ledger_module.round_of(
        plain).cpu_over_wall
    metrics["machine.slowdown"] = ledger.slowdown
    if out_dir is not None:
        recorder.write_chrome_trace(
            str(out_dir / f"trace.{spec.name}.json"), traced.ops)
    table = [{"span": name, "calls": calls, "self_s": self_s}
             for name, calls, self_s in ledger.table()]
    return metrics, {"self_time_table": table,
                     "spans": len(recorder.spans)}, [plain, traced]


def report(doc: dict, declared: list[dict]) -> None:
    print(f"== {doc['workload']} seed={doc['env']['seed']} "
          f"[{doc['mode']}] ==")
    for entry in declared:
        value = doc["metrics"][entry["name"]]["value"]
        print(f"  {entry['name']:<40} {value:>16.6g} {entry['unit']}")
    for row in doc.get("self_time_table", [])[:12]:
        print(f"  self {row['span']:<32} {row['calls']:>8} calls "
              f"{row['self_s']:>9.4f} s")
    scale = doc["metrics"].get("costmodel.mac_rate_ratio", {}).get("value")
    for name in ("scan", "wait", "build"):
        key = f"costmodel.{name}_wall_over_virtual"
        if scale and key in doc["metrics"]:
            honest = doc["metrics"][key]["value"] * scale
            if honest and not 1 / 3 <= honest <= 3:
                print(f"  FLAG {key}: wall is {honest:.2f}x the calibrated "
                      f"cost model's virtual time (outside [1/3, 3])")
    print(f"  ops attempted {doc['attempted']}, failed {doc['failed']}, "
          f"failed_op_ratio {doc['failed_op_ratio']:.6g}")
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy is first imported: the box has two
    # shared cores and thread pools are the largest source of noise.
    for name in BLAS_PINS:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from clock import SpeedLog, wall
    from workloads import (MIN_RECALL, SPECS, ground_truth, make_data,
                           run_lifecycle)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in SPECS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(SPECS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    spec = SPECS[args.workload]
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    speed = SpeedLog()
    prepare_s = 0.0

    def prepare(fn, *inputs):
        """One step of data generation, timed like an op."""
        nonlocal prepare_s
        speed.probe_if_due()
        start = wall()
        out = fn(*inputs)
        end = wall()
        speed.probe_if_due()
        prepare_s += (end - start) / speed.slowdown(start, end)
        return out

    data = prepare(make_data, spec, args.seed)
    truth = np.concatenate([
        prepare(ground_truth, spec, data, data.queries[lo:lo + 128])
        for lo in range(0, len(data.queries), 128)])
    warmup = run_lifecycle(spec.scaled(WARMUP_SCALE), data, None, speed, 1)
    warmup.release()

    mode = "per_layer" if args.trace else "end_to_end"
    declared = benchmark[mode]
    if args.trace:
        metrics, extra, lives = measure_per_layer(spec, data, truth, out_dir,
                                                  speed)
    else:
        metrics, per_round, lives = measure_end_to_end(
            spec, data, truth, args.seconds, prepare_s, speed)
        extra = {"per_round": per_round}

    lives = [warmup] + lives
    failures = [f for life in lives for f in life.failures]
    recall = min(life.recall for life in lives if life.recall == life.recall)
    if recall < MIN_RECALL:
        failures.append(f"recall@10 {recall:.4f} below {MIN_RECALL}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    attempted = sum(life.attempted for life in lives)
    doc = {
        "workload": spec.name, "mode": mode,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "failed_op_ratio": len(failures) / attempted,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
        "env": environment(args),
        "machine": speed.summary(),
        "ops": {"lifecycles": len(lives) - 1,
                "rounds": sum(section.name == "round" for life in lives[1:]
                              for section in life.sections),
                "rows": spec.rows, "requests": spec.requests, "nq": spec.nq,
                "steps": spec.steps, "recall_at_10": recall},
        **extra,
    }
    report(doc, [m for m in declared if m["name"] in metrics])
    if out_dir is not None:
        path = out_dir / f"{spec.name}.json"
        merged = json.loads(path.read_text()) if path.is_file() else {}
        merged[mode] = doc
        path.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps({key: doc[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
