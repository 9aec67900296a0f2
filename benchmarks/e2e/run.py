#!/usr/bin/env python3
"""The end-to-end benchmark: five workloads, six end-to-end metrics.

    python benchmarks/e2e/run.py                       # every workload, one table
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
    python benchmarks/e2e/run.py --agree 5             # run-to-run spread vs bounds
    python benchmarks/e2e/run.py --smoke               # tiny sizes (test_smoke.py)

With ``--workload`` the run happens in this process (the driver starts one
fresh process per run) and the last stdout line is the contract's JSON
object.  Without it every workload runs in its own fresh subprocess, one at
a time.  Definitions, bounds and the reasons for each workload are in
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def metric_units(trace: bool) -> "dict[str, str]":
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def run_in_process(args) -> int:
    import harness
    from workloads import WORKLOADS

    record = harness.run_workload(
        WORKLOADS[args.workload], args.seed, smoke=args.smoke,
        # Smoke: the fewest laps, whatever their length.
        seconds=0.0 if args.smoke else args.seconds, trace=bool(args.trace),
    )
    units = metric_units(bool(args.trace))
    unknown = set(record["metrics"]) - set(units)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # The driver's contract: a run reports every metric of its list, as a
    # number.  A per-layer metric of a layer the workload never enters reads 0
    # (end-to-end metrics are never absent).
    record["metrics"] = {name: record["metrics"].get(name, 0.0) for name in units}
    harness.emit(record, units)
    return 0


def run_child(workload: str, seed: int, args) -> dict:
    """One workload in its own fresh subprocess; returns its JSON line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: exit code {done.returncode}")
    *notes, last = done.stdout.rstrip().split("\n")
    # The run's own record: environment, lap walls and their spread, counts.
    print("\n".join(notes))
    return json.loads(last)


def run_set(seed: int, args) -> "dict[str, dict]":
    results = {}
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        result = run_child(workload, seed, args)
        results[workload] = result
        for name, metric in result["metrics"].items():
            print(f"{workload:24s} {name:32s} {metric['value']:14.4f} {metric['unit']}")
        print(f"{workload:24s} {'ops attempted / failed':32s} "
              f"{result['attempted']:9d} / {result['failed']}")
        sys.stdout.flush()
    return results


def spread(values: "list[float]") -> float:
    """The driver's steadiness measure: interquartile range over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def agree(args) -> int:
    """Run the whole set ``--agree`` times (another seed each time) and hold
    every end-to-end metric's spread against its bound."""
    runs = [run_set(args.seed + i, args) for i in range(args.agree)]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    exceeded = 0
    print("\n| workload | metric | median | spread | bound |\n|---|---|---|---|---|")
    for workload in runs[0]:
        for name, bound in bounds.items():
            values = [run[workload]["metrics"][name]["value"] for run in runs]
            share = spread(values)
            over = share > bound
            exceeded += over
            print(f"| {workload} | {name} | {statistics.median(values):.4f} | "
                  f"{share:.4f} | {bound}{' EXCEEDED' if over else ''} |")
    failed = sum(run[w]["failed"] for run in runs for w in run)
    print(f"\nops failed: {failed}; metrics over their bound: {exceeded}")
    return 1 if exceeded or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    # The driver passes --seconds on every run (BENCHMARK.json's run_seconds).
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measured time of one run (all timed laps together)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer (traced) run")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--agree", type=int, nargs="?", const=5, default=0,
                        help="run the set N times and compare spreads with bounds")
    args = parser.parse_args(argv)
    if args.agree:
        return agree(args)
    if args.workload:
        return run_in_process(args)
    results = run_set(args.seed, args)
    print(json.dumps({"claim": None, "results": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
