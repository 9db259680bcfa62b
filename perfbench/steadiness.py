"""Steadiness report: run every workload several times and print the spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py                    # seeds 1..10
    python3 perfbench/steadiness.py --first-seed 11    # seeds 11..20
    python3 perfbench/steadiness.py --record perfbench/baseline.json

Every workload of BENCHMARK.json runs ten times, each run
``perfbench/run.py --trace 0`` with its own seed and the ``run_seconds``
of BENCHMARK.json.  For every end-to-end metric the report
gives the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  A spread at or above the bound is
marked ``WIDE``; below a third of it is ``steady``.  ``--record`` also
makes one traced run per workload and writes every value, with the
machine record of the first run, as the baseline of the checked-out
source.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: runs per workload, each with its own seed
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="benchmark steadiness report")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", type=Path, default=None,
                        help="write the values and a traced run per workload here")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}

    baseline = {"run_seconds": seconds, "runs": RUNS, "first_seed": args.first_seed,
                "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for i in range(RUNS):
            record, result = _run(workload, args.first_seed + i, seconds, 0)
            baseline.setdefault("machine", {k: record[k] for k in (
                "nproc", "nproc_usable", "cpu_model", "python", "numpy", "scipy",
                "mpmath", "NOMA_PERF_THREADS", "source_sha256")})
            all_correct &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {RUNS} runs, seeds {args.first_seed}.."
              f"{args.first_seed + RUNS - 1}, failed {failed} of {attempted} rows")
        entry = {"failed": failed, "attempted": attempted, "end_to_end": {}}
        for name, (bound, unit) in bounds.items():
            s = _summary(values[name])
            verdict = ("WIDE" if s["spread"] >= bound
                       else "steady" if s["spread"] < bound / 3 else "ok")
            print(f"  {name:14s} median {s['median']:10.4f} {unit:3s} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                  f"spread {s['spread']:7.2%} bound {bound:.0%} {verdict}")
            entry["end_to_end"][name] = {**s, "unit": unit}
        if args.record is not None:
            record, traced = _run(workload, args.first_seed, seconds, 1)
            all_correct &= traced["correct"]
            entry["per_layer"] = traced["metrics"]
            entry["trace_record"] = {k: v for k, v in record.items() if k.startswith(
                ("layer_share", "dominant", "counts", "traced_", "untraced_"))}
        baseline["workloads"][workload] = entry
    if args.record is not None:
        args.record.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {args.record}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
