"""Run-to-run spread of the end-to-end metrics, for choosing their bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--seconds S] [--workloads W ...] [--out FILE]

Runs the benchmark once per seed per workload, each run a fresh
process, and reports for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
The workloads and the run length default to those of BENCHMARK.json.
With ``--out`` the report is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds)
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run had wrong answers", file=sys.stderr)
            return 1
        report[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]}
        print(workload)
        for name, s in report[workload].items():
            print(f"  {name:16s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                  f"  q3 {s['q3']:10.4f}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
