"""The cycloperm benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The pool of queries is generated from the
seed, a fresh worker process drives ``cycloperm.cli.main`` over it for
S seconds (see worker.py), and every answer is checked afterwards.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The lines above it say the same for
a reader, with sample counts, ``failed_frac`` and the coverage check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check
from tracer import metric_units
from worker import fastest_third
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is timed in fresh processes, this many before the measured one
# and as many after it, and reported as the median of those and the
# measured process's own.
SETUP_SAMPLES_EACH_SIDE = 4
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Which layers each workload must keep busy, and which must see no call.
COVERAGE = {
    "forms-convert": {
        "busy": ["cli.main", "arith.factorize", "field.make_field",
                 "field.FqConfig.dlog_table", "forms.PolyForm.parse",
                 "forms.PolyForm.__str__", "forms.analyze_permutation",
                 "forms.cyclotomic_to_poly", "forms.invert_permutation",
                 "wreath.cycle_type_wreath"],
        "idle": ["cycle_index", "conjugacy", "oracle"],
    },
    "cycle-index": {
        "busy": ["cli.main", "arith.factorize", "cycle_index.ci_gcp",
                 "cycle_index.ci_cp", "cycle_index.ci_focp",
                 "cycle_index.ci_hol", "cycle_index.CycleIndex.substitute"],
        "idle": ["field", "forms", "wreath", "conjugacy", "oracle"],
    },
    "conjugacy": {
        "busy": ["cli.main", "arith.units", "conjugacy.hol_class_id",
                 "conjugacy.hol_conjugate", "conjugacy.conjugacy_invariant",
                 "conjugacy.rep_system", "wreath.WreathElem.parse",
                 "wreath.fcp"],
        "idle": ["field", "forms", "cycle_index", "oracle"],
    },
    "pointwise-verify": {
        "busy": ["forms.PolyForm.eval", "field.CyclotomicContext.coset_index",
                 "field.FqConfig.dlog_table", "oracle.materialize",
                 "oracle.enumerate_group", "oracle.ci_brute",
                 "conjugacy.reps_as_cyclotomic", "forms.eval_cyclotomic"],
        "idle": [],
    },
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(inputs: Path, out: Path, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--out", str(out), *extra]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def query_failures(pool, n_passes: int, answers: Path) -> list[list[str | None]]:
    """Per pass, per query: None if the answer is right, else why not.

    A later pass lists only answers that differ from the first pass's."""
    per_pass = [[None] * len(pool) for _ in range(n_passes)]
    with answers.open() as fh:
        for line in fh:
            pass_no, qid, code, out = json.loads(line)
            why = check(pool[qid]["expect"], code, out)
            if pass_no == 0:
                for later in per_pass:
                    later[qid] = why
            else:
                per_pass[pass_no][qid] = why
    return per_pass


def end_to_end(result, failures, setups) -> dict[str, float]:
    """Figures over the fastest third of each query's untraced samples
    (see ``fastest_third`` in worker.py)."""
    plain = [(p["latencies"], f) for p, f in zip(result["passes"], failures)
             if not p["traced"]]
    keep = fastest_third(len(plain))
    latencies, correct = [], 0
    for qid in range(len(plain[0][0])):
        samples = sorted((lat[qid], why is None) for lat, f in plain
                         for why in [f[qid]])[:keep]
        latencies += [t for t, _ in samples]
        correct += sum(ok for _, ok in samples)
    return {
        "throughput_qps": correct / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": result["maxrss_mb"],
        "setup_s": statistics.median(setups),
    }


def coverage(workload: str, layers: dict[str, float]) -> list[str]:
    claims = COVERAGE[workload]
    problems = [f"{name} made no call" for name in claims["busy"]
                if layers[f"{name}.calls"] == 0]
    problems += [f"{layer} made {layers[f'{layer}.calls']:g} calls"
                 for layer in claims["idle"] if layers[f"{layer}.calls"]]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cycloperm" / "cli.py").is_file():
        return fail(f"no package source under {ROOT / 'src'}; run from a "
                    f"checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")

    pool = generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = OUT / f"{tag}-inputs.json"
    inputs.write_text(json.dumps([q["argv"] for q in pool]))
    result_path = OUT / f"{tag}-result.json"
    answers = OUT / f"{tag}-answers.jsonl"
    try:
        setup_runs = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
        setups = [run_worker(inputs, result_path, ["--setup-only"])["setup_s"]
                  for _ in range(setup_runs)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--answers", str(answers)]
        if args.trace:
            extra += ["--spans", str(OUT / f"spans-{args.workload}"
                                             f"-{args.seed}.tsv.gz")]
        start = time.perf_counter()
        result = run_worker(inputs, result_path, extra)
        wall = time.perf_counter() - start
        setups += [run_worker(inputs, result_path, ["--setup-only"])["setup_s"]
                   for _ in range(setup_runs)]
        failures = query_failures(pool, len(result["passes"]), answers)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"worker failed: {exc}")
    finally:
        for path in (inputs, result_path, answers):
            path.unlink(missing_ok=True)
    setups.append(result["setup_s"])

    attempted = sum(len(f) for f in failures)
    failed = sum(1 for f in failures for why in f if why is not None)
    for pass_no, f in enumerate(failures):
        for qid, why in enumerate(f):
            if why is not None:
                print(f"FAILED pass {pass_no} query {qid} "
                      f"{' '.join(pool[qid]['argv'][:3])}: {why}",
                      file=sys.stderr)

    n_plain = sum(1 for p in result["passes"] if not p["traced"])
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} queries "
          f"a pass, {len(result['passes'])} passes ({n_plain} untraced) in "
          f"{wall:.1f} s; {attempted} attempted, {failed} failed")
    print("  pass times       " + " ".join(
        f"{p['seconds']:.2f}{'T' if p['traced'] else ''}"
        for p in result["passes"]) + " s")
    print(f"  failed_frac      {failed / attempted:.6f}")
    if args.trace:
        units = metric_units()
        metrics = result["layers"]
        for name in units:
            print(f"  {name:48s} {metrics[name]:.6g} {units[name]}")
        problems = coverage(args.workload, metrics)
        print("  coverage: " + ("ok" if not problems else
                                "FAILED: " + "; ".join(problems)))
    else:
        units = END_TO_END
        metrics = end_to_end(result, failures, setups)
        samples = fastest_third(n_plain) * len(pool)
        notes = {"latency_p50_ms": f"(fastest {fastest_third(n_plain)} of "
                                   f"{n_plain} samples of each query)",
                 "latency_p90_ms": f"({samples} samples, "
                                   f"{samples - samples * 9 // 10} above)",
                 "setup_s": f"(median of {len(setups)} processes)"}
        for name, unit in units.items():
            print(f"  {name:16s} {metrics[name]:.6g} {unit} {notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
