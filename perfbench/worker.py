"""The measured process: one closed-loop client driving ``cli.main`` in-process.

    python3 perfbench/worker.py --inputs POOL.json --out RESULT.json \
        --answers ANSWERS.jsonl --seconds S --trace 0|1 [--setup-only]

Set-up is timed from the import of ``cycloperm.cli`` to the first query
being ready: the import, one parser build and loading the argv lists.
Then the pool is run in whole passes, always in the same order, so every
pass has the same mix of queries.  The figures come from the fastest
third of each query's samples (see ``fastest_third``), so passes go on
until there are ``MIN_PASSES`` and the kept samples number at least
``MIN_QUERIES``, and then as long as one more pass is expected to end
within ``--seconds``.  With ``--trace 1`` untraced and
traced passes alternate, at least one of each; their ratio is the
tracing overhead.

Answers go to ANSWERS.jsonl as ``[pass, query, exit code, stdout]``
lines: all of the first pass, and of later passes those that differ from
the first.  Only a digest of each stays in memory, so the peak memory is
the program's and not the answers'.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 6
# p90 of at least 100 latencies has at least 10 samples above it.
MIN_QUERIES = 100
# Stop starting passes after this long even if MIN_QUERIES are not done,
# so that a slow program still ends the run well within its time limit.
HARD_LIMIT_S = 100.0


def fastest_third(n_passes: int) -> int:
    """How many of each query's fastest samples the figures are taken from.

    The machines this runs on are shared: another tenant slows every
    query by up to half, for seconds at a time and often for longer than
    a pass.  A query does the same work in every pass, so its slower
    samples measure the neighbours and its fastest ones the program."""
    return max(1, n_passes // 3)


def run_query(cli, argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a query that raises is a failed query
        return None, f"raised {type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def run_pass(cli, argvs, pass_no, digests, answers, tracer=None):
    """Latencies of one pass; answers are written as described above."""
    latencies = []
    for qid, argv in enumerate(argvs):
        if tracer is not None:
            tracer.query = qid
        # A command line run ends its process and frees everything, so
        # collect the previous query's cyclic garbage (a field and its
        # tables hold cycles) before this one, outside the timing.
        gc.collect()
        t0 = time.perf_counter()
        code, out = run_query(cli, argv)
        latencies.append(time.perf_counter() - t0)
        digest = hashlib.sha256(f"{code}\n{out}".encode()).digest()
        if pass_no == 0:
            digests.append(digest)
        if pass_no == 0 or digest != digests[qid]:
            answers.write(json.dumps([pass_no, qid, code, out]) + "\n")
        if tracer is not None:
            tracer.count_output(out)
    return latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--answers")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from cycloperm import cli
    cli.build_parser()
    argvs = json.loads(Path(args.inputs).read_text())
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()

    passes, digests = [], []
    begin = time.perf_counter()
    with open(args.answers, "w") as answers:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                latencies = run_pass(cli, argvs, len(passes), digests, answers,
                                     tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            seconds = time.perf_counter() - start
            passes.append({"traced": traced, "seconds": seconds,
                           "latencies": latencies})
            elapsed = time.perf_counter() - begin
            # a traced run reports no latencies: one pass of each kind will do
            enough = (len(passes) >= MIN_PASSES
                      and fastest_third(len(passes)) * len(argvs)
                      >= MIN_QUERIES
                      if tracer is None else len(passes) >= 2)
            if elapsed >= HARD_LIMIT_S or (
                    enough and elapsed + seconds > args.seconds):
                break

    result.update(passes=passes,
                  maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024)
    if tracer is not None:
        # per query the fastest traced over the fastest untraced sample
        fastest = {kind: [min(lats) for lats in zip(
            *(p["latencies"] for p in passes if p["traced"] == kind))]
            for kind in (True, False)}
        layers = tracer.metrics(sum(p["traced"] for p in passes))
        layers["trace.overhead_frac"] = (sum(fastest[True])
                                         / sum(fastest[False]) - 1)
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
