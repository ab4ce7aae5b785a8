"""Record the golden outputs of the catalogue queries into goldens.json.

Run from the repository root:

    python3 perfbench/record_goldens.py

Each catalogue entry is run once through the CLI in-process; the file
keeps the SHA-256 of its answer (the cycle index string, or the JSON list
of representatives), its size, and the time it took, in ms, which the
workloads use to put entries into size bands.  Rerun only when the
catalogue changes: the goldens are the answers of the commit they were
recorded on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import GOLDENS_PATH, _cycle_index_argv, _reps_query  # noqa: E402

CYCLE_INDEX_SIZES = {
    "gcp": {2: [12, 18, 24, 30, 36, 42, 60, 84, 90, 120, 210, 420, 2310],
            3: [12, 18, 24, 30, 42, 60], 4: [12, 18, 24, 30], 5: [12, 18],
            6: [12], 7: [12]},
    "cp": {2: [12, 18, 30, 60, 90, 120, 210, 420], 3: [12, 18, 30, 60, 90, 210],
           4: [12, 18, 30, 60], 5: [12, 18, 30], 6: [12, 18, 30], 7: [12, 18]},
    "focp": {2: [12, 30, 60, 210, 420, 2310], 3: [12, 30, 60, 210, 420, 2310],
             4: [12, 30, 60, 210], 5: [12, 30, 60], 6: [12, 30], 7: [12, 30]},
    "hol": {1: [12, 60, 210, 420, 2310, 4620, 30030, 60060, 120120, 360360,
                510510, 720720]},
}
CYCLE_INDEX_VERIFY_SIZES = {
    "gcp": {2: [3, 4, 5, 6, 8, 10, 12], 3: [2, 3, 4], 4: [2, 3]},
    "cp": {2: [6, 8, 10, 12, 14, 18], 3: [4, 5, 6]},
    "focp": {2: [6, 12, 20, 30], 3: [4, 6, 8, 12], 4: [3, 4]},
    "hol": {1: [12, 20, 30, 42, 60, 84, 90, 120]},
}
KINDS = ("long-cycle", "involution")
REPS_SHAPES = {
    "w": [(2, 210), (3, 210), (4, 60), (2, 2310), (3, 1000), (2, 1024),
          (5, 30), (4, 210)],
    "w1": [(2, 2310), (3, 210), (6, 60), (4, 1024)],
    "weq": [(2, 210), (3, 210), (2, 2310), (4, 60), (3, 1000)],
}
REPS_VERIFY_SHAPES = {
    "w": [(2, 6), (2, 8), (2, 12), (3, 3), (3, 4)],
    "w1": [(2, 12), (2, 20), (2, 30), (3, 6), (3, 10), (4, 6)],
    "weq": [(2, 12), (2, 20), (3, 6), (3, 8)],
}
FIELD_REPS_SHAPES = [(25, 2), (25, 3), (49, 2), (49, 3), (81, 2), (81, 4),
                     (121, 2), (121, 3), (125, 2), (169, 2), (169, 3),
                     (243, 2), (256, 3), (256, 5)]


def run(argv):
    from cycloperm import cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    ms = (time.perf_counter() - start) * 1e3
    if code != 0:
        raise SystemExit(f"{argv} exited {code}: {buf.getvalue()[:200]}")
    return json.loads(buf.getvalue()), ms


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_cycle_index(sizes, verify):
    out = {}
    for group, by_d in sizes.items():
        for d, ms_ in by_d.items():
            for m in ms_:
                key = f"{group} {d} {m}"
                payload, ms = run(_cycle_index_argv(key, verify))
                out[key] = {"sha256": sha256(payload["cycle_index"]),
                            "terms": payload["terms"], "ms": round(ms, 1)}
                print(key, out[key], flush=True)
    return out


def record_reps(keys, verify):
    out = {}
    for key in keys:
        query = _reps_query(key, {"count": None, "sha256": None}, verify)
        payload, ms = run(query["argv"])
        out[key] = {"sha256": sha256(json.dumps(payload["rep"])),
                    "count": payload["count"], "ms": round(ms, 1)}
        print(key, out[key], flush=True)
    return out


def main():
    goldens = {
        "cycle-index": record_cycle_index(CYCLE_INDEX_SIZES, False),
        "cycle-index-verify": record_cycle_index(CYCLE_INDEX_VERIFY_SIZES,
                                                 True),
        "reps": record_reps([f"{g} {k} {d} {m}" for g, shapes in
                             REPS_SHAPES.items() for d, m in shapes
                             for k in KINDS], False),
        "reps-verify": record_reps([f"{g} {k} {d} {m}" for g, shapes in
                                    REPS_VERIFY_SHAPES.items()
                                    for d, m in shapes for k in KINDS], True),
        "field-reps": record_reps([f"{g} {k} {d} {q}"
                                   for g in ("gcp", "cp", "focp")
                                   for q, d in FIELD_REPS_SHAPES
                                   for k in KINDS], False),
    }
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
