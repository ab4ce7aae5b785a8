"""Checks one CLI answer against what the workload built it to be.

``check(expect, code, out)`` returns None when the answer is right and a
one-line reason otherwise.  Every answer is structured JSON; an expected
rejection is a success only with exit code 2 and the expected reason.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction

from algebra import parse_cycle_index, parse_poly, wreath_compose, wreath_cycle_type


def check(expect: dict, code, out: str) -> str | None:
    kind = expect["kind"]
    want = 2 if kind == "rejected" else 0
    if code != want:
        return f"exit code {code}, expected {want}: {out[:120]!r}"
    try:
        payload = json.loads(out)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        return f"stdout is not one JSON object: {out[:120]!r}"
    if payload.get("status") != ("rejected" if kind == "rejected" else "ok"):
        return f"status {payload.get('status')!r}"
    try:
        return _CHECKS[kind](expect, payload)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"


def _first_mismatch(expect: dict, payload: dict, keys) -> str | None:
    for key in keys:
        if payload.get(key) != expect[key]:
            return f"{key} = {payload.get(key)!r}, expected {expect[key]!r}"
    return None


def _rejected(expect, payload):
    return _first_mismatch(expect, payload, ["reason"])


def _poly_terms(payload, key, terms):
    got = parse_poly(payload[key])
    if got != terms:
        return f"{key} has {len(got)} terms, differs from the expected {len(terms)}"
    return None


def _poly(expect, payload):
    problem = _poly_terms(payload, expect["key"], expect["terms"])
    if problem or expect["check"] is None:
        return problem
    return _first_mismatch(expect, payload, ["check"])


def _analyze(expect, payload):
    problem = _first_mismatch(expect, payload,
                              ["d", "m", "cyclotomic", "psi", "wreath_c",
                               "wreath_z", "cycle_type"])
    if problem:
        return problem
    if payload.get("permutation") is not True:
        return "not reported as a permutation"
    if expect["verified"] and payload.get("verified") is not True:
        return "not verified"
    return _poly_terms(payload, "poly", expect["terms"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cycle_index(expect, payload):
    problem = _first_mismatch(expect, payload, ["group", "degree", "terms"])
    if problem:
        return problem
    text = payload.get("cycle_index", "")
    terms = parse_cycle_index(text)
    if len(terms) != expect["terms"]:
        return f"{len(terms)} terms printed, {expect['terms']} reported"
    if sum((c for c, _ in terms), Fraction(0)) != 1:
        return "coefficients do not sum to 1"
    for _, mono in terms:
        if sum(length * mult for length, mult in mono.items()) != expect["degree"]:
            return f"a term has degree other than {expect['degree']}"
    if _sha256(text) != expect["sha256"]:
        return "cycle index differs from the golden"
    if expect["verified"] and payload.get("verified") is not True:
        return "not verified"
    return None


_LAM = re.compile(r"lam\((\d+),(\d+)\)@(\d+)")


def parse_wreath(text: str):
    """'(CYCLES; lam(a,b)@m, ...)' -> ((psi, maps), m)."""
    head = text[1:text.index(";")]
    maps = [(int(a), int(b)) for a, b, _ in _LAM.findall(text)]
    m = int(_LAM.search(text).group(3))
    psi = list(range(len(maps)))
    if head != "id":
        for cycle in re.findall(r"\(([^()]*)\)", head):
            points = [int(x) for x in cycle.split(",")]
            for pos, i in enumerate(points):
                psi[i] = points[(pos + 1) % len(points)]
    return (psi, maps), m


def _has_kind(g, m, kind) -> bool:
    if kind == "long-cycle":
        return wreath_cycle_type(g, m) == f"x{len(g[0]) * m}"
    psi, maps = wreath_compose(g, g, m)
    return psi == list(range(len(psi))) and all(
        a == 1 % m and b == 0 for a, b in maps)


def _reps(expect, payload):
    problem = _first_mismatch(expect, payload, ["count"])
    if problem:
        return problem
    reps = payload.get("rep", [])
    if len(reps) != expect["count"]:
        return f"{len(reps)} representatives listed, count {expect['count']}"
    if _sha256(json.dumps(reps)) != expect["sha256"]:
        return "representatives differ from the golden"
    if expect["m"] is not None:
        # spot-check the claimed kind on a few, by walking the points
        for text in random.Random(len(reps)).sample(reps, min(8, len(reps))):
            g, m = parse_wreath(text)
            if m != expect["m"] or len(g[0]) != expect["d"]:
                return f"{text} has the wrong shape"
            if not _has_kind(g, m, expect["rep_kind"]):
                return f"{text} is not a {expect['rep_kind']}"
    if expect["verified"] and payload.get("verified") is not True:
        return "not verified"
    return None


def _conjugate(expect, payload):
    keys = [k for k in ("conjugate", "distinguished_by", "class_ids")
            if k in expect]
    return _first_mismatch(expect, payload, keys)


_CHECKS = {
    "rejected": _rejected,
    "poly": _poly,
    "analyze": _analyze,
    "cycle-index": _cycle_index,
    "reps": _reps,
    "conjugate": _conjugate,
}
