"""Seeded query pools for the four workloads.

A pool is a list of queries, each ``{"argv": [...], "expect": {...}}``.
The measured process sees only the argv lists; the expectations stay in
the benchmark and are checked after timing.

Each workload fixes the sizes of its queries: which command on which
field, with which d, m or catalogue entry.  The seed fills in the
content (which permutation, which conjugator, which translation) and the
order.  Cost follows size, so with sizes fixed a run's figures move with
the program and the machine, not with the seed.  Cycle-index queries
have no content besides their size; there the seed only orders them.

Valid permutations are built from random wreath elements through the
form isomorphism, never by rejection sampling: random branch data at
q = 4096, d = 9 is almost never a permutation.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from algebra import (
    FieldLogs,
    form_str,
    forward_cycle_product,
    hol_class,
    perm_cycle_type,
    perm_cycles,
    perm_str,
    poly_str,
    random_perm,
    random_unit,
    wreath_c_str,
    wreath_compose,
    wreath_cycle_type,
    wreath_inverse,
    wreath_str,
    wreath_to_form,
)

WORKLOADS = ("forms-convert", "cycle-index", "conjugacy", "pointwise-verify")

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

STRUCTURED = ["--format", "structured"]


def generate(workload: str, seed: int) -> list[dict]:
    """The query pool of a workload; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    make_pool = {
        "forms-convert": _forms_convert,
        "cycle-index": _cycle_index,
        "conjugacy": _conjugacy,
        "pointwise-verify": _pointwise_verify,
    }
    if workload not in make_pool:
        raise ValueError(f"unknown workload {workload!r}")
    pool = make_pool[workload](rng)
    rng.shuffle(pool)
    return pool


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def _pick_bands(catalogue: dict, bands, exclude=()) -> list[str]:
    """From each (lo, hi, count) band of recorded cost in ms, ``count``
    entries evenly spaced in cost order."""
    keys = []
    for lo, hi, count in bands:
        band = sorted((v["ms"], k) for k, v in catalogue.items()
                      if lo <= v["ms"] < hi and k not in exclude)
        if count > len(band):
            raise ValueError(f"band {lo}-{hi} ms has only {len(band)} entries")
        keys += [band[i * len(band) // count][1] for i in range(count)]
    return keys


# -- forms ---------------------------------------------------------------------

# (analyze, invert, to-poly) queries per field, q from 2^8 to 2^16: Conway
# fields, fields whose modulus is searched (2^10, 3^7, 7^4, 2^12) and the
# prime field 65537.  The costly fields get fewer queries, so that a pass
# of 50 takes about 3 s.  The p90 falls among the five 65537 queries,
# which cost about the same.
FORMS_SHAPE = {(2, 8): (4, 3, 3), (5, 4): (4, 3, 3), (2, 10): (4, 3, 3),
               (3, 7): (4, 2, 2), (7, 4): (2, 1, 0), (2, 12): (1, 1, 1),
               (65537, 1): (2, 2, 1), (2, 16): (1, 0, 0)}
# Desk-scale fields for the pointwise checks, q <= 256, one query each.
# The O(q^2) invert --check above q = 125 and to-poly --verify above
# q = 169 (0.6 s to 2 s each) are left out.
VERIFY_SHAPE = {**dict.fromkeys([(5, 2), (7, 2), (3, 4), (11, 2), (5, 3)],
                                (1, 1, 1)),
                (13, 2): (1, 0, 1), (3, 5): (1, 0, 0), (2, 8): (1, 0, 0)}

REJECT_REASONS = ("nonzero-constant-term", "zero-branch-coefficient",
                  "exponent-not-coprime", "psi-not-bijective")


def _random_wreath(rng, d: int, m: int, multiplier=None):
    maps = [(random_unit(rng, m) if multiplier is None else multiplier,
             rng.randrange(m)) for _ in range(d)]
    return random_perm(rng, d), maps


def _forms_query(rng, fl: FieldLogs, d: int, command: str,
                 reject: str | None, check: bool) -> dict:
    q = fl.q
    m = (q - 1) // d
    g = _random_wreath(rng, d, m)
    logs, exps = wreath_to_form(g, q)
    constant = None
    if reject == "nonzero-constant-term":
        constant = rng.randrange(q - 1)
    elif reject == "zero-branch-coefficient":
        logs[rng.randrange(d)] = None
    elif reject == "exponent-not-coprime":
        p0 = rng.choice(_prime_factors(m))
        exps[rng.randrange(d)] = p0 * rng.randrange(1, m // p0 + 1)
    elif reject == "psi-not-bijective":
        # send branch i to the coset branch i2 goes to
        i, i2 = rng.sample(range(d), 2)
        coset = (logs[i] + exps[i] * i) % d
        target = (logs[i2] + exps[i2] * i2) % d
        logs[i] = (logs[i] + target - coset) % (q - 1)
    terms = fl.poly_terms(logs, exps)
    args = ["--q", str(q), "--d", str(d)]
    if command == "to-poly":
        argv = ["to-poly", *args, "--form", form_str(logs, exps)]
        if check:
            argv.append("--verify")
        return {"argv": argv + STRUCTURED,
                "expect": {"kind": "poly", "key": "poly", "terms": terms,
                           "check": "pointwise-ok" if check else None}}
    text = poly_str(terms)
    if constant is not None:
        text += f" + w^{constant}"
    argv = [command, *args, "--poly", text]
    if check:
        argv.append("--verify" if command == "analyze" else "--check")
    if reject:
        return {"argv": argv + STRUCTURED,
                "expect": {"kind": "rejected", "reason": reject}}
    if command == "invert":
        inv_logs, inv_exps = wreath_to_form(wreath_inverse(g, m), q)
        return {"argv": argv + STRUCTURED,
                "expect": {"kind": "poly", "key": "inverse",
                           "terms": fl.poly_terms(inv_logs, inv_exps),
                           "check": "identity-ok" if check else None}}
    return {"argv": argv + STRUCTURED,
            "expect": {"kind": "analyze", "d": d, "m": m, "terms": terms,
                       "cyclotomic": form_str(logs, exps),
                       "psi": perm_str(g[0]),
                       "wreath_c": wreath_c_str(g, q),
                       "wreath_z": wreath_str(g, m),
                       "cycle_type": wreath_cycle_type(g, m),
                       "verified": check}}


def _forms_pool(rng, shape, rejections: int, check: bool,
                d_max: int) -> list[dict]:
    """The queries of ``shape``; the n-th query of a field takes the n-th
    divisor d of q-1 in [2, d_max], cyclically.  ``rejections`` evenly
    spaced analyze queries get inputs that are not permutations: only
    analyze, because a rejected invert skips the printing or the check
    that makes up most of its cost."""
    pool = []
    n_analyze = sum(counts[0] for counts in shape.values())
    stride = n_analyze / rejections
    rejected = {int(i * stride) for i in range(rejections)}
    analyze_no = n_rejected = 0
    for (p, k), counts in shape.items():
        fl = FieldLogs(p, k)
        ds = [d for d in range(2, d_max + 1) if (fl.q - 1) % d == 0]
        slot = 0
        for command, n in zip(("analyze", "invert", "to-poly"), counts):
            for _ in range(n):
                reject = None
                if command == "analyze":
                    if analyze_no in rejected:
                        reject = REJECT_REASONS[n_rejected % 4]
                        n_rejected += 1
                    analyze_no += 1
                pool.append(_forms_query(rng, fl, ds[slot % len(ds)],
                                         command, reject, check))
                slot += 1
    return pool


def _forms_convert(rng) -> list[dict]:
    return _forms_pool(rng, FORMS_SHAPE, 5, check=False, d_max=15)


# -- cycle indices ---------------------------------------------------------------

# gcp d=2 m=2310 sets the peak memory, and the p90 falls among the last
# five, which cost 150 to 200 ms.  Left out: gcp d=2 m=720720, which is
# killed for lack of memory on a 7 GB machine, and gcp d=7 m=12 (1 s),
# which would take a third of a pass.
CI_ANCHORS = ["gcp 2 2310", "hol 1 720720", "hol 1 360360", "hol 1 510510",
              "focp 7 12", "cp 2 420", "focp 3 2310"]
# (lo, hi, count): catalogue entries by their cost when the goldens were
# recorded, in ms.
CI_BANDS = [(0, 12, 27), (12, 25, 8), (25, 60, 8)]


def _cycle_index_argv(key: str, verify: bool) -> list[str]:
    group, d, m = key.split()
    argv = ["cycle-index", "--group", group, "--m", m]
    if group != "hol":
        argv += ["--d", d]
    if verify:
        argv.append("--verify")
    return argv + STRUCTURED


def _cycle_index_query(key: str, golden: dict, verify: bool) -> dict:
    group, d, m = key.split()
    degree = int(m) * (1 if group == "hol" else int(d))
    return {"argv": _cycle_index_argv(key, verify),
            "expect": {"kind": "cycle-index", "group": group,
                       "degree": degree, "sha256": golden["sha256"],
                       "terms": golden["terms"], "verified": verify}}


def _cycle_index(rng) -> list[dict]:
    catalogue = load_goldens()["cycle-index"]
    keys = CI_ANCHORS + _pick_bands(catalogue, CI_BANDS, CI_ANCHORS)
    return [_cycle_index_query(k, catalogue[k], False) for k in keys]


# -- conjugacy ---------------------------------------------------------------------

# One Hol pair per modulus.  Multiplier pairs set -1 against another
# multiplier with the same gcd(1-a, m), so both translation searches
# cover m*phi(m)/gcd(2, m) candidates: all of them for odd m.  Their six
# odd moduli have m*phi(m) from 0.55e6 to 0.85e6, and the p90 falls
# among them.
HOL_MODULI = {
    "conjugate": [1155, 1430, 2002, 2310, 2431, 1365, 1729, 2470, 1001, 2145],
    "multiplier": [1001, 1045, 1065, 1085, 1105, 1155],
    "translation-orbit": [1365, 2002, 2470, 1729],
}
# (m, kind, cycle type of psi, multiplier) per wreath pair.  Every
# multiplier is 1 or -1, so each forward cycle product has multiplier
# 1 or -1 and its class-id search a size fixed by the slot: phi(m), or
# m*phi(m)/gcd(2, m) for -1.  Conjugating keeps these products, and the
# changes that break conjugacy are made so that they keep it too.
W_PAIRS = [(210, "conjugate", (2,), -1), (105, "conjugate", (3,), -1),
           (60, "conjugate", (2, 2), 1), (330, "conjugate", (1, 1), -1),
           (143, "conjugate", (2, 1), -1), (91, "conjugate", (3, 1), 1),
           (455, "psi-cycle-type", (1, 1), 1),
           (231, "psi-cycle-type", (3,), 1),
           (385, "multiplier", (2,), 1), (195, "multiplier", (2, 1), 1),
           (77, "translation-orbit", (4,), 1),
           (273, "translation-orbit", (1, 1), 1)]
WEQ_PAIRS = [(255, "conjugate", (2,), -1), (105, "conjugate", (3,), -1),
             (63, "conjugate", (2, 2), 1), (187, "conjugate", (1, 1), -1),
             (165, "psi-cycle-type", (3,), 1), (45, "multiplier", (4,), 1),
             (221, "multiplier", (1, 1), 1),
             (91, "translation-orbit", (2, 1), 1)]
REPS_BANDS = [(0, 5, 8), (5, 100, 2)]


def _unit_near_one(rng, m: int) -> int:
    """A unit a with gcd(1 - a, m) = p * gcd(2, m), p the largest prime
    of m, so that lam(a, b) has more than one class of translation parts
    and its class-id search covers m*phi(m)/gcd(1 - a, m) candidates."""
    p0 = _prime_factors(m)[-1]
    want = p0 * math.gcd(2, m // p0)
    while True:
        a = 1 + p0 * rng.randrange(1, m // p0)
        if math.gcd(a, m) == 1 and math.gcd(1 - a, m) == want:
            return a


def _hol_pair(rng, m: int, kind: str) -> dict:
    if kind == "translation-orbit":
        a = a2 = _unit_near_one(rng, m)
        b = random_unit(rng, m)
        b2 = math.gcd(1 - a, m) * random_unit(rng, m) % m
        if rng.random() < 0.5:
            b, b2 = b2, b
    else:
        a = m - 1
        b = random_unit(rng, m)
        if kind == "multiplier":
            while True:
                a2 = random_unit(rng, m)
                if a2 != a and math.gcd(1 - a2, m) == math.gcd(2, m):
                    break
            b2 = random_unit(rng, m)
        else:
            c, z = random_unit(rng, m), rng.randrange(m)
            a2, b2 = a, ((1 - a) * z + c * b) % m
    conjugate = a == a2 and hol_class(a, b, m) == hol_class(a2, b2, m)
    if conjugate != (kind == "conjugate"):
        raise AssertionError(f"hol pair {a},{b} {a2},{b2} @ {m} is not {kind}")
    expect = {"kind": "conjugate", "conjugate": conjugate}
    if not conjugate:
        expect["distinguished_by"] = ("multiplier" if a != a2
                                      else "translation-orbit")
        expect["class_ids"] = [str((m, a, hol_class(a, b, m))),
                               str((m, a2, hol_class(a2, b2, m)))]
    return {"argv": ["conjugate", "--group", "hol", f"lam({a},{b})@{m}",
                     f"lam({a2},{b2})@{m}"] + STRUCTURED,
            "expect": expect}


def _cycle_classes(g, m, mode):
    """Conjugacy invariant built from the definition: psi's cycle type,
    the common multiplier (W=), and per cycle length the sorted
    (multiplier, orbit minimum) of the forward cycle products."""
    by_len = {}
    for cycle in perm_cycles(g[0]):
        a, b = forward_cycle_product(g, cycle, m)
        by_len.setdefault(len(cycle), []).append((a, hol_class(a, b, m)))
    fingerprint = {length: sorted(v) for length, v in by_len.items()}
    multiplier = g[1][0][0] if mode == "weq" else None
    return perm_cycle_type(g[0]), multiplier, fingerprint


def _distinguished_by(g, h, m, mode):
    ct_g, mult_g, fp_g = _cycle_classes(g, m, mode)
    ct_h, mult_h, fp_h = _cycle_classes(h, m, mode)
    if ct_g != ct_h:
        return "psi-cycle-type"
    if mult_g != mult_h:
        return "multiplier"
    for length in sorted(set(fp_g) | set(fp_h)):
        if fp_g.get(length) != fp_h.get(length):
            return f"cycle-product-classes(l={length})"
    return None


def _perm_of_type(rng, cycle_type) -> list[int]:
    points = random_perm(rng, sum(cycle_type))
    images = [0] * len(points)
    start = 0
    for length in cycle_type:
        cycle = points[start:start + length]
        for pos, i in enumerate(cycle):
            images[i] = cycle[(pos + 1) % length]
        start += length
    return images


def _wreath_pair(rng, mode: str, m: int, kind: str, cycle_type,
                 sign: int) -> dict:
    """g and h = k^-1 g k for a random k (in W=, for mode weq), then h
    changed to make it non-conjugate as ``kind`` says."""
    d = sum(cycle_type)
    g = (_perm_of_type(rng, cycle_type),
         [(sign % m, rng.randrange(m)) for _ in range(d)])
    k = _random_wreath(rng, d, m, multiplier=random_unit(rng, m)
                       if mode == "weq" else None)
    h = wreath_compose(wreath_compose(wreath_inverse(k, m), g, m), k, m)
    psi, maps = h
    if kind == "psi-cycle-type":
        while True:
            psi2 = random_perm(rng, d)
            if perm_cycle_type(psi2) != perm_cycle_type(psi):
                break
        h = (psi2, maps)
    elif kind == "multiplier":
        # times -1: on every map for W=, on one map for W
        if mode == "weq":
            h = (psi, [(-a % m, b) for a, b in maps])
        else:
            i = rng.randrange(d)
            maps = list(maps)
            maps[i] = (-maps[i][0] % m, maps[i][1])
            h = (psi, maps)
    elif kind == "translation-orbit":
        h = _shift_translation_class(rng, h, m)
    verdict = _distinguished_by(g, h, m, mode)
    if (verdict is None) != (kind == "conjugate"):
        raise AssertionError(f"{mode} pair of kind {kind} came out {verdict}")
    expect = {"kind": "conjugate", "conjugate": verdict is None}
    if verdict is not None:
        expect["distinguished_by"] = verdict
    return {"argv": ["conjugate", "--group", mode, wreath_str(g, m),
                     wreath_str(h, m)] + STRUCTURED,
            "expect": expect}


def _shift_translation_class(rng, h, m):
    """Change one translation so that one forward cycle product moves to
    another Hol class with the same multiplier."""
    psi, maps = h
    for cycle in perm_cycles(psi):
        a, b = forward_cycle_product(h, cycle, m)
        if math.gcd((1 - a) % m, m) > 1:
            break
    else:
        raise AssertionError("no cycle product has more than one class")
    before = hol_class(a, b, m)
    for _ in range(1000):
        maps = list(h[1])
        maps[cycle[-1]] = (maps[cycle[-1]][0], rng.randrange(m))
        a2, b2 = forward_cycle_product((psi, maps), cycle, m)
        if hol_class(a2, b2, m) != before:
            return psi, maps
    raise AssertionError("no translation changes the class")


def _reps_query(key: str, golden: dict, verify: bool) -> dict:
    group, kind, d, size = key.split()
    field_level = group in ("gcp", "cp", "focp")
    argv = ["reps", "--group", group, "--kind", kind, "--d", d,
            "--q" if field_level else "--m", size]
    if verify:
        argv.append("--verify")
    return {"argv": argv + STRUCTURED,
            "expect": {"kind": "reps", "rep_kind": kind, "d": int(d),
                       "m": None if field_level else int(size),
                       "count": golden["count"], "sha256": golden["sha256"],
                       "verified": verify}}


def _conjugacy(rng) -> list[dict]:
    pool = [_hol_pair(rng, m, kind)
            for kind, moduli in HOL_MODULI.items() for m in moduli]
    for mode, pairs in (("w", W_PAIRS), ("weq", WEQ_PAIRS)):
        pool += [_wreath_pair(rng, mode, *pair) for pair in pairs]
    catalogue = load_goldens()["reps"]
    pool += [_reps_query(key, catalogue[key], False)
             for key in _pick_bands(catalogue, REPS_BANDS)]
    return pool


# -- pointwise verification ---------------------------------------------------

VERIFY_BANDS = {
    "cycle-index-verify": [(0, 30, 10), (30, 130, 3)],
    "reps-verify": [(0, 30, 8), (30, 130, 3)],
    "field-reps": [(0, 60, 8), (60, 250, 4)],
}


def _pointwise_verify(rng) -> list[dict]:
    pool = _forms_pool(rng, VERIFY_SHAPE, 2, check=True, d_max=12)
    goldens = load_goldens()
    ci = goldens["cycle-index-verify"]
    pool += [_cycle_index_query(k, ci[k], True)
             for k in _pick_bands(ci, VERIFY_BANDS["cycle-index-verify"])]
    for name, verify in (("reps-verify", True), ("field-reps", False)):
        catalogue = goldens[name]
        pool += [_reps_query(k, catalogue[k], verify)
                 for k in _pick_bands(catalogue, VERIFY_BANDS[name])]
    return pool
