"""Acceptance suite: one test per criterion, exact expectations throughout.

Every check is exact (integer/rational equality); there are no numeric
tolerances anywhere.  Each test prints one PASS line on success; run
with `pytest tests/test_acceptance.py -v -rP` to see them, or rely on
the per-test PASSED/FAILED lines of `pytest -v`.  Reference term
counts for the 24-point cycle indices are reported as diagnostics; the
brute-force oracle equality is the authoritative check.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from cycloperm.arith import factorize, units
from cycloperm.conjugacy import (
    conjugacy_invariant,
    hol_involution_reps,
    is_involution_elem,
    is_long_cycle,
    knuth_is_full_cycle,
    rep_system,
)
from cycloperm.cycle_index import (
    CycleIndex,
    CycleType,
    ci_cp,
    ci_focp,
    ci_gcp,
    ci_hol,
    ci_regular,
    ci_sym,
    polya_compose,
)
from cycloperm.forms import (
    PolyForm,
    analyze_permutation,
    invert_permutation,
)
from cycloperm.oracle import (
    ci_brute,
    enumerate_group,
    group_order,
    materialize,
)
from cycloperm.wreath import (
    AffineMapZ,
    CosetPerm,
    cycle_type_affine,
    cycle_type_wreath,
    cyclotomic_to_wreath,
)
from tests_helpers import (
    pointwise,
    run_equivariance,
    run_homomorphism,
    run_inversion_identity,
    run_round_trip_a,
    run_round_trip_b,
)

DEMO_POLY = "w^15*T^5 + w^23*T^7 + w^3*T^17 + w^23*T^19"
DEMO_INVERSE = "w^9*T^5 + w^7*T^7 + w^9*T^17 + w^19*T^19"


def test_criterion_1_worked_example(ctx25d2):
    """Polynomial over F_25 -> form, coset map, wreath form, cycle type."""
    cfg = ctx25d2.field
    assert list(cfg.modulus) == [2, 4, 1]  # T^2 - T + 2
    P = PolyForm.parse(cfg, DEMO_POLY)
    analysis = analyze_permutation(P, ctx25d2)
    w = cfg.omega
    assert analysis.form.a == (w**5, w**21)
    assert analysis.form.r == (7, 5)
    assert analysis.psi == CosetPerm((1, 0))
    wreath_z = cyclotomic_to_wreath(analysis.form)
    assert analysis.wreath == wreath_z
    assert wreath_z.maps[0] == AffineMapZ(12, 5, 1)
    assert wreath_z.maps[1] == AffineMapZ(12, 7, 2)
    assert wreath_z.str_over_c() == "((0,1); lam(5,w^2), lam(7,w^4))"
    assert cycle_type_wreath(wreath_z) == CycleType([(4, 6)])
    assert materialize(analysis.form).cycle_type() == CycleType([(4, 6)])
    print("ACCEPTANCE 1: PASS - worked example (form, psi, wreath, x4^6)")


def test_criterion_2_inversion(ctx25d2):
    cfg = ctx25d2.field
    P = PolyForm.parse(cfg, DEMO_POLY)
    form = analyze_permutation(P, ctx25d2).form
    inverse = invert_permutation(form)
    assert inverse == PolyForm.parse(cfg, DEMO_INVERSE)
    assert str(inverse) == DEMO_INVERSE
    for (x, y), (_, z) in zip(pointwise(P), pointwise(inverse)):
        assert inverse.eval(y) == x
        assert P.eval(z) == x
    print("ACCEPTANCE 2: PASS - inverse polynomial exact, composes to id")


def _ci(spec):
    return CycleIndex([(CycleType(mono), Fraction(n, d))
                       for (n, d), mono in spec])


def test_criterion_3_cycle_index_goldens():
    sym3 = _ci([((1, 6), [(1, 3)]), ((1, 2), [(1, 1), (2, 1)]),
                ((1, 3), [(3, 1)])])
    assert ci_sym(3) == sym3
    wreath_19 = _ci([
        ((1, 1296), [(1, 9)]), ((1, 144), [(1, 7), (2, 1)]),
        ((1, 216), [(1, 6), (3, 1)]), ((1, 48), [(1, 5), (2, 2)]),
        ((1, 36), [(1, 4), (2, 1), (3, 1)]), ((5, 144), [(1, 3), (2, 3)]),
        ((1, 24), [(1, 3), (2, 1), (4, 1)]), ((1, 108), [(1, 3), (3, 2)]),
        ((1, 24), [(1, 2), (2, 2), (3, 1)]), ((1, 24), [(1, 1), (2, 4)]),
        ((1, 36), [(1, 3), (6, 1)]), ((1, 8), [(1, 1), (2, 2), (4, 1)]),
        ((1, 36), [(1, 1), (2, 1), (3, 2)]), ((1, 36), [(2, 3), (3, 1)]),
        ((1, 12), [(1, 1), (2, 1), (6, 1)]),
        ((1, 12), [(2, 1), (3, 1), (4, 1)]),
        ((5, 81), [(3, 3)]), ((2, 9), [(3, 1), (6, 1)]), ((1, 9), [(9, 1)])])
    got = polya_compose(sym3, sym3)
    assert got == wreath_19 and len(got.terms) == 19
    product_12 = _ci([
        ((1, 144), [(1, 12)]), ((1, 24), [(1, 6), (2, 3)]),
        ((1, 48), [(1, 4), (2, 4)]), ((1, 18), [(1, 3), (3, 3)]),
        ((1, 8), [(1, 2), (2, 5)]),
        ((1, 6), [(1, 1), (2, 1), (3, 1), (6, 1)]),
        ((1, 12), [(2, 6)]), ((1, 8), [(3, 4)]), ((1, 12), [(3, 2), (6, 1)]),
        ((1, 6), [(4, 3)]), ((1, 24), [(6, 2)]), ((1, 12), [(12, 1)])])
    got = ci_sym(3).star(ci_sym(4))
    assert got == product_12 and len(got.terms) == 12
    assert ci_hol(2) == _ci([((1, 2), [(1, 2)]), ((1, 2), [(2, 1)])])
    assert ci_hol(4) == _ci([((1, 8), [(1, 4)]), ((1, 4), [(1, 2), (2, 1)]),
                             ((3, 8), [(2, 2)]), ((1, 4), [(4, 1)])])
    hol12 = _ci([
        ((1, 48), [(1, 12)]), ((1, 24), [(1, 6), (2, 3)]),
        ((1, 16), [(1, 4), (2, 4)]), ((1, 8), [(1, 2), (2, 5)]),
        ((1, 4), [(2, 6)]), ((1, 24), [(3, 4)]), ((1, 12), [(3, 2), (6, 1)]),
        ((1, 6), [(4, 3)]), ((1, 8), [(6, 2)]), ((1, 12), [(12, 1)])])
    got = ci_hol(12)
    assert got == hol12 and len(got.terms) == 10
    reg12 = _ci([
        ((1, 12), [(1, 12)]), ((1, 12), [(2, 6)]), ((1, 6), [(3, 4)]),
        ((1, 6), [(4, 3)]), ((1, 6), [(6, 2)]), ((1, 3), [(12, 1)])])
    assert ci_regular(12) == reg12
    print("ACCEPTANCE 3: PASS - all cycle-index goldens exact term-for-term")


def test_criterion_4_oracle_equivalence():
    """Closed-form cycle indices equal brute force over the full groups.

    Reference term counts (54/23/32) are reported as diagnostics; the
    criterion is the oracle equality."""
    reference = {"gcp": 54, "focp": 23, "cp": 32}
    results = {}
    for name, fn, group in (("gcp", ci_gcp, "W"), ("focp", ci_focp, "W1"),
                            ("cp", ci_cp, "Weq")):
        symbolic = fn(2, 12)
        brute = ci_brute(enumerate_group(group, 2, 12),
                         group_order(group, 2, 12))
        assert symbolic == brute, f"{name}(2,12) disagrees with brute force"
        results[name] = len(symbolic.terms)
    for name, count in results.items():
        tag = "matches" if count == reference[name] else "DIFFERS FROM"
        print(f"  diagnostic: {name}(2,12) has {count} terms, "
              f"{tag} the reference {reference[name]}")
    print("ACCEPTANCE 4: PASS - gcp/focp/cp(2,12) equal brute force "
          "(4608/288/1152 elements)")


@pytest.mark.parametrize("pk", (2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 49))
def test_criterion_5_affine_cycle_type_tables(pk):
    for a in units(pk):
        for b in range(pk):
            g = AffineMapZ(pk, a, b)
            assert cycle_type_affine(g) == materialize(g).cycle_type(), \
                (pk, a, b)
    print(f"ACCEPTANCE 5 (p^k={pk}): PASS - table equals direct iteration "
          f"for all (a, b)")


def test_criterion_6_knuth_criterion():
    for m in range(1, 129):
        for a in units(m):
            for b in range(m):
                x = b % m
                steps = 1
                while x:
                    x = (a * x + b) % m
                    steps += 1
                assert knuth_is_full_cycle(a, b, m) == (steps == m), (m, a, b)
    print("ACCEPTANCE 6: PASS - full-cycle criterion equals direct check, "
          "all m <= 128")


def test_criterion_7_involution_classes():
    table = {(1, 0), (5, 0), (1, 6), (5, 6), (7, 0), (11, 0), (7, 9), (11, 9)}
    assert {(g.a, g.b) for g in hol_involution_reps(12)} == table
    for m in range(1, 61):
        reps = hol_involution_reps(m)
        elements = list(enumerate_group("Hol", 1, m))
        involutions = [g for g in elements if g.compose(g).is_identity()]
        remaining = set(involutions)
        classes = 0
        while remaining:
            g = remaining.pop()
            remaining -= {k.inverse().compose(g).compose(k) for k in elements}
            classes += 1
        assert classes == len(reps), m
        fac = factorize(m)
        nu2 = next((k for p, k in fac if p == 2), 0)
        if nu2 >= 1:
            odd = sum(1 for p, _ in fac if p > 2)
            assert len(reps) == min(6, 2 * nu2) * 2**odd, m
    print("ACCEPTANCE 7: PASS - involution class table and counts, m <= 60")


@pytest.mark.parametrize("dm", ((2, 4), (2, 6), (2, 12), (3, 4)))
def test_criterion_8_representative_systems(dm):
    d, m = dm
    for group in ("W", "W1", "Weq"):
        mode = "Weq" if group == "Weq" else "W"
        elements = list(enumerate_group(group, d, m))
        assert len(elements) == group_order(group, d, m)
        for kind, predicate in (("long-cycle", is_long_cycle),
                                ("involution", is_involution_elem)):
            system = rep_system(group, kind, d, m)
            for g in system.reps:
                assert predicate(g), (group, kind, g)
            invariants = [conjugacy_invariant(g, mode) for g in system.reps]
            assert len(set(invariants)) == len(invariants), (group, kind)
            seen = Counter()
            for g in elements:
                if predicate(g):
                    inv = conjugacy_invariant(g, mode)
                    hits = [i for i, r in enumerate(invariants) if r == inv]
                    assert len(hits) == 1, (group, kind, g)
                    seen[hits[0]] += 1
            assert all(seen[i] for i in range(len(system.reps))), \
                (group, kind, "some class is empty")
    print(f"ACCEPTANCE 8 (d={d}, m={m}): PASS - W/W1/Weq systems complete, "
          f"pairwise non-conjugate, properties verified")


def test_criterion_9_property_suites(ctx_cache):
    for q, d in ((9, 2), (16, 3), (25, 2), (25, 4), (27, 13), (49, 6)):
        ctx = ctx_cache(q, d)
        run_round_trip_a(ctx, random.Random(q * 7 + d), 1000)
        run_round_trip_b(ctx, random.Random(q * 11 + d), 1000)
    pair_count = 0
    for q, d in ((25, 2), (27, 13), (49, 6)):
        ctx = ctx_cache(q, d)
        run_equivariance(ctx, random.Random(q + d), 170)
        run_homomorphism(ctx, random.Random(q - d), 170)
        pair_count += 170
    assert pair_count >= 500
    done = 0
    for q, d in ((9, 2), (25, 2), (25, 4), (49, 6)):
        ctx = ctx_cache(q, d)
        run_inversion_identity(ctx, random.Random(q * 13 + d), 30)
        done += 30
    assert done >= 100
    print("ACCEPTANCE 9: PASS - round trips (6x1000+1000), isomorphism "
          "equivariance/homomorphism (510 pairs each), inversion (120 forms)")
