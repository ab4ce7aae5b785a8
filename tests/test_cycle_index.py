import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from cycloperm.arith import factorize, phi, units
from cycloperm.cycle_index import (
    CycleIndex,
    CycleType,
    affine_counter,
    affine_counter_pp,
    cc_sym,
    ci_cp,
    ci_focp,
    ci_gcp,
    ci_hol,
    ci_hol_pp,
    ci_regular,
    ci_sym,
    polya_compose,
    signature_count,
    signature_of,
    signature_pow,
    signatures_pp,
)
from cycloperm.oracle import ci_brute, enumerate_group, group_order
from cycloperm.wreath import AffineMapZ, CosetPerm


def ci_from(spec):
    """Build a CycleIndex from {(coeff_n, coeff_d): [(len, mult), ...]} items."""
    return CycleIndex([(CycleType(mono), Fraction(n, d))
                       for (n, d), mono in spec])


# golden cycle indices for the classical closed forms
GOLD_SYM3 = ci_from([((1, 6), [(1, 3)]), ((1, 2), [(1, 1), (2, 1)]),
                     ((1, 3), [(3, 1)])])
GOLD_SYM4 = ci_from([((1, 24), [(1, 4)]), ((1, 4), [(1, 2), (2, 1)]),
                     ((1, 8), [(2, 2)]), ((1, 3), [(1, 1), (3, 1)]),
                     ((1, 4), [(4, 1)])])
GOLD_SYM3_WR_SYM3 = ci_from([
    ((1, 1296), [(1, 9)]), ((1, 144), [(1, 7), (2, 1)]),
    ((1, 216), [(1, 6), (3, 1)]), ((1, 48), [(1, 5), (2, 2)]),
    ((1, 36), [(1, 4), (2, 1), (3, 1)]), ((5, 144), [(1, 3), (2, 3)]),
    ((1, 24), [(1, 3), (2, 1), (4, 1)]), ((1, 108), [(1, 3), (3, 2)]),
    ((1, 24), [(1, 2), (2, 2), (3, 1)]), ((1, 24), [(1, 1), (2, 4)]),
    ((1, 36), [(1, 3), (6, 1)]), ((1, 8), [(1, 1), (2, 2), (4, 1)]),
    ((1, 36), [(1, 1), (2, 1), (3, 2)]), ((1, 36), [(2, 3), (3, 1)]),
    ((1, 12), [(1, 1), (2, 1), (6, 1)]), ((1, 12), [(2, 1), (3, 1), (4, 1)]),
    ((5, 81), [(3, 3)]), ((2, 9), [(3, 1), (6, 1)]), ((1, 9), [(9, 1)])])
GOLD_SYM3_X_SYM4 = ci_from([
    ((1, 144), [(1, 12)]), ((1, 24), [(1, 6), (2, 3)]),
    ((1, 48), [(1, 4), (2, 4)]), ((1, 18), [(1, 3), (3, 3)]),
    ((1, 8), [(1, 2), (2, 5)]), ((1, 6), [(1, 1), (2, 1), (3, 1), (6, 1)]),
    ((1, 12), [(2, 6)]), ((1, 8), [(3, 4)]), ((1, 12), [(3, 2), (6, 1)]),
    ((1, 6), [(4, 3)]), ((1, 24), [(6, 2)]), ((1, 12), [(12, 1)])])
GOLD_HOL2 = ci_from([((1, 2), [(1, 2)]), ((1, 2), [(2, 1)])])
GOLD_HOL4 = ci_from([((1, 8), [(1, 4)]), ((1, 4), [(1, 2), (2, 1)]),
                     ((3, 8), [(2, 2)]), ((1, 4), [(4, 1)])])
GOLD_HOL12 = ci_from([
    ((1, 48), [(1, 12)]), ((1, 24), [(1, 6), (2, 3)]),
    ((1, 16), [(1, 4), (2, 4)]), ((1, 8), [(1, 2), (2, 5)]),
    ((1, 4), [(2, 6)]), ((1, 24), [(3, 4)]), ((1, 12), [(3, 2), (6, 1)]),
    ((1, 6), [(4, 3)]), ((1, 8), [(6, 2)]), ((1, 12), [(12, 1)])])
GOLD_REG12 = ci_from([
    ((1, 12), [(1, 12)]), ((1, 12), [(2, 6)]), ((1, 6), [(3, 4)]),
    ((1, 6), [(4, 3)]), ((1, 6), [(6, 2)]), ((1, 3), [(12, 1)])])


def test_ci_sym_examples():
    assert ci_sym(3) == GOLD_SYM3
    assert ci_sym(1) == CycleIndex.of(CycleType([(1, 1)]))
    assert ci_sym(4) == GOLD_SYM4


def test_ci_sym_is_average_of_cycle_types():
    for d in range(1, 7):
        tally = Counter()
        for images in itertools.permutations(range(d)):
            tally[CosetPerm(images).cycle_type()] += 1
        brute = CycleIndex({ct: Fraction(n, math.factorial(d))
                            for ct, n in tally.items()})
        assert ci_sym(d) == brute


def test_ci_regular_examples():
    assert ci_regular(12) == GOLD_REG12
    assert ci_regular(1) == CycleIndex.of(CycleType([(1, 1)]))
    assert ci_regular(2) == GOLD_HOL2  # Hol(Z/2Z) is the regular rep of Z/2Z


def test_ci_regular_vs_brute():
    for m in range(1, 25):
        brute = ci_brute(AffineMapZ(m, 1, b) for b in range(m))
        assert ci_regular(m) == brute


def test_ci_hol_pp_examples():
    assert ci_hol_pp(2, 2) == GOLD_HOL4
    assert ci_hol_pp(3, 1) == GOLD_SYM3  # Hol(Z/3Z) = Sym(3)
    assert ci_hol_pp(2, 1) == GOLD_HOL2


@pytest.mark.parametrize("k", [3, 8, 20, 40])
def test_ci_hol_pp_full_cycle_coefficient(k):
    """ax+b is a full cycle mod 2^k (k >= 3) iff a = 1 (mod 4) and b is
    odd: 2^(k-2) * 2^(k-1) of the 2^(2k-1) elements of Hol(Z/2^kZ)."""
    assert ci_hol_pp(2, k).terms[CycleType([(2**k, 1)])] == Fraction(1, 4)


def test_ci_hol_is_ci_cp_with_one_copy():
    """W=(1,m) is Hol(Z/mZ), so both formulas give one cycle index."""
    for m in range(1, 61):
        assert ci_hol(m) == ci_cp(1, m), m


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                 (7, 1), (7, 2), (11, 1), (13, 1)])
def test_ci_hol_pp_vs_brute(p, k):
    brute = ci_brute(enumerate_group("Hol", 1, p**k))
    assert ci_hol_pp(p, k) == brute


def test_star_product_examples():
    x2_2 = CycleIndex.of(CycleType([(2, 2)]))
    x1x2 = CycleIndex.of(CycleType([(1, 1), (2, 1)]))
    assert x2_2.star(x1x2) == CycleIndex.of(CycleType([(2, 6)]))
    lhs = CycleIndex.of(CycleType([(1, 1), (2, 1)]), Fraction(1, 2))
    rhs = CycleIndex.of(CycleType([(1, 2), (2, 1)]), Fraction(1, 4))
    expect = CycleIndex.of(CycleType([(1, 2), (2, 5)]), Fraction(1, 8))
    assert lhs.star(rhs) == expect
    x3 = CycleIndex.of(CycleType([(3, 1)]))
    x4 = CycleIndex.of(CycleType([(4, 1)]))
    assert x3.star(x4) == CycleIndex.of(CycleType([(12, 1)]))
    x1 = CycleIndex.of(CycleType([(1, 1)]))
    for f in (GOLD_SYM3, GOLD_HOL12, x4):
        assert f.star(x1) == f


def test_star_commutative_associative():
    rng = random.Random(0)

    def rand_ci():
        terms = []
        for _ in range(rng.randrange(1, 4)):
            mono = [(rng.randrange(1, 7), rng.randrange(1, 4))
                    for _ in range(rng.randrange(1, 3))]
            terms.append((CycleType(mono), Fraction(rng.randrange(1, 9),
                                                    rng.randrange(1, 9))))
        return CycleIndex(terms)

    for _ in range(200):
        a, b, c = rand_ci(), rand_ci(), rand_ci()
        assert a.star(b) == b.star(a)
        assert a.star(b).star(c) == a.star(b.star(c))


def test_sary_star_closed_form_on_variable_powers():
    """Star of several variable powers: x_lcm with exponent
    e1*...*es * (i1*...*is / lcm)."""
    rng = random.Random(1)
    for _ in range(200):
        s = rng.randrange(2, 5)
        idx = [rng.randrange(1, 9) for _ in range(s)]
        exp = [rng.randrange(1, 4) for _ in range(s)]
        acc = CycleIndex.of(CycleType([(1, 1)]))
        for i, e in zip(idx, exp):
            acc = acc.star(CycleIndex.of(CycleType([(i, e)])))
        lcm = math.lcm(*idx)
        expect = CycleType([(lcm, math.prod(exp) * math.prod(idx) // lcm)])
        assert acc == CycleIndex.of(expect)


def test_star_cycle_type_level_sym3_x_sym4():
    """CT of the product permutation on 12 points = star of the CTs,
    for every pair in Sym(3) x Sym(4); the group CI matches the table."""
    total = CycleIndex()
    count = 0
    for pi in itertools.permutations(range(3)):
        for sigma in itertools.permutations(range(4)):
            images = [sigma[(k // 3)] * 3 + pi[k % 3] for k in range(12)]
            ct = CosetPerm(images).cycle_type()
            starred = CycleType(list(CosetPerm(pi).cycle_type().counts)) \
                .star(CosetPerm(sigma).cycle_type())
            assert ct == starred
            total = total + CycleIndex.of(ct, Fraction(1, 144))
            count += 1
    assert count == 144
    assert total == GOLD_SYM3_X_SYM4
    assert ci_sym(3).star(ci_sym(4)) == GOLD_SYM3_X_SYM4


def test_ci_stretch_examples():
    stretched = GOLD_HOL12.stretch(2)
    assert stretched.terms[CycleType([(2, 12)])] == Fraction(1, 48)
    assert stretched.terms[CycleType([(2, 6), (4, 3)])] == Fraction(1, 24)
    assert GOLD_SYM3.stretch(1) == GOLD_SYM3
    assert CycleIndex.of(CycleType([(1, 5)])).stretch(3) \
        == CycleIndex.of(CycleType([(3, 5)]))


def test_polya_compose_golden_and_trivial():
    assert polya_compose(ci_sym(3), ci_sym(3)) == GOLD_SYM3_WR_SYM3
    assert polya_compose(ci_sym(1), GOLD_HOL12) == GOLD_HOL12


def test_polya_compose_vs_brute_w23():
    brute = ci_brute(enumerate_group("W", 2, 3), group_order("W", 2, 3))
    assert polya_compose(ci_sym(2), ci_hol(3)) == brute


def test_ci_hol_examples():
    assert ci_hol(12) == GOLD_HOL12
    assert ci_hol(1) == CycleIndex.of(CycleType([(1, 1)]))


@pytest.mark.parametrize("m", list(range(1, 17)) + [18, 20, 24])
def test_ci_hol_vs_brute(m):
    assert ci_hol(m) == ci_brute(enumerate_group("Hol", 1, m))


def test_ci_gcp_focp_term_counts():
    assert len(ci_gcp(2, 12).terms) == 54
    assert len(ci_focp(2, 12).terms) == 23
    assert ci_gcp(1, 12) == ci_hol(12)
    assert ci_focp(2, 1) == ci_sym(2)  # trivial base group
    assert ci_cp(1, 12) == ci_hol(12)


@pytest.mark.parametrize("group,ci_fn", [("W", ci_gcp), ("W1", ci_focp),
                                         ("Weq", ci_cp)])
@pytest.mark.parametrize("d,m", [(1, 12), (2, 4), (2, 6), (3, 4)])
def test_wreath_ci_vs_brute_small(group, ci_fn, d, m):
    brute = ci_brute(enumerate_group(group, d, m), group_order(group, d, m))
    assert ci_fn(d, m) == brute


def test_ci_coefficient_sums_and_degrees():
    cases = [(ci_sym(5), 5), (ci_regular(12), 12), (ci_hol_pp(2, 4), 16),
             (ci_hol(12), 12), (ci_gcp(2, 12), 24), (ci_focp(2, 12), 24),
             (ci_cp(2, 12), 24)]
    for ci, degree in cases:
        assert ci.coefficient_sum() == 1
        assert ci.degree() == degree


def test_signatures_examples():
    assert signatures_pp(2, 2) == [(0, 1), (1, 1)]
    assert signatures_pp(3, 1) == [1, 2]
    assert signatures_pp(2, 1) == [(0, 1)]
    assert signatures_pp(2, 0) == [(0, 1)]
    assert signatures_pp(2, 4) == [(0, 1), (1, 1), (0, 2), (1, 2),
                                   (0, 4), (1, 4)]


def test_signature_of_examples():
    assert signature_of(12, -1) == ((2, 2, (1, 1)), (3, 1, 2))
    assert signature_of(12, 1) == ((2, 2, (0, 1)), (3, 1, 1))
    assert signature_of(8, 5) == ((2, 3, (0, 2)),)
    # 3 = -5^e mod 2^64 with 5^e of order 2^62
    assert signature_of(2**64, 3) == ((2, 64, (1, 2**62)),)
    with pytest.raises(ValueError):
        signature_of(12, 3)


def test_signature_of_matches_direct_orders():
    from cycloperm.arith import multiplicative_order
    for m in (4, 8, 16, 32, 9, 12, 24, 40, 60):
        for a in units(m):
            for p, k, sig in signature_of(m, a):
                pk = p**k
                if p == 2 and k >= 2:
                    eps, o2 = sig
                    assert eps == (0 if a % 4 == 1 else 1)
                    a_prime = (-a) % pk if eps else a % pk
                    assert multiplicative_order(a_prime, pk) == o2
                elif p > 2:
                    assert multiplicative_order(a % pk, pk) == sig


def test_signature_pow_examples():
    assert signature_pow(2, 2, (1, 1), 2) == (0, 1)
    assert signature_pow(3, 1, 2, 1) == 2
    assert signature_pow(3, 1, 2, 2) == 1
    assert signature_pow(2, 4, (1, 4), 2) == (0, 2)


def test_signature_pow_matches_powers():
    for m, k in ((8, 3), (16, 4), (9, 2), (27, 3)):
        p = 2 if m % 2 == 0 else 3
        for a in units(m):
            sig = signature_of(m, a)[0][2]
            for ell in range(1, 9):
                expect = signature_of(m, pow(a, ell, m))[0][2]
                assert signature_pow(p, k, sig, ell) == expect


def test_signature_count_examples():
    for n3 in (1, 2):
        for n2 in ((0, 1), (1, 1)):
            assert signature_count(12, ((2, 2, n2), (3, 1, n3))) == 1
    assert signature_count(1, ()) == 1


def test_signature_count_partitions_units():
    for m in range(2, 61):
        fac = factorize(m)
        total = 0
        for combo in itertools.product(*[signatures_pp(p, k) for p, k in fac]):
            sigvec = tuple((p, k, s) for (p, k), s in zip(fac, combo))
            total += signature_count(m, sigvec)
        assert total == phi(m)


def test_affine_counter_pp_examples():
    assert affine_counter_pp(2, 2, (0, 1)) == ci_from(
        [((1, 1), [(1, 4)]), ((1, 1), [(2, 2)]), ((2, 1), [(4, 1)])])
    assert affine_counter_pp(3, 1, 1) == ci_from(
        [((1, 1), [(1, 3)]), ((2, 1), [(3, 1)])])
    assert affine_counter_pp(3, 1, 2) == ci_from(
        [((3, 1), [(1, 1), (2, 1)])])


def test_affine_counter_pp_vs_direct_sums():
    """Gamma equals the sum of materialized cycle types over all b,
    for some unit with each signature, p^k <= 64."""
    from cycloperm.oracle import materialize
    for pk in (2, 4, 8, 16, 32, 64, 3, 9, 27, 5, 25, 7, 49, 11, 13, 23):
        ((p, k),) = factorize(pk)
        reps = {}
        for a in units(pk):
            sig = signature_of(pk, a)[0][2]
            reps.setdefault(sig, a)
        assert set(reps) == set(signatures_pp(p, k))
        for sig, a in reps.items():
            total = CycleIndex()
            for b in range(pk):
                ct = materialize(AffineMapZ(pk, a, b)).cycle_type()
                total = total + CycleIndex.of(ct)
            gamma = affine_counter_pp(p, k, sig)
            assert gamma == total, (pk, sig, a)
            assert gamma.coefficient_sum() == pk


def test_affine_counter_pp_rejects_bad_signature():
    with pytest.raises(ValueError):
        affine_counter_pp(3, 1, 4)


def test_affine_counter_composite_examples():
    """The two m = 12 rows derivable from the Gamma formulas."""
    sig_trivial = ((2, 2, (0, 1)), (3, 1, 1))
    row1 = affine_counter(12, sig_trivial, 1)
    assert row1 == ci_from([
        ((1, 1), [(1, 12)]), ((1, 1), [(2, 6)]), ((2, 1), [(3, 4)]),
        ((2, 1), [(4, 3)]), ((2, 1), [(6, 2)]), ((4, 1), [(12, 1)])])
    sig_neg = ((2, 2, (1, 1)), (3, 1, 1))
    row3 = affine_counter(12, sig_neg, 1)
    assert row3 == ci_from([
        ((2, 1), [(1, 6), (2, 3)]), ((4, 1), [(3, 2), (6, 1)]),
        ((2, 1), [(2, 6)]), ((4, 1), [(6, 2)])])
    # stretched column: every signature gives the same ell = 2 counter here
    for sig in (sig_trivial, sig_neg,
                ((2, 2, (0, 1)), (3, 1, 2)), ((2, 2, (1, 1)), (3, 1, 2))):
        assert affine_counter(12, sig, 2) == row1.stretch(2)


def test_affine_counter_sums_to_m():
    for m in (1, 2, 6, 12, 30):
        fac = factorize(m)
        for combo in itertools.product(
                *[signatures_pp(p, k) for p, k in fac]):
            sigvec = tuple((p, k, s) for (p, k), s in zip(fac, combo))
            for ell in (1, 2, 3):
                delta = affine_counter(m, sigvec, ell)
                assert delta.coefficient_sum() == m
                assert delta.degree() == m * ell


def test_affine_counter_vs_direct_power_sums():
    """Delta(sig, ell) = sum over b of the stretched type of lam(a^ell, b)."""
    from cycloperm.oracle import materialize
    for m in (12, 8, 9, 20):
        for a in units(m):
            sigvec = signature_of(m, a)
            for ell in (1, 2, 3, 4):
                total = CycleIndex()
                for b in range(m):
                    g = AffineMapZ(m, pow(a, ell, m), b)
                    ct = materialize(g).cycle_type().stretch(ell)
                    total = total + CycleIndex.of(ct)
                assert affine_counter(m, sigvec, ell) == total


def test_cc_sym():
    assert cc_sym(2) == ci_from([((1, 1), [(1, 2)]), ((1, 1), [(2, 1)])])


def test_ci_cp_term_count_diagnostic():
    assert len(ci_cp(2, 12).terms) == 32


def test_cycle_index_parse_round_trip():
    for ci in (GOLD_HOL12, ci_gcp(2, 6), ci_cp(2, 12), ci_sym(1)):
        assert CycleIndex.parse(str(ci)) == ci


@pytest.mark.parametrize("text, chunk", [("1/0*x1^2 + 1/2*x2", "1/0*x1^2 "),
                                         ("1/2*x2+3/00*x1^2", "3/00*x1^2")])
def test_cycle_index_parse_refuses_a_zero_denominator(text, chunk):
    with pytest.raises(ValueError, match=re.escape(f"bad coefficient in {chunk!r}")):
        CycleIndex.parse(text)
    assert CycleIndex.parse("1/02*x2") == CycleIndex.parse("1/2*x2")


def test_cycle_index_parse_refuses_mixed_degrees():
    text = "1/2*x1^2 + 1/2*x1"
    with pytest.raises(ValueError, match=re.escape(
            f"mixed degrees in cycle index {text!r}")):
        CycleIndex.parse(text)


def test_zero_cycle_index_round_trips():
    assert str(CycleIndex()) == "0"
    assert CycleIndex.parse(" 0 ") == CycleIndex()


def test_cycle_type_str_and_parse():
    ct = CycleType([(1, 3), (2, 2)])
    assert str(ct) == "x1^3*x2^2"
    assert CycleType.parse("x1^3*x2^2") == ct
    assert str(CycleType([(4, 6)])) == "x4^6"
    assert CycleType.parse("x3") == CycleType([(3, 1)])


def test_mixed_degree_rejected():
    ci = CycleIndex([(CycleType([(1, 2)]), Fraction(1)),
                     (CycleType([(1, 3)]), Fraction(1))])
    with pytest.raises(ValueError):
        ci.degree()


# The cycle-index-verify sizes of the benchmark's goldens, plus gcp 3 60.
COMPOSE_SIZES = {
    "gcp": [(2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 10), (2, 12), (3, 2),
            (3, 3), (3, 4), (4, 2), (4, 3), (3, 60)],
    "cp": [(2, 6), (2, 8), (2, 10), (2, 12), (2, 14), (2, 18), (3, 4), (3, 5),
           (3, 6)],
    "focp": [(2, 6), (2, 12), (2, 20), (2, 30), (3, 4), (3, 6), (3, 8),
             (3, 12), (4, 3), (4, 4)],
}


def ci_cp_by_substitution(d, m):
    """W=(d,m) by the general composition, one substitution per signature."""
    primes = factorize(m)
    total = CycleIndex()
    for combo in itertools.product(*[signatures_pp(p, k) for p, k in primes]):
        sigvec = tuple((p, k, sig) for (p, k), sig in zip(primes, combo))
        deltas = [affine_counter(m, sigvec, ell).scale(Fraction(1, m))
                  for ell in range(1, d + 1)]
        weight = Fraction(signature_count(m, sigvec), phi(m))
        total = total + ci_sym(d).substitute(deltas).scale(weight)
    return total


def test_ci_cp_builds_each_per_prime_counter_once(monkeypatch):
    import cycloperm.cycle_index as cycle_index
    calls = Counter()
    built = cycle_index.affine_counter_pp

    def counting(p, k, sig):
        calls[(p, k, sig)] += 1
        return built(p, k, sig)

    want = ci_cp_by_substitution(2, 420)
    monkeypatch.setattr(cycle_index, "affine_counter_pp", counting)
    assert ci_cp(2, 420) == want
    assert len(calls) == 11 and set(calls.values()) == {1}


def test_shared_counters_are_left_as_built():
    counters = {}
    sigvecs = [((2, 2, (1, 1)), (3, 1, 2)), ((2, 2, (0, 1)), (3, 1, 2))]
    for sigvec in sigvecs:
        for ell in (1, 2, 3):
            assert (affine_counter(12, sigvec, ell, counters)
                    == affine_counter(12, sigvec, ell))
    assert counters and all(ci == affine_counter_pp(p, k, sig)
                            for (p, k, sig), ci in counters.items())


@pytest.mark.parametrize("group,d,m", [(g, d, m) for g, sizes in
                                       COMPOSE_SIZES.items()
                                       for d, m in sizes])
def test_wreath_ci_equals_general_composition(group, d, m):
    if group == "gcp":
        assert ci_gcp(d, m) == polya_compose(ci_sym(d), ci_hol(m))
    elif group == "focp":
        assert ci_focp(d, m) == polya_compose(ci_sym(d), ci_regular(m))
    else:
        assert ci_cp(d, m) == ci_cp_by_substitution(d, m)


@pytest.mark.parametrize("d", range(1, 7))
def test_ci_sym_vs_brute(d):
    # Sym(d) is W1(d, 1)
    assert ci_sym(d) == ci_brute(enumerate_group("W1", d, 1),
                                 group_order("W1", d, 1))


def test_ci_sym_has_one_term_per_partition():
    partition_numbers = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                         176]
    assert [len(ci_sym(d).terms) for d in range(1, 16)] == partition_numbers


def test_wreath_ci_refuses_oversized_levels():
    # level 2 of W(2, 12) multiplies 10 * 10 + 10 * 1 terms
    assert len(ci_hol(12).terms) == 10
    assert ci_gcp(2, 12, cap=110) == polya_compose(ci_sym(2), ci_hol(12))
    for ci_fn in (ci_gcp, ci_focp, ci_cp):
        with pytest.raises(ValueError, match="exceeds the cap 5"):
            ci_fn(2, 12, cap=5)
    # level 4 of Sym(4) bounds p(3) + p(2) + p(1) + p(0) = 7 terms
    assert ci_sym(4, cap=7) == ci_sym(4)
    with pytest.raises(ValueError, match="exceeds the cap 6"):
        ci_sym(4, cap=6)
    with pytest.raises(ValueError, match="exceeds the cap 109"):
        ci_gcp(2, 12, cap=109)


@pytest.mark.parametrize("ci", [ci_sym, ci_gcp, ci_focp, ci_cp])
@pytest.mark.parametrize("d", [0, -1])
def test_wreath_cycle_indices_need_d_at_least_1(ci, d):
    args = (d,) if ci is ci_sym else (d, 5)
    with pytest.raises(ValueError):
        ci(*args)
