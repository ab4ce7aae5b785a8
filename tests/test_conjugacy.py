import itertools
import random

import pytest

from cycloperm.arith import factorize, units
from cycloperm.conjugacy import (
    classify_wreath,
    conjugacy_invariant,
    distinguished_by,
    hol_class_id,
    hol_conjugate,
    hol_involution_reps,
    is_involution_elem,
    is_long_cycle,
    knuth_is_full_cycle,
    rep_system,
    reps_as_cyclotomic,
    wreath_conjugate,
)
from cycloperm.oracle import (
    check_rep_system,
    conjugate_brute,
    enumerate_group,
    hol_class_id_brute,
    materialize,
)
from cycloperm.wreath import AffineMapZ, CosetPerm, WreathElem
from tests_helpers import SMALL_GROUPS, check_rep_system_reference

FIELD_GROUP_TO_WREATH = {"GCP": "W", "FOCP": "W1", "CP": "Weq"}


def test_knuth_examples():
    assert knuth_is_full_cycle(1, 1, 12)
    assert knuth_is_full_cycle(5, 1, 8)
    assert not knuth_is_full_cycle(3, 1, 8)
    with pytest.raises(ValueError):
        knuth_is_full_cycle(2, 1, 12)


def test_knuth_vs_direct_small():
    for m in range(1, 41):
        for a in units(m):
            for b in range(m):
                x = b % m
                steps = 1
                while x:
                    x = (a * x + b) % m
                    steps += 1
                assert knuth_is_full_cycle(a, b, m) == (steps == m)


def test_hol_conjugate_examples():
    assert hol_conjugate(AffineMapZ(9, 2, 0), AffineMapZ(9, 2, 5))
    assert hol_conjugate(AffineMapZ(9, 1, 3), AffineMapZ(9, 1, 6))
    assert not hol_conjugate(AffineMapZ(9, 1, 1), AffineMapZ(9, 1, 3))
    g = AffineMapZ(12, 5, 7)
    assert hol_conjugate(g, g)


def test_hol_class_id_examples():
    assert tuple(hol_class_id(AffineMapZ(9, 2, 5))) == (9, 2, 0)
    assert tuple(hol_class_id(AffineMapZ(12, 1, 0))) == (12, 1, 0)
    assert tuple(hol_class_id(AffineMapZ(9, 1, 6))) == (9, 1, 3)


def test_hol_class_id_vs_oracle_search():
    """The closed form equals the orbit-minimum search on every element
    of Hol(Z/mZ), 1 <= m <= 60."""
    seen = 0
    for m in range(1, 61):
        for g in enumerate_group("Hol", 1, m):
            assert hol_class_id(g) == hol_class_id_brute(g), g
            seen += 1
    assert seen == 44231


# For lam(-1, b) at this modulus the orbit search would visit
# m/2 * phi(m), about 4 * 10^24 candidates
HUGE_M = 4 * (10**6 + 3) * (10**6 + 33)


def test_hol_class_id_at_huge_modulus():
    odd = AffineMapZ.parse(f"lam(-1,5)@{HUGE_M}")
    even = AffineMapZ.parse(f"lam(-1,2)@{HUGE_M}")
    assert hol_class_id(odd) == (HUGE_M, HUGE_M - 1, 1)
    assert hol_class_id(even) == (HUGE_M, HUGE_M - 1, 0)
    assert not hol_conjugate(odd, even)
    assert hol_conjugate(odd, AffineMapZ(HUGE_M, -1, 7))
    assert hol_conjugate(even, AffineMapZ(HUGE_M, -1, 0))


@pytest.mark.parametrize("m", list(range(1, 25)))
def test_hol_conjugate_vs_brute_classes(m):
    """Orbit-partition of Hol(Z/mZ) under brute conjugation matches both
    hol_conjugate and the class ids.  Agreement on every pair follows
    from agreement of the partitions: each element against its own
    brute-orbit representative, plus all representative pairs."""
    elements = list(enumerate_group("Hol", 1, m))
    brute_class = {}
    order = {}
    for g in elements:
        if g in brute_class:
            continue
        orbit = {k.inverse().compose(g).compose(k) for k in elements}
        for h in orbit:
            brute_class[h] = g
        order[g] = len(order)
    reps = list(order)
    for g in elements:
        rep = brute_class[g]
        assert hol_conjugate(g, rep), (m, g, rep)
        assert hol_class_id(g) == hol_class_id(rep)
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not hol_conjugate(g, h), (m, g, h)
            assert hol_class_id(g) != hol_class_id(h)


def test_wreath_conjugate_of_constructed_conjugates():
    rng = random.Random(0)
    pool = list(enumerate_group("W", 2, 6))
    for _ in range(50):
        g = rng.choice(pool)
        h = rng.choice(pool)
        conj = h.inverse().compose(g).compose(h)
        assert wreath_conjugate(g, conj, "W")


def test_wreath_conjugate_psi_mismatch():
    ident = AffineMapZ.identity(12)
    swapped = WreathElem(CosetPerm((1, 0)), [ident, ident])
    straight = WreathElem(CosetPerm((0, 1)), [ident, ident])
    assert not wreath_conjugate(swapped, straight, "W")


@pytest.mark.parametrize("g, h, mode, reason", [
    ("((0,1); lam(1,0)@12, lam(1,0)@12)", "(id; lam(1,0)@12, lam(1,0)@12)",
     "W", "psi-cycle-type"),
    ("((0,1); lam(1,0)@12, lam(1,0)@12)", "((0,1); lam(5,0)@12, lam(5,0)@12)",
     "Weq", "multiplier"),
    ("((0,1); lam(1,0)@12, lam(1,0)@12)", "((0,1); lam(5,0)@12, lam(5,0)@12)",
     "W", None),
    ("((0,1); lam(1,1)@12, lam(1,0)@12, lam(1,0)@12)",
     "((0,1); lam(1,0)@12, lam(1,0)@12, lam(1,1)@12)",
     "W", "cycle-product-classes(l=1)"),
    ("((0,1); lam(1,1)@12, lam(1,0)@12, lam(1,0)@12)",
     "((0,1); lam(1,0)@12, lam(1,0)@12, lam(1,0)@12)",
     "W", "cycle-product-classes(l=2)"),
])
def test_distinguished_by_names_the_first_differing_part(g, h, mode, reason):
    g, h = WreathElem.parse(g), WreathElem.parse(h)
    assert distinguished_by(g, h, mode) == reason
    assert distinguished_by(h, g, mode) == reason
    assert wreath_conjugate(g, h, mode) == (reason is None)


def test_distinguished_by_refuses_different_shapes():
    g = WreathElem.parse("((0,1); lam(1,0)@12, lam(1,0)@12)")
    h = WreathElem.parse("((0,1); lam(1,0)@11, lam(1,0)@11)")
    with pytest.raises(ValueError, match=r"shapes differ: \(2, 12\) vs \(2, 11\)"):
        distinguished_by(g, h)


def test_wreath_conjugate_vs_brute_w26():
    rng = random.Random(1)
    pool = list(enumerate_group("W", 2, 6))
    for _ in range(50):
        g = rng.choice(pool)
        h = rng.choice(pool)
        assert wreath_conjugate(g, h, "W") == conjugate_brute(g, h, pool)


def test_weq_conjugacy_differs_from_w():
    """Constant-multiplier elements can fuse in W(d,m) yet stay apart in
    W=(d,m): the swap with two lam(1,0)s vs two lam(5,0)s mod 12."""
    g = WreathElem(CosetPerm((1, 0)), [AffineMapZ(12, 1, 0)] * 2)
    h = WreathElem(CosetPerm((1, 0)), [AffineMapZ(12, 5, 0)] * 2)
    assert wreath_conjugate(g, h, "W")
    assert not wreath_conjugate(g, h, "Weq")
    conjoiner = WreathElem(CosetPerm.identity(2),
                           [AffineMapZ(12, 5, 0), AffineMapZ(12, 1, 0)])
    assert conjoiner.inverse().compose(g).compose(conjoiner) == h
    assert not conjugate_brute(g, h, enumerate_group("Weq", 2, 12))


def test_weq_conjugate_vs_brute():
    rng = random.Random(2)
    pool = list(enumerate_group("Weq", 2, 6))
    for _ in range(40):
        g = rng.choice(pool)
        h = rng.choice(pool)
        assert wreath_conjugate(g, h, "Weq") == conjugate_brute(g, h, pool)


def test_weq_mode_rejects_mixed_multipliers():
    g = WreathElem(CosetPerm.identity(2),
                   [AffineMapZ(12, 1, 0), AffineMapZ(12, 5, 0)])
    with pytest.raises(ValueError):
        conjugacy_invariant(g, "Weq")


def test_hol_involution_reps_m12():
    expect = {(1, 0), (5, 0), (1, 6), (5, 6), (7, 0), (11, 0), (7, 9), (11, 9)}
    got = {(g.a, g.b) for g in hol_involution_reps(12)}
    assert got == expect


def test_hol_involution_reps_small():
    assert {(g.a, g.b) for g in hol_involution_reps(3)} == {(1, 0), (2, 0)}
    assert [(g.a, g.b) for g in hol_involution_reps(1)] == [(0, 0)]  # trivial
    assert {(g.a, g.b) for g in hol_involution_reps(2)} == {(1, 0), (1, 1)}
    assert {(g.a, g.b) for g in hol_involution_reps(4)} \
        == {(1, 0), (1, 2), (3, 0), (3, 1)}
    assert {(g.a, g.b) for g in hol_involution_reps(8)} \
        == {(1, 0), (1, 4), (7, 0), (7, 1), (3, 0), (5, 0)}


def brute_involution_class_count(m):
    elements = list(enumerate_group("Hol", 1, m))
    involutions = [g for g in elements if g.compose(g).is_identity()]
    remaining = set(involutions)
    count = 0
    while remaining:
        g = remaining.pop()
        orbit = {k.inverse().compose(g).compose(k) for k in elements}
        remaining -= orbit
        count += 1
    return count


@pytest.mark.parametrize("m", list(range(1, 61)))
def test_involution_class_counts(m):
    reps = hol_involution_reps(m)
    # representatives are involutions and pairwise non-conjugate
    for g in reps:
        assert g.compose(g).is_identity()
    ids = {hol_class_id(g) for g in reps}
    assert len(ids) == len(reps)
    assert brute_involution_class_count(m) == len(reps)
    nu2 = next((k for p, k in factorize(m) if p == 2), 0)
    odd_primes = sum(1 for p, _ in factorize(m) if p > 2)
    if nu2 >= 1:
        assert len(reps) == min(6, 2 * nu2) * 2**odd_primes
    else:
        # closed form reads 0 for odd m; enumeration is the ground truth
        assert len(reps) == 2**odd_primes if m > 1 else 1


def test_classify_examples():
    g = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2)])
    assert classify_wreath(g) == "neither"  # fcp lam(11,9): 11 != 1 mod 12
    assert classify_wreath(WreathElem.identity_z(2, 12)) == "identity"
    u = AffineMapZ(12, 5, 1)
    invol = WreathElem(CosetPerm((1, 0)), [u, u.inverse()])
    assert classify_wreath(invol) == "involution"
    long_elem = WreathElem(CosetPerm((1, 0)),
                           [AffineMapZ(12, 1, 1), AffineMapZ(12, 1, 0)])
    assert classify_wreath(long_elem) == "long-cycle"


def test_classify_matches_materialization():
    rng = random.Random(3)
    pool = list(enumerate_group("W", 2, 6))
    for g in rng.sample(pool, 120):
        perm = materialize(g)
        n = perm.n
        ct = perm.cycle_type()
        assert is_long_cycle(g) == (ct.counts == ((n, 1),))
        squared = perm.compose(perm)
        assert is_involution_elem(g) == squared.is_identity()


def test_rep_system_w_long_cycle():
    system = rep_system("W", "long-cycle", 2, 12)
    assert len(system.reps) == 1  # m / rad'(m) = 12/12
    expect = WreathElem(CosetPerm((1, 0)),
                        [AffineMapZ(12, 1, 1), AffineMapZ(12, 1, 0)])
    assert system.reps[0] == expect
    assert str(system.reps[0]) == "((0,1); lam(1,1)@12, lam(1,0)@12)"


def test_rep_system_long_cycle_counts():
    from cycloperm.arith import rad_prime
    for d, m in ((2, 4), (2, 6), (2, 8), (2, 12), (3, 4), (2, 16), (2, 18)):
        system = rep_system("W", "long-cycle", d, m)
        assert len(system.reps) == m // rad_prime(m)


def test_rep_system_w1_long_cycle():
    for d, m in ((2, 12), (3, 4), (4, 6)):
        system = rep_system("W1", "long-cycle", d, m)
        assert len(system.reps) == 1
        g = system.reps[0]
        assert g.maps[0] == AffineMapZ(m, 1, 1)
        assert all(gi == AffineMapZ.identity(m) for gi in g.maps[1:])
        assert g.psi == CosetPerm.from_cycles(d, [tuple(range(d))])


@pytest.mark.parametrize("group", ["W", "W1", "Weq"])
@pytest.mark.parametrize("kind", ["long-cycle", "involution"])
def test_rep_system_needs_d_at_least_1(group, kind):
    with pytest.raises(ValueError, match="need d >= 1"):
        rep_system(group, kind, 0, 5)


@pytest.mark.parametrize("kind", ["long-cycle", "involution"])
@pytest.mark.parametrize("m", [0, -4])
def test_rep_system_needs_m_at_least_1(kind, m):
    with pytest.raises(ValueError, match=f"^need m >= 1, got {m}$"):
        rep_system("W", kind, 2, m)


def test_rep_system_w_involution_count():
    system = rep_system("W", "involution", 2, 12)
    assert len(system.reps) == 37  # C(8+1, 2) multisets + the paired class


def test_rep_system_weq_long_cycle():
    system = rep_system("Weq", "long-cycle", 2, 12)
    # every unit squares to 1 mod rad'(12) = 12
    assert len(system.reps) == 4
    for g in system.reps:
        assert is_long_cycle(g)
        assert len({gi.a for gi in g.maps}) == 1


COMPLETENESS_CONFIGS = tuple(itertools.product(
    ("W", "W1", "Weq"), ("long-cycle", "involution"),
    ((2, 4), (2, 6), (2, 12), (3, 4))))


@pytest.mark.parametrize("group,kind,dm", COMPLETENESS_CONFIGS)
def test_rep_system_complete(group, kind, dm):
    """Each rep has the claimed property; reps pairwise non-conjugate;
    every group element of that kind matches exactly one rep."""
    d, m = dm
    check_rep_system(rep_system(group, kind, d, m))


@pytest.mark.parametrize("fault", ("dropped", "duplicated", "no property"))
def test_rep_system_check_rejects_broken_systems(fault):
    system = rep_system("W", "involution", 2, 6)
    check_rep_system(system)
    not_involution = rep_system("W", "long-cycle", 2, 6).reps[0]
    reps, message = {
        "dropped": (system.reps[1:], "matches no representative"),
        "duplicated": (system.reps + system.reps[:1], "non-conjugate"),
        "no property": (system.reps[:-1] + (not_involution,),
                        "lacks the claimed property"),
    }[fault]
    with pytest.raises(ValueError, match=message):
        check_rep_system(system._replace(reps=reps))


def broken_systems(system):
    """The system's reps, intact and with each fault that can occur at
    its size: a rep dropped, a rep duplicated up to conjugacy, a rep of
    the wrong kind and, in W1, a W rep from outside the group."""
    group, kind, d, m = system.group, system.kind, system.d, system.m
    reps = system.reps
    # k lies in W1, so conjugating by it stays within all three groups
    k = WreathElem(CosetPerm.from_cycles(d, [tuple(range(d))]),
                   [AffineMapZ(m, 1, 1)] * d)
    out = {"intact": reps, "dropped": reps[1:],
           "duplicated": reps + (k.inverse().compose(reps[0]).compose(k),)}
    has_kind = is_long_cycle if kind == "long-cycle" else is_involution_elem
    other = "involution" if kind == "long-cycle" else "long-cycle"
    wrong = [g for g in rep_system(group, other, d, m).reps if not has_kind(g)]
    if wrong:
        out["wrong kind"] = reps[:-1] + tuple(wrong[:1])
    if group == "W1":
        ids = {conjugacy_invariant(g) for g in reps}
        outside = [g for g in rep_system("W", kind, d, m).reps
                   if conjugacy_invariant(g) not in ids]
        if outside:
            out["outside the group"] = reps + tuple(outside[:1])
    return out


def check_outcome(check, system, *cap):
    try:
        check(system, *cap)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", ("long-cycle", "involution"))
@pytest.mark.parametrize("group,d,m", SMALL_GROUPS)
def test_check_rep_system_agrees_with_the_reference_loop(group, d, m, kind):
    """The per-psi walk accepts and rejects what one loop testing the
    predicate on every element does, with the same message."""
    system = rep_system(group, kind, d, m)
    for fault, reps in broken_systems(system).items():
        broken = system._replace(reps=reps)
        expected = check_outcome(check_rep_system_reference, broken)
        assert check_outcome(check_rep_system, broken) == expected, fault
        assert (expected is None) == (fault == "intact"), fault


def test_check_rep_system_refuses_above_the_cap_as_the_reference_does():
    system = rep_system("W", "involution", 3, 4)
    for check in (check_rep_system, check_rep_system_reference):
        assert check_outcome(check, system, 100) == "|W(3,4)| exceeds the cap 100"


def test_reps_as_cyclotomic_focp_long_cycle(ctx_cache):
    for q, d in ((25, 2), (9, 2), (16, 3)):
        ctx = ctx_cache(q, d)
        forms = reps_as_cyclotomic(rep_system("W1", "long-cycle", d, ctx.m), ctx)
        assert len(forms) == 1
        w = ctx.field.omega
        assert forms[0].a == (w,) * d  # x -> omega * x
        assert forms[0].r == (1,) * d


def test_reps_as_cyclotomic_gcp_long_cycle(ctx25d2):
    forms = reps_as_cyclotomic(rep_system("W", "long-cycle", 2, 12), ctx25d2)
    assert len(forms) == 1
    w = ctx25d2.field.omega
    # L_1 image: omega * x on both cosets (d - (d-1)*a = 1 for a = 1)
    assert forms[0].a == (w, w)
    assert forms[0].r == (1, 1)


@pytest.mark.parametrize("group", ("GCP", "FOCP", "CP"))
@pytest.mark.parametrize("kind", ("long-cycle", "involution"))
def test_reps_as_cyclotomic_properties(ctx_cache, group, kind):
    """Every field-level rep materializes to the claimed permutation kind
    (the conversion itself verifies; here we re-check via the oracle)."""
    for q, d in ((25, 2), (9, 2)):
        ctx = ctx_cache(q, d)
        forms = reps_as_cyclotomic(rep_system(
            FIELD_GROUP_TO_WREATH[group], kind, ctx.d, ctx.m), ctx)
        assert forms
        for form in forms:
            perm = materialize(form)
            if kind == "long-cycle":
                assert perm.cycle_type().counts == ((q - 1, 1),)
            else:
                assert perm.compose(perm).is_identity()


def test_gcp_long_cycle_closed_form(ctx_cache):
    """Known closed form for the W long-cycle images: omega*x off the
    last coset, omega^(d-(d-1)a) x^a on it."""
    for q, d in ((25, 2), (49, 6)):
        ctx = ctx_cache(q, d)
        w = ctx.field.omega
        from cycloperm.arith import rad_prime
        forms = reps_as_cyclotomic(rep_system("W", "long-cycle", d, ctx.m), ctx)
        multipliers = [1 + j * rad_prime(ctx.m)
                       for j in range(ctx.m // rad_prime(ctx.m))]
        assert len(forms) == len(multipliers)
        for form, a in zip(forms, multipliers):
            assert form.a[:d - 1] == (w,) * (d - 1)
            assert form.r[:d - 1] == (1,) * (d - 1)
            assert form.r[d - 1] == a % ctx.m if a % ctx.m else ctx.m
            assert form.a[d - 1] == w ** (d - (d - 1) * a)


def test_cp_long_cycle_display_is_alternate_representative(ctx_cache):
    """An alternative closed form puts omega^a x^a on the last coset while
    the isomorphism image carries omega^(d-(d-1)a) x^a.  The two forms
    differ (by omega^(d(1-a))) whenever a != 1 (mod m), but they are
    conjugate within the equal-multiplier group: the corresponding
    forward cycle products lam(a^2, a^2) and lam(a^2, a) have unit
    translation parts, hence share one Hol class."""
    from cycloperm.forms import CyclotomicForm
    from cycloperm.wreath import cyclotomic_to_wreath
    ctx = ctx_cache(9, 2)  # m = 4: both units a in {1, 3} give classes
    w = ctx.field.omega
    forms = reps_as_cyclotomic(rep_system("Weq", "long-cycle", 2, 4), ctx)
    assert len(forms) == 2
    by_r = {f.r[1]: f for f in forms}
    emitted = by_r[3]
    assert emitted.a[1] == w ** (2 - 1 * 3)
    printed = CyclotomicForm(ctx, (w, w**3), (3, 3))
    assert printed.a[1] != emitted.a[1]  # different representatives...
    assert materialize(printed).cycle_type().counts == ((8, 1),)

    assert wreath_conjugate(cyclotomic_to_wreath(printed),
                            cyclotomic_to_wreath(emitted), "Weq")


def test_gcp_involution_display_diagnostic(ctx25d2):
    """A closed-form shortcut would use the exponent
    omega^(d*b_j + (1-a_j)*d) on every fixed coset; the isomorphism
    image carries omega^(d*b_j + (1-a_j)*j).  The printed variants are
    all involutions, but the per-coset shift (1-a_j)(d-j)/d need not
    stay inside the (1-a_j)-ideal, so as printed the system is not a
    complete irredundant one: over F_25 (d = 2) only 3 of the 36
    unpaired representatives keep their class and the printed set
    covers just 33 distinct classes.  The emitted representatives come
    from the isomorphism image and are verified complete elsewhere."""
    from cycloperm.arith import rem1
    from cycloperm.forms import CyclotomicForm
    from cycloperm.wreath import cyclotomic_to_wreath
    ctx = ctx25d2
    d, m = ctx.d, ctx.m
    w = ctx.field.omega

    system = rep_system("W", "involution", d, m)
    emitted = reps_as_cyclotomic(system, ctx)
    wreath_reps = system.reps
    assert len(emitted) == len(wreath_reps)
    class_same = class_shifted = 0
    printed_invariants = []
    for form, rep in zip(emitted, wreath_reps):
        if not rep.psi.is_identity():
            continue  # no fixed cosets to compare for the paired shape
        printed = CyclotomicForm(
            ctx,
            tuple(w ** (d * rep.maps[j].b + (1 - rep.maps[j].a) * d)
                  for j in range(d)),
            tuple(rem1(rep.maps[j].a, m) for j in range(d)))
        perm = materialize(printed)
        assert perm.compose(perm).is_identity()
        printed_z = cyclotomic_to_wreath(printed)
        printed_invariants.append(conjugacy_invariant(printed_z, "W"))
        if wreath_conjugate(printed_z, cyclotomic_to_wreath(form), "W"):
            class_same += 1
        else:
            class_shifted += 1
    assert class_same + class_shifted == 36
    assert (class_same, class_shifted) == (3, 33)
    assert len(set(printed_invariants)) == 33  # printed system collides
