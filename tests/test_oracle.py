import random
import re

import pytest

from cycloperm.arith import divisors, factorize
from cycloperm.conjugacy import (
    conjugacy_invariant,
    invariant_of,
    is_involution_elem,
    rep_system,
)
from cycloperm.cycle_index import CycleType, ci_hol
from cycloperm.field import CyclotomicContext, make_field
from cycloperm.forms import (
    CyclotomicForm,
    PolyForm,
    cyclotomic_to_poly,
    invert_permutation,
)
from cycloperm.oracle import (
    NotBijective,
    ci_brute,
    ci_brute_group,
    check_rep_system,
    conjugate_brute,
    cycle_products,
    enumerate_group,
    group_order,
    image_logs,
    materialize,
)
from cycloperm.wreath import (
    AffineMapZ,
    CosetPerm,
    WreathElem,
    fcp,
    wreath_to_cyclotomic,
)
from tests_helpers import SMALL_GROUPS, pointwise, random_form, random_wreath

PRIME_POWERS_TO_256 = [q for q in range(2, 257) if len(factorize(q)) == 1]


def walk_cases(cfg, rng):
    """Polynomial and cyclotomic forms over cfg for the log walk: every
    case the Zech fold meets, on permutations and non-permutations."""
    q, w, one = cfg.q, cfg.omega, cfg.one
    n = q - 1
    forms = [PolyForm(cfg, {}), PolyForm(cfg, {1: one}),
             # a nonzero constant term and a T^(q-1) term
             PolyForm(cfg, {0: w ** rng.randrange(n), n: one, 1: w})]
    for d in [d for d in divisors(n) if d * d <= n][:4]:
        ctx = CyclotomicContext(cfg, d)
        m = n // d
        if d > 1 and m + 1 < n:
            # T and -T^(m+1) cancel on C_0 before the last term: the
            # running sum restarts there
            forms.append(PolyForm(cfg, {1: one, m + 1: -one, n: w}))
        for nonzero in (True, False):  # without zero branches, or with
            f = random_form(ctx, rng, nonzero=nonzero)
            P = cyclotomic_to_poly(f)
            perturbed = dict(P.coeffs)
            deg = rng.randrange(q)
            perturbed[deg] = perturbed.get(deg, cfg.zero) + w ** rng.randrange(n)
            forms += [f, P, PolyForm(cfg, perturbed)]
    if q > 3:
        # -T + T^2 cancels at w^0, through Z[0] = -1 for p = 2 and
        # Z[(q-1)/2] = -1 for odd p; the sum restarts at the last term
        forms.append(PolyForm(cfg, {1: -one, 2: one, 3: w}))
        if q % 2:
            # T + T^((q+1)/2) cancels at every non-square
            forms.append(PolyForm(cfg, {1: one, (q + 1) // 2: one, n: w}))
    return forms


@pytest.mark.parametrize("q", PRIME_POWERS_TO_256)
def test_image_logs_equal_field_arithmetic(q):
    """The log walk equals PolyForm.eval and eval_cyclotomic (cosets by
    field powers) at every point, in logs read off the powers of w."""
    ((p, k),) = factorize(q)
    cfg = make_field(p, k)
    rng = random.Random(q)
    points = [x for x, _ in pointwise(PolyForm(cfg, {}))]
    log = {x.packed: e for e, x in enumerate(points[1:])}
    for form in walk_cases(cfg, rng):
        expected = [None if y.is_zero() else log[y.packed]
                    for _, y in pointwise(form)]
        assert image_logs(form) == expected, form


def test_materialize_demo_form(ctx25d2):
    w = ctx25d2.field.omega
    form = CyclotomicForm(ctx25d2, (w**5, w**21), (7, 5))
    perm = materialize(form)
    assert perm.n == 24
    assert perm.cycle_type() == CycleType([(4, 6)])
    # same permutation through the polynomial form
    assert materialize(cyclotomic_to_poly(form)).images == perm.images


def test_materialize_returns_coset_perms(ctx_cache):
    rng = random.Random(19)
    for q, d in ((25, 2), (49, 6), (16, 5)):
        ctx = ctx_cache(q, d)
        g = random_wreath(ctx, rng)
        for obj, n in ((g, d * ctx.m),
                       (wreath_to_cyclotomic(g, ctx), q - 1),
                       (cyclotomic_to_poly(wreath_to_cyclotomic(g, ctx)), q - 1)):
            perm = materialize(obj)
            assert type(perm) is CosetPerm
            assert perm.n == n


def test_materialize_identity(ctx25d2):
    perm = materialize(CyclotomicForm.identity(ctx25d2))
    assert perm.is_identity()


def test_materialize_rejects_non_bijection(ctx25d2):
    cfg = ctx25d2.field
    squash = CyclotomicForm(ctx25d2, (cfg.one, cfg.one), (12, 12))
    with pytest.raises(NotBijective) as info:
        materialize(squash)
    assert info.value.witness


def test_materialize_names_real_witnesses(f25):
    with pytest.raises(ValueError, match=r"P\(0\) != 0") as info:
        materialize(PolyForm.parse(f25, "T + 1"))
    assert not isinstance(info.value, NotBijective)
    with pytest.raises(NotBijective) as info:
        materialize(PolyForm.parse(f25, "T^2 - T"))
    assert info.value.witness == ("0", "w^0", "0")
    with pytest.raises(NotBijective) as info:
        materialize(PolyForm.parse(f25, "T^2"))
    assert info.value.witness == ("w^0", "w^12", "w^0")


def test_materialize_wreath_follows_apply(ctx_cache):
    rng = random.Random(5)
    for q, d in ((25, 2), (49, 6), (16, 5)):
        ctx = ctx_cache(q, d)
        m = ctx.m
        for _ in range(10):
            g = random_wreath(ctx, rng)
            expected = [y + m * j for y, j in
                        (g.apply((idx % m, idx // m)) for idx in range(d * m))]
            assert list(materialize(g).images) == expected
            lam = g.maps[0]
            assert list(materialize(lam).images) == [lam.apply(x)
                                                     for x in range(m)]


def test_inverse_composes_to_identity(ctx_cache):
    rng = random.Random(0)
    from tests_helpers import random_permutation_form
    for q, d in ((25, 2), (9, 2)):
        ctx = ctx_cache(q, d)
        for _ in range(50):
            f = random_permutation_form(ctx, rng)
            forward = materialize(f)
            backward = materialize(invert_permutation(f))
            assert forward.compose(backward).is_identity()
            assert backward.compose(forward).is_identity()


def test_cycle_type_of_examples():
    assert CosetPerm(range(7)).cycle_type() == CycleType([(1, 7)])
    lam = AffineMapZ(12, 11, 9)
    assert materialize(lam).cycle_type() == CycleType([(2, 6)])


def test_enumeration_counts():
    assert len(list(enumerate_group("Hol", 1, 12))) == 48
    assert group_order("W", 2, 12) == 4608
    assert len(list(enumerate_group("W", 2, 6))) == 288
    assert len(list(enumerate_group("Weq", 2, 12))) == 1152
    assert len(list(enumerate_group("W1", 2, 12))) == 288
    seen = set(enumerate_group("W", 2, 4))
    assert len(seen) == group_order("W", 2, 4)


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        list(enumerate_group("W", 4, 100, cap=1000))


def test_enumeration_unknown_group():
    with pytest.raises(ValueError, match="unknown group 'X'"):
        list(enumerate_group("X", 2, 3))


@pytest.mark.parametrize("group,d,m,name", (("W", 4, 100, "W(4,100)"),
                                            ("Hol", 1, 12, "Hol(Z/12Z)")))
def test_group_walk_refuses_above_the_cap_as_enumeration_does(group, d, m, name):
    message = rf"^\|{re.escape(name)}\| exceeds the cap 47$"
    with pytest.raises(ValueError, match=message):
        list(enumerate_group(group, d, m, cap=47))
    with pytest.raises(ValueError, match=message):
        ci_brute_group(group, d, m, cap=47)
    with pytest.raises(ValueError, match="unknown group 'X'"):
        ci_brute_group("X", d, m)


@pytest.mark.parametrize("group,d,m", SMALL_GROUPS + tuple(
    ("Hol", 1, m) for m in range(1, 31)))
def test_group_walk_equals_ci_brute(group, d, m):
    """The one walk of a named group (the CLI's brute force, including
    sym = W1(d, 1) and reg = W1(1, m)) equals materializing each element
    of enumerate_group."""
    assert ci_brute_group(group, d, m) == ci_brute(
        enumerate_group(group, d, m), group_order(group, d, m))


def test_group_walk_checks_every_block_for_a_bijection(monkeypatch):
    """A collision inside any block of the factored walk is caught by
    the block's CosetPerm, as it was on whole elements."""
    from cycloperm import oracle
    affine_images = oracle._affine_images

    def colliding(g, offset=0):
        images = affine_images(g, offset)
        if offset:  # every block on more than one coset
            images[1] = images[0]
        return images

    monkeypatch.setattr(oracle, "_affine_images", colliding)
    with pytest.raises(ValueError, match="not a permutation of 0..7"):
        ci_brute_group("W", 2, 4)


@pytest.mark.parametrize("group,d,m,expected,seen", (
    ("W", 2, 4, 128, 98), ("W1", 3, 2, 48, 6), ("Weq", 2, 3, 36, 16),
    ("Hol", 1, 6, 12, 11)))
def test_group_walk_counts_the_elements_it_tallies(monkeypatch, group, d, m,
                                                   expected, seen):
    """With one map dropped from each pool, the product of the block
    tallies no longer adds up to the group order."""
    from cycloperm import oracle
    pool_maps = oracle._pool_maps
    monkeypatch.setattr(oracle, "_pool_maps",
                        lambda m, multipliers: list(pool_maps(m, multipliers))[:-1])
    with pytest.raises(ValueError, match=f"^expected {expected} elements, saw {seen}$"):
        ci_brute_group(group, d, m)


@pytest.mark.parametrize("group,d,m", [
    (group, d, m) for group, d, m in SMALL_GROUPS
    if group_order(group, d, m) <= 2000])
def test_integer_invariant_is_conjugacy_invariant(group, d, m):
    """check_rep_system's invariant, invariant_of on the integer cycle
    products, is conjugacy_invariant on every element of the group."""
    for mode in ("W", "Weq") if group == "Weq" else ("W",):
        for g in enumerate_group(group, d, m):
            cycles = g.psi.cycles()
            products = cycle_products(cycles, [(h.a, h.b) for h in g.maps], m)
            multiplier = g.maps[0].a if mode == "Weq" else None
            assert invariant_of(g.psi.cycle_type(), [len(c) for c in cycles],
                                products, m, multiplier) == \
                conjugacy_invariant(g, mode), (mode, g)


@pytest.mark.parametrize("kind", ("long-cycle", "involution"))
@pytest.mark.parametrize("group,d,m", [
    (group, d, m) for group, d, m in SMALL_GROUPS
    if group_order(group, d, m) <= 2000])
def test_rep_system_check_walks_the_elements_of_the_kind(monkeypatch, group,
                                                         d, m, kind):
    """check_rep_system tests the forward cycle product of every element
    of enumerate_group whose psi is one d-cycle, in that order, for long
    cycles; for involutions it takes the cycle products of exactly the
    involutions, in that order."""
    from cycloperm import oracle
    seen = []
    if kind == "long-cycle":
        expected = [(p.a, p.b) for g in enumerate_group(group, d, m)
                    if len(cycles := g.psi.cycles()) == 1
                    for p in [fcp(g, cycles[0])]]
        full_cycle_test = oracle.full_cycle_test

        def recording_test(m):
            test = full_cycle_test(m)
            return lambda a, b: seen.append((a, b)) or test(a, b)

        monkeypatch.setattr(oracle, "full_cycle_test", recording_test)
    else:
        expected = [[(h.a, h.b) for h in g.maps]
                    for g in enumerate_group(group, d, m)
                    if is_involution_elem(g)]
        products = oracle.cycle_products

        def recording_products(cycles, pairs, m):
            seen.append(list(pairs))
            return products(cycles, pairs, m)

        monkeypatch.setattr(oracle, "cycle_products", recording_products)
    check_rep_system(rep_system(group, kind, d, m))
    assert seen == expected


def test_a_passing_rep_system_check_builds_no_wreath_element(monkeypatch):
    """The check walks component maps as integer pairs: a WreathElem is
    built only to name an element that matches no representative."""
    systems = [rep_system("W", "involution", 2, 12),
               rep_system("Weq", "long-cycle", 3, 8)]
    built = []
    init = WreathElem.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(WreathElem, "__init__", spy)
    for system in systems:
        check_rep_system(system)
    assert built == []


def test_ci_brute_golden():
    assert ci_brute(enumerate_group("Hol", 1, 12), 48) == ci_hol(12)
    trivial = ci_brute([WreathElem.identity_z(2, 5)])
    assert trivial.terms == {CycleType([(1, 10)]): 1}


def test_ci_brute_order_independent():
    elements = list(enumerate_group("Weq", 2, 4))
    forward = ci_brute(elements)
    backward = ci_brute(reversed(elements))
    assert forward == backward


def test_conjugate_brute_examples():
    g = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(6, 5, 1), AffineMapZ(6, 1, 2)])
    assert conjugate_brute(g, g, enumerate_group("W", 2, 6))
    reps = [AffineMapZ(12, 5, 6), AffineMapZ(12, 5, 0)]
    assert not conjugate_brute(reps[0], reps[1], enumerate_group("Hol", 1, 12))


def test_equivariance_at_array_level(ctx25d2):
    """Materializing iota(g) equals transporting the wreath action through
    the pairing (b, i) <-> omega^(d*b + i), as arrays; the reference finds
    (b, i) by coset_index and dlog, not by the conversion's arithmetic."""
    from cycloperm.field import dlog
    rng = random.Random(1)
    ctx = ctx25d2
    cfg = ctx.field
    table = cfg.dlog_table()
    gen = cfg.omega**ctx.d
    for _ in range(20):
        psi = CosetPerm(rng.sample(range(2), 2))
        gz = WreathElem(psi, [AffineMapZ(12, rng.choice([1, 5, 7, 11]),
                                         rng.randrange(12)) for _ in range(2)])
        direct = materialize(wreath_to_cyclotomic(gz, ctx))
        transported = []
        for e in range(cfg.q - 1):
            x = cfg.omega**e
            i = ctx.coset_index(x)
            c = x * cfg.omega**(-i)
            pos = dlog(cfg, gen, c) if c != cfg.one else 0
            y, j = gz.apply((pos, i))
            img = gen**y * cfg.omega**j
            transported.append(table[img.packed])
        assert list(direct.images) == transported
