import random
import re
from collections import Counter

import pytest

from cycloperm.arith import aord, multiplicative_order, units
from cycloperm.cycle_index import CycleType
from cycloperm.forms import CyclotomicForm, eval_cyclotomic
from cycloperm.oracle import materialize
from cycloperm.wreath import (
    AffineMapZ,
    CosetPerm,
    WreathElem,
    cycle_type_affine,
    cycle_type_wreath,
    cyclotomic_to_wreath,
    fcp,
    wreath_to_cyclotomic,
)
from tests_helpers import random_wreath


def random_hol(m, rng):
    return AffineMapZ(m, rng.choice(units(m)), rng.randrange(m))


def random_wreath_z(d, m, rng):
    psi = CosetPerm(rng.sample(range(d), d))
    return WreathElem(psi, [random_hol(m, rng) for _ in range(d)])


def test_hol_compose_known_product():
    g = AffineMapZ(12, 5, 1)
    h = AffineMapZ(12, 7, 2)
    assert g.compose(h) == AffineMapZ(12, 11, 9)  # lam(35, 9) = lam(-1, 9)


def test_hol_compose_identity_and_inverse():
    g = AffineMapZ(12, 5, 1)
    assert g.compose(AffineMapZ.identity(12)) == g
    assert g.compose(g.inverse()) == AffineMapZ.identity(12)
    assert g.inverse().compose(g) == AffineMapZ.identity(12)


def test_hol_inverse_examples():
    assert AffineMapZ(12, 1, 5).inverse() == AffineMapZ(12, 1, 7)
    assert AffineMapZ(12, 11, 0).inverse() == AffineMapZ(12, 11, 0)
    assert AffineMapZ(12, 5, 1).inverse() == AffineMapZ(12, 5, 7)


def test_hol_rejects_non_unit():
    with pytest.raises(ValueError):
        AffineMapZ(12, 2, 0)
    with pytest.raises(ValueError):
        AffineMapZ(12, 5, 0).compose(AffineMapZ(6, 5, 0))


def test_wreath_compose_identity():
    rng = random.Random(0)
    for _ in range(20):
        g = random_wreath_z(2, 12, rng)
        assert g.compose(WreathElem.identity_z(2, 12)) == g
        assert WreathElem.identity_z(2, 12).compose(g) == g
        assert g.compose(g.inverse()) == WreathElem.identity_z(2, 12)


def test_wreath_compose_swap_squared():
    # ((0,1),(u,v))^2 = (id, (v*u, u*v)) with forward products
    u = AffineMapZ(12, 5, 1)
    v = AffineMapZ(12, 7, 2)
    g = WreathElem(CosetPerm((1, 0)), [u, v])
    sq = g.compose(g)
    assert sq.psi.is_identity()
    assert sq.maps == (v.compose(u), u.compose(v))


def test_wreath_associativity_spot_check():
    rng = random.Random(1)
    for _ in range(100):
        a = random_wreath_z(2, 12, rng)
        b = random_wreath_z(2, 12, rng)
        c = random_wreath_z(2, 12, rng)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_wreath_compose_matches_pointwise():
    rng = random.Random(2)
    for _ in range(50):
        a = random_wreath_z(3, 4, rng)
        b = random_wreath_z(3, 4, rng)
        ab = a.compose(b)
        for idx in range(12):
            pt = (idx % 4, idx // 4)
            assert ab.apply(pt) == b.apply(a.apply(pt))


def test_wreath_apply_examples():
    ident = WreathElem.identity_z(2, 12)
    assert ident.apply((3, 1)) == (3, 1)
    swap = WreathElem(CosetPerm((1, 0)), [AffineMapZ.identity(12)] * 2)
    assert swap.apply((7, 0)) == (7, 1)
    shift = WreathElem(CosetPerm.identity(2),
                       [AffineMapZ(12, 1, 1), AffineMapZ.identity(12)])
    assert shift.apply((3, 0)) == (4, 0)


def test_wreath_shape_mismatch():
    with pytest.raises(ValueError):
        WreathElem.identity_z(2, 12).compose(WreathElem.identity_z(2, 6))
    with pytest.raises(ValueError):
        WreathElem.identity_z(2, 12).compose(WreathElem.identity_z(3, 12))


def test_iota_demo_example(ctx25d2):
    w = ctx25d2.field.omega
    g = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2)])
    form = wreath_to_cyclotomic(g, ctx25d2)
    assert form.a == (w**5, w**21)
    assert form.r == (7, 5)


def test_iota_identity(ctx25d2):
    form = wreath_to_cyclotomic(WreathElem.identity_z(2, 12), ctx25d2)
    assert form == CyclotomicForm.identity(ctx25d2)


def test_iota_inverse_demo_example(ctx25d2):
    w = ctx25d2.field.omega
    form = CyclotomicForm(ctx25d2, (w**5, w**21), (7, 5))
    g = cyclotomic_to_wreath(form)
    assert g.psi.images == (1, 0)
    assert g.maps == (AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2))
    assert g.str_over_c() == "((0,1); lam(5,w^2), lam(7,w^4))"
    ident = cyclotomic_to_wreath(CyclotomicForm.identity(ctx25d2))
    assert ident == WreathElem.identity_z(2, 12)


def test_hol_c_to_z_paper_examples(ctx25d2):
    # the map x -> c*x^r on C = <w^2> is lam(r, c) over C; as coset 0 of a
    # form fixing both cosets it must come out as lam(r, b) with c = w^(2b)
    w, one = ctx25d2.field.omega, ctx25d2.field.one
    for r, c, b, shown in ((5, w**2, 1, "lam(5,w^2)"),
                           (7, w**4, 2, "lam(7,w^4)"),
                           (1, one, 0, "lam(1,w^0)")):
        g = cyclotomic_to_wreath(CyclotomicForm(ctx25d2, (c, one), (r, 1)))
        assert g.maps == (AffineMapZ(12, r, b), AffineMapZ(12, 1, 0))
        assert g.str_over_c().startswith("(id; " + shown + ", ")


def test_wreath_to_cyclotomic_rejects_other_shapes(ctx25d2):
    for d, m in ((2, 6), (3, 12), (1, 24)):
        with pytest.raises(ValueError):
            wreath_to_cyclotomic(WreathElem.identity_z(d, m), ctx25d2)


# (7, 6) and (13, 12) have m = 1, where the exponent rem1(a, m) = 1
# differs from the residue a % m = 0
IOTA_FIELDS = ((25, 2), (27, 13), (49, 6), (7, 6), (13, 12))


def test_iota_round_trip(ctx_cache):
    rng = random.Random(3)
    for q, d in IOTA_FIELDS:
        ctx = ctx_cache(q, d)
        for _ in range(170):
            g = random_wreath(ctx, rng)
            form = wreath_to_cyclotomic(g, ctx)
            back = cyclotomic_to_wreath(form)
            assert back == g


def test_iota_equivariance(ctx_cache):
    """beta(g(beta^-1(x))) = iota(g)(x) on all of F_q^*, 500+ random g,
    with beta(b, i) = omega^(d*b + i)."""
    rng = random.Random(4)
    for q, d in IOTA_FIELDS:
        ctx = ctx_cache(q, d)
        w = ctx.field.omega
        for _ in range(170):
            g = random_wreath(ctx, rng)
            form = wreath_to_cyclotomic(g, ctx)
            for e in range(q - 1):
                y, j = g.apply((e // d, e % d))
                assert w ** (d * y + j) == eval_cyclotomic(form, w**e)


def test_iota_homomorphism(ctx_cache):
    """iota(g*h) acts as apply-iota(g)-then-iota(h), 500 random pairs."""
    rng = random.Random(5)
    for q, d in ((25, 2), (49, 6)):
        ctx = ctx_cache(q, d)
        w = ctx.field.omega
        for _ in range(250):
            g = random_wreath(ctx, rng)
            h = random_wreath(ctx, rng)
            fg = wreath_to_cyclotomic(g, ctx)
            fh = wreath_to_cyclotomic(h, ctx)
            fgh = wreath_to_cyclotomic(g.compose(h), ctx)
            for e in range(0, q - 1, 3):
                x = w**e
                assert eval_cyclotomic(fgh, x) == eval_cyclotomic(
                    fh, eval_cyclotomic(fg, x))


def test_iota_subgroup_images(ctx_cache):
    """Constant exponents give constant-r forms; exponent 1 gives r = 1."""
    rng = random.Random(6)
    ctx = ctx_cache(25, 2)
    for _ in range(50):
        psi = CosetPerm(rng.sample(range(2), 2))
        s = rng.choice([1, 5, 7, 11])
        maps = [AffineMapZ(12, s, rng.randrange(12)) for _ in range(2)]
        form = wreath_to_cyclotomic(WreathElem(psi, maps), ctx)
        assert form.r == (s, s)
        maps1 = [AffineMapZ(12, 1, rng.randrange(12)) for _ in range(2)]
        form1 = wreath_to_cyclotomic(WreathElem(psi, maps1), ctx)
        assert form1.r == (1, 1)


def test_fcp_examples():
    g = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2)])
    assert fcp(g, (0, 1)) == AffineMapZ(12, 11, 9)
    fixed = WreathElem(CosetPerm.identity(2),
                       [AffineMapZ(12, 5, 3), AffineMapZ(12, 7, 2)])
    assert fcp(fixed, (0,)) == AffineMapZ(12, 5, 3)
    assert fcp(fixed, (1,)) == AffineMapZ(12, 7, 2)
    ident = WreathElem.identity_z(3, 12)
    for cycle in ident.psi.cycles():
        assert fcp(ident, cycle) == AffineMapZ.identity(12)
    with pytest.raises(ValueError):
        fcp(g, (1, 0))  # not written minimal-first
    assert fcp(PSI_3_1, (0, 1, 2)) == AffineMapZ(12, 11, 0)  # 35x + 12
    assert fcp(PSI_3_1, (3,)) == AffineMapZ(12, 11, 4)


# psi = (0,1,2)(3)
PSI_3_1 = WreathElem(CosetPerm((1, 2, 0, 3)),
                     [AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2),
                      AffineMapZ(12, 1, 3), AffineMapZ(12, 11, 4)])


@pytest.mark.parametrize("cycle", [
    (), (0, 2, 1), (0, 1), (0, 3), (3, 0, 1, 2),  # not a cycle of psi
    (1, 2, 0), (2, 0, 1),                          # not minimal-first
    (0, 1, 2, 0, 1, 2), (3, 3),                    # a cycle listed twice
    (4,), (0, 1, 2, 4), (-1,), (3, -1), (-4, 1, 2),  # labels out of range
])
def test_fcp_rejects_non_cycles(cycle):
    with pytest.raises(ValueError):
        fcp(PSI_3_1, cycle)


def test_cycle_type_affine_examples():
    assert cycle_type_affine(AffineMapZ(4, 3, 1)) == CycleType([(2, 2)])
    assert cycle_type_affine(AffineMapZ(3, 2, 0)) == CycleType([(1, 1), (2, 1)])
    assert cycle_type_affine(AffineMapZ(12, 11, 9)) == CycleType([(2, 6)])
    for m in (1, 2, 7, 12):
        assert cycle_type_affine(AffineMapZ.identity(m)) == CycleType([(1, m)])


PRIME_POWERS = (2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 49)


@pytest.mark.parametrize("pk", PRIME_POWERS)
def test_cycle_type_affine_tables_vs_iteration(pk):
    """Every (a, b) mod p^k: closed-form tables equal direct decomposition."""
    for a in units(pk):
        for b in range(pk):
            g = AffineMapZ(pk, a, b)
            assert cycle_type_affine(g) == materialize(g).cycle_type(), (pk, a, b)


def test_cycle_type_affine_at_2_to_the_64():
    """3x + 1 mod 2^64: a = -5^e with 5^e of order 2^62 and b odd, so two
    cycles of length 2^63."""
    assert cycle_type_affine(AffineMapZ(2**64, 3, 1)) \
        == CycleType([(2**63, 2)])


def test_cycle_type_affine_composite_vs_iteration():
    for m in (6, 10, 12, 15, 18, 20, 24, 36, 60):
        rng = random.Random(m)
        for _ in range(40):
            g = random_hol(m, rng)
            assert cycle_type_affine(g) == materialize(g).cycle_type()


def test_affine_order_identity():
    """ord(lam(a,b)) = ord(a) * aord(b*(1+a+...+a^(ord(a)-1))), m <= 30."""
    for m in range(1, 31):
        for a in units(m):
            o_a = multiplicative_order(a, m) if m > 1 else 1
            geo = sum(pow(a, i, m) for i in range(o_a)) % m
            for b in range(m):
                g = AffineMapZ(m, a, b)
                acc = g
                order = 1
                while not acc.is_identity():
                    acc = acc.compose(g)
                    order += 1
                assert order == o_a * aord(b * geo, m), (m, a, b)


def test_cycle_type_wreath_demo():
    g = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2)])
    assert cycle_type_wreath(g) == CycleType([(4, 6)])


def test_cycle_type_wreath_identity():
    for d, m in ((2, 12), (3, 4)):
        assert cycle_type_wreath(WreathElem.identity_z(d, m)) \
            == CycleType([(1, d * m)])


def test_cycle_type_wreath_random_vs_oracle():
    rng = random.Random(8)
    for _ in range(200):
        g = random_wreath_z(2, 12, rng)
        assert cycle_type_wreath(g) == materialize(g).cycle_type()
    for _ in range(100):
        g = random_wreath_z(3, 8, rng)
        assert cycle_type_wreath(g) == materialize(g).cycle_type()


def test_cycle_type_degrees():
    rng = random.Random(9)
    for _ in range(50):
        g = random_hol(12, rng)
        assert cycle_type_affine(g).degree() == 12
        h = random_wreath_z(3, 4, rng)
        assert cycle_type_wreath(h).degree() == 12


def test_cycle_type_wreath_over_c(ctx25d2):
    """A wreath element's cycle type is that of the permutation of F_q^*
    it induces through the pairing."""
    rng = random.Random(10)
    for _ in range(30):
        g = random_wreath(ctx25d2, rng)
        form = wreath_to_cyclotomic(g, ctx25d2)
        assert cycle_type_wreath(g) == materialize(form).cycle_type()


def test_coset_perm_basics():
    psi = CosetPerm.parse(4, "(0,1)(2,3)")
    assert psi.images == (1, 0, 3, 2)
    assert psi.cycles() == [(0, 1), (2, 3)]
    assert str(psi) == "(0,1)(2,3)"
    assert CosetPerm.parse(3, "id").is_identity()
    assert psi.compose(psi).is_identity()
    sigma = CosetPerm((1, 2, 0))
    # right action: apply sigma, then psi... different d, use d = 4
    tau = CosetPerm((1, 2, 0, 3))
    assert tau.compose(psi)(0) == psi(tau(0))
    for images in ((0, 0, 1), (0, 2), (-1, 0), (1, 1)):
        with pytest.raises(ValueError, match="are not a permutation of 0"):
            CosetPerm(images)


@pytest.mark.parametrize("text, message", [
    ("(0,5)", "label 5 is outside 0..1"),
    ("(-1,0)", "label -1 is outside 0..1"),
    ("(0,1)(1,0)", "label 1 repeats"),
    ("(0,0)", "label 0 repeats"),
    ("(0,1)junk", "cannot parse"),
    ("x(0,1)", "cannot parse"),
    ("(0,1)(", "cannot parse"),
    ("", "cannot parse"),
    pytest.param("(0,a)", "cannot parse permutation '(0,a)'",
                 id="(0,a)-cannot parse permutation"),
])
def test_coset_perm_parse_rejects_malformed_cycles(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CosetPerm.parse(2, text)


def test_coset_perm_parse_keeps_spacing_between_cycles():
    assert CosetPerm.parse(4, " (0, 1) (2,3) ").images == (1, 0, 3, 2)


def test_coset_perm_from_cycles_checks_labels():
    assert CosetPerm.from_cycles(3, [(2,)]).is_identity()
    with pytest.raises(ValueError, match="outside 0..2"):
        CosetPerm.from_cycles(3, [(0, 3)])
    with pytest.raises(ValueError, match="repeats"):
        CosetPerm.from_cycles(3, [(0, 1), (2, 0)])


def test_coset_perm_cycle_type_matches_cycles():
    rng = random.Random(19)
    perms = [CosetPerm.identity(0), CosetPerm.identity(1),
             CosetPerm.identity(50)]
    for n in (2, 3, 7, 24, 100, 2000):
        perms += [CosetPerm(rng.sample(range(n), n)) for _ in range(5)]
    for psi in perms:
        from_cycles = Counter(len(c) for c in psi.cycles())
        assert psi.cycle_type() == CycleType(dict(from_cycles))
    assert CosetPerm.identity(1).cycle_type() == CycleType([(1, 1)])
    assert CosetPerm.identity(50).cycle_type() == CycleType([(1, 50)])


def test_wreath_parse_round_trip():
    text = "((0,1); lam(5,1)@12, lam(7,2)@12)"
    g = WreathElem.parse(text)
    assert str(g) == text


def test_wreath_elem_needs_a_component():
    # with no component there is no modulus m
    with pytest.raises(ValueError, match="at least one component"):
        WreathElem.parse("(id;)")
    with pytest.raises(ValueError, match="at least one component"):
        WreathElem(CosetPerm.identity(0), [])
