import math
import random
import re

import pytest

from cycloperm.arith import rem1
from cycloperm.field import CyclotomicContext, make_field
from cycloperm.forms import (
    CyclotomicForm,
    PolyForm,
    Rejected,
    analyze_affine_shift,
    analyze_permutation,
    cyclotomic_to_poly,
    eval_cyclotomic,
    invert_permutation,
    is_permutation_form,
    poly_to_cyclotomic,
)
from tests_helpers import pointwise

DEMO_POLY = "w^15*T^5 + w^23*T^7 + w^3*T^17 + w^23*T^19"
DEMO_INVERSE = "w^9*T^5 + w^7*T^7 + w^9*T^17 + w^19*T^19"


def demo_form(ctx):
    w = ctx.field.omega
    return CyclotomicForm(ctx, (w**5, w**21), (7, 5))


def random_form(ctx, rng, nonzero=True, permutation=False):
    import math
    w = ctx.field.omega
    d, m, q = ctx.d, ctx.m, ctx.field.q
    if permutation:
        coprime = [r for r in range(1, m + 1) if math.gcd(r, m) == 1]
        while True:
            a = tuple(w ** rng.randrange(q - 1) for _ in range(d))
            r = tuple(rng.choice(coprime) for _ in range(d))
            form = CyclotomicForm(ctx, a, r)
            if is_permutation_form(form):
                return form
    a = []
    for _ in range(d):
        if nonzero:
            a.append(w ** rng.randrange(q - 1))
        else:
            e = rng.randrange(q)
            a.append(ctx.field.zero if e == q - 1 else w**e)
    r = tuple(rng.randrange(1, m + 1) for _ in range(d))
    return CyclotomicForm(ctx, tuple(a), r)


def test_eval_examples(ctx25d2):
    cfg = ctx25d2.field
    w = cfg.omega
    f = demo_form(ctx25d2)
    assert eval_cyclotomic(f, cfg.one) == w**5  # 1 is in C_0
    assert eval_cyclotomic(f, cfg.zero) == cfg.zero
    ident = CyclotomicForm.identity(ctx25d2)
    for e in range(24):
        assert eval_cyclotomic(ident, w**e) == w**e


def test_cyclotomic_to_poly_demo(ctx25d2):
    P = cyclotomic_to_poly(demo_form(ctx25d2))
    assert str(P) == DEMO_POLY
    assert P == PolyForm.parse(ctx25d2.field, DEMO_POLY)


def test_cyclotomic_to_poly_identity(ctx_cache):
    ctx = ctx_cache(9, 2)
    P = cyclotomic_to_poly(CyclotomicForm.identity(ctx))
    assert P == PolyForm.parse(ctx.field, "T")


def test_cyclotomic_to_poly_zero(ctx25d2):
    zero_form = CyclotomicForm(ctx25d2, (ctx25d2.field.zero,) * 2, (1, 1))
    assert cyclotomic_to_poly(zero_form).is_zero()


def test_poly_to_cyclotomic_demo(ctx25d2):
    cfg = ctx25d2.field
    form = poly_to_cyclotomic(PolyForm.parse(cfg, DEMO_POLY), ctx25d2)
    assert form == demo_form(ctx25d2)


def test_poly_to_cyclotomic_zero(ctx25d2):
    form = poly_to_cyclotomic(PolyForm.zero(ctx25d2.field), ctx25d2)
    assert all(ai.is_zero() for ai in form.a)
    assert form.r == (1, 1)


def test_poly_to_cyclotomic_rejects_constant_term(ctx25d2):
    with pytest.raises(Rejected) as info:
        poly_to_cyclotomic(PolyForm.parse(ctx25d2.field, "T + 1"), ctx25d2)
    assert info.value.code == "nonzero-constant-term"


def test_rejection_too_many_remainders(ctx25d2):
    # 3 terms (<= d^2 = 4) but 3 distinct remainders mod 12 (> d = 2)
    with pytest.raises(Rejected) as info:
        poly_to_cyclotomic(
            PolyForm.parse(ctx25d2.field, "T + T^2 + T^3"), ctx25d2)
    assert info.value.code == "too-many-remainders"


def test_rejection_term_count_halts_before_remainders(ctx_cache):
    # with d = 1 the term bound d^2 = 1 trips before the remainder count
    ctx = ctx_cache(25, 1)
    with pytest.raises(Rejected) as info:
        poly_to_cyclotomic(PolyForm.parse(ctx.field, "T^2 + T"), ctx)
    assert info.value.code == "too-many-terms"


def test_rejection_too_many_terms(ctx25d2):
    # 5 terms with d^2 = 4
    text = "T + T^2 + T^3 + T^4 + T^6"
    with pytest.raises(Rejected) as info:
        poly_to_cyclotomic(PolyForm.parse(ctx25d2.field, text), ctx25d2)
    assert info.value.code == "too-many-terms"


def test_analyze_demo(ctx25d2):
    an = analyze_permutation(PolyForm.parse(ctx25d2.field, DEMO_POLY), ctx25d2)
    assert an.form == demo_form(ctx25d2)
    assert an.psi.images == (1, 0)


def test_analyze_identity(ctx25d2):
    an = analyze_permutation(PolyForm.parse(ctx25d2.field, "T"), ctx25d2)
    assert an.psi.is_identity()
    assert an.form == CyclotomicForm.identity(ctx25d2)


def test_analyze_degenerate_half_sum(ctx25d2):
    # dropping two terms of the demo polynomial zeroes one branch
    with pytest.raises(Rejected) as info:
        analyze_permutation(
            PolyForm.parse(ctx25d2.field, "w^15*T^5 + w^3*T^17"), ctx25d2)
    assert info.value.code == "zero-branch-coefficient"


def test_analyze_exponent_not_coprime(ctx25d2):
    # x -> x^2 on both cosets: gcd(2, 12) > 1
    w = ctx25d2.field.omega
    form = CyclotomicForm(ctx25d2, (ctx25d2.field.one, w), (2, 2))
    with pytest.raises(Rejected) as info:
        analyze_permutation(cyclotomic_to_poly(form), ctx25d2)
    assert info.value.code == "exponent-not-coprime"


def test_analyze_psi_not_bijective(ctx25d2):
    # both cosets map into C_0: a_i = 1, r_i = 1 won't do; use a_1 = w^-1...
    # x -> x on C_0 and x -> w^-1 x on C_1 sends both cosets onto C_0
    cfg = ctx25d2.field
    form = CyclotomicForm(ctx25d2, (cfg.one, cfg.omega**23), (1, 1))
    with pytest.raises(Rejected) as info:
        analyze_permutation(cyclotomic_to_poly(form), ctx25d2)
    assert info.value.code == "psi-not-bijective"


def test_invert_demo(ctx25d2):
    inv = invert_permutation(demo_form(ctx25d2))
    assert str(inv) == DEMO_INVERSE


def test_invert_identity(ctx25d2):
    inv = invert_permutation(CyclotomicForm.identity(ctx25d2))
    assert inv == PolyForm.parse(ctx25d2.field, "T")


def test_invert_euclid_pair():
    # r0 = 7, m = 12: 7*7 + 12*(-4) = 1
    assert pow(7, -1, 12) == 7
    assert (1 - 7 * 7) // 12 == -4


def test_invert_rejects_non_permutation(ctx25d2):
    cfg = ctx25d2.field
    form = CyclotomicForm(ctx25d2, (cfg.zero, cfg.one), (1, 1))
    with pytest.raises(ValueError):
        invert_permutation(form)


def test_affine_shift_examples(ctx25d2):
    cfg = ctx25d2.field
    shifted = PolyForm.parse(cfg, DEMO_POLY + " + 1")
    b, form = analyze_affine_shift(shifted, ctx25d2)
    assert b == cfg.one
    assert form == demo_form(ctx25d2)
    const = PolyForm.parse(cfg, "w^3")
    b, form = analyze_affine_shift(const, ctx25d2)
    assert b == cfg.omega**3
    assert all(ai.is_zero() for ai in form.a)


def test_affine_shift_rejection_propagates(ctx_cache):
    # after peeling b = 1, T^2 + T cannot be an index-1 cyclotomic map
    ctx = ctx_cache(25, 1)
    with pytest.raises(Rejected) as info:
        analyze_affine_shift(PolyForm.parse(ctx.field, "T^2 + T + 1"), ctx)
    assert info.value.code in ("too-many-terms", "too-many-remainders")


def test_poly_parse_round_trip(f25):
    for text in (DEMO_POLY, "T", "0", "w^3", "2*T^2 + T"):
        P = PolyForm.parse(f25, text)
        assert PolyForm.parse(f25, str(P)) == P


def test_poly_parse_subtraction_and_vectors(f25):
    w = f25.omega
    P = PolyForm.parse(f25, "T^2 - T")
    assert P.coeff(1) == -f25.one and P.coeff(2) == f25.one
    Q = PolyForm.parse(f25, "[3,-1]*T - [0,2]")
    assert Q.coeff(1) == f25.from_int(3) - w
    assert Q.coeff(0) == -(f25.from_int(2) * w)
    R = PolyForm.parse(f25, "-T + 1")
    assert R.coeff(1) == -f25.one and R.coeff(0) == f25.one


def test_poly_parse_negative_exponent_of_a_coefficient(f25):
    """A - after ^ signs the exponent of a field element; a negative
    degree of T is refused, naming the whole term."""
    w = f25.omega
    P = PolyForm.parse(f25, "w^-1*T - w^ -2 + T^3")
    assert P.coeffs == {0: -(w ** 22), 1: w ** 23, 3: f25.one}
    for text, term in (("T^-1", "T^-1"), ("T + w*T^ -2", " w*T^ -2")):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse term {term!r}")):
            PolyForm.parse(f25, text)


@pytest.mark.parametrize("text", ("w^3*T^13++w^7*T", "w^3*T^13 + + w^7*T",
                                  "+T", "T +", "w^3*T - 1 + "))
def test_poly_parse_refuses_an_empty_term(f25, text):
    with pytest.raises(ValueError, match=re.escape(
            f"cannot parse polynomial {text!r}: empty term")):
        PolyForm.parse(f25, text)


@pytest.mark.parametrize("text", ("w^3**T^13", "w^3 * *T", "T + w**T"))
def test_poly_parse_refuses_repeated_stars(f25, text):
    with pytest.raises(ValueError, match=re.escape(
            f"cannot parse polynomial {text!r}: more than one '*' before T")):
        PolyForm.parse(f25, text)


def test_poly_parse_keeps_one_star_and_the_empty_input(f25):
    w = f25.omega
    assert PolyForm.parse(f25, "w^3 * T^13 + w^7*T") == PolyForm(
        f25, {13: w ** 3, 1: w ** 7})
    assert PolyForm.parse(f25, "  ") == PolyForm(f25, {})


def test_poly_degree_cap(f25):
    with pytest.raises(ValueError):
        PolyForm.parse(f25, "T^25")
    with pytest.raises(ValueError):
        PolyForm(f25, {25: f25.one})
    with pytest.raises(ValueError):
        PolyForm(f25, {-1: f25.one})


def test_poly_stores_nonzero_terms_only(f25):
    w = f25.omega
    P = PolyForm(f25, {7: w, 0: f25.one, 3: f25.zero})
    assert P.coeffs == {0: f25.one, 7: w}
    assert list(P.coeffs) == [0, 7]
    assert P.terms() == [(0, f25.one), (7, w)]
    assert P.degree() == 7 and P.coeff(3) == f25.zero
    assert P == PolyForm.parse(f25, "w*T^7 + 1")
    assert hash(P) == hash(PolyForm.parse(f25, "1 + w^1*T^7"))


def test_printing_at_2_to_the_16_logs_through_few_baby_steps():
    cfg = make_field(2, 16)
    w = cfg.omega
    form = CyclotomicForm(CyclotomicContext(cfg, 3), (w**5, w**21, w**7),
                          (7, 5, 11))
    P = cyclotomic_to_poly(form)
    assert str(P) == (
        "w^21*T^5 + w^5*T^7 + w^7*T^11 + w^43711*T^21850 + w^5*T^21852"
        " + w^21852*T^21856 + w^21866*T^43695 + w^5*T^43697"
        " + w^43697*T^43701")
    assert len(cfg._logs) <= math.isqrt(9 * (cfg.q - 1) - 1) + 1 < cfg.q - 1


def dense_horner(P, x):
    """Reference: Horner over all q coefficient slots of P."""
    acc = P.cfg.zero
    for deg in range(P.cfg.q - 1, -1, -1):
        acc = acc * x + P.coeff(deg)
    return acc


@pytest.mark.parametrize("q", (9, 16, 25, 27, 49))
def test_sparse_eval_matches_dense_horner(ctx_cache, q):
    cfg = ctx_cache(q, 1).field
    w = cfg.omega
    rng = random.Random(q)
    polys = [PolyForm.parse(cfg, "w^3*T^5 - w^3*T^5"),
             PolyForm.parse(cfg, "w^3*T^5 + w^2 - w^3*T^5"),
             PolyForm.parse(cfg, f"w*T^{q - 1}"),
             PolyForm.parse(cfg, f"T^{q - 1} + w^4*T + 1")]
    for _ in range(25):
        coeffs = {rng.randrange(q): rng.choice([cfg.zero, w ** rng.randrange(q)])
                  for _ in range(rng.randrange(9))}
        polys.append(PolyForm(cfg, coeffs))
    assert polys[0].is_zero() and str(polys[0]) == "0"
    assert polys[1] == PolyForm(cfg, {0: w**2})
    for P in polys:
        for x, y in pointwise(P):
            assert y == dense_horner(P, x)


def test_horner_matches_piecewise(ctx_cache):
    rng = random.Random(11)
    for q, d in ((9, 2), (25, 2), (25, 4)):
        ctx = ctx_cache(q, d)
        for _ in range(20):
            f = random_form(ctx, rng, nonzero=False)
            P = cyclotomic_to_poly(f)
            for x, y in pointwise(P):
                assert y == eval_cyclotomic(f, x)


ROUND_TRIP_CONFIGS = ((9, 2), (16, 3), (25, 2), (25, 4), (27, 13), (49, 6))


@pytest.mark.parametrize("q,d", ROUND_TRIP_CONFIGS)
def test_round_trip_a(ctx_cache, q, d):
    """form -> poly -> form defines the same function.  Quick regression
    run; the acceptance suite repeats this with 1000 samples."""
    from tests_helpers import run_round_trip_a
    ctx = ctx_cache(q, d)
    w = ctx.field.omega
    rng = random.Random(q * 100 + d)
    run_round_trip_a(ctx, rng, 150)
    # spot-check the pointwise meaning of uniqueness as well
    f = random_form(ctx, rng, nonzero=True)
    back = poly_to_cyclotomic(cyclotomic_to_poly(f), ctx)
    for e in range(q - 1):
        x = w**e
        assert eval_cyclotomic(back, x) == eval_cyclotomic(f, x)


@pytest.mark.parametrize("q,d", ROUND_TRIP_CONFIGS)
def test_round_trip_b(ctx_cache, q, d):
    """poly -> form -> poly is the identity coefficient-wise."""
    from tests_helpers import run_round_trip_b
    ctx = ctx_cache(q, d)
    rng = random.Random(q * 1000 + d)
    run_round_trip_b(ctx, rng, 150)


def test_inversion_round_trip(ctx_cache):
    rng = random.Random(99)
    done = 0
    for q, d in ((9, 2), (25, 2), (25, 4), (49, 6)):
        ctx = ctx_cache(q, d)
        for _ in range(30):
            f = random_form(ctx, rng, permutation=True)
            P = cyclotomic_to_poly(f)
            inv = invert_permutation(f)
            for (x, y), (_, z) in zip(pointwise(P), pointwise(inv)):
                assert inv.eval(y) == x
                assert P.eval(z) == x
            done += 1
    assert done >= 100


def invert_per_term(f):
    """The closed-form reference for invert_permutation: with
    r_i rtilde_i + m t_i = 1 (rtilde_i in 1..m), the inverse is
    (1/d) sum_{i,j} zeta^(i (t_i - j r_i)) a_i^(-rtilde_i - j m)
    T^(rtilde_i + j m), every term powered on its own."""
    ctx = f.ctx
    cfg = ctx.field
    d, m = ctx.d, ctx.m
    inv_d = cfg.from_int(d).inverse()
    coeffs = {}
    for i in range(d):
        r_i = f.r[i]
        rt = rem1(pow(r_i, -1, m) if m > 1 else 1, m)
        t_i = (1 - r_i * rt) // m
        for j in range(d):
            deg = rt + j * m
            zeta_pow = ctx.zeta ** (i * (t_i - j * r_i))
            coeffs[deg] = (coeffs.get(deg, cfg.zero)
                           + inv_d * zeta_pow * f.a[i] ** (-rt - j * m))
    return PolyForm(cfg, coeffs)


@pytest.mark.parametrize("q, d", [(7, 6), (9, 2), (13, 12), (25, 4), (49, 6),
                                  (64, 9), (81, 5), (256, 15), (625, 13),
                                  (1024, 11)])
def test_invert_steps_in_j_like_the_per_term_formula(ctx_cache, q, d):
    from cycloperm.wreath import wreath_to_cyclotomic
    from tests_helpers import random_wreath
    ctx = ctx_cache(q, d)
    rng = random.Random(q * d)
    for _ in range(8):
        f = wreath_to_cyclotomic(random_wreath(ctx, rng), ctx)
        inv = invert_permutation(f)
        assert inv == invert_per_term(f)
        assert str(inv) == str(invert_per_term(f))


def test_psi_maps_cosets_setwise(ctx_cache):
    rng = random.Random(5)
    for q, d in ((9, 2), (25, 2), (25, 4), (49, 6)):
        ctx = ctx_cache(q, d)
        w = ctx.field.omega
        for _ in range(10):
            f = random_form(ctx, rng, permutation=True)
            psi = analyze_permutation(cyclotomic_to_poly(f), ctx).psi
            for i in range(d):
                images = {ctx.coset_index(eval_cyclotomic(f, w**e))
                          for e in range(i, q - 1, d)}
                assert images == {psi(i)}


@pytest.mark.parametrize("q, d", [(9, 2), (25, 2), (25, 4), (49, 6), (64, 9),
                                  (81, 5)])
def test_psi_verdict_matches_field_powers(ctx_cache, q, d):
    # forms past the zero and coprime screens, permutations (from random
    # wreath elements) and random ones (mostly not): the wreath form, and
    # with it psi, comes back exactly when the field-power coset images
    # form a permutation
    from cycloperm.wreath import cyclotomic_to_wreath, wreath_to_cyclotomic
    from tests_helpers import random_wreath
    ctx = ctx_cache(q, d)
    w = ctx.field.omega
    rng = random.Random(q * d)
    coprime = [r for r in range(1, ctx.m + 1) if math.gcd(r, ctx.m) == 1]
    verdicts = set()
    for n in range(40):
        if n % 2:
            f = wreath_to_cyclotomic(random_wreath(ctx, rng), ctx)
        else:
            f = CyclotomicForm(ctx,
                               [w ** rng.randrange(q - 1) for _ in range(d)],
                               [rng.choice(coprime) for _ in range(d)])
        images = tuple(ctx.coset_index(f.a[i] * w ** (f.r[i] * i))
                       for i in range(d))
        bijective = sorted(images) == list(range(d))
        if bijective:
            assert cyclotomic_to_wreath(f).psi.images == images
        else:
            with pytest.raises(Rejected) as info:
                cyclotomic_to_wreath(f)
            assert info.value.code == "psi-not-bijective"
        verdicts.add(bijective)
    assert verdicts == {True, False}
