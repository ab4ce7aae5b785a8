import random

import pytest

from cycloperm.cycle_index import CycleType, ci_hol
from cycloperm.forms import (
    CyclotomicForm,
    PolyForm,
    cyclotomic_to_poly,
    invert_permutation,
)
from cycloperm.oracle import (
    ExplicitPerm,
    NotBijective,
    ci_brute,
    conjugate_brute,
    enumerate_group,
    group_order,
    materialize,
)
from cycloperm.wreath import AffineMapZ, CosetPerm, WreathElem


def test_materialize_demo_form(ctx25d2):
    w = ctx25d2.field.omega
    form = CyclotomicForm(ctx25d2, (w**5, w**21), (7, 5))
    perm = materialize(form)
    assert perm.n == 24
    assert perm.cycle_type() == CycleType([(4, 6)])
    # same permutation through the polynomial form
    assert materialize(cyclotomic_to_poly(form)).images == perm.images


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
    assert info.value.witness == ("w^0", "w^12", 0)


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
    assert ExplicitPerm(range(7)).cycle_type() == CycleType([(1, 7)])
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
    from cycloperm.wreath import wreath_to_cyclotomic
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
