"""The packed-int field kernels against the tuple arithmetic they replaced.

``tuple_mul`` is the schoolbook product of coefficient tuples reduced by
the monic modulus, as FqElem computed it before elements were packed
into ints; it is kept here only as the reference.
"""

import itertools
import random

import pytest

from cycloperm.arith import factorize
from cycloperm.field import FqElem, make_field


def tuple_mul(cfg, a, b):
    k, p = cfg.k, cfg.p
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    # x^k = -(m_0 + ... + m_(k-1) x^(k-1))
    red = [(-c) % p for c in cfg.modulus[:k]]
    for deg in range(2 * k - 2, k - 1, -1):
        c = prod[deg] % p
        if c:
            for j, r in enumerate(red):
                prod[deg - k + j] += c * r
        prod[deg] = 0
    return tuple(c % p for c in prod[:k])


def tuple_add(cfg, a, b):
    return tuple((x + y) % cfg.p for x, y in zip(a, b))


def tuple_pow(cfg, a, e):
    out = (1,) + (0,) * (cfg.k - 1)
    for _ in range(e):
        out = tuple_mul(cfg, out, a)
    return out


PRIME_POWERS_UP_TO_256 = [q for q in range(2, 257) if len(factorize(q)) == 1]


def field_of(q):
    ((p, k),) = factorize(q)
    return make_field(p, k)


def test_the_sweep_covers_all_three_kernels():
    kinds = {"k = 1" if cfg.k == 1 else f"p = 2: {cfg.p == 2}"
             for cfg in map(field_of, PRIME_POWERS_UP_TO_256)}
    assert kinds == {"k = 1", "p = 2: True", "p = 2: False"}


@pytest.mark.parametrize("q", PRIME_POWERS_UP_TO_256)
def test_every_product_and_sum(q):
    cfg = field_of(q)
    tuples = list(itertools.product(range(cfg.p), repeat=cfg.k))
    elems = [FqElem(cfg, c) for c in tuples]
    assert [x.coeffs for x in elems] == tuples
    by_coeffs = dict(zip(tuples, elems))
    assert len({x.packed for x in elems}) == q
    for a, x in zip(tuples, elems):
        for b, y in zip(tuples, elems):
            assert x * y == by_coeffs[tuple_mul(cfg, a, b)]
            assert x + y == by_coeffs[tuple_add(cfg, a, b)]


@pytest.mark.parametrize("p, k", [(2, 16), (3, 10), (65537, 1)])
def test_random_products_in_large_fields(p, k):
    cfg = make_field(p, k)
    rng = random.Random(p * k)
    for _ in range(10**4):
        a = tuple(rng.randrange(p) for _ in range(k))
        b = tuple(rng.randrange(p) for _ in range(k))
        x, y = FqElem(cfg, a), FqElem(cfg, b)
        assert (x * y).coeffs == tuple_mul(cfg, a, b)
        assert (x + y).coeffs == tuple_add(cfg, a, b)
        assert (x - y).coeffs == tuple((s - t) % p for s, t in zip(a, b))


@pytest.mark.parametrize("p, k", [(2, 8), (2, 16), (3, 10), (5, 4), (7, 4),
                                  (13, 2), (251, 1), (65537, 1)])
def test_pow_inverse_neg_on_samples(p, k):
    cfg = make_field(p, k)
    rng = random.Random(k * 1000 + p)
    for _ in range(30):
        a = tuple(rng.randrange(p) for _ in range(k))
        x = FqElem(cfg, a)
        assert (-x).coeffs == tuple(-c % p for c in a)
        assert (x + -x).is_zero()
        e = rng.randrange(60)
        assert (x**e).coeffs == tuple_pow(cfg, a, e)
        if x.is_zero():
            continue
        assert tuple_mul(cfg, a, x.inverse().coeffs) == cfg.one.coeffs
        big = rng.randrange(cfg.q, 3 * cfg.q)
        assert x**big == x ** (big % (cfg.q - 1))
        assert x**-e == (x**e).inverse()


def test_zero_and_one_are_packed_as_0_and_1():
    for p, k in [(2, 8), (5, 4), (65537, 1)]:
        cfg = make_field(p, k)
        assert (cfg.zero.packed, cfg.one.packed) == (0, 1)
        assert cfg.from_int(p + 3) == FqElem(cfg, (3,) + (0,) * (k - 1))


def test_coeffs_is_read_only(f25):
    with pytest.raises(AttributeError):
        f25.omega.coeffs = (1, 1)


def test_cross_field_products_raise(f25):
    other = make_field(5, 2)
    with pytest.raises(ValueError, match="different fields"):
        f25.omega * other.omega
    with pytest.raises(ValueError, match="different fields"):
        f25.omega * 2
    with pytest.raises(ValueError, match="different fields"):
        f25.omega + other.omega
