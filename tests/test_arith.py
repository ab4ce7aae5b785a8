import math
import random

import pytest

from cycloperm.arith import (
    aord,
    crt_basis,
    crt_combine,
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    nu_cap,
    phi,
    rad_prime,
    rem1,
    units,
)


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(24) == [(2, 3), (3, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_and_primes():
    for n in range(1, 10001):
        fac = factorize(n)
        assert math.prod(p**k for p, k in fac) == n
        assert all(is_prime(p) for p, _ in fac)
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def is_prime_by_odd_divisors(n: int) -> bool:
    """Reference primality by a loop of its own: trial division by 2
    and by every odd f with f*f <= n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division_by_odd_divisors():
    for n in range(-2, 10**4 + 1):
        assert is_prime(n) == is_prime_by_odd_divisors(n), n


def test_rem1_examples():
    assert rem1(12, 12) == 12
    assert rem1(17, 12) == 5
    assert rem1(5, 12) == 5


def test_rem1_vs_standard_remainder():
    rng = random.Random(1)
    for _ in range(10000):
        n = rng.randrange(-10**6, 10**6)
        m = rng.randrange(1, 1000)
        r = rem1(n, m)
        assert 1 <= r <= m
        assert (r - n) % m == 0
        assert r - (n % m) in (0, m)


def test_nu_cap_examples():
    assert nu_cap(2, 3, 8) == 3
    assert nu_cap(2, 3, 0) == 3  # valuation of 0 is infinite, capped
    assert nu_cap(3, 2, 18) == 2


def test_aord_examples():
    assert aord(0, 12) == 1
    assert aord(9, 12) == 4
    assert aord(1, 12) == 12


def test_aord_is_least_annihilator():
    for m in range(1, 101):
        for b in range(m):
            t = aord(b, m)
            assert t * b % m == 0
            assert all(s * b % m != 0 for s in range(1, t))


def test_rad_prime_examples():
    assert rad_prime(12) == 12  # rad = 6, 4 | 12
    assert rad_prime(2) == 2
    assert rad_prime(9) == 3


def test_crt_examples():
    assert crt_combine([(1, 4), (-1, 3)]) == 5
    assert crt_basis([4, 3]) == [9, 4]
    assert crt_combine([(0, 4), (0, 3)]) == 0


def test_crt_rejects_non_coprime():
    with pytest.raises(ValueError):
        crt_combine([(0, 4), (0, 6)])


def test_crt_round_trip():
    for m in range(2, 1001):
        fac = factorize(m)
        if len(fac) < 2:
            continue
        moduli = [p**k for p, k in fac]
        for x in range(m):
            assert crt_combine([(x % pk, pk) for pk in moduli]) == x


def test_divisors_phi_units():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert phi(12) == 4
    assert units(12) == [1, 5, 7, 11]
    assert units(1) == [0]
    for m in range(1, 200):
        assert len(units(m)) == phi(m) if m > 1 else True


def test_multiplicative_order():
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(1, 12) == 1
    for m in range(2, 60):
        for a in units(m):
            o = multiplicative_order(a, m)
            assert pow(a, o, m) == 1 % m
            assert all(pow(a, t, m) != 1 % m for t in range(1, o))
