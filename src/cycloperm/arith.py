"""Exact integer number theory shared by the rest of the package.

Everything here is plain arbitrary-precision integer arithmetic: trial
division factorization (intended for moduli up to ~2^32), valuations,
additive/multiplicative orders, the strict radical used in full-period
criteria for affine maps, and an effective Chinese Remainder Theorem that
also exposes its basis constants.

``rem1`` is deliberately a separate helper: several conversion routines
need the remainder normalized into {1, ..., m} (with m, not 0, standing
for the zero class), and that must never be confused with ``n % m``.

Rational coefficients throughout the package are ``fractions.Fraction``
(re-exported as ``Rational``): always reduced, positive denominator.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Rational = Fraction


def is_prime(n: int) -> bool:
    """Deterministic primality by factorize's trial division (fine for
    n <= ~2^32)."""
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime power factorization of n >= 1 as [(p, k), ...], primes ascending.

    factorize(1) == [].
    """
    return list(_factorize_cached(n))


@functools.lru_cache(maxsize=None)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError(f"cannot factorize {n}: need n >= 1")
    out = []
    for p in _small_primes(n):
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _small_primes(n):
    yield 2
    yield 3
    f = 5
    while True:
        yield f
        yield f + 2
        f += 6


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, k in factorize(n):
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return sorted(divs)


def phi(n: int) -> int:
    """Euler totient."""
    out = 1
    for p, k in factorize(n):
        out *= p ** (k - 1) * (p - 1)
    return out


def units(m: int) -> list[int]:
    """Elements of (Z/mZ)^*, ascending.  units(1) == [0] (the class of 1)."""
    if m == 1:
        return [0]
    return [a for a in range(m) if math.gcd(a, m) == 1]


def rem1(n: int, m: int) -> int:
    """Remainder of n mod m normalized into {1, ..., m}.

    Unlike n % m, the zero class is represented by m itself.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    r = n % m
    return m if r == 0 else r


def nu(p: int, n: int) -> int:
    """p-adic valuation of n > 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite; use nu_cap")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def nu_cap(p: int, cap: int, n: int) -> int:
    """min(nu_p(n), cap), with nu_p(0) treated as infinity."""
    if n == 0:
        return cap
    return min(nu(p, n), cap)


def aord(b: int, m: int) -> int:
    """Additive order of b in Z/mZ: the least t >= 1 with t*b == 0 (mod m)."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    return m // math.gcd(b % m, m)


def rad(m: int) -> int:
    """Squarefree radical: product of the distinct primes dividing m."""
    out = 1
    for p, _ in factorize(m):
        out *= p
    return out


def rad_prime(m: int) -> int:
    """rad(m), doubled when 4 | m.

    This is the modulus in the full-period criterion for affine maps of
    Z/mZ (classical in the linear-congruential-generator literature).
    """
    r = rad(m)
    return 2 * r if m % 4 == 0 else r


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/mZ)^*.  Requires gcd(a, m) == 1."""
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    if m == 1:
        return 1
    order = phi(m)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def crt_basis(moduli) -> list[int]:
    """CRT basis constants M_i for pairwise coprime moduli.

    M_i is 1 mod moduli[i] and 0 mod every other modulus, so that
    x = sum(a_i * M_i) solves x = a_i (mod moduli[i]).
    """
    return list(_crt_basis_cached(tuple(moduli)))


@functools.lru_cache(maxsize=None)
def _crt_basis_cached(moduli: tuple[int, ...]) -> tuple[int, ...]:
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise ValueError(
                    f"moduli {moduli[i]} and {moduli[j]} are not coprime")
    total = math.prod(moduli)
    out = []
    for m_i in moduli:
        rest = total // m_i
        out.append(rest * pow(rest, -1, m_i) if m_i > 1 else 0)
    return tuple(out)


def crt_combine(residues: list[tuple[int, int]]) -> int:
    """Unique x mod prod(moduli) with x = value (mod modulus) for each pair.

    ``residues`` is a list of (value, modulus) with pairwise coprime moduli.
    """
    moduli = [m for _, m in residues]
    basis = crt_basis(moduli)
    total = math.prod(moduli)
    return sum(v * b for (v, _), b in zip(residues, basis)) % total
