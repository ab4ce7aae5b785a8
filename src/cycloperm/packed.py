"""Packed-int arithmetic in F_p[x]/(m), m monic of degree k: the
layout and product kernels behind ``field.FqElem``.

An element is one int: digit j of its coefficient vector (constant term
first) in the bit field [j*W, (j+1)*W), with W chosen per field so that
no product carries from one field into the next.  For k = 1 the int is
the residue itself.  ``kernels`` builds, once per field, its width and
its product, sum, difference and negation on such ints:

* k = 1: ``a*b % p``;
* p = 2, k > 1: Kronecker substitution with W = bit length of k.  One
  big-int product sums the terms of each coefficient of the polynomial
  product in its own field, and a mask keeps the low bit of every field
  (the carry-less product);
* odd p, k > 1: Kronecker substitution with guard bits, then a
  multiply-shift that reduces every digit mod p at once.

Both Kronecker kernels fold the k-1 high digits back by polynomial
Barrett division, which is exact for polynomials: one product with the
precomputed packed row floor(x^(2k-2) / m) gives their quotient by the
modulus, and one product with the packed row x^k mod m folds it into
the low digits.  A product is thus a fixed handful of big-int
operations, whatever k is.  Sums are one int operation plus the same
digit reduction (xor when p = 2).  Kronecker substitution: L. Kronecker
(1882); D. Harvey, J. Symbolic Comput. 44 (2009).
"""

from __future__ import annotations

import operator


def pack_digits(digits, width: int) -> int:
    """Digit j into the bit field [j*width, (j+1)*width)."""
    return sum(c << (width * j) for j, c in enumerate(digits))


def kernels(p: int, k: int, modulus):
    """(width, mul, add, sub, neg) on packed ints of F_p[x]/(modulus),
    modulus monic of degree k, reduced mod p."""
    if k == 1:
        return (p.bit_length(), lambda a, b: a * b % p,
                lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a: -a % p)
    if p == 2:
        # masked after every product, a field holds a sum of <= k bits
        width = k.bit_length()
    else:
        # with e = p-1, digits of prod are <= k e^2, of quot <= (k-1) k e^3
        # and of quot*row <= (k-1)^2 k e^4; a field also holds c*magic
        e = p - 1
        bound = k * e * e + (k - 1) ** 2 * k * e**4
        shift = (bound * p).bit_length()   # c // p == c*magic >> shift
        magic = -(-(1 << shift) // p)      # for every 0 <= c <= bound
        width = shift + bound.bit_length() + 1
    high, mid = k * width, (k - 2) * width
    low = (1 << high) - 1

    def pack(digits):
        return pack_digits(digits, width)

    # x^k = row and floor(x^(2k-2) / modulus) = mu, of degree k-2
    row = pack((-c) % p for c in modulus[:k])
    mu = pack(poly_divmod([0] * (2 * k - 2) + [1], modulus, p)[0])
    if p == 2:
        par = pack([1] * (2 * k - 1))  # the low bit of every field
        ones = par & low

        def mul(a, b):
            prod = a * b & par
            quot = (prod >> high) * mu >> mid & par
            return (prod + quot * row) & ones

        return width, mul, operator.xor, operator.xor, lambda a: a
    quotients = pack([(1 << (width - shift)) - 1] * k)
    ps = pack([p] * k)

    def reduce(r):
        """Every digit of r (each <= bound) mod p."""
        return r - (r * magic >> shift & quotients) * p

    def mul(a, b):
        prod = a * b
        quot = (prod >> high) * mu >> mid
        return reduce((prod & low) + (quot * row & low))

    return (width, mul, lambda a, b: reduce(a + b),
            lambda a, b: reduce(a + ps - b), lambda a: reduce(ps - a))


def power(mul, a: int, e: int) -> int:
    """a^e for e >= 0 under the product mul, by square and multiply; the
    packed 1 is the int 1 in every layout."""
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return out


def poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p, as coefficient lists
    (constant term first); b's last coefficient must be nonzero mod p.
    The remainder has no leading zeros; 0 is the empty list."""
    rem = [c % p for c in a]
    k = len(b) - 1
    inv = pow(b[k], -1, p)
    quot = [0] * (len(rem) - k)
    for deg in range(len(rem) - 1, k - 1, -1):
        c = rem[deg] * inv % p
        if c:
            quot[deg - k] = c
            for j in range(k + 1):
                rem[deg - k + j] = (rem[deg - k + j] - c * b[j]) % p
    rem = rem[:k]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem
