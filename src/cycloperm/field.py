"""Finite fields F_q = F_p[x]/(m(x)) at desk scale.

An element is one int, ``FqElem.packed``: its coefficient vector over
Z/pZ (constant term first), one digit per bit field (the layout of
``packed``; for k = 1 the residue itself).  Equality, hashing, the
discrete-log table and the coset lookup all key on the packed int;
``FqElem.coeffs`` unpacks it for I/O.  Each field picks one product
kernel when it is built (``packed.kernels``):

* k = 1: ``a*b % p``;
* p = 2, k > 1: a Kronecker product with every field masked to its low
  bit (the carry-less product);
* odd p, k > 1: a Kronecker product with guard bits, then one
  multiply-shift that reduces every digit mod p at once.

A field carries a fixed primitive root omega, so every nonzero element
has a canonical discrete-log normal form ``w^E`` used in all textual
I/O.  Construction proves both facts at once with packed powers:
omega^(q-1) = 1 and omega^((q-1)/l) != 1 for each prime l | q-1 give
omega order q-1 in F_p[x]/(m), so the ring's q-1 nonzero elements are
all units and it is a field (m is irreducible; for omega = x this is
Lidl & Niederreiter, Finite Fields, Thm. 3.16).  Only a rejected
modulus is tested for irreducibility, to name the reason.

Default moduli come from a small table of Conway polynomials (plus the
degree-1 case x - r with r the least primitive root, computed on the
fly); outside the table we fall back to the lexicographically smallest
primitive polynomial, which keeps the defining property that matters
here: the class of x generates F_q^*.

Discrete logarithms use baby-step giant-step (Shanks) over one
baby-step table ``omega^j -> j`` per field, shared by every caller and
grown on demand.  ``FqConfig.dlogs`` logs a batch of t elements in one
pass: it grows the table to ceil(sqrt(t*(q-1))) entries (at most q-1),
then takes at most (q-1)/size giant steps per element, about
2*sqrt(t*(q-1)) products in all and never more than q-1+t.  Printing a
polynomial or a cyclotomic form is one such batch, so it costs
O(sqrt(t*q)) products.  Every other logarithm (``dlog`` to any base)
is read off two omega-logs.  Keep q below ~2^20 on dlog-dependent
paths.

Only the oracle, which walks all of F_q in discrete logs
(``oracle.image_logs``), asks for the whole table (``dlog_table``) and
for the Zech logarithms ``1 + omega^n = omega^Z[n]`` (``zech_table``),
built from it lazily, once per field, by one field addition per entry.
A form conversion never builds either.
"""

from __future__ import annotations

import itertools
import math
import threading

from .arith import factorize, is_prime, multiplicative_order
from .packed import kernels, pack_digits, poly_divmod, power
from .text import pattern

# Conway polynomials, coefficient lists c0..ck (constant first, monic).
# Every entry is checked in the test suite: irreducible and x primitive.
CONWAY_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}

_new = object.__new__
_ELEM = pattern("w{^#}|#|[&]", "cannot parse field element")


def from_packed(cfg: "FqConfig", packed: int) -> "FqElem":
    """The element with an already packed and reduced int."""
    x = _new(FqElem)
    x.cfg = cfg
    x.packed = packed
    return x


class FqElem:
    """Element of F_q, immutable, packed into one int (see the module
    docstring); ``FqElem(cfg, coeffs)`` packs a coefficient vector."""

    __slots__ = ("cfg", "packed")

    def __init__(self, cfg: "FqConfig", coeffs):
        self.cfg = cfg
        self.packed = cfg._pack(coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients c_0..c_(k-1) over Z/pZ, constant term first."""
        return self.cfg._unpack(self.packed)

    def _check(self, other):
        if not isinstance(other, FqElem) or other.cfg is not self.cfg:
            raise ValueError("elements belong to different fields")

    def is_zero(self) -> bool:
        return not self.packed

    def __add__(self, other):
        self._check(other)
        return from_packed(self.cfg, self.cfg._add(self.packed, other.packed))

    def __sub__(self, other):
        self._check(other)
        return from_packed(self.cfg, self.cfg._sub(self.packed, other.packed))

    def __neg__(self):
        return from_packed(self.cfg, self.cfg._neg(self.packed))

    def __mul__(self, other):
        cfg = self.cfg
        if other.__class__ is not FqElem or other.cfg is not cfg:
            raise ValueError("elements belong to different fields")
        return from_packed(cfg, cfg._mul(self.packed, other.packed))

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self ** (self.cfg.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "FqElem":
        cfg = self.cfg
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("negative power of 0 in F_q")
            return cfg.one if e == 0 else self
        return from_packed(cfg, power(cfg._mul, self.packed, e % (cfg.q - 1)))

    def __eq__(self, other):
        return (isinstance(other, FqElem) and other.cfg is self.cfg
                and other.packed == self.packed)

    def __hash__(self):
        return hash(self.packed)

    def __str__(self):
        return self.cfg.elem_str(self)

    def __repr__(self):
        return f"FqElem({self.cfg.p}^{self.cfg.k}, {list(self.coeffs)})"


class FqConfig:
    """A constructed field F_q with a fixed primitive root omega."""

    def __init__(self, p: int, k: int, modulus, omega_coeffs):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = tuple(c % p for c in modulus)
        if len(self.modulus) != k + 1 or self.modulus[k] != 1:
            raise ValueError("modulus must be monic of degree k")
        (self._width, self._mul, self._add, self._sub,
         self._neg) = kernels(p, k, self.modulus)
        self.zero = FqElem(self, (0,) * k)
        self.one = FqElem(self, (1,) + (0,) * (k - 1))
        self.omega = FqElem(self, omega_coeffs)
        self.q_minus_1_factors = factorize(self.q - 1)
        # baby steps omega^j -> j for j < len(_logs), keyed on packed
        # ints; _next = omega^len(_logs), packed
        self._logs: dict[int, int] = {}
        self._next = self.one.packed
        self._zech = None  # the Zech table, built by zech_table
        self._omega_rows = None  # omega^(j*16^i), built by omega_pow
        self._lock = threading.Lock()
        if not _has_order(self._mul, self.omega.packed, self.q - 1,
                          self.q_minus_1_factors):
            if not _is_irreducible(self.modulus, p):
                raise ValueError(
                    f"modulus {list(self.modulus)} is reducible over F_{p}")
            raise ValueError(f"omega {list(omega_coeffs)} is not a primitive root")

    def _pack(self, coeffs) -> int:
        coeffs = [c % self.p for c in coeffs]
        if len(coeffs) != self.k:
            raise ValueError(
                f"need exactly {self.k} coefficients, got {len(coeffs)}")
        return pack_digits(coeffs, self._width)

    def _unpack(self, packed: int) -> tuple[int, ...]:
        width = self._width
        mask = (1 << width) - 1
        return tuple(packed >> (width * j) & mask for j in range(self.k))

    def from_int(self, n: int) -> FqElem:
        """Image of the integer n under Z -> F_q."""
        return from_packed(self, n % self.p)  # the constant digit is field 0

    def omega_pow(self, e: int) -> FqElem:
        """omega^e, one product per base-16 digit of e mod q-1, off a table
        of omega^(j*16^i) built on first use (Brickell et al., EUROCRYPT '92)."""
        with self._lock:
            if self._omega_rows is None:
                rows, base, mul = [], self.omega.packed, self._mul
                for _ in range(0, (self.q - 2).bit_length(), 4):
                    rows.append(list(itertools.accumulate(
                        itertools.repeat(base, 15), mul, initial=1)))
                    base = mul(rows[-1][-1], base)
                self._omega_rows = rows
        acc, e, mul = 1, e % (self.q - 1), self._mul
        for row in self._omega_rows:
            acc, e = mul(acc, row[e & 15]), e >> 4
        return from_packed(self, acc)

    def _grow(self, size: int) -> int:
        """Extend the baby-step table to min(size, q-1) entries; return
        its size.  Caller holds the lock."""
        table, acc = self._logs, self._next
        omega, mul = self.omega.packed, self._mul
        size = min(size, self.q - 1)
        for j in range(len(table), size):
            table[acc] = j
            acc = mul(acc, omega)
        self._next = acc
        return len(table)

    def dlogs(self, xs) -> list[int]:
        """The e in [0, q-1) with omega^e = x, for each nonzero x of a
        batch, by baby-step giant-step over the shared table."""
        xs = list(xs)
        if any(x.is_zero() for x in xs):
            raise ValueError("0 has no discrete logarithm")
        if not xs:
            return []
        n = self.q - 1
        table = self._logs
        with self._lock:
            size = self._grow(math.isqrt(len(xs) * n - 1) + 1)
            if size == n:
                return [table[x.packed] for x in xs]
            giant, mul = power(self._mul, self._next, n - 1), self._mul
            out = []
            for x in xs:
                i, cur = 0, x.packed
                while cur not in table:
                    i, cur = i + 1, mul(cur, giant)
                out.append(i * size + table[cur])
            return out

    def dlog_table(self) -> dict[int, int]:
        """packed -> e with omega^e: the baby-step table grown to all
        q-1 entries.  For oracle.image_logs, which logs every point."""
        with self._lock:
            self._grow(self.q - 1)
        return self._logs

    def zech_table(self):
        """Zech logarithms, an array('l'): entry n is the Z with
        1 + omega^n = omega^Z, or -1 where 1 + omega^n = 0 (n = 0 for
        p = 2, n = (q-1)/2 for odd p).  Built once, from the full dlog
        table, by one field addition per entry.  For oracle.image_logs,
        which sums terms."""
        with self._lock:
            if self._zech is None:
                from array import array  # imported only by the oracle's walk
                self._grow(self.q - 1)
                logs, add, one = self._logs, self._add, self.one.packed
                zech = array("l", [-1]) * (self.q - 1)
                for x, e in logs.items():
                    zech[e] = logs.get(add(x, one), -1)
                self._zech = zech
        return self._zech

    def elem_strs(self, xs) -> list[str]:
        """Canonical text forms of a batch, through one dlogs pass."""
        xs = list(xs)
        logs = iter(self.dlogs(x for x in xs if not x.is_zero()))
        return ["0" if x.is_zero() else f"w^{next(logs)}" for x in xs]

    def elem_str(self, x: FqElem) -> str:
        """Canonical text form: '0' or 'w^E' with 0 <= E < q-1."""
        return self.elem_strs([x])[0]

    def parse_elem(self, text: str) -> FqElem:
        """Parse '0', 'w^E', 'w', '[c0,c1,...]', or a plain integer."""
        text = text.strip()
        e, n, coeffs = _ELEM(text)
        if n is not None:
            return self.from_int(n)
        if coeffs is None:
            return self.omega if e is None else self.omega_pow(e)
        if len(coeffs) != self.k:
            raise ValueError(f"need {self.k} coefficients in {text!r}")
        return FqElem(self, coeffs)

    def __repr__(self):
        return f"FqConfig(p={self.p}, k={self.k}, modulus={list(self.modulus)})"


def _has_order(mul, x: int, n: int, factors) -> bool:
    """Whether the packed x has order exactly n under mul: x^n = 1 with
    the full exponent, and x^(n/l) != 1 for each prime l | n."""
    return power(mul, x, n) == 1 and all(
        power(mul, x, n // ell) != 1 for ell, _ in factors)


def _is_irreducible(modulus, p: int) -> bool:
    """No factor of degree i <= k/2: gcd(modulus, x^(p^i) - x) = 1, with
    x^(p^i) mod modulus by the packed kernels."""
    k = len(modulus) - 1
    width, mul = kernels(p, k, modulus)[:2]
    xp = 1 << width  # the class of x; for k = 1 the loop is empty
    for _ in range(k // 2):
        xp = power(mul, xp, p)
        a = [xp >> (width * j) & ((1 << width) - 1) for j in range(k)]
        a[1] -= 1
        b = list(modulus)
        while b:
            a, b = b, poly_divmod(a, b, p)[1]
        if len(a) > 1:
            return False
    return True


def least_primitive_root(p: int) -> int:
    for g in range(1 if p == 2 else 2, p):  # 1 generates F_2^*
        if multiplicative_order(g, p) == p - 1:
            return g
    raise ValueError(f"{p} has no primitive root (not prime?)")


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Default monic primitive modulus for F_{p^k}.

    Conway polynomial from the built-in table when available; x - r with
    r the least primitive root for k = 1; otherwise the lexicographically
    smallest primitive polynomial (by the coefficient tuple c0..c_{k-1}).
    The constant terms c0 run in ascending order, skipping those whose
    (-1)^k c0, the norm of x, is no primitive root mod p (the norm maps
    generators onto generators); a candidate is accepted when x has
    order q-1 under its own packed kernels (see the module docstring).
    For p < 17 one with a root in F_p^*, a factor x - a, is skipped unbuilt;
    from p = 17 the p-1 evaluations were measured to cost more at k = 2, 3.
    """
    if k == 1:
        return ((-least_primitive_root(p)) % p, 1)
    if (p, k) in CONWAY_TABLE:
        return CONWAY_TABLE[(p, k)]
    n = p**k - 1
    factors = factorize(n)
    roots = range(1, p) if p < 17 else ()
    rows = [[pow(a, i, p) for i in range(k + 1)] for a in roots]
    for c0 in range(1, p):
        if multiplicative_order((-1) ** k * c0 % p, p) != p - 1:
            continue
        for tail in itertools.product(range(p), repeat=k - 1):
            cand = (c0,) + tail + (1,)
            if all(sum(c * x for c, x in zip(cand, row)) % p for row in rows):
                width, mul = kernels(p, k, cand)[:2]
                if _has_order(mul, 1 << width, n, factors):
                    return cand
    raise ValueError(f"no primitive polynomial found for p={p}, k={k}")


def make_field(p: int, k: int, modulus=None, omega=None) -> FqConfig:
    """Construct F_{p^k}; all invariants verified.

    With the default modulus, omega is the class of x (for k = 1: the
    least primitive root).  omega is checked to have order exactly q - 1
    in F_p[x]/(modulus), which also proves the modulus irreducible.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if modulus is None:
        modulus = default_modulus(p, k)
    modulus = tuple(c % p for c in modulus)
    if omega is None:
        if k == 1:
            omega_coeffs = ((p - modulus[0]) % p,)  # the root of x + c0
        else:
            omega_coeffs = (0, 1) + (0,) * (k - 2)
    elif isinstance(omega, FqElem):
        omega_coeffs = omega.coeffs
    else:
        omega_coeffs = tuple(omega)
    return FqConfig(p, k, modulus, omega_coeffs)


def dlog(cfg: FqConfig, base: FqElem, x: FqElem) -> int:
    """Least e >= 0 with base^e = x, from the omega-logs L_b, L_x.

    base^e = x iff e*L_b = L_x (mod q-1); with g = gcd(L_b, q-1), that
    needs g | L_x, and then e is unique mod (q-1)/g, the order of base.
    Raises ValueError when x is outside the subgroup generated by base.
    """
    if base.is_zero() or x.is_zero():
        raise ValueError("dlog needs nonzero base and argument")
    log_b, log_x = cfg.dlogs([base, x])
    n = cfg.q - 1
    g = math.gcd(log_b, n)
    if log_x % g:
        raise ValueError("element is not in the subgroup generated by the base")
    order = n // g
    return log_x // g * pow(log_b // g, -1, order) % order


class CyclotomicContext:
    """A field together with a divisor d of q-1 and the subgroup data.

    C is the index-d subgroup of F_q^*, of order m = (q-1)/d, with cosets
    C_i = omega^i C; zeta = omega^m is a primitive d-th root of unity,
    and zeta_pows = (zeta^0, ..., zeta^(d-1)) lists the d-th roots of
    unity once for coset_index and the form conversions.
    """

    def __init__(self, field: FqConfig, d: int):
        if d < 1 or (field.q - 1) % d != 0:
            raise ValueError(f"d={d} does not divide q-1={field.q - 1}")
        self.field = field
        self.d = d
        self.m = (field.q - 1) // d
        self.zeta = field.omega_pow(self.m)
        pows = [field.one]
        for _ in range(d - 1):
            pows.append(pows[-1] * self.zeta)
        self.zeta_pows = tuple(pows)
        # x^m = zeta^i exactly when x lies in C_i
        self._coset_of = {z.packed: i for i, z in enumerate(pows)}

    def coset_index(self, x: FqElem) -> int:
        """The unique i with x in C_i, read off x^m = zeta^i: one power,
        no discrete logarithm."""
        if x.is_zero():
            raise ValueError("0 belongs to no coset of C")
        return self._coset_of[(x**self.m).packed]

    def __repr__(self):
        return (f"CyclotomicContext(q={self.field.q}, d={self.d}, "
                f"m={self.m})")
