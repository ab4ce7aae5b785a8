"""Cycle types and exact cycle-index polynomials.

A cycle type is the monomial x_1^k1 * x_2^k2 * ... recording how many
cycles of each length a permutation has; a cycle index is a rational
linear combination of such monomials (for a group: the average of its
elements' cycle types, so the coefficients sum to 1; for a plain set of
permutations we keep the un-normalized "cycle counter", whose
coefficients sum to the set's cardinality).

Implemented here:

* one case table, cycle_type_pp: the cycle type of x -> ax + b on
  Z/p^kZ from the "unit signature" of a (its order data) and
  min(nu_p(b), k).  Summed per element, per signature and per group it
  gives wreath.cycle_type_affine, affine_counter_pp and ci_hol_pp;
* the star product x_i^e * x_j^f -> x_lcm(i,j)^(e*f*gcd(i,j)), extended
  bilinearly: cycle types/indices of direct products, e.g. Hol(Z/mZ)
  along the CRT splitting;
* one recurrence, _sym_substitute, for every Sym(d) composition:
  Z(Sym(d)) with x_k -> delta_k is Z_d, where Z_0 = 1 and
  n*Z_n = sum_{k=1..n} delta_k * Z_(n-k) (Harary & Palmer, Graphical
  Enumeration, ch. 2).  delta_k = x_k gives Sym(d); Hol(Z/mZ) resp. the
  translations, stretched by k, give W(d,m) resp. W1(d,m); per unit
  signature, the normalized affine counters give W=(d,m).  Level n has
  at most sum_k |delta_k| * |Z_(n-k)| terms, and a level whose bound
  exceeds the cap is refused before it forms any product.
  (polya_compose stays as the general composition for any top group.)

All coefficients are exact Fractions; no floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import divisors, factorize, multiplicative_order, nu, nu_cap, phi
from .text import pattern, split

# Budget shared by group enumeration (elements) and cycle-index levels (terms).
DEFAULT_CAP = 10**7

_POWER = pattern("x#{^#}|1", "bad cycle-type term")
_TERM = pattern("#/#{*%}", "bad coefficient in")

# A unit signature mod p^k: for odd p (and p^0 = 1) the order of the unit,
# a positive divisor of phi(p^k); for p = 2 a pair (eps, o2) with the unit
# = (-1)^eps * 5^e and o2 the order of 5^e, a power of 2 dividing
# max(1, 2^(k-2)).  A signature vector pairs each prime power of m with
# its signature: tuple of (p, k, sig).


class CycleType:
    """Multiset of cycle lengths, as an immutable exponent-map monomial."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        """counts: mapping or iterable of (length, multiplicity) pairs."""
        merged: dict[int, int] = {}
        for length, mult in (counts.items() if isinstance(counts, dict)
                             else counts):
            if length < 1 or mult < 0:
                raise ValueError(f"bad cycle-type entry ({length}, {mult})")
            if mult:
                merged[length] = merged.get(length, 0) + mult
        self.counts = tuple(sorted(merged.items()))

    @classmethod
    def _trusted(cls, counts: tuple) -> "CycleType":
        """Wrap pairs already sorted by distinct length, multiplicities > 0."""
        ct = cls.__new__(cls)
        ct.counts = counts
        return ct

    def degree(self) -> int:
        return sum(length * mult for length, mult in self.counts)

    def mul(self, other: "CycleType") -> "CycleType":
        """Ordinary monomial product (disjoint union of cycle multisets)."""
        merged = dict(self.counts)
        for length, mult in other.counts:
            merged[length] = merged.get(length, 0) + mult
        return CycleType._trusted(tuple(sorted(merged.items())))

    def star(self, other: "CycleType") -> "CycleType":
        """Star product: cycle type of the direct-product permutation.

        x_i^e * x_j^f contributes x_lcm(i,j)^(e*f*gcd(i,j)); the result is
        the monomial product over all variable-power pairs.
        """
        out: dict[int, int] = {}
        for i, e in self.counts:
            for j, f in other.counts:
                g = math.gcd(i, j)
                length = i * j // g
                out[length] = out.get(length, 0) + e * f * g
        return CycleType._trusted(tuple(sorted(out.items())))

    def stretch(self, t: int) -> "CycleType":
        """Substitute x_i -> x_{i*t}."""
        if t < 1:
            raise ValueError(f"stretch factor must be >= 1, got {t}")
        return CycleType._trusted(
            tuple([(length * t, mult) for length, mult in self.counts]))

    def __eq__(self, other):
        return isinstance(other, CycleType) and self.counts == other.counts

    def __hash__(self):
        return hash(self.counts)

    def __lt__(self, other):
        return self.counts < other.counts

    def __str__(self):
        if not self.counts:
            return "1"
        return "*".join(
            f"x{length}" if mult == 1 else f"x{length}^{mult}"
            for length, mult in self.counts)

    def __repr__(self):
        return f"CycleType({str(self)})"

    @classmethod
    def parse(cls, text: str) -> "CycleType":
        """Parse 'x1^3*x2^2' (exponent 1 may be omitted)."""
        pairs = [_POWER(part) for part in split(text, r"\*")]
        return cls((length, 1 if mult is None else mult)  # '1' reads as None
                   for length, mult in pairs if length is not None)


class CycleIndex:
    """Rational linear combination of cycle types of one common degree."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[CycleType, Fraction] = {}
        if terms:
            for ct, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self._add_term(ct, Fraction(coeff))

    def _add_term(self, ct: CycleType, coeff: Fraction):
        c = self.terms.get(ct)
        if c is not None:
            coeff += c
        if coeff:
            self.terms[ct] = coeff
        else:
            self.terms.pop(ct, None)

    @classmethod
    def of(cls, ct: CycleType, coeff=1) -> "CycleIndex":
        return cls([(ct, Fraction(coeff))])

    def degree(self) -> int:
        degs = {ct.degree() for ct in self.terms}
        if len(degs) > 1:
            raise ValueError(f"mixed degrees {sorted(degs)} in cycle index")
        return degs.pop() if degs else 0

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __add__(self, other: "CycleIndex") -> "CycleIndex":
        return CycleIndex([*self.terms.items(), *other.terms.items()])

    def scale(self, factor) -> "CycleIndex":
        factor = Fraction(factor)  # a zero factor leaves no term
        return CycleIndex({ct: c * factor for ct, c in self.terms.items()})

    def __mul__(self, other: "CycleIndex") -> "CycleIndex":
        """Ordinary polynomial product."""
        out = CycleIndex()
        for ct1, c1 in self.terms.items():
            for ct2, c2 in other.terms.items():
                out._add_term(ct1.mul(ct2), c1 * c2)
        return out

    def star(self, other: "CycleIndex") -> "CycleIndex":
        """Bilinear extension of the star product on monomials."""
        out = CycleIndex()
        for ct1, c1 in self.terms.items():
            for ct2, c2 in other.terms.items():
                out._add_term(ct1.star(ct2), c1 * c2)
        return out

    def stretch(self, t: int) -> "CycleIndex":
        out = CycleIndex()  # x_i -> x_{i*t} is injective: nothing merges
        out.terms = {ct.stretch(t): c for ct, c in self.terms.items()}
        return out

    def substitute(self, polys: list["CycleIndex"]) -> "CycleIndex":
        """Substitute polys[i-1] for x_i in every monomial, then expand."""
        out = CycleIndex()
        for ct, coeff in self.terms.items():
            term = CycleIndex.of(CycleType([]), coeff)
            for length, mult in ct.counts:
                if length > len(polys):
                    raise ValueError(f"no substitute supplied for x{length}")
                for _ in range(mult):
                    term = term * polys[length - 1]
            out = out + term
        return out

    def sorted_terms(self) -> list[tuple[CycleType, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: item[0].counts)

    def __eq__(self, other):
        return isinstance(other, CycleIndex) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for ct, coeff in self.sorted_terms():
            mono = "*".join(f"x{length}^{mult}" for length, mult in ct.counts)
            frac = f"{coeff.numerator}/{coeff.denominator}"
            parts.append(f"{frac}*{mono}" if mono else frac)
        return " + ".join(parts)

    def __repr__(self):
        return f"CycleIndex({str(self)})"

    @classmethod
    def parse(cls, text: str) -> "CycleIndex":
        """Parse the output of __str__ (terms 'N/D*x1^e1*...' joined by +)."""
        out = cls()
        if text.strip() == "0":
            return out
        for chunk in split(text, r"\+"):
            num, den, mono = _TERM(chunk)
            if den < 1:
                raise ValueError(f"bad coefficient in {chunk!r}")
            out._add_term(CycleType.parse(mono or "1"), Fraction(num, den))
        if len({ct.degree() for ct in out.terms}) > 1:
            raise ValueError(f"mixed degrees in cycle index {text!r}")
        return out


def _sym_substitute(deltas: list[CycleIndex],
                    cap: int = DEFAULT_CAP) -> CycleIndex:
    """Z(Sym(d)) with x_k -> deltas[k-1], d = len(deltas), expanded.

    Z_0 = 1 and n*Z_n = sum_{k=1..n} deltas[k-1] * Z_(n-k).  Level n has at
    most sum_k |deltas[k-1]| * |Z_(n-k)| terms; a bound above cap raises
    before the level forms any product.
    """
    levels = [CycleIndex.of(CycleType([]))]
    for n in range(1, len(deltas) + 1):
        pairs = list(zip(deltas, reversed(levels)))  # (delta_k, Z_(n-k))
        bound = sum(len(delta.terms) * len(z.terms) for delta, z in pairs)
        if bound > cap:
            raise ValueError(f"level {n} of the Sym(d) recurrence may have "
                             f"{bound} terms, which exceeds the cap {cap}")
        level = CycleIndex()
        for delta, z in pairs:
            for ct1, c1 in delta.terms.items():
                c1 /= n
                for ct2, c2 in z.terms.items():
                    level._add_term(ct1.mul(ct2), c1 * c2)
        levels.append(level)
    return levels[-1]


def ci_sym(d: int, cap: int = DEFAULT_CAP) -> CycleIndex:
    """Cycle index of Sym(d): the recurrence with x_k -> x_k."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return _sym_substitute([CycleIndex.of(CycleType([(k, 1)]))
                            for k in range(1, d + 1)], cap)


def cc_sym(d: int) -> CycleIndex:
    """Cycle counter of Sym(d) (d! times the cycle index)."""
    return ci_sym(d).scale(math.factorial(d))


def ci_regular(m: int) -> CycleIndex:
    """Cycle index of the regular representation of Z/mZ."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return CycleIndex([(CycleType([(o, m // o)]), Fraction(phi(o), m))
                       for o in divisors(m)])


def ci_hol_pp(p: int, k: int) -> CycleIndex:
    """Cycle index of Hol(Z/p^kZ): cycle_type_pp averaged over the units
    (grouped by signature) and the translations (grouped by valuation)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _affine_counter(p, k, [(sig, signature_count(p**k, ((p, k, sig),)))
                                  for sig in signatures_pp(p, k)],
                           p**k * phi(p**k))


def ci_hol(m: int) -> CycleIndex:
    """Cycle index of Hol(Z/mZ): star product over the CRT prime powers."""
    out = CycleIndex.of(CycleType([(1, 1)]))
    for p, k in factorize(m):
        out = out.star(ci_hol_pp(p, k))
    return out


def polya_compose(ci_top: CycleIndex, ci_base: CycleIndex) -> CycleIndex:
    """Cycle index of the imprimitive wreath product base wr top.

    Substitutes the i-stretched base cycle index for x_i in the top group's
    cycle index and expands.
    """
    d = ci_top.degree()
    return ci_top.substitute([ci_base.stretch(i) for i in range(1, d + 1)])


def ci_gcp(d: int, m: int, cap: int = DEFAULT_CAP) -> CycleIndex:
    """Cycle index of W(d,m) = Hol(Z/mZ) wr Sym(d).

    For m = (q-1)/d this is the cycle index of the group of index-d
    generalized cyclotomic permutations of F_q restricted to F_q^*.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    hol = ci_hol(m)
    return _sym_substitute([hol.stretch(k) for k in range(1, d + 1)], cap)


def ci_focp(d: int, m: int, cap: int = DEFAULT_CAP) -> CycleIndex:
    """Cycle index of W1(d,m) = (Z/mZ)_reg wr Sym(d) (first-order case)."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    reg = ci_regular(m)
    return _sym_substitute([reg.stretch(k) for k in range(1, d + 1)], cap)


# -- unit signatures, the affine case table, equal-multiplier subgroup -------

def signatures_pp(p: int, k: int) -> list:
    """All unit signatures mod p^k, deterministically ordered.

    Odd p: divisors of phi(p^k) ascending.  p = 2: the single (0, 1) for
    k <= 1; otherwise pairs (eps, o2) with o2 | 2^(k-2), ordered by
    (o2, eps).
    """
    if p == 2:
        if k <= 1:
            return [(0, 1)]
        return [(eps, o2) for o2 in divisors(2 ** (k - 2)) for eps in (0, 1)]
    return divisors(phi(p**k))


def signature_of(m: int, a: int) -> tuple:
    """Unit signature vector of a mod m: ((p, k, sig), ...) per prime power.

    Mod 2^k, k >= 2: eps = [a = 3 mod 4], and as nu_2(5^e - 1) = 2 + nu_2(e),
    5^e = (-1)^eps * a has order 2^(k - min(k, nu_2((-1)^eps * a - 1))).
    """
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    out = []
    for p, k in factorize(m):
        pk = p**k
        if p > 2:
            out.append((p, k, multiplicative_order(a % pk, pk)))
        elif k == 1:
            out.append((p, k, (0, 1)))
        else:
            eps = 1 if a % 4 == 3 else 0
            five_e = (-a if eps else a) % pk
            out.append((p, k, (eps, 2 ** (k - nu_cap(2, k, five_e - 1)))))
    return tuple(out)


def signature_pow(p: int, k: int, sig, ell: int):
    """Signature of a^ell given the signature of a."""
    if p == 2:
        eps, o2 = sig
        return (eps * (ell % 2), o2 // math.gcd(o2, ell))
    return sig // math.gcd(sig, ell)


def signature_count(m: int, sigvec) -> int:
    """Number of units of Z/mZ with the given signature vector."""
    return math.prod(phi(sig[1] if p == 2 else sig) for p, _, sig in sigvec)


def cycle_type_pp(p: int, k: int, sig, v: int) -> CycleType:
    """Cycle type of x -> ax + b on Z/p^kZ, for a unit a of signature sig
    and v = min(nu_p(b), k): the one affine case table.

    * a = 1 mod p (mod 4 if p = 2), of order p^s, so nu_p(a-1) = t = k-s:
      p^v cycles of length p^(k-v) if v < t, else (as for x -> ax) p^t
      fixed points and p^(t-1)(p-1) cycles of each length p^u, u <= s;
    * odd p, a of order o' * p^s with 1 < o' | p-1: as x -> ax for all b;
    * p = 2, a = -5^e with 5^e of order o2: cycles of length 2*o2 for odd
      b; for even b, with o = max(2, o2) the order of a, 2 fixed points,
      2^k/o - 1 two-cycles and 2^(k-1)/o cycles of each length 2^u,
      2 <= u <= nu_2(o).
    """
    q = p**k
    if p == 2:
        eps, o2 = sig
        if eps:
            if v == 0:
                return CycleType([(2 * o2, q // (2 * o2))])
            o = max(2, o2)
            ct = {1: 2, 2: q // o - 1}
            for u in range(2, nu(2, o) + 1):
                ct[2**u] = q // (2 * o)
            return CycleType(ct)
        s = nu(2, o2)
    else:
        s = nu(p, sig)
        o_prime = sig // p**s
        if o_prime > 1:
            ct = {1: 1, o_prime: (p ** (k - s) - 1) // o_prime}
            for u in range(1, s + 1):
                ct[o_prime * p**u] = p ** (k - 1 - s) * (p - 1) // o_prime
            return CycleType(ct)
    t = k - s
    if v < t:
        return CycleType([(p ** (k - v), p**v)])
    ct = {1: p**t}
    for u in range(1, s + 1):
        ct[p**u] = p ** (t - 1) * (p - 1)
    return CycleType(ct)


def _affine_counter(p: int, k: int, weighted_sigs, order: int = 1) -> CycleIndex:
    """Sum over (sig, w) of w/order times the cycle counter of
    {x -> ax + b : b in Z/p^kZ}, a of signature sig.

    p^(k-v) values of b have nu_p(b) >= v.  From v = top on the type no
    longer depends on v; below top, if a = 1 mod p (mod 4 for p = 2), it
    is p^v cycles of length p^(k-v) whatever the order of a, and is keyed
    by the signature of 1.  Each key's cycle type is built once.
    """
    counts: dict = {}
    for sig, weight in weighted_sigs:
        if p == 2:
            one, like_one = (0, 1), not sig[0]
            top = k - nu(2, sig[1]) if like_one else 1
        else:
            s = nu(p, sig)
            one, like_one = 1, sig == p**s
            top = k - s if like_one else 0
        keys = [((one if like_one else sig, v), p ** (k - v) - p ** (k - v - 1))
                for v in range(top)] + [((sig, top), p ** (k - top))]
        for key, n in keys:
            counts[key] = counts.get(key, 0) + weight * n
    out = CycleIndex()
    for (low, v), n in counts.items():
        out._add_term(cycle_type_pp(p, k, low, v), Fraction(n, order))
    return out


def affine_counter_pp(p: int, k: int, sig) -> CycleIndex:
    """Cycle counter of {x -> ax+b : b in Z/p^kZ} for any unit a with the
    given signature.  Coefficients sum to p^k; degree p^k.
    """
    if sig not in signatures_pp(p, k):
        raise ValueError(f"{sig} is not a valid signature mod {p}^{k}")
    return _affine_counter(p, k, [(sig, 1)])


def affine_counter(m: int, sigvec, ell: int, counters=None) -> CycleIndex:
    """Cycle counter of {x -> a^ell x + b : b in Z/mZ}, stretched by ell.

    The star product runs over the prime powers of m with each signature
    raised to the ell-th power; the result is then stretched x_i -> x_{i*ell}.
    Coefficients sum to m.  counters, if given, is a dict that memoizes
    affine_counter_pp by (p, k, sig) across calls; its values are only
    ever read by star, which builds a new CycleIndex.
    """
    if counters is None:
        counters = {}
    out = CycleIndex.of(CycleType([(1, 1)]))
    for p, k, sig in sigvec:
        key = (p, k, signature_pow(p, k, sig, ell))
        if key not in counters:
            counters[key] = affine_counter_pp(*key)
        out = out.star(counters[key])
    return out.stretch(ell)


def ci_cp(d: int, m: int, cap: int = DEFAULT_CAP) -> CycleIndex:
    """Cycle index of the equal-multiplier subgroup W=(d,m) of W(d,m).

    Per unit signature vector, the Sym(d) recurrence with x_ell ->
    affine_counter(m, sig, ell) / m (normalized, as in the ordinary
    wreath composition: raw counters would undercount by m^(d - #cycles)),
    weighted by the number of units with that signature over phi(m).
    """
    if d < 1 or m < 1:
        raise ValueError("need d, m >= 1")
    primes = factorize(m)
    total = CycleIndex()
    counters: dict = {}  # per-prime counters recur across sigvec and ell
    for combo in itertools.product(*[signatures_pp(p, k) for p, k in primes]):
        sigvec = tuple((p, k, sig) for (p, k), sig in zip(primes, combo))
        weight = Fraction(signature_count(m, sigvec), phi(m))
        deltas = [affine_counter(m, sigvec, ell, counters).scale(Fraction(1, m))
                  for ell in range(1, d + 1)]
        for ct, c in _sym_substitute(deltas, cap).terms.items():
            total._add_term(ct, c * weight)
    return total
