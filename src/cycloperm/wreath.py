"""Affine permutation groups of Z/mZ, their imprimitive wreath products
with Sym(d), and exact cycle types.

CosetPerm, a permutation of {0..n-1}, is the package's one permutation
class: psi on the coset labels here, and every explicit permutation
that oracle.materialize builds.  Its constructor is the one check that
an image list is a bijection.

Conventions (used consistently everywhere):

* products are in right-action order: g*h means apply g first, then h;
  for coset permutations (sigma*psi)(i) = psi(sigma(i)), and for affine
  maps lam(a,b)*lam(c,e) = lam(a*c, c*b+e);
* a wreath element (psi, (g_0..g_{d-1})) acts on pairs by
  (x, i) -> (g_{psi(i)}(x), psi(i));
* cycles are written with their minimal element first and listed in
  increasing order of that minimal element.

The cycle type of an affine map x -> ax + b of Z/mZ is computed
exactly: split mod the prime powers p^k of m (CRT), read each per-power
type off the single case table cycle_index.cycle_type_pp, which needs
only the unit signature of a and min(nu_p(b), k), and recombine with
the star product.  The cycle type of a wreath element is the product
over the cycles of psi of the (cycle-length)-stretched type of the
forward cycle product along that cycle.

Wreath elements live over Z/mZ only.  The index-d subgroup C of F_q^*
appears solely in the pairing (b, i) <-> omega^(d*b + i), which labels
F_q^* by (Z/mZ) x {0..d-1} through the generator omega^d of C.
Switching between a wreath element and the cyclotomic form of the
permutation it induces on F_q^* through that pairing is the group
isomorphism behind everything else here; both directions are integer
arithmetic on discrete logs.  A form is a permutation exactly when
its wreath element exists, so cyclotomic_to_wreath is the permutation
check and raises the forms module's Rejected with its reason codes.
"""

from __future__ import annotations

import math

from .arith import nu_cap, rem1
from .cycle_index import CycleType, cycle_type_pp, signature_of
from .field import CyclotomicContext
from .text import pattern, split

_CYCLE = pattern("(&)|id", "cannot parse permutation")
_AFFINE = pattern("lam(#,#)@#", "cannot parse affine map")
_WREATH = pattern("(%;%)", "cannot parse wreath element")


class CosetPerm:
    """A permutation of {0, ..., n-1} as a dense image tuple, checked
    to be one in O(n) on construction."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        # n images are a bijection exactly when they cover 0..n-1.  The
        # message leaves them out: materialize's lists run to 2^20 points.
        if not set(images).issuperset(range(len(images))):
            raise ValueError(f"the images are not a permutation of 0..{len(images) - 1}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "CosetPerm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "CosetPerm":
        """Disjoint cycles over {0..n-1}; ValueError names a label that
        is out of range or repeats."""
        images = list(range(n))
        seen = set()
        for cycle in cycles:
            for pos, i in enumerate(cycle):
                if not 0 <= i < n:
                    raise ValueError(f"cycle label {i} is outside 0..{n - 1}")
                if i in seen:
                    raise ValueError(f"cycle label {i} repeats")
                seen.add(i)
                images[i] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "CosetPerm") -> "CosetPerm":
        """self * other: apply self first, then other."""
        return CosetPerm(other.images[i] for i in self.images)

    def inverse(self) -> "CosetPerm":
        out = [0] * self.n
        for i, img in enumerate(self.images):
            out[img] = i
        return CosetPerm(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, min element first, sorted by that element."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> CycleType:
        counts: dict[int, int] = {}
        images = self.images
        seen = [False] * len(images)
        for start in range(len(images)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j]
                length += 1
            counts[length] = counts.get(length, 0) + 1
        return CycleType(counts)

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def is_involution(self) -> bool:
        return all(self.images[img] == i for i, img in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, CosetPerm) and other.images == self.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "id"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in nontrivial)

    def __repr__(self):
        return f"CosetPerm({str(self)})"

    @classmethod
    def parse(cls, n: int, text: str) -> "CosetPerm":
        cycles = [_CYCLE(c)[0] for c in split(text, r"(?<=\))\s*(?=\()")]
        return cls.from_cycles(n, [c for c in cycles if c])  # 'id' reads as None


class AffineMapZ:
    """x -> a*x + b on Z/mZ, gcd(a, m) = 1, canonical representatives."""

    __slots__ = ("m", "a", "b")

    def __init__(self, m: int, a: int, b: int):
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        a %= m
        if math.gcd(a, m) != 1:
            raise ValueError(f"multiplier {a} is not a unit mod {m}")
        self.m = m
        self.a = a
        self.b = b % m

    @classmethod
    def identity(cls, m: int) -> "AffineMapZ":
        return cls(m, 1, 0)

    def _check(self, other):
        if other.m != self.m:
            raise ValueError(f"modulus mismatch: {self.m} vs {other.m}")

    def apply(self, x: int) -> int:
        return (self.a * x + self.b) % self.m

    def compose(self, other: "AffineMapZ") -> "AffineMapZ":
        """self * other: apply self first, then other."""
        self._check(other)
        return AffineMapZ(self.m, self.a * other.a,
                          other.a * self.b + other.b)

    def inverse(self) -> "AffineMapZ":
        a_inv = pow(self.a, -1, self.m) if self.m > 1 else 0
        return AffineMapZ(self.m, a_inv, -a_inv * self.b)

    def is_identity(self) -> bool:
        return self.a == 1 % self.m and self.b == 0

    def is_involution(self) -> bool:
        """g*g = identity (the identity itself counts)."""
        return self.compose(self).is_identity()

    def __eq__(self, other):
        return (isinstance(other, AffineMapZ) and other.m == self.m
                and other.a == self.a and other.b == self.b)

    def __hash__(self):
        return hash((self.m, self.a, self.b))

    def __str__(self):
        return f"lam({self.a},{self.b})@{self.m}"

    def __repr__(self):
        return f"AffineMapZ({str(self)})"

    @classmethod
    def parse(cls, text: str) -> "AffineMapZ":
        a, b, m = _AFFINE(text)
        return cls(m, a, b)


class WreathElem:
    """(psi, (g_0, ..., g_{d-1})) in Hol(Z/mZ) wr Sym(d): permute copies
    by psi, act per copy."""

    __slots__ = ("psi", "maps")

    def __init__(self, psi: CosetPerm, maps):
        maps = tuple(maps)
        if not maps:
            raise ValueError("need at least one component map")
        if len(maps) != psi.n:
            raise ValueError(f"need {psi.n} component maps, got {len(maps)}")
        if len({g.m for g in maps}) > 1:
            raise ValueError("component maps have mixed moduli")
        self.psi = psi
        self.maps = maps

    @classmethod
    def identity_z(cls, d: int, m: int) -> "WreathElem":
        return cls(CosetPerm.identity(d), [AffineMapZ.identity(m)] * d)

    @property
    def d(self) -> int:
        return self.psi.n

    @property
    def m(self) -> int:
        return self.maps[0].m

    def _check(self, other):
        if other.d != self.d or other.m != self.m:
            raise ValueError("wreath elements have different shapes")

    def compose(self, other: "WreathElem") -> "WreathElem":
        """self * other = (sigma*psi, (g_{psi^-1(i)} * h_i)_i)."""
        self._check(other)
        psi_inv = other.psi.inverse()
        maps = [self.maps[psi_inv(i)].compose(other.maps[i])
                for i in range(self.d)]
        return WreathElem(self.psi.compose(other.psi), maps)

    def inverse(self) -> "WreathElem":
        maps = [self.maps[self.psi(i)].inverse() for i in range(self.d)]
        return WreathElem(self.psi.inverse(), maps)

    def apply(self, point):
        """(x, i) -> (g_{psi(i)}(x), psi(i))."""
        x, i = point
        j = self.psi(i)
        return (self.maps[j].apply(x), j)

    def is_identity(self) -> bool:
        return (self.psi.is_identity()
                and all(g.is_identity() for g in self.maps))

    def __eq__(self, other):
        return (isinstance(other, WreathElem) and other.psi == self.psi
                and other.maps == self.maps)

    def __hash__(self):
        return hash((self.psi, self.maps))

    def __str__(self):
        return wreath_strs([self])[0]

    def __repr__(self):
        return f"WreathElem({str(self)})"

    def str_over_c(self) -> str:
        """The element over C, each lam(a,b)@m printed as
        lam(rem1(a,m),w^(d*b)): b labels omega^(d*b) in C."""
        m = self.m
        return f"({self.psi}; " + ", ".join(
            f"lam({rem1(g.a, m)},w^{self.d * g.b})" for g in self.maps) + ")"

    @classmethod
    def parse(cls, text: str) -> "WreathElem":
        """Parse '(CYCLES; lam(a,b)@m, ...)'."""
        head, tail = _WREATH(text)
        maps = [AffineMapZ.parse(s) for s in split(tail)] if tail.strip() else []
        return cls(CosetPerm.parse(len(maps), head), maps)


def wreath_strs(elems) -> list[str]:
    """Text forms '(psi; g_0, ..., g_{d-1})' of a batch, each distinct
    psi and component map formatted once per call: representative
    systems share a few of each among many elements."""
    texts: dict = {}
    out = []
    for g in elems:
        parts = []
        for part in (g.psi, *g.maps):
            text = texts.get(part)
            if text is None:
                text = texts[part] = str(part)
            parts.append(text)
        out.append(f"({parts[0]}; " + ", ".join(parts[1:]) + ")")
    return out


def fcp(g: WreathElem, cycle) -> AffineMapZ:
    """Forward cycle product g_{i0} * g_{i1} * ... along a cycle of psi.

    The cycle must be one of g.psi.cycles() (minimal element first);
    that is checked by walking psi along it.
    """
    cycle = tuple(cycle)
    images = g.psi.images
    start = cycle[0] if cycle else -1
    if 0 <= start < len(images):
        acc, j = g.maps[start], start
        for i in cycle[1:]:
            j = images[j]
            if i != j or j <= start:  # off psi's path, or not minimal-first
                break
            acc = acc.compose(g.maps[i])
        else:
            if images[j] == start:
                return acc
    raise ValueError(f"{cycle} is not a cycle of {g.psi}")


def cycle_type_affine(g: AffineMapZ) -> CycleType:
    """Exact cycle type on Z/mZ: cycle_type_pp per prime power, star-combined."""
    out = CycleType([(1, 1)])
    for p, k, sig in signature_of(g.m, g.a):
        out = out.star(cycle_type_pp(p, k, sig, nu_cap(p, k, g.b)))
    return out


def cycle_type_wreath(g: WreathElem) -> CycleType:
    """Cycle type on (Z/mZ) x {0..d-1}: product over the cycles of psi of
    the stretched type of the forward cycle product."""
    out = CycleType([])
    for cycle in g.psi.cycles():
        ct = cycle_type_affine(fcp(g, cycle))
        out = out.mul(ct.stretch(len(cycle)))
    return out


# -- switching with cyclotomic forms ------------------------------------------

def wreath_to_cyclotomic(g: WreathElem, ctx: CyclotomicContext):
    """Cyclotomic form of the permutation of F_q^* that g induces through
    the pairing: with j = psi(i), g_j = lam(s, b_j) and s in 1..m,
    a_i = omega^(j - i*s + d*b_j) and r_i = s."""
    from .forms import CyclotomicForm
    if (g.d, g.m) != (ctx.d, ctx.m):
        raise ValueError(f"wreath element over (d, m) = ({g.d}, {g.m}) does "
                         f"not match the context's ({ctx.d}, {ctx.m})")
    omega_pow = ctx.field.omega_pow
    a = []
    r = []
    for i in range(g.d):
        j = g.psi(i)
        s = rem1(g.maps[j].a, ctx.m)  # r_i is in 1..m: a % m is 0 at m = 1
        a.append(omega_pow(j - i * s + ctx.d * g.maps[j].b))
        r.append(s)
    return CyclotomicForm(ctx, a, r)


def cyclotomic_to_wreath(f) -> WreathElem:
    """Wreath element of the form f, which exists exactly when f is a
    permutation: every a_j nonzero, every r_j coprime to m and the coset
    map psi bijective.  With L_j the log of a_j from one dlogs batch,
    branch j maps C_j onto C_psi(j) for psi(j) = (L_j + r_j*j) mod d, and
    component psi(j) is lam(r_j, (L_j + r_j*j - psi(j))/d).  Raises
    forms.Rejected for a non-permutation, screening in that order."""
    from .forms import Rejected  # forms imports this module
    ctx = f.ctx
    d, m = ctx.d, ctx.m
    for j, a in enumerate(f.a):
        if a.is_zero():
            raise Rejected("zero-branch-coefficient", f"a_{j} = 0")
    for j, r in enumerate(f.r):
        if math.gcd(r, m) > 1:
            raise Rejected("exponent-not-coprime",
                           f"gcd(r_{j}={r}, m={m}) > 1")
    exps = [log + r * j
            for j, (log, r) in enumerate(zip(ctx.field.dlogs(f.a), f.r))]
    images = [e % d for e in exps]
    try:
        psi = CosetPerm(images)
    except ValueError:
        raise Rejected("psi-not-bijective", f"images {images}") from None
    return WreathElem(psi, [AffineMapZ(m, f.r[j], exps[j] // d)
                            for j in psi.inverse().images])
