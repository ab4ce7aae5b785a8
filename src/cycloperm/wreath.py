"""Affine permutation groups of Z/mZ and of the subgroup C, their
imprimitive wreath products with Sym(d), and exact cycle types.

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

Switching between a wreath element over C and the cyclotomic form of
the permutation it induces on F_q^* is the group isomorphism behind
everything else here; the pairing is (c, i) <-> c * omega^i.
"""

from __future__ import annotations

import math
import re

from .arith import nu_cap, rem1
from .cycle_index import CycleType, cycle_type_pp, signature_of
from .field import CyclotomicContext, FqElem, dlog


class CosetPerm:
    """Permutation of the coset labels {0, ..., d-1}."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a permutation of 0..{len(images) - 1}")
        self.images = images

    @classmethod
    def identity(cls, d: int) -> "CosetPerm":
        return cls(range(d))

    @classmethod
    def from_cycles(cls, d: int, cycles) -> "CosetPerm":
        images = list(range(d))
        for cycle in cycles:
            for pos, i in enumerate(cycle):
                images[i] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "CosetPerm") -> "CosetPerm":
        """self * other: apply self first, then other."""
        return CosetPerm(other.images[i] for i in self.images)

    def inverse(self) -> "CosetPerm":
        out = [0] * self.d
        for i, img in enumerate(self.images):
            out[img] = i
        return CosetPerm(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, min element first, sorted by that element."""
        seen = [False] * self.d
        out = []
        for start in range(self.d):
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
        return CycleType([(len(c), 1) for c in self.cycles()])

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
    def parse(cls, d: int, text: str) -> "CosetPerm":
        text = text.strip()
        if text == "id":
            return cls.identity(d)
        cycles = []
        for m in re.finditer(r"\(([^()]*)\)", text):
            cycles.append([int(s) for s in m.group(1).split(",")])
        if not cycles:
            raise ValueError(f"cannot parse permutation {text!r}")
        return cls.from_cycles(d, cycles)


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
        m = re.fullmatch(r"lam\((-?\d+),(-?\d+)\)@(\d+)", text.strip())
        if not m:
            raise ValueError(f"cannot parse affine map {text!r}")
        return cls(int(m.group(3)), int(m.group(1)), int(m.group(2)))


class AffineMapC:
    """c -> b * c^r on the index-d subgroup C, gcd(r, m) = 1, b in C."""

    __slots__ = ("ctx", "r", "c")

    def __init__(self, ctx: CyclotomicContext, r: int, c: FqElem):
        r = rem1(r, ctx.m)
        if math.gcd(r, ctx.m) != 1:
            raise ValueError(f"exponent {r} is not coprime to m={ctx.m}")
        if c ** ctx.m != ctx.field.one:
            raise ValueError(f"{c} is not in the index-{ctx.d} subgroup")
        self.ctx = ctx
        self.r = r
        self.c = c

    @classmethod
    def identity(cls, ctx) -> "AffineMapC":
        return cls(ctx, 1, ctx.field.one)

    def apply(self, x: FqElem) -> FqElem:
        return self.c * x**self.r

    def compose(self, other: "AffineMapC") -> "AffineMapC":
        """self * other: apply self first, then other."""
        if other.ctx is not self.ctx:
            raise ValueError("context mismatch")
        return AffineMapC(self.ctx, self.r * other.r,
                          other.c * self.c**other.r)

    def to_z(self) -> AffineMapZ:
        """Rewrite over Z/mZ via the generator omega^d of C (one dlog)."""
        ctx = self.ctx
        gen = ctx.field.omega**ctx.d
        b = dlog(ctx.field, gen, self.c) if not self.c == ctx.field.one else 0
        return AffineMapZ(ctx.m, self.r % ctx.m, b)

    @classmethod
    def from_z(cls, ctx, g: AffineMapZ) -> "AffineMapC":
        """Inverse rewriting: b -> omega^(d*b)."""
        if g.m != ctx.m:
            raise ValueError(f"modulus {g.m} does not match m={ctx.m}")
        return cls(ctx, rem1(g.a, ctx.m), ctx.field.omega ** (ctx.d * g.b))

    def __eq__(self, other):
        return (isinstance(other, AffineMapC) and other.ctx is self.ctx
                and other.r == self.r and other.c == self.c)

    def __hash__(self):
        return hash((self.r, self.c))

    def __str__(self):
        return f"lam({self.r},{self.ctx.field.elem_str(self.c)})"

    def __repr__(self):
        return f"AffineMapC({str(self)})"


class WreathElem:
    """(psi, (g_0, ..., g_{d-1})): permute copies by psi, act per copy."""

    __slots__ = ("flavor", "psi", "maps")

    def __init__(self, psi: CosetPerm, maps):
        maps = tuple(maps)
        if len(maps) != psi.d:
            raise ValueError(f"need {psi.d} component maps, got {len(maps)}")
        if all(isinstance(g, AffineMapZ) for g in maps):
            flavor = "Z"
            if len({g.m for g in maps}) > 1:
                raise ValueError("component maps have mixed moduli")
        elif all(isinstance(g, AffineMapC) for g in maps):
            flavor = "C"
            if len({id(g.ctx) for g in maps}) > 1:
                raise ValueError("component maps have mixed contexts")
        else:
            raise ValueError("component maps have mixed flavors")
        self.flavor = flavor
        self.psi = psi
        self.maps = maps

    @classmethod
    def identity_z(cls, d: int, m: int) -> "WreathElem":
        return cls(CosetPerm.identity(d), [AffineMapZ.identity(m)] * d)

    @classmethod
    def identity_c(cls, ctx) -> "WreathElem":
        return cls(CosetPerm.identity(ctx.d), [AffineMapC.identity(ctx)] * ctx.d)

    @property
    def d(self) -> int:
        return self.psi.d

    @property
    def m(self) -> int:
        return self.maps[0].m if self.flavor == "Z" else self.maps[0].ctx.m

    def _check(self, other):
        if (other.flavor != self.flavor or other.d != self.d
                or other.m != self.m):
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
        if not self.psi.is_identity():
            return False
        if self.flavor == "Z":
            return all(g.is_identity() for g in self.maps)
        return all(g.r % self.m == 1 % self.m
                   and g.c == g.ctx.field.one for g in self.maps)

    def to_z(self) -> "WreathElem":
        if self.flavor == "Z":
            return self
        return WreathElem(self.psi, [g.to_z() for g in self.maps])

    def to_c(self, ctx) -> "WreathElem":
        if self.flavor == "C":
            return self
        return WreathElem(self.psi,
                          [AffineMapC.from_z(ctx, g) for g in self.maps])

    def __eq__(self, other):
        return (isinstance(other, WreathElem) and other.flavor == self.flavor
                and other.psi == self.psi and other.maps == self.maps)

    def __hash__(self):
        return hash((self.psi, self.maps))

    def __str__(self):
        return f"({self.psi}; " + ", ".join(str(g) for g in self.maps) + ")"

    def __repr__(self):
        return f"WreathElem({str(self)})"

    @classmethod
    def parse(cls, text: str, ctx=None) -> "WreathElem":
        """Parse '(CYCLES; lam(a,b)@m, ...)' or, with a context,
        '(CYCLES; lam(r,w^E), ...)'."""
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"cannot parse wreath element {text!r}")
        head, _, tail = text[1:-1].partition(";")
        parts = [s.strip() for s in tail.split(",")] if tail.strip() else []
        # 'lam(a,b)@m' pieces contain a comma; re-join them pairwise
        maps_text = []
        buf = ""
        for part in parts:
            buf = f"{buf},{part}" if buf else part
            if buf.count("(") == buf.count(")"):
                maps_text.append(buf)
                buf = ""
        if buf:
            raise ValueError(f"unbalanced parentheses in {text!r}")
        d = len(maps_text)
        psi = CosetPerm.parse(d, head.strip())
        if all("@" in s for s in maps_text):
            maps = [AffineMapZ.parse(s) for s in maps_text]
        else:
            if ctx is None:
                raise ValueError("need a context to parse maps over C")
            maps = []
            for s in maps_text:
                m = re.fullmatch(r"lam\((-?\d+),(.+)\)", s.strip())
                if not m:
                    raise ValueError(f"cannot parse affine map {s!r}")
                maps.append(AffineMapC(ctx, int(m.group(1)),
                                       ctx.field.parse_elem(m.group(2))))
        return cls(psi, maps)


def fcp(g: WreathElem, cycle) -> "AffineMapZ | AffineMapC":
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
    gz = g.to_z()
    out = CycleType([])
    for cycle in gz.psi.cycles():
        ct = cycle_type_affine(fcp(gz, cycle))
        out = out.mul(ct.stretch(len(cycle)))
    return out


# -- switching with cyclotomic forms ------------------------------------------

def pair_to_field(ctx: CyclotomicContext, c: FqElem, i: int) -> FqElem:
    """(c, i) -> c * omega^i."""
    return c * ctx.field.omega**i


def field_to_pair(ctx: CyclotomicContext, x: FqElem) -> tuple[FqElem, int]:
    """x -> (x * omega^-i, i) with i the coset index of x."""
    i = ctx.coset_index(x)
    return x * ctx.field.omega**(-i), i


def wreath_to_cyclotomic(g: WreathElem):
    """Cyclotomic form of the permutation of F_q^* induced by g over C:
    a_i = omega^(psi(i) - i*s_psi(i)) * b_psi(i), r_i = s_psi(i)."""
    from .forms import CyclotomicForm
    if g.flavor != "C":
        raise ValueError("need a wreath element over C")
    ctx = g.maps[0].ctx
    omega = ctx.field.omega
    a = []
    r = []
    for i in range(g.d):
        j = g.psi(i)
        s = g.maps[j].r
        a.append(omega ** (j - i * s) * g.maps[j].c)
        r.append(rem1(s, ctx.m))
    return CyclotomicForm(ctx, a, r)


def cyclotomic_to_wreath(f, psi: CosetPerm) -> WreathElem:
    """Wreath element over C with the given coset permutation:
    component i is lam(r_{psi^-1(i)}, omega^(r_{psi^-1(i)} psi^-1(i) - i) * a_{psi^-1(i)})."""
    ctx = f.ctx
    omega = ctx.field.omega
    psi_inv = psi.inverse()
    maps = []
    for i in range(ctx.d):
        j = psi_inv(i)
        c = omega ** (f.r[j] * j - i) * f.a[j]
        maps.append(AffineMapC(ctx, f.r[j], c))
    return WreathElem(psi, maps)
