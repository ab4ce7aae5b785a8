"""Conjugacy in Hol(Z/mZ) and in the wreath groups, and complete
representative systems for full cycles and involutions.

Hol(Z/mZ): conjugating lam(a,b) yields lam(a, (1-a)z + c*b) for z in
Z/mZ and units c, so two maps are conjugate iff their multipliers agree
and their translation parts lie in the same orbit; the minimal orbit
member is the canonical class id.  It has a closed form: with
g = gcd(1-a, m) it is gcd(b, g), or 0 when g | b.  Modulo g the orbit
is the set of x with gcd(x, g) = gcd(b, g), because units mod m map
onto units mod g; its least member is gcd(b, g), or 0 when that is g.
So class ids and conjugacy cost a few gcds, with no factorization.
lam(a,b) is an m-cycle iff a = 1 (mod rad'(m)) and gcd(b, m) = 1 (the
classical full-period criterion for linear congruential generators).

W(d,m) = Hol wr Sym(d): two elements are conjugate iff their top
permutations have equal cycle type and, for every length l, the
multisets of Hol-conjugacy classes of forward cycle products along
l-cycles agree.  For the equal-multiplier subgroup W=(d,m) the same
test plus equality of the multipliers decides conjugacy *within*
W=(d,m); note that W(d,m)-conjugacy is strictly coarser (a conjugator
with non-constant components can change the multiplier), so the two
modes genuinely differ.  invariant_of lays the invariant out from the
integer cycle products; conjugacy_invariant and the oracle's check of
representative systems both call it, and distinguished_by names the
part of it that tells two elements apart.

Representative systems, one construction per kind for all three groups:

* long cycles: L_a = ((0..d-1); lam(a,1), rest, ..., rest) with rest =
  lam(a,0) in W= and the identity otherwise, for a = 1 + j*rad'(m)
  (W, m/rad'(m) classes), a = 1 (W1), or every unit a with
  a^d = 1 (mod rad'(m)) (W=);
* involutions: psi = (0,1)(2,3)...(2k-2,2k-1) with lam(a,0) on the 2k
  paired coordinates and a sorted multiset from a pool of Hol
  involution class representatives on the d-2k fixed ones; per k one
  block (a, pool): (1, all classes) in W, (1, the classes lam(1,b),
  b in {0, m/2}) in W1, and one block per involution unit a with the
  classes of multiplier a in W=.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .arith import crt_basis, factorize, rad_prime, units
from .field import CyclotomicContext
from .wreath import (AffineMapZ, CosetPerm, WreathElem, fcp,
                     wreath_to_cyclotomic)


def full_cycle_test(m: int):
    """The test (a, b) -> whether x -> ax+b is an m-cycle on Z/mZ, for
    a unit a: a = 1 (mod rad'(m)) and gcd(b, m) = 1.  rad'(m) is taken
    once, when the test is made."""
    rp = rad_prime(m)
    return lambda a, b: (a - 1) % rp == 0 and math.gcd(b, m) == 1


def knuth_is_full_cycle(a: int, b: int, m: int) -> bool:
    """True iff x -> ax+b is an m-cycle on Z/mZ (see full_cycle_test)."""
    if math.gcd(a, m) != 1:
        raise ValueError(f"multiplier {a} is not a unit mod {m}")
    return full_cycle_test(m)(a, b)


class HolClassId(NamedTuple):
    """Canonical conjugacy class label in Hol(Z/mZ)."""

    m: int
    a: int
    b_canon: int


def hol_class_id_of(m: int, a: int, b: int) -> HolClassId:
    """Minimal member of the orbit {(1-a)z + c*b} as the class label of
    lam(a, b), for 0 <= a, b < m.

    With step = gcd(1-a, m) the minimum is gcd(b, step), or 0 when
    step | b: modulo step the orbit is {x : gcd(x, step) = gcd(b, step)},
    since units mod m map onto units mod step.
    """
    step = math.gcd((1 - a) % m, m)
    b_canon = math.gcd(b, step)
    return HolClassId(m, a, 0 if b_canon == step else b_canon)


def hol_class_id(g: AffineMapZ) -> HolClassId:
    """The class label of g in Hol(Z/mZ) (see hol_class_id_of)."""
    return hol_class_id_of(g.m, g.a, g.b)


def hol_conjugate(g: AffineMapZ, h: AffineMapZ) -> bool:
    """Conjugacy in Hol(Z/mZ): equal class ids."""
    if g.m != h.m:
        raise ValueError(f"modulus mismatch: {g.m} vs {h.m}")
    return hol_class_id(g) == hol_class_id(h)


def conjugacy_invariant(g: WreathElem, mode: str = "W"):
    """Hashable complete invariant for wreath conjugacy.

    mode 'W': (cycle type of psi, per-length sorted class ids of forward
    cycle products).  mode 'Weq' (conjugacy within the equal-multiplier
    subgroup): additionally the common multiplier; input must have
    constant multipliers.
    """
    if mode not in ("W", "Weq"):
        raise ValueError(f"unknown mode {mode!r}")
    multiplier = None
    if mode == "Weq":
        multipliers = {m.a for m in g.maps}
        if len(multipliers) != 1:
            raise ValueError("Weq mode needs a constant multiplier")
        multiplier = multipliers.pop()
    cycles = g.psi.cycles()
    products = [fcp(g, cycle) for cycle in cycles]
    return invariant_of(g.psi.cycle_type(), [len(c) for c in cycles],
                        [(p.a, p.b) for p in products], g.m, multiplier)


def invariant_of(psi_type, lengths, products, m: int, multiplier=None):
    """conjugacy_invariant from its parts: psi's cycle type, the length
    of each cycle of psi, the forward cycle product along it as an
    integer pair (a, b) with 0 <= a, b < m, and the common multiplier in
    mode 'Weq' (None in mode 'W')."""
    by_len: dict[int, list[HolClassId]] = {}
    for length, (a, b) in zip(lengths, products):
        by_len.setdefault(length, []).append(hol_class_id_of(m, a, b))
    fingerprint = tuple(sorted(
        (length, tuple(sorted(ids))) for length, ids in by_len.items()))
    if multiplier is None:
        return (psi_type, fingerprint)
    return (psi_type, multiplier, fingerprint)


def distinguished_by(g: WreathElem, h: WreathElem, mode: str = "W"):
    """None if g and h are conjugate (in W(d,m) for mode 'W', within
    W=(d,m) for 'Weq'), else the first part of their invariants that
    differs: 'psi-cycle-type', 'multiplier' (mode 'Weq') or
    'cycle-product-classes(l=L)' for the least such cycle length L."""
    if (g.d, g.m) != (h.d, h.m):
        raise ValueError(f"shapes differ: {(g.d, g.m)} vs {(h.d, h.m)}")
    (psi_g, *mult_g, by_g), (psi_h, *mult_h, by_h) = (
        conjugacy_invariant(x, mode) for x in (g, h))
    if psi_g != psi_h:
        return "psi-cycle-type"
    if mult_g != mult_h:
        return "multiplier"
    by_g, by_h = dict(by_g), dict(by_h)
    lengths = [length for length in sorted(by_g.keys() | by_h.keys())
               if by_g.get(length) != by_h.get(length)]
    return f"cycle-product-classes(l={lengths[0]})" if lengths else None


def wreath_conjugate(g: WreathElem, h: WreathElem, mode: str = "W") -> bool:
    """Conjugacy test: in W(d,m) for mode 'W', within W=(d,m) for 'Weq'."""
    return distinguished_by(g, h, mode) is None


def hol_involution_reps_pp(p: int, k: int) -> list[tuple[int, int]]:
    """Involution conjugacy class representatives in Hol(Z/p^kZ), as (a, b)."""
    pk = p**k
    if p > 2:
        return [(1, 0), (pk - 1, 0)]
    if k == 1:
        return [(1, 0), (1, 1)]
    if k == 2:
        return [(1, 0), (1, 2), (3, 0), (3, 1)]
    half = pk // 2
    return [(1, 0), (1, half), (pk - 1, 0), (pk - 1, 1),
            (half - 1, 0), (half + 1, 0)]


def hol_involution_reps(m: int) -> list[AffineMapZ]:
    """Involution conjugacy class representatives in Hol(Z/mZ).

    Per-prime-power representatives combined through the effective CRT;
    all output normalized to least nonnegative residues.
    """
    if m == 1:
        return [AffineMapZ.identity(1)]
    fac = factorize(m)
    basis = crt_basis([p**k for p, k in fac])
    per_prime = [hol_involution_reps_pp(p, k) for p, k in fac]
    out = []
    for combo in itertools.product(*per_prime):
        a = sum(ai * Mi for (ai, _), Mi in zip(combo, basis)) % m
        b = sum(bi * Mi for (_, bi), Mi in zip(combo, basis)) % m
        out.append(AffineMapZ(m, a, b))
    return out


def is_long_cycle(g: WreathElem) -> bool:
    """True iff g is a (d*m)-cycle: psi a single d-cycle whose forward
    cycle product satisfies the full-cycle criterion."""
    cycles = g.psi.cycles()
    if len(cycles) != 1:
        return False
    prod = fcp(g, cycles[0])
    return knuth_is_full_cycle(prod.a, prod.b, prod.m)


def is_involution_elem(g: WreathElem) -> bool:
    """True iff g*g is the identity (the identity itself counts): psi an
    involution, paired components mutually inverse, fixed components
    involutions in Hol."""
    if not g.psi.is_involution():
        return False
    for cycle in g.psi.cycles():
        if len(cycle) == 2:
            i, j = cycle
            if g.maps[j] != g.maps[i].inverse():
                return False
        else:
            if not g.maps[cycle[0]].is_involution():
                return False
    return True


def classify_wreath(g: WreathElem) -> str:
    """'identity' | 'long-cycle' | 'involution' | 'neither'."""
    if g.is_identity():
        return "identity"
    if is_long_cycle(g):
        return "long-cycle"
    if is_involution_elem(g):
        return "involution"
    return "neither"


class RepSystem(NamedTuple):
    group: str  # 'W' | 'W1' | 'Weq'
    kind: str   # 'long-cycle' | 'involution'
    d: int
    m: int
    reps: tuple


def rep_system(group: str, kind: str, d: int, m: int) -> RepSystem:
    """Complete system of conjugacy class representatives of the given
    kind in W(d,m), W1(d,m) or W=(d,m)."""
    if group not in ("W", "W1", "Weq"):
        raise ValueError(f"unknown group {group!r}")
    if kind not in ("long-cycle", "involution"):
        raise ValueError(f"unknown kind {kind!r}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if kind == "long-cycle":
        rp = rad_prime(m)
        if group == "W":
            multipliers = [1 + j * rp for j in range(m // rp)]
        elif group == "W1":
            multipliers = [1]
        else:
            multipliers = [a for a in units(m) if pow(a, d, rp) == 1 % rp]
        cycle = CosetPerm.from_cycles(d, [tuple(range(d))])
        reps = []
        for a in multipliers:
            rest = AffineMapZ(m, a if group == "Weq" else 1, 0)
            reps.append(WreathElem(cycle, (AffineMapZ(m, a, 1),)
                                   + (rest,) * (d - 1)))
        return RepSystem(group, kind, d, m, tuple(reps))
    classes = sorted(hol_involution_reps(m), key=lambda g: (g.a, g.b))
    if group == "W":
        blocks = [(1, classes)]
    elif group == "W1":
        blocks = [(1, [g for g in classes if g.a == 1 % m])]
    else:
        blocks = [(a, list(pool))
                  for a, pool in itertools.groupby(classes, lambda g: g.a)]
    reps = []
    for k in range(d // 2 + 1):
        psi = CosetPerm.from_cycles(d, [(2 * j, 2 * j + 1) for j in range(k)])
        for a, pool in blocks:
            paired = (AffineMapZ(m, a, 0),) * (2 * k)
            for combo in itertools.combinations_with_replacement(
                    pool, d - 2 * k):
                reps.append(WreathElem(psi, paired + combo))
    return RepSystem(group, kind, d, m, tuple(reps))


def reps_as_cyclotomic(system: RepSystem, ctx: CyclotomicContext) -> list:
    """Representative systems at field level, in cyclotomic form.

    Maps the wreath representatives of a system over m = (q-1)/d (W for
    GCP, W1 for FOCP, W= for CP) through the form isomorphism.  Every
    output is verified to be a permutation form of the system's kind
    (full cycle on F_q^* resp. involution), by materializing it; a
    failure raises ValueError.
    """
    from .oracle import materialize  # oracle imports this module
    lengths = {ctx.field.q - 1} if system.kind == "long-cycle" else {1, 2}
    out = []
    for g in system.reps:
        form = wreath_to_cyclotomic(g, ctx)
        ct = materialize(form).cycle_type()
        if not {length for length, _ in ct.counts} <= lengths:
            raise ValueError(f"representative {g} maps to {form}, which "
                             f"is not a {system.kind} (cycle type {ct})")
        out.append(form)
    return out
