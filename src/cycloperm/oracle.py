"""Brute-force ground truth: materialize anything as an explicit
permutation, enumerate whole groups, and compute cycle types, cycle
indices and conjugacy straight from the definitions.  ``pointwise`` is
the package's one walk over the points of F_q.

Cyclotomic/polynomial forms act on F_q^*, labeled by the discrete-log
index of omega (index e <-> omega^e); wreath elements act on
(Z/mZ) x {0..d-1}, labeled x + m*i.  Enumeration sizes are guarded by
an explicit cap (default 10^7): exceeding it raises instead of
silently truncating.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .arith import phi, units
from .conjugacy import (
    HolClassId,
    conjugacy_invariant,
    is_involution_elem,
    is_long_cycle,
)
from .cycle_index import DEFAULT_CAP, CycleIndex, CycleType
from .wreath import AffineMapZ, CosetPerm, WreathElem


class ExplicitPerm:
    """A bijection on {0, ..., n-1} as a dense image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def cycle_type(self) -> CycleType:
        counts: dict[int, int] = {}
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            counts[length] = counts.get(length, 0) + 1
        return CycleType(counts)

    def compose(self, other: "ExplicitPerm") -> "ExplicitPerm":
        """self then other."""
        return ExplicitPerm(other.images[i] for i in self.images)

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, ExplicitPerm) and other.images == self.images

    def __hash__(self):
        return hash(self.images)


class NotBijective(ValueError):
    """Materialization found a collision; carries a witness pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a bijection: {witness[0]} and {witness[1]} "
                         f"share the image {witness[2]}")


def _check_bijection(images, labels):
    hit: dict[int, int] = {}
    for src, img in enumerate(images):
        if img in hit:
            raise NotBijective((labels(hit[img]), labels(src), img))
        hit[img] = src
    return images


def pointwise(form):
    """(x, form(x)) for x = 0, omega^0, ..., omega^(q-2), each power one
    product after the last; form is a PolyForm or a CyclotomicForm."""
    from .forms import PolyForm, eval_cyclotomic
    if isinstance(form, PolyForm):
        cfg, apply = form.cfg, form.eval
    else:
        cfg, apply = form.ctx.field, lambda x: eval_cyclotomic(form, x)
    yield cfg.zero, apply(cfg.zero)
    x = cfg.one
    for _ in range(cfg.q - 1):
        yield x, apply(x)
        x = x * cfg.omega


def materialize(obj) -> ExplicitPerm:
    """Explicit permutation of a cyclotomic form, a polynomial form
    (both on F_q^*, discrete-log labeling) or a wreath element (on
    (Z/mZ) x {0..d-1}, pair labeling x + m*i).  Raises NotBijective
    with two colliding points (0 among them when a form sends w^e to 0),
    and ValueError when a form does not fix 0."""
    from .forms import CyclotomicForm, PolyForm
    if isinstance(obj, AffineMapZ):
        return ExplicitPerm(_check_bijection(
            [obj.apply(x) for x in range(obj.m)], lambda x: x))
    if isinstance(obj, WreathElem):
        d, m = obj.d, obj.m
        images = []
        for idx in range(d * m):
            x, i = idx % m, idx // m
            y, j = obj.apply((x, i))
            images.append(y + m * j)
        return ExplicitPerm(_check_bijection(
            images, lambda idx: (idx % m, idx // m)))
    if isinstance(obj, (CyclotomicForm, PolyForm)):
        walk = pointwise(obj)
        zero, y = next(walk)
        if not y.is_zero():
            raise ValueError("the map does not fix 0: P(0) != 0")
        table = zero.cfg.dlog_table()
        images = []
        for e, (_, y) in enumerate(walk):
            if y.is_zero():
                raise NotBijective(("0", f"w^{e}", "0"))
            images.append(table[y.packed])
        return ExplicitPerm(_check_bijection(images, lambda e: f"w^{e}"))
    raise TypeError(f"cannot materialize {type(obj).__name__}")


def group_order(group: str, d: int, m: int) -> int:
    hol = phi(m) * m
    return {
        "Hol": hol,
        "W": math.factorial(d) * hol**d,
        "W1": math.factorial(d) * m**d,
        "Weq": math.factorial(d) * phi(m) * m**d,
    }[group]


def enumerate_hol(m: int, cap: int = DEFAULT_CAP):
    """All of Hol(Z/mZ), each element exactly once."""
    if group_order("Hol", 1, m) > cap:
        raise ValueError(f"|Hol(Z/{m}Z)| exceeds the cap {cap}")
    for a in units(m):
        for b in range(m):
            yield AffineMapZ(m, a, b)


def enumerate_group(group: str, d: int, m: int, cap: int = DEFAULT_CAP):
    """Stream Hol(Z/mZ), W(d,m), W1(d,m) or Weq(d,m), each element
    exactly once: per psi, all component tuples from each map pool."""
    if group == "Hol":
        yield from enumerate_hol(m, cap)
        return
    if group not in ("W", "W1", "Weq"):
        raise ValueError(f"unknown group {group!r}")
    if group_order(group, d, m) > cap:
        raise ValueError(f"|{group}({d},{m})| exceeds the cap {cap}")
    if group == "W":
        pools = [[AffineMapZ(m, a, b) for a in units(m) for b in range(m)]]
    elif group == "W1":
        pools = [[AffineMapZ(m, 1, b) for b in range(m)]]
    else:  # one pool per common multiplier
        pools = [[AffineMapZ(m, a, b) for b in range(m)] for a in units(m)]
    for images in itertools.permutations(range(d)):
        psi = CosetPerm(images)
        for pool in pools:
            for maps in itertools.product(pool, repeat=d):
                yield WreathElem(psi, maps)


def ci_brute(elements, size: int | None = None) -> CycleIndex:
    """Cycle index of a set of group elements, by materializing each one.

    Cycle types are tallied with integer counts and divided once at the
    end, so the result is independent of enumeration order.
    """
    tally: Counter[CycleType] = Counter()
    total = 0
    for g in elements:
        tally[materialize(g).cycle_type()] += 1
        total += 1
    if size is not None and size != total:
        raise ValueError(f"expected {size} elements, saw {total}")
    return CycleIndex({ct: Fraction(n, total) for ct, n in tally.items()})


def hol_class_id_brute(g: AffineMapZ) -> HolClassId:
    """Hol(Z/mZ) class id by search: the least member of the orbit
    {(1-a)z + c*b}, over w = (1-a)z in steps of gcd(1-a, m) and over
    all units c."""
    m = g.m
    if g.b == 0:
        return HolClassId(m, g.a, 0)
    step = math.gcd((1 - g.a) % m, m)
    unit_list = units(m)
    best = min((w + c * g.b) % m
               for w in range(0, m, step)
               for c in unit_list)
    return HolClassId(m, g.a, best)


def check_rep_system(system, cap: int = DEFAULT_CAP) -> None:
    """Completeness of a representative system, by enumerating its group.

    Raises ValueError unless every rep has the claimed property, no two
    reps are conjugate, every element of that kind is conjugate to
    exactly one rep, and every rep's class has an element in the group.
    """
    mode = "Weq" if system.group == "Weq" else "W"
    predicate = is_long_cycle if system.kind == "long-cycle" else is_involution_elem
    for g in system.reps:
        if not predicate(g):
            raise ValueError(f"representative {g} lacks the claimed property")
    index = {conjugacy_invariant(g, mode): i for i, g in enumerate(system.reps)}
    if len(index) != len(system.reps):
        raise ValueError("representatives are not pairwise non-conjugate")
    matched = set()
    for g in enumerate_group(system.group, system.d, system.m, cap):
        if predicate(g):
            i = index.get(conjugacy_invariant(g, mode))
            if i is None:
                raise ValueError(f"element {g} matches no representative")
            matched.add(i)
    if len(matched) != len(system.reps):
        raise ValueError("a representative's class has no group element")


def conjugate_brute(g, h, group_elements) -> bool:
    """True iff some k in the group satisfies k^-1 * g * k = h."""
    for k in group_elements:
        if k.inverse().compose(g).compose(k) == h:
            return True
    return False
