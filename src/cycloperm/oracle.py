"""Brute-force ground truth: materialize anything as an explicit
permutation (a ``wreath.CosetPerm`` of its labelled points, whose
constructor checks the bijection), enumerate whole groups, and compute
cycle types, cycle indices and conjugacy straight from the definitions.

Cyclotomic/polynomial forms act on F_q^*, labeled by the discrete-log
index of omega (index e <-> omega^e); wreath elements act on
(Z/mZ) x {0..d-1}, labeled x + m*i.  Every walk is integer arithmetic
on lists.  ``image_logs``, the package's one walk over the points of
F_q, works in discrete logs: branch logs for a cyclotomic form, Zech
logarithms for the sums of a polynomial form (``FqConfig.dlog_table``
and ``zech_table``), so it needs no field operation per point.
``forms.PolyForm.eval`` and ``forms.eval_cyclotomic`` remain the field
arithmetic definitions that the tests compare this walk against.  A
wreath element is walked one coset at a time, by the definition
(x, i) -> (g_j(x), j) with j = psi(i).

A wreath group's elements are, per top permutation psi in Sym(d) and
map pool, all d-tuples of pool maps: all of Hol for W, the translations
for W1, one pool per common multiplier for W=, and Hol(Z/mZ) as
W(1, m).  ``enumerate_group`` builds each element from the pools.
``ci_brute_group`` builds none: cosets in different cycles of psi never
mix, so it walks one block of l cosets per pool and cycle length l over
every l-tuple of pool maps, each block checked to be a bijection, and
multiplies the blocks' cycle-type tallies along the cycles of each psi.
``check_rep_system`` builds none either, on a passing check.  It
generates the involutions of each involutive psi from per-pool tables
of inverses and involutions instead of filtering every tuple, tests
long-cycle candidates by the full-cycle criterion on their forward
cycle product, and keys each element of the kind by
``conjugacy.invariant_of`` on its cycle products, all composed as
integer pairs (a, b).  The oracle walks points: it
calls none of the cycle-type formulas it is there to check (``fcp``,
``cycle_type_wreath``, the ``ci_*`` closed forms).  Enumeration sizes
are guarded by an explicit cap (default 10^7): exceeding it raises
before any element is visited, instead of silently truncating.
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
    full_cycle_test,
    invariant_of,
    is_involution_elem,
    is_long_cycle,
)
from .cycle_index import DEFAULT_CAP, CycleIndex, CycleType
from .forms import CyclotomicForm, PolyForm
from .wreath import AffineMapZ, CosetPerm, WreathElem


class NotBijective(ValueError):
    """Materialization found a collision; carries a witness pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not a bijection: {witness[0]} and {witness[1]} "
                         f"share the image {witness[2]}")


def _as_perm(images, labels) -> CosetPerm:
    """CosetPerm(images) for a list over {0, ..., n-1} with values in
    that range, or None for a point a form sends to 0.  When it is no
    bijection, NotBijective names a point sent to 0, else the first
    collision: its two points and their image, each through labels."""
    try:
        return CosetPerm(images)
    except ValueError:
        if None in images:
            raise NotBijective(("0", labels(images.index(None)), "0")) from None
        hit: dict[int, int] = {}
        for src, img in enumerate(images):
            if img in hit:
                raise NotBijective((labels(hit[img]), labels(src),
                                    labels(img))) from None
            hit[img] = src
        raise


def _affine_images(g: AffineMapZ, offset: int = 0) -> list[int]:
    """offset + g(x) for x = 0, ..., m-1."""
    a, b, m = g.a, g.b, g.m
    return [(a * x + b) % m + offset for x in range(m)]


# points per block of the polynomial walk: only one block's running sums
# are alive at a time, so its peak memory is the output list
_BLOCK = 4096


def image_logs(form) -> list:
    """The value of a PolyForm or a CyclotomicForm at each point of F_q,
    in the order 0, w^0, ..., w^(q-2): e for w^e, None for 0.

    Integer arithmetic on discrete logs, with n = q-1.  A cyclotomic
    form sends w^e in C_i (i = e mod d) to w^(L(a_i) + r_i*e).  A
    polynomial's term c_j T^j is w^(L(c_j) + j*e) at w^e; terms are
    summed by Zech logarithms, w^a + w^t = w^(a + Z[t-a]), a running
    sum that cancels to 0 restarting at the next term."""
    if isinstance(form, PolyForm):
        cfg = form.cfg
        n, logs, zech = cfg.q - 1, cfg.dlog_table(), cfg.zech_table()
        # on F_q^*, T^0 = T^(q-1): a constant term's log steps by n
        terms = [(logs[c.packed], j or n) for j, c in form.coeffs.items()]
        c0 = form.coeffs.get(0)
        images = [None if c0 is None else logs[c0.packed]]
        for e0 in range(0, n, _BLOCK):
            e1 = min(e0 + _BLOCK, n)
            sums = [None] * (e1 - e0)
            for lc, j in terms:
                sums = [t % n if a is None
                        else None if (z := zech[(t - a) % n]) < 0
                        else (a + z) % n
                        for t, a in zip(range(lc + j * e0, lc + j * e1, j),
                                        sums)]
            images += sums
        return images
    ctx = form.ctx
    n, d, logs = ctx.field.q - 1, ctx.d, ctx.field.dlog_table()
    images = [None] * (n + 1)
    for i, (a, r) in enumerate(zip(form.a, form.r)):
        if not a.is_zero():
            la = logs[a.packed]
            images[1 + i::d] = [(la + r * e) % n for e in range(i, n, d)]
    return images


def materialize(obj) -> CosetPerm:
    """Explicit permutation of a cyclotomic form, a polynomial form
    (both on F_q^*, discrete-log labeling) or a wreath element (on
    (Z/mZ) x {0..d-1}, pair labeling x + m*i).  Raises NotBijective
    with two colliding points and their image (0 among them when a form
    sends w^e to 0), and ValueError when a form does not fix 0."""
    if isinstance(obj, AffineMapZ):
        return _as_perm(_affine_images(obj), lambda x: x)
    if isinstance(obj, WreathElem):
        m = obj.m
        images = []
        for j in obj.psi.images:  # coset i goes to coset j = psi(i)
            images += _affine_images(obj.maps[j], m * j)
        return _as_perm(images, lambda idx: (idx % m, idx // m))
    if isinstance(obj, (CyclotomicForm, PolyForm)):
        at_zero, *images = image_logs(obj)
        if at_zero is not None:
            raise ValueError("the map does not fix 0: P(0) != 0")
        return _as_perm(images, lambda e: f"w^{e}")
    raise TypeError(f"cannot materialize {type(obj).__name__}")


def group_order(group: str, d: int, m: int) -> int:
    hol = phi(m) * m
    orders = {
        "Hol": hol,
        "W": math.factorial(d) * hol**d,
        "W1": math.factorial(d) * m**d,
        "Weq": math.factorial(d) * phi(m) * m**d,
    }
    if group not in orders:
        raise ValueError(f"unknown group {group!r}")
    return orders[group]


def _pools(group: str, d: int, m: int, cap: int) -> list[list[int]]:
    """The map pools of Hol(Z/mZ) or a wreath group, once the name and
    the cap are checked, each as its multipliers: the pool of A is every
    lam(a, b) with a in A.  A wreath group's elements are, per top
    permutation psi, all d-tuples from one pool; Hol is its one pool."""
    if group_order(group, d, m) > cap:
        name = f"Hol(Z/{m}Z)" if group == "Hol" else f"{group}({d},{m})"
        raise ValueError(f"|{name}| exceeds the cap {cap}")
    if group == "W1":
        return [[1]]
    if group == "Weq":  # one pool per common multiplier
        return [[a] for a in units(m)]
    return [units(m)]


def _pool_maps(m: int, multipliers):
    """Stream the pool lam(a, b), a in multipliers, b in Z/mZ."""
    return (AffineMapZ(m, a, b) for a in multipliers for b in range(m))


def enumerate_group(group: str, d: int, m: int, cap: int = DEFAULT_CAP):
    """Stream Hol(Z/mZ), W(d,m), W1(d,m) or Weq(d,m), each element
    exactly once: per psi, all component tuples from each map pool."""
    pools = _pools(group, d, m, cap)
    if group == "Hol":
        yield from _pool_maps(m, pools[0])
        return
    pools = [list(_pool_maps(m, multipliers)) for multipliers in pools]
    for images in itertools.permutations(range(d)):
        psi = CosetPerm(images)
        for pool in pools:
            for maps in itertools.product(pool, repeat=d):
                yield WreathElem(psi, maps)


def _join(left: Counter, right: Counter) -> Counter:
    """Tally of the disjoint unions of a cycle type from left and one
    from right, each counted the product of their counts."""
    out: Counter = Counter()
    for ct, n in left.items():
        for other, k in right.items():
            out[ct.mul(other)] += n * k
    return out


def _cycle_index(tally: Counter, size: int | None) -> CycleIndex:
    """Cycle index of a tally of cycle types, checked against the group
    order when given.

    Cycle types are tallied with integer counts and divided once at the
    end, so the result is independent of enumeration order.
    """
    total = sum(tally.values())
    if size is not None and size != total:
        raise ValueError(f"expected {size} elements, saw {total}")
    return CycleIndex({ct: Fraction(n, total) for ct, n in tally.items()})


def ci_brute(elements, size: int | None = None) -> CycleIndex:
    """Cycle index of a set of group elements, by materializing each one."""
    return _cycle_index(Counter(materialize(g).cycle_type() for g in elements),
                        size)


def ci_brute_group(group: str, d: int, m: int,
                   cap: int = DEFAULT_CAP) -> CycleIndex:
    """ci_brute(enumerate_group(group, d, m, cap), group_order(group, d, m)),
    by a walk over blocks that builds no element object.

    Cosets in different cycles of psi never mix, so an element's cycles
    are the union of the cycles of its blocks, a block being the cosets
    of one l-cycle of psi with the maps on them.  Every coset of an
    element draws its map from the same pool (all of Hol for W, the
    translations for W1, one multiplier's maps for each W= pool), so
    the blocks on any l-cycle, over all l-tuples of pool maps, are the
    blocks on cosets 0..l-1 under the cycle (0 1 ... l-1), relabelled.
    Per pool and length l that one block is walked over every l-tuple
    of pool maps, each block a CosetPerm (the bijection check), and its
    cycle types tallied.  Every psi in Sym(d) is walked for its cycle
    type; per pool, the tallies of a type's cycles multiply, once for
    every psi of that type.  The total count is checked against
    group_order.  Hol and d = 1 walk one block per map, each listed as
    it is needed: a pool of Hol(Z/mZ) holds m*phi(m) maps of m points.
    """
    pools = _pools(group, d, m, cap)
    size = group_order(group, d, m)
    if group == "Hol" or d == 1:
        return _cycle_index(Counter(
            CosetPerm(_affine_images(g)).cycle_type()
            for multipliers in pools for g in _pool_maps(m, multipliers)), size)
    psi_types = Counter(CosetPerm(images).cycle_type()
                        for images in itertools.permutations(range(d)))
    total: Counter = Counter()
    for multipliers in pools:
        pool = list(_pool_maps(m, multipliers))
        blocks = [[_affine_images(g, m * j) for g in pool] for j in range(d)]
        by_length = {}
        for length in range(1, d + 1):
            # coset k goes to coset k+1 mod l, by the map at k+1
            cycle = [*range(1, length), 0]
            tally = Counter(
                CosetPerm(itertools.chain.from_iterable(parts)).cycle_type().counts
                for parts in itertools.product(*[blocks[j] for j in cycle]))
            by_length[length] = {CycleType(counts): n
                                 for counts, n in tally.items()}
        for psi_type, count in psi_types.items():
            product = Counter({CycleType([]): count})
            for length, mult in psi_type.counts:
                for _ in range(mult):
                    product = _join(product, by_length[length])
            total.update(product)
    return _cycle_index(total, size)


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


def cycle_products(cycles, pairs, m: int) -> list[tuple[int, int]]:
    """The forward cycle product g_i0 * g_i1 * ... along each cycle of
    psi, as an integer pair (a, b) mod m, for an element whose component
    maps lam(a, b) are given as pairs (a, b)."""
    out = []
    for cycle in cycles:
        a, b = 1, 0
        for i in cycle:
            ga, gb = pairs[i]
            a, b = a * ga % m, (ga * b + gb) % m
        out.append((a, b))
    return out


def check_rep_system(system, cap: int = DEFAULT_CAP) -> None:
    """Completeness of a representative system, by enumerating its group.

    Raises ValueError unless every rep has the claimed property, no two
    reps are conjugate, every element of that kind is conjugate to
    exactly one rep, and every rep's class has an element in the group.

    Elements of the kind are visited in enumerate_group's order, and
    only they are: no element whose psi is not an involution (not one
    d-cycle) is an involution (a long cycle).  Component maps are
    integer pairs (a, b), listed once per pool.  Involutions are
    generated from per-pool tables of inverses and involutions: the
    first slot of each 2-cycle of psi takes every pool map whose inverse
    is in the pool, the second slot that inverse, and each fixed coset
    every involution of the pool.  Long cycles are tested by the
    full-cycle criterion on the forward cycle product along psi's one
    cycle, from the products of the cycle's stretches before and after
    coset d-1, the slot that varies fastest.  Each element's invariant
    is conjugacy_invariant's, built by invariant_of from its integer
    cycle products (for a long cycle, once per distinct product); a
    WreathElem is built only to name an element that matches no
    representative.
    """
    mode = "Weq" if system.group == "Weq" else "W"
    long_cycle = system.kind == "long-cycle"
    predicate = is_long_cycle if long_cycle else is_involution_elem
    for g in system.reps:
        if not predicate(g):
            raise ValueError(f"representative {g} lacks the claimed property")
    index = {conjugacy_invariant(g, mode): i for i, g in enumerate(system.reps)}
    if len(index) != len(system.reps):
        raise ValueError("representatives are not pairwise non-conjugate")
    d, m = system.d, system.m
    pools = [list(_pool_maps(m, multipliers))
             for multipliers in _pools(system.group, d, m, cap)]
    # per pool: its maps as pairs and, in mode Weq, their one multiplier
    pairs_of = [[(g.a, g.b) for g in pool] for pool in pools]
    multiplier_of = [pairs[0][0] if mode == "Weq" else None
                     for pairs in pairs_of]
    matched = set()

    def match(psi, maps, key):
        i = index.get(key)
        if i is None:
            g = WreathElem(psi, [AffineMapZ(m, a, b) for a, b in maps])
            raise ValueError(f"element {g} matches no representative")
        matched.add(i)

    if long_cycle:
        full_cycle = full_cycle_test(m)
        for images in itertools.permutations(range(d)):
            psi = CosetPerm(images)
            cycles = psi.cycles()
            if len(cycles) != 1:
                continue
            (cycle,) = cycles
            psi_type = psi.cycle_type()
            t = cycle.index(d - 1)
            before, after = cycle[:t], cycle[t + 1:]
            for pairs, multiplier in zip(pairs_of, multiplier_of):
                keys = {}  # a long cycle's key reads only its cycle product
                for prefix in itertools.product(pairs, repeat=d - 1):
                    # the product along the cycle is
                    # lam(a1, b1) * g_{d-1} * lam(a2, b2)
                    (a1, b1), (a2, b2) = cycle_products(
                        (before, after), prefix, m)
                    for ga, gb in pairs:
                        a = a1 * ga * a2 % m
                        b = (a2 * (ga * b1 + gb) + b2) % m
                        if full_cycle(a, b):
                            key = keys.get((a, b))
                            if key is None:
                                key = keys[a, b] = invariant_of(
                                    psi_type, (d,), ((a, b),), m, multiplier)
                            match(psi, prefix + ((ga, gb),), key)
    else:
        tables = []
        for pool in pools:
            inverse = {}
            for g in pool:
                h = g.inverse()
                inverse[g.a, g.b] = (h.a, h.b)
            # the maps whose inverse is in the pool, and the involutions:
            # the maps that are their own inverse
            tables.append(({g: h for g, h in inverse.items() if h in inverse},
                           [g for g, h in inverse.items() if g == h]))
        for images in itertools.permutations(range(d)):
            psi = CosetPerm(images)
            if not psi.is_involution():
                continue
            cycles = psi.cycles()
            psi_type, lengths = psi.cycle_type(), [len(c) for c in cycles]
            for (inverse_of, involutions), multiplier in zip(tables,
                                                             multiplier_of):
                choices = [inverse_of if len(c) == 2 else involutions
                           for c in cycles]
                # each cycle's minimal element is a free slot, so the
                # product of the choices runs in enumeration order
                for picks in itertools.product(*choices):
                    maps = [None] * d
                    for cycle, pick in zip(cycles, picks):
                        maps[cycle[0]] = pick
                        if len(cycle) == 2:
                            maps[cycle[1]] = inverse_of[pick]
                    match(psi, maps, invariant_of(
                        psi_type, lengths, cycle_products(cycles, maps, m),
                        m, multiplier))
    if len(matched) != len(system.reps):
        raise ValueError("a representative's class has no group element")


def conjugate_brute(g, h, group_elements) -> bool:
    """True iff some k in the group satisfies k^-1 * g * k = h."""
    for k in group_elements:
        if k.inverse().compose(g).compose(k) == h:
            return True
    return False


def conjugate_brute_group(group: str, g, h, cap: int = DEFAULT_CAP) -> bool:
    """conjugate_brute over the group of g and h: Hol(Z/mZ) for affine
    maps, W(d,m) or W=(d,m) for wreath elements of shape (d, m).  Above
    the cap it raises before any element is visited."""
    d = 1 if group == "Hol" else g.d
    return conjugate_brute(g, h, enumerate_group(group, d, g.m, cap))
