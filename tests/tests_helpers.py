"""Shared generators and property-suite bodies for randomized tests.

The acceptance suite runs these at the mandated sample sizes; the module
test files reuse them at lighter sizes for quick regression signal.
"""

import math

from cycloperm.conjugacy import (
    conjugacy_invariant,
    is_involution_elem,
    is_long_cycle,
)
from cycloperm.cycle_index import DEFAULT_CAP
from cycloperm.forms import (
    CyclotomicForm,
    PolyForm,
    cyclotomic_to_poly,
    eval_cyclotomic,
    invert_permutation,
    is_permutation_form,
    poly_to_cyclotomic,
)
from cycloperm.oracle import enumerate_group, group_order
from cycloperm.wreath import (
    AffineMapZ,
    CosetPerm,
    WreathElem,
    wreath_to_cyclotomic,
)

# Every W(d,m), W1(d,m) and W=(d,m) with at most 2*10^4 elements and
# m <= 30, d = 1 and m = 1 among them.  W1(2, m) for 30 < m <= 100 is
# the same walk at larger m and would add about 30 s to the suite on a
# 2-vCPU VM.
SMALL_GROUPS = tuple((group, d, m) for group in ("W", "W1", "Weq")
                     for d in range(1, 8) for m in range(1, 31)
                     if group_order(group, d, m) <= 2 * 10**4)


def pointwise(form):
    """(x, form(x)) for x = 0, omega^0, ..., omega^(q-2), by field
    arithmetic: PolyForm.eval or eval_cyclotomic at each point, each
    power one product after the last."""
    if isinstance(form, PolyForm):
        cfg, apply = form.cfg, form.eval
    else:
        cfg, apply = form.ctx.field, lambda x: eval_cyclotomic(form, x)
    yield cfg.zero, apply(cfg.zero)
    x = cfg.one
    for _ in range(cfg.q - 1):
        yield x, apply(x)
        x = x * cfg.omega


def random_form(ctx, rng, nonzero=True):
    w = ctx.field.omega
    d, m, q = ctx.d, ctx.m, ctx.field.q
    a = []
    for _ in range(d):
        if nonzero:
            a.append(w ** rng.randrange(q - 1))
        else:
            e = rng.randrange(q)
            a.append(ctx.field.zero if e == q - 1 else w**e)
    r = tuple(rng.randrange(1, m + 1) for _ in range(d))
    return CyclotomicForm(ctx, tuple(a), r)


def random_permutation_form(ctx, rng):
    w = ctx.field.omega
    d, m, q = ctx.d, ctx.m, ctx.field.q
    coprime = [r for r in range(1, m + 1) if math.gcd(r, m) == 1]
    while True:
        a = tuple(w ** rng.randrange(q - 1) for _ in range(d))
        r = tuple(rng.choice(coprime) for _ in range(d))
        form = CyclotomicForm(ctx, a, r)
        if is_permutation_form(form):
            return form


def random_wreath(ctx, rng):
    """A random element of W(d, m) for the context's d and m."""
    d, m = ctx.d, ctx.m
    psi = CosetPerm(rng.sample(range(d), d))
    coprime = [r for r in range(1, m + 1) if math.gcd(r, m) == 1]
    maps = [AffineMapZ(m, rng.choice(coprime), rng.randrange(m))
            for _ in range(d)]
    return WreathElem(psi, maps)


def run_round_trip_a(ctx, rng, count):
    """form -> poly -> form recovers the same data when all a_i != 0."""
    for _ in range(count):
        f = random_form(ctx, rng, nonzero=True)
        back = poly_to_cyclotomic(cyclotomic_to_poly(f), ctx)
        assert back.a == f.a and back.r == f.r


def run_round_trip_b(ctx, rng, count):
    """poly -> form -> poly is the identity coefficient-wise."""
    for _ in range(count):
        P = cyclotomic_to_poly(random_form(ctx, rng, nonzero=False))
        assert cyclotomic_to_poly(poly_to_cyclotomic(P, ctx)) == P


def run_equivariance(ctx, rng, count):
    """The pairing (b, i) <-> omega^(d*b + i) transports the wreath action
    to the form's action, at every point of F_q^*."""
    q, d = ctx.field.q, ctx.d
    w = ctx.field.omega
    for _ in range(count):
        g = random_wreath(ctx, rng)
        form = wreath_to_cyclotomic(g, ctx)
        for e in range(q - 1):
            y, j = g.apply((e // d, e % d))
            assert w ** (d * y + j) == eval_cyclotomic(form, w**e)


def run_homomorphism(ctx, rng, count):
    """Forms of products compose: apply first factor, then second."""
    q = ctx.field.q
    w = ctx.field.omega
    for _ in range(count):
        g = random_wreath(ctx, rng)
        h = random_wreath(ctx, rng)
        fg = wreath_to_cyclotomic(g, ctx)
        fh = wreath_to_cyclotomic(h, ctx)
        fgh = wreath_to_cyclotomic(g.compose(h), ctx)
        for e in range(q - 1):
            x = w**e
            assert eval_cyclotomic(fgh, x) == eval_cyclotomic(
                fh, eval_cyclotomic(fg, x))


def run_inversion_identity(ctx, rng, count):
    """invert_permutation composes to the identity on all of F_q."""
    for _ in range(count):
        f = random_permutation_form(ctx, rng)
        P = cyclotomic_to_poly(f)
        inv = invert_permutation(f)
        for (x, y), (_, z) in zip(pointwise(P), pointwise(inv)):
            assert inv.eval(y) == x
            assert P.eval(z) == x


def check_rep_system_reference(system, cap=DEFAULT_CAP):
    """oracle.check_rep_system as one loop over enumerate_group, testing
    the predicate on every element: the reference for the per-psi walk."""
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
