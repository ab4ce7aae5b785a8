"""Polynomial and cyclotomic forms of maps on F_q, and switching between them.

A cyclotomic form (a, r) over a context with subgroup C of index d sends
0 to 0 and x in C_i to a_i * x^(r_i), with each r_i in {1, ..., m},
m = (q-1)/d.  Every such map has a unique polynomial form of degree at
most q-1, computed by a d-point DFT over the d-th roots of unity:

    (1/d) * sum_{i,j} zeta^(-ij) a_i T^(j*m + r_i).

The reverse direction groups the coefficients of the candidate
polynomial by the {1..m}-normalized remainders of their degrees and
inverts the Vandermonde system; the (i, j) entry of
d * V(1, zeta^-1, ..., zeta^-(d-1))^-1 is just zeta^(ij), so recovery
is an O(d^2) exact DFT, no linear algebra needed (d is invertible in
F_q because d | q-1).

Non-form inputs are reported by raising ``Rejected`` (a ValueError)
with a machine readable reason code mirroring the halting conditions of
the decision procedure.  poly_to_cyclotomic raises the first four; the
last three come from wreath.cyclotomic_to_wreath, since a form is a
permutation exactly when its wreath form exists:

    nonzero-constant-term   constant term of the input is not 0
    too-many-terms          more than d^2 nonzero terms
    too-many-remainders     more than d distinct degree remainders
    not-a-partition         grouped coefficient supports overlap
    zero-branch-coefficient permutation check: some a_i = 0
    exponent-not-coprime    permutation check: gcd(r_i, m) > 1
    psi-not-bijective       induced coset map is not a bijection

Also here: the inverse of a permutation form in polynomial form, which
is the inverse of its wreath form switched back, and the affine-shift
variant that peels a constant off the polynomial first.
"""

from __future__ import annotations

from .arith import rem1
from .field import CyclotomicContext, FqElem
from .text import SUM, pattern, split
from .wreath import (CosetPerm, WreathElem, cyclotomic_to_wreath,
                     wreath_to_cyclotomic)

_POWER = pattern("T{^#}", "cannot parse term")
_FORM = pattern("f(a=[%],r=[&])", "cannot parse cyclotomic form")


class Rejected(ValueError):
    """Input is not (the polynomial form of) a cyclotomic map/permutation."""

    form = None  # analyze_permutation's recovered form, if not a permutation

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


class PolyForm:
    """Sparse polynomial of degree <= q-1 over F_q: ``coeffs`` maps each
    degree with a nonzero coefficient to it, in ascending degree."""

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg, coeffs):
        """coeffs: a {degree: FqElem} mapping; zero coefficients are dropped."""
        for deg in coeffs:
            if not 0 <= deg < cfg.q:
                raise ValueError(f"degree {deg} outside 0..q-1 = {cfg.q - 1}")
        self.cfg = cfg
        self.coeffs = {deg: c for deg, c in sorted(coeffs.items())
                       if not c.is_zero()}

    @classmethod
    def zero(cls, cfg) -> "PolyForm":
        return cls(cfg, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return next(reversed(self.coeffs), 0)

    def coeff(self, deg: int) -> FqElem:
        return self.coeffs.get(deg, self.cfg.zero)

    def terms(self) -> list[tuple[int, FqElem]]:
        """Nonzero (degree, coefficient) pairs, ascending degree."""
        return list(self.coeffs.items())

    def eval(self, x: FqElem) -> FqElem:
        """Horner evaluation over the gaps between stored degrees; each
        distinct gap's power of x is computed once."""
        acc, last, steps = self.cfg.zero, self.degree(), {}
        for deg, c in reversed(self.coeffs.items()):
            gap = last - deg
            step = steps.get(gap)
            if step is None:
                step = steps[gap] = x**gap
            acc = acc * step + c
            last = deg
        return acc * x**last

    def __eq__(self, other):
        return (isinstance(other, PolyForm) and other.cfg is self.cfg
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for deg, cs in zip(self.coeffs,
                           self.cfg.elem_strs(self.coeffs.values())):
            if deg == 0:
                parts.append(cs)
            elif deg == 1:
                parts.append(f"{cs}*T")
            else:
                parts.append(f"{cs}*T^{deg}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PolyForm({str(self)})"

    @classmethod
    def parse(cls, cfg, text: str) -> "PolyForm":
        """Parse 'COEF*T^DEG' terms joined by + or -; 'T' means T^1,
        a bare COEF is the constant term, a bare 'T^D' has coefficient 1."""
        coeffs: dict[int, FqElem] = {}
        for raw in split(text, SUM) if text.strip() else []:
            term = raw.strip()
            if not term:  # beside a + sign
                raise ValueError(f"cannot parse polynomial {text!r}: "
                                 "empty term")
            negate = term.startswith("-")
            head, t, tail = term[negate:].partition("T")
            deg = 0
            if t:
                head = head.strip().removesuffix("*").strip()
                if head.endswith("*"):
                    raise ValueError(f"cannot parse polynomial {text!r}: "
                                     "more than one '*' before T")
                (deg,) = _POWER(t + tail)
                deg = 1 if deg is None else deg
                if deg < 0:
                    raise ValueError(f"cannot parse term {raw!r}")
            coef = cfg.one if t and not head else cfg.parse_elem(head)
            if deg >= cfg.q:
                raise ValueError(f"term degree {deg} exceeds q-1 = {cfg.q - 1}")
            coeffs[deg] = coeffs.get(deg, cfg.zero) + (-coef if negate else coef)
        return cls(cfg, coeffs)


class CyclotomicForm:
    """The pair (a, r): x -> a_i x^(r_i) on the coset C_i, 0 -> 0."""

    __slots__ = ("ctx", "a", "r")

    def __init__(self, ctx: CyclotomicContext, a, r):
        a = tuple(a)
        r = tuple(r)
        if len(a) != ctx.d or len(r) != ctx.d:
            raise ValueError(f"need d={ctx.d} branch coefficients and exponents")
        for ri in r:
            if not 1 <= ri <= ctx.m:
                raise ValueError(f"exponent {ri} outside 1..{ctx.m}")
        self.ctx = ctx
        self.a = a
        self.r = r

    @classmethod
    def identity(cls, ctx) -> "CyclotomicForm":
        one = ctx.field.one
        return cls(ctx, (one,) * ctx.d, (1,) * ctx.d)

    def __eq__(self, other):
        return (isinstance(other, CyclotomicForm) and other.ctx is self.ctx
                and other.a == self.a and other.r == self.r)

    def __hash__(self):
        return hash((self.a, self.r))

    def __str__(self):
        return cyclotomic_strs([self])[0]

    def __repr__(self):
        return f"CyclotomicForm({str(self)})"

    @classmethod
    def parse(cls, ctx, text: str) -> "CyclotomicForm":
        a, r = _FORM(text)
        return cls(ctx, [ctx.field.parse_elem(s) for s in split(a)], r)


def cyclotomic_strs(forms) -> list[str]:
    """Text forms 'f(a=[...], r=[...])' of a batch of forms over one
    field, every branch coefficient formatted through one elem_strs call."""
    forms = list(forms)
    if not forms:
        return []
    coeffs = iter(forms[0].ctx.field.elem_strs(
        ai for f in forms for ai in f.a))
    return [f"f(a=[{','.join(next(coeffs) for _ in f.a)}], "
            f"r=[{','.join(map(str, f.r))}])" for f in forms]


class PermutationAnalysis:
    """Verdict of the permutation check: the form and its wreath form."""

    __slots__ = ("form", "wreath")

    def __init__(self, form: CyclotomicForm, wreath: WreathElem):
        self.form = form
        self.wreath = wreath

    @property
    def psi(self) -> CosetPerm:
        """The coset map: the wreath form's permutation of the cosets."""
        return self.wreath.psi


def eval_cyclotomic(f: CyclotomicForm, x: FqElem) -> FqElem:
    """Apply the piecewise map: 0 at 0, a_i x^(r_i) on C_i."""
    if x.is_zero():
        return f.ctx.field.zero
    i = f.ctx.coset_index(x)
    return f.a[i] * x ** f.r[i]


def cyclotomic_to_poly(f: CyclotomicForm) -> PolyForm:
    """Polynomial form (1/d) sum_{i,j} zeta^(-ij) a_i T^(j*m + r_i)."""
    ctx = f.ctx
    cfg = ctx.field
    d, m = ctx.d, ctx.m
    inv_d = cfg.from_int(d).inverse()
    coeffs: dict[int, FqElem] = {}
    for i in range(d):
        if f.a[i].is_zero():
            continue
        scaled = inv_d * f.a[i]
        for j in range(d):
            deg = j * m + f.r[i]
            coeffs[deg] = (coeffs.get(deg, cfg.zero)
                           + scaled * ctx.zeta_pows[-i * j % d])
    return PolyForm(cfg, coeffs)


def poly_to_cyclotomic(P: PolyForm, ctx: CyclotomicContext) -> CyclotomicForm:
    """Decide whether P is the polynomial form of an index-d cyclotomic map
    and recover a canonical (a, r) if so; raise Rejected otherwise.

    Branches with a_i = 0 receive the minimal exponent occurring among the
    nonzero branches (they land in the first remainder group), which is the
    normalization the round-trip guarantees rely on.
    """
    cfg = ctx.field
    d, m = ctx.d, ctx.m
    if P.cfg is not cfg:
        raise ValueError("polynomial belongs to a different field")
    if not P.coeff(0).is_zero():
        raise Rejected("nonzero-constant-term")
    if P.is_zero():
        return CyclotomicForm(ctx, (cfg.zero,) * d, (1,) * d)
    terms = P.terms()
    if len(terms) > d * d:
        raise Rejected("too-many-terms", f"{len(terms)} > d^2 = {d * d}")
    rhos = sorted({rem1(deg, m) for deg, _ in terms})
    if len(rhos) > d:
        raise Rejected("too-many-remainders", f"{len(rhos)} > d = {d}")
    # b_l = d * V(1, zeta^-1, ...)^-1 v_l, via the DFT identity: the (i, j)
    # entry of that matrix is zeta^(ij)
    zeta_pows = ctx.zeta_pows
    b = []
    for rho in rhos:
        v = [P.coeff(j * m + rho) for j in range(d)]
        b.append([sum((zeta_pows[i * j % d] * v[j] for j in range(d)),
                      cfg.zero) for i in range(d)])
    # branch i belongs to the one group l with b[l][i] != 0, or to group 0
    # when there is none
    groups = []
    for i in range(d):
        nz = [l for l in range(len(rhos)) if not b[l][i].is_zero()]
        if len(nz) > 1:
            raise Rejected("not-a-partition")
        groups.append(nz[0] if nz else 0)
    return CyclotomicForm(ctx, (b[l][i] for i, l in enumerate(groups)),
                          (rhos[l] for l in groups))


def analyze_permutation(P: PolyForm, ctx: CyclotomicContext) -> PermutationAnalysis:
    """Full permutation check: recover the form and switch it to wreath
    form, which exists exactly when the form is a permutation.  When
    only the switch rejects, the Rejected carries the recovered form."""
    form = poly_to_cyclotomic(P, ctx)
    try:
        return PermutationAnalysis(form, cyclotomic_to_wreath(form))
    except Rejected as exc:
        exc.form = form
        raise


def is_permutation_form(f: CyclotomicForm) -> bool:
    try:
        cyclotomic_to_wreath(f)
    except Rejected:
        return False
    return True


def invert_permutation(f: CyclotomicForm) -> PolyForm:
    """Polynomial form of the inverse of a permutation form: the inverse
    of its wreath form, switched back to cyclotomic and polynomial form.
    A non-permutation raises Rejected, a ValueError."""
    g = cyclotomic_to_wreath(f).inverse()
    return cyclotomic_to_poly(wreath_to_cyclotomic(g, f.ctx))


def analyze_affine_shift(Q: PolyForm, ctx: CyclotomicContext):
    """Peel the constant b = Q(0) and convert Q - b: returns (b, form),
    representing x -> a_i x^(r_i) + b.  Rejections propagate."""
    b = Q.coeff(0)
    shifted = PolyForm(Q.cfg, {deg: c for deg, c in Q.coeffs.items() if deg})
    return b, poly_to_cyclotomic(shifted, ctx)
