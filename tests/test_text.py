"""The text formats, read back: a round-trip property and a mutation fuzz.

Property: parse(str(x)) == x for all eight text types, on random
objects over every field with q <= 256 and small d and m.

Fuzz: one- or two-character edits of valid texts.  Each mutated text
either parses to an object that round-trips, or raises a ValueError
that quotes the text or a piece of it (up to whitespace); a value that
is well formed but out of range is named by the constructor check that
refuses it.
"""

import functools
import math
import random
import re
from fractions import Fraction

import pytest

from cycloperm.arith import factorize
from cycloperm.cycle_index import CycleIndex, CycleType
from cycloperm.field import CyclotomicContext, make_field
from cycloperm.forms import CyclotomicForm, PolyForm
from cycloperm.wreath import AffineMapZ, CosetPerm, WreathElem

from tests_helpers import random_form, random_wreath

PRIME_POWERS = [q for q in range(2, 257) if len(factorize(q)) == 1]


@functools.cache
def field(q):
    ((p, k),) = factorize(q)
    return make_field(p, k)


@functools.cache
def context(q, d):
    return CyclotomicContext(field(q), d)


def random_elem(cfg, rng):
    e = rng.randrange(-1, cfg.q - 1)
    return cfg.zero if e < 0 else cfg.omega ** e


def random_poly(cfg, rng):
    degs = rng.sample(range(cfg.q), min(cfg.q, rng.randrange(6)))
    return PolyForm(cfg, {deg: random_elem(cfg, rng) for deg in degs})


def random_context(q, rng):
    d = rng.choice([d for d in range(1, 7) if (q - 1) % d == 0])
    return context(q, d)


def random_coset_perm(rng, n):
    return CosetPerm(rng.sample(range(n), n))


def random_affine(rng, m):
    units = [a for a in range(-m, 2 * m) if math.gcd(a, m) == 1]
    return AffineMapZ(m, rng.choice(units), rng.randrange(-m, 2 * m))


def random_cycle_type(rng, degree):
    """A random cycle type of the given degree."""
    counts, left = {}, degree
    while left:
        length = rng.randrange(1, left + 1)
        counts[length] = counts.get(length, 0) + 1
        left -= length
    return CycleType(counts)


def random_cycle_index(rng):
    degree = rng.randrange(6)
    terms = [(random_cycle_type(rng, degree),
              Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 13)))
             for _ in range(rng.randrange(1, 5))]
    ci = CycleIndex(terms)
    return ci if ci.terms else CycleIndex.of(CycleType([]))


# -- parse(str(x)) == x ----------------------------------------------------

def test_field_elements_round_trip():
    rng = random.Random(1)
    for q in PRIME_POWERS:
        cfg = field(q)
        for x in [cfg.zero, cfg.one, cfg.omega] + [
                random_elem(cfg, rng) for _ in range(8)]:
            assert cfg.parse_elem(str(x)) == x


def test_polynomials_round_trip():
    rng = random.Random(2)
    for q in PRIME_POWERS:
        cfg = field(q)
        for P in [PolyForm.zero(cfg)] + [random_poly(cfg, rng) for _ in range(6)]:
            assert PolyForm.parse(cfg, str(P)) == P


def test_cyclotomic_forms_round_trip():
    rng = random.Random(3)
    for q in PRIME_POWERS:
        for _ in range(4):
            ctx = random_context(q, rng)
            f = random_form(ctx, rng, nonzero=False)
            assert CyclotomicForm.parse(ctx, str(f)) == f


def test_coset_perms_round_trip():
    rng = random.Random(4)
    for n in range(8):
        for _ in range(20):
            psi = random_coset_perm(rng, n)
            assert CosetPerm.parse(n, str(psi)) == psi


def test_affine_maps_round_trip():
    rng = random.Random(5)
    for m in range(1, 40):
        for _ in range(5):
            g = random_affine(rng, m)
            assert AffineMapZ.parse(str(g)) == g


def test_wreath_elements_round_trip():
    rng = random.Random(6)
    for q in PRIME_POWERS:
        for _ in range(3):
            g = random_wreath(random_context(q, rng), rng)
            assert WreathElem.parse(str(g)) == g


def test_cycle_types_round_trip():
    rng = random.Random(7)
    for degree in range(12):
        for _ in range(10):
            ct = random_cycle_type(rng, degree)
            assert CycleType.parse(str(ct)) == ct


def test_cycle_indices_round_trip():
    rng = random.Random(8)
    for _ in range(300):
        ci = random_cycle_index(rng)
        assert CycleIndex.parse(str(ci)) == ci


def spaced(text):
    """text with a space on both sides of every mark and separator."""
    return re.sub(r"([][()=,;*^/@+])", r" \1 ", text)


def test_whitespace_may_stand_around_every_mark():
    # one rule for every format: spacing never changes what a text reads
    rng = random.Random(10)
    ctx = context(25, 2)
    cfg = ctx.field
    for _ in range(20):
        for parse, obj in [
                (cfg.parse_elem, random_elem(cfg, rng)),
                (functools.partial(PolyForm.parse, cfg), random_poly(cfg, rng)),
                (functools.partial(CyclotomicForm.parse, ctx),
                 random_form(ctx, rng, nonzero=False)),
                (functools.partial(CosetPerm.parse, 6), random_coset_perm(rng, 6)),
                (AffineMapZ.parse, random_affine(rng, 12)),
                (WreathElem.parse, random_wreath(ctx, rng)),
                (CycleType.parse, random_cycle_type(rng, 7)),
                (CycleIndex.parse, random_cycle_index(rng))]:
            text = spaced(str(obj))
            assert parse(text) == obj, text


# -- mutation fuzz -----------------------------------------------------------

ALPHABET = "0123456789-+*^/,;:=()[]@ wTxlamfrid٣"
QUOTED = re.compile(r"'([^']*)'")
# the constructors' own checks name the offending value, not the text
RANGE_CHECKS = re.compile("|".join([
    r"cycle label -?\d+ is outside 0\.\.-?\d+",
    r"cycle label -?\d+ repeats",
    r"multiplier -?\d+ is not a unit mod \d+",
    r"modulus must be positive, got -?\d+",
    r"need at least one component map",
    r"component maps have mixed moduli",
    r"exponent -?\d+ outside 1\.\.\d+",
    r"need d=\d+ branch coefficients and exponents",
    r"term degree \d+ exceeds q-1 = \d+",
    r"bad cycle-type entry \(-?\d+, -?\d+\)",
]))


def names_the_text(message: str, text: str) -> bool:
    """A quoted piece of the text, up to whitespace, or a range check."""
    bare = "".join(text.split())
    return bool(RANGE_CHECKS.fullmatch(message)) or any(
        "".join(piece.split()) in bare for piece in QUOTED.findall(message))


def mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 or not chars:
            chars.insert(i, rng.choice(ALPHABET))
        elif edit == 1:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(ALPHABET)
    return "".join(chars)


def fuzz_cases():
    """(name, parse, valid texts) per text type, over a few fields."""
    rng = random.Random(9)
    cases = []
    for q, d in ((7, 2), (25, 2), (27, 13), (256, 5)):
        ctx = context(q, d)
        cfg = ctx.field
        cases += [
            (f"elem-{q}", cfg.parse_elem,
             [str(random_elem(cfg, rng)) for _ in range(4)] + [
                 "[" + ",".join(str(rng.randrange(cfg.p))
                                for _ in range(cfg.k)) + "]"]),
            (f"poly-{q}", functools.partial(PolyForm.parse, cfg),
             [str(random_poly(cfg, rng)) for _ in range(4)]),
            (f"cyclotomic-{q}", functools.partial(CyclotomicForm.parse, ctx),
             [str(random_form(ctx, rng, nonzero=False)) for _ in range(4)]),
            (f"wreath-{q}", WreathElem.parse,
             [str(random_wreath(ctx, rng)) for _ in range(4)]),
        ]
    cases += [
        ("coset-perm", functools.partial(CosetPerm.parse, 6),
         [str(random_coset_perm(rng, 6)) for _ in range(6)]),
        ("affine", AffineMapZ.parse,
         [str(random_affine(rng, rng.randrange(1, 40))) for _ in range(6)]),
        ("cycle-type", CycleType.parse,
         [str(random_cycle_type(rng, rng.randrange(1, 12))) for _ in range(6)]),
        ("cycle-index", CycleIndex.parse,
         [str(random_cycle_index(rng)) for _ in range(6)]),
    ]
    return cases


@pytest.mark.parametrize("name, parse, texts", fuzz_cases(),
                         ids=[case[0] for case in fuzz_cases()])
def test_mutated_texts_parse_back_or_name_the_text(name, parse, texts):
    rng = random.Random(name)
    for _ in range(250):
        text = mutate(rng, rng.choice(texts))
        try:
            obj = parse(text)
        except ValueError as exc:
            assert names_the_text(str(exc), text), (text, str(exc))
        else:
            assert parse(str(obj)) == obj, text
