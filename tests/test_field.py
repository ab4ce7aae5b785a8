import itertools
import math
import random
import re
import sys
import threading
from types import SimpleNamespace

import pytest

from cycloperm.arith import factorize, is_prime
from cycloperm.field import (
    CONWAY_TABLE,
    CyclotomicContext,
    FqConfig,
    default_modulus,
    dlog,
    make_field,
    _is_irreducible,
)
from test_kernels import tuple_mul
from tests_helpers import default_modulus_unscreened


def test_make_field_conway_f25(f25):
    # T^2 - T + 2 over F_5, omega = class of T
    assert list(f25.modulus) == [2, 4, 1]
    assert f25.omega.coeffs == (0, 1)


def test_make_field_prime_field():
    cfg = make_field(5, 1)
    # least primitive root mod 5 is 2
    assert cfg.omega.coeffs == (2,)


def test_make_field_rejects_reducible():
    # T^2 + 1 = (T+2)(T+3) over F_5
    with pytest.raises(ValueError, match="reducible"):
        make_field(5, 2, modulus=[1, 0, 1])


def test_make_field_rejects_nonprimitive_omega(f25):
    with pytest.raises(ValueError, match="primitive"):
        make_field(5, 2, omega=f25.omega**2)


def test_conway_table_entries_are_primitive():
    for (p, k), modulus in CONWAY_TABLE.items():
        assert _is_irreducible(modulus, p)
        cfg = make_field(p, k)  # construction verifies omega = class of x
        assert list(cfg.modulus) == list(modulus)
        assert cfg.omega.coeffs == (0, 1) + (0,) * (k - 2)


def reference_default_modulus(p, k):
    """The search default_modulus replaced: the first irreducible
    candidate that an FqConfig with omega = x accepts."""
    for tail in itertools.product(range(p), repeat=k):
        cand = tuple(tail) + (1,)
        if cand[0] == 0 or not _is_irreducible(cand, p):
            continue
        try:
            FqConfig(p, k, cand, (0, 1) + (0,) * (k - 2))
        except ValueError:
            continue
        return cand


NON_CONWAY_UP_TO_2_12 = [
    (p, k) for p in range(2, 65) if is_prime(p)
    for k in range(2, 13) if p**k <= 2**12 and (p, k) not in CONWAY_TABLE]


def test_default_modulus_equals_the_reference_search():
    assert len(NON_CONWAY_UP_TO_2_12) == 25
    for p, k in NON_CONWAY_UP_TO_2_12:
        assert default_modulus(p, k) == reference_default_modulus(p, k), (p, k)


NON_CONWAY_UP_TO_2_14 = [
    (p, k) for p in range(2, 129) if is_prime(p)
    for k in range(2, 15) if p**k <= 2**14 and (p, k) not in CONWAY_TABLE]


def test_the_root_screen_keeps_the_least_primitive_modulus():
    # the screen runs for p < 17, up to 13^3 here; from p = 17 on the
    # search is the unscreened one
    assert {(2, 14), (5, 6), (13, 3), (53, 2), (127, 2)} <= set(
        NON_CONWAY_UP_TO_2_14)
    for p, k in NON_CONWAY_UP_TO_2_14:
        assert default_modulus(p, k) == default_modulus_unscreened(p, k), (p, k)


def test_default_modulus_recorded_values():
    # recorded from the reference search
    assert default_modulus(2, 13) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)
    assert default_modulus(2, 14) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0,
                                      1, 1)
    assert default_modulus(2, 15) == (1,) + (0,) * 13 + (1, 1)
    assert default_modulus(2, 16) == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
                                      1, 1, 0, 1)
    assert default_modulus(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)
    assert default_modulus(2, 24) == (1,) + (0,) * 19 + (1, 1, 0, 1, 1)
    assert default_modulus(3, 8) == (2, 0, 0, 0, 0, 1, 0, 0, 1)
    assert default_modulus(3, 10) == (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)


def monics(p, k):
    """Every monic polynomial of degree k over F_p, as c0..ck, starting
    with x^k."""
    return [tail + (1,) for tail in itertools.product(range(p), repeat=k)]


def reducible_monics(p, k):
    """Every product g*h of monic g, h with 1 <= deg g <= deg h and
    deg g + deg h = k."""
    out = set()
    for i in range(1, k // 2 + 1):
        for g in monics(p, i):
            for h in monics(p, k - i):
                prod = [0] * (k + 1)
                for a, x in enumerate(g):
                    for b, y in enumerate(h):
                        prod[a + b] = (prod[a + b] + x * y) % p
                out.add(tuple(prod))
    return out


def has_order_q_minus_1(ring, omega):
    """Whether the powers of omega in F_p[x]/(f), walked with the tuple
    product, first return to 1 at the (q-1)-th."""
    one = (1,) + (0,) * (ring.k - 1)
    x = omega
    for _ in range(ring.p**ring.k - 2):
        if x == one:
            return False
        x = tuple_mul(ring, x, omega)
    return x == one


@pytest.mark.parametrize("q", [q for q in range(2, 65)
                               if len(factorize(q)) == 1])
def test_fqconfig_accepts_exactly_a_field_and_an_omega_of_order_q_minus_1(q):
    """Every monic f of degree k (x^k first) and every nonzero omega: the
    order test alone must tell fields from other rings, and a rejection
    names "reducible" exactly when f is."""
    ((p, k),) = factorize(q)
    reducible = reducible_monics(p, k)
    omegas = list(itertools.product(range(p), repeat=k))[1:]
    for f in monics(p, k):
        assert _is_irreducible(f, p) == (f not in reducible), f
        ring = SimpleNamespace(p=p, k=k, modulus=f)
        for omega in omegas:
            want = f not in reducible and has_order_q_minus_1(ring, omega)
            try:
                FqConfig(p, k, f, omega)
            except ValueError as exc:
                assert not want, (f, omega, exc)
                assert ("reducible" in str(exc)) == (f in reducible), (f, omega)
            else:
                assert want, (f, omega)


def test_arith_examples(f25):
    w = f25.omega
    assert w**12 == -f25.one
    assert w**24 == f25.one
    assert w * w**23 == f25.one
    assert (w**5 + w**5) == f25.from_int(2) * w**5
    assert (w**7 - w**7).is_zero()
    assert (w**3 / w**3) == f25.one
    with pytest.raises(ZeroDivisionError):
        f25.one / f25.zero


def test_power_enumeration_covers_units():
    for q in (4, 5, 7, 8, 9, 16, 25, 27, 49):
        ((p, k),) = factorize(q)
        cfg = make_field(p, k)
        seen = set()
        acc = cfg.one
        for _ in range(q - 1):
            seen.add(acc.coeffs)
            acc = acc * cfg.omega
        assert len(seen) == q - 1
        assert acc == cfg.one  # omega^(q-1) = 1


def test_dlog_examples(f25):
    w = f25.omega
    assert dlog(f25, w, w**5) == 5
    assert dlog(f25, w**2, w**2) == 1
    with pytest.raises(ValueError):
        dlog(f25, w**2, w)  # omega is outside the index-2 subgroup


def test_dlog_random():
    cfg = make_field(3, 3)
    rng = random.Random(7)
    for _ in range(1000):
        e = rng.randrange(0, 2000)
        base_exp = rng.choice([1, 2, 13])
        base = cfg.omega**base_exp
        order = 26 // __import__("math").gcd(26, base_exp)
        assert dlog(cfg, base, base**e) == e % order


@pytest.mark.parametrize("p, k", [(5, 2), (3, 3)])
def test_dlog_matches_exhaustive_search(p, k):
    cfg = make_field(p, k)
    elems = [cfg.zero] + [cfg.omega**e for e in range(cfg.q - 1)]
    for base in elems:
        powers = [base**e for e in range(cfg.q - 1)]
        for x in elems:
            least = next((e for e, y in enumerate(powers) if y == x), None)
            if base.is_zero() or x.is_zero() or least is None:
                with pytest.raises(ValueError):
                    dlog(cfg, base, x)
            else:
                assert dlog(cfg, base, x) == least


def fresh_powers(q):
    """A field never used before, and omega^0, ..., omega^(q-2) in it."""
    ((p, k),) = factorize(q)
    known = make_field(p, k)
    cfg = FqConfig(p, k, known.modulus, known.omega.coeffs)
    powers = [cfg.one]
    for _ in range(q - 2):
        powers.append(powers[-1] * cfg.omega)
    return cfg, powers


SMALL_Q = (3, 4, 8, 9, 16, 25, 27, 49, 64, 81, 97, 121, 128, 243, 256, 343,
           512, 625, 729, 1021, 1024)


@pytest.mark.parametrize("q", SMALL_Q)
def test_dlogs_match_the_full_table(q):
    for size in (1, 7, q - 1):
        cfg, powers = fresh_powers(q)
        for start in range(0, q - 1, size):
            batch = powers[start:start + size]
            assert cfg.dlogs(batch) == list(range(start, start + len(batch)))


@pytest.mark.parametrize("q", (81, 729, 1024))
def test_dlogs_table_grows_in_steps(q):
    cfg, powers = fresh_powers(q)
    rng = random.Random(q)
    want = 0
    for size in (1, 2, 7, 30, 1, 100, q - 1):
        picks = [rng.randrange(q - 1) for _ in range(size)]
        assert cfg.dlogs(powers[e] for e in picks) == picks
        want = max(want, math.isqrt(size * (q - 1) - 1) + 1)
        assert len(cfg._logs) == min(want, q - 1)
    assert cfg.dlog_table() == {x.packed: e for e, x in enumerate(powers)}


def test_dlogs_from_many_threads():
    cfg, powers = fresh_powers(2048)
    sizes = (1, 3, 40, 700, 2047)
    start = threading.Barrier(len(sizes))
    got = {}

    def work(size):
        start.wait()
        got[size] = [log for i in range(0, len(powers), size)
                     for log in cfg.dlogs(powers[i:i + size])]

    threads = [threading.Thread(target=work, args=(s,)) for s in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {s: list(range(2047)) for s in sizes}


def test_dlogs_reject_zero(f25):
    with pytest.raises(ValueError):
        f25.dlogs([f25.one, f25.zero])
    assert f25.dlogs([]) == []


def test_coset_index_examples(f25, ctx25d2):
    w = f25.omega
    assert ctx25d2.coset_index(w**5) == 1
    assert ctx25d2.coset_index(w**2) == 0
    assert ctx25d2.coset_index(f25.one) == 0
    with pytest.raises(ValueError):
        ctx25d2.coset_index(f25.zero)


def test_coset_index_is_homomorphism(ctx_cache):
    rng = random.Random(3)
    for q, d in ((25, 2), (27, 13), (49, 6)):
        ctx = ctx_cache(q, d)
        w = ctx.field.omega
        for _ in range(200):
            x = w ** rng.randrange(q - 1)
            y = w ** rng.randrange(q - 1)
            assert (ctx.coset_index(x * y)
                    == (ctx.coset_index(x) + ctx.coset_index(y)) % d)


def trial_coset_index(ctx, x):
    """The coset lookup coset_index replaced: the first i with
    (omega^-i x)^m = 1, up to d powers."""
    omega_inv = ctx.field.omega.inverse()
    y = x
    for i in range(ctx.d):
        if y**ctx.m == ctx.field.one:
            return i
        y = y * omega_inv
    raise AssertionError("no coset found")


@pytest.mark.parametrize("q", [q for q in range(2, 257)
                               if len(factorize(q)) == 1])
def test_coset_index_equals_the_trial_loop(q):
    ((p, k),) = factorize(q)
    cfg = make_field(p, k)
    points = [cfg.omega**e for e in range(q - 1)]
    for d in (d for d in range(1, q) if (q - 1) % d == 0):
        ctx = CyclotomicContext(cfg, d)
        for x in points:
            assert ctx.coset_index(x) == trial_coset_index(ctx, x)


def test_zeta_matches_power(ctx_cache):
    for q, d in ((25, 2), (25, 4), (27, 13), (49, 6), (9, 2), (16, 3)):
        ctx = ctx_cache(q, d)
        assert ctx.zeta == ctx.field.omega ** ((q - 1) // d)
        assert ctx.zeta**d == ctx.field.one
        assert ctx.zeta_pows == tuple(ctx.zeta**e for e in range(d))


@pytest.mark.parametrize("q", [q for q in range(2, 257)
                               if len(factorize(q)) == 1] + [2**16, 65537])
def test_omega_pow_matches_the_general_power(q):
    ((p, k),) = factorize(q)
    cfg = make_field(p, k)
    n = q - 1
    rng = random.Random(q)
    exps = [0, 1, -1, n, -n, 2 * n + 3, -(2 * n + 3)]
    exps += [rng.randrange(-3 * q, 3 * q) for _ in range(20)]
    for e in exps:
        assert cfg.omega_pow(e) == cfg.omega ** e, e


def test_context_rejects_bad_divisor(f25):
    with pytest.raises(ValueError):
        CyclotomicContext(f25, 5)


def test_element_io(f25):
    w = f25.omega
    assert f25.elem_str(f25.zero) == "0"
    assert f25.elem_str(w**7) == "w^7"
    assert f25.parse_elem("w^7") == w**7
    assert f25.parse_elem("[3,1]") == f25.from_int(3) + w
    assert f25.parse_elem("2") == f25.from_int(2)
    assert f25.parse_elem("0") == f25.zero
    with pytest.raises(ValueError):
        f25.parse_elem("[1,2,3]")


@pytest.mark.parametrize("text", ["٣", "w^٣", "[٣,1]", "1_0", "+3", "w^+1"])
def test_parse_elem_reads_ascii_integers_only(f25, text):
    # int() would take these: non-ASCII digits, digit grouping, a + sign
    with pytest.raises(ValueError, match=re.escape(
            f"cannot parse field element {text!r}")):
        f25.parse_elem(text)


def test_parse_elem_allows_whitespace_around_marks(f25):
    w = f25.omega
    for text in ("w^3", "w ^3", "w^ 3", " w ^ 3 "):
        assert f25.parse_elem(text) == w**3
    assert f25.parse_elem("[ 3 , -1 ]") == f25.from_int(3) - w
