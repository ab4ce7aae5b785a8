"""Elementary algebra the benchmark uses to build inputs and their answers.

Everything here works on integers: a field element is named by its
discrete log E (it is w^E), a wreath element over Z/mZ is a pair
``(psi, maps)`` with ``psi`` the image list of a permutation of
{0..d-1} and ``maps`` a list of ``(a, b)`` for x -> a*x + b.  The only
field arithmetic needed is for polynomial coefficients that collect more
than one term; those go through the package's field once, at generation
time.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rem1(n: int, m: int) -> int:
    """n mod m normalised into {1, ..., m}."""
    r = n % m
    return r if r else m


def random_unit(rng, m: int) -> int:
    while True:
        a = rng.randrange(1, m) if m > 1 else 0
        if math.gcd(a, m) == 1:
            return a


def random_perm(rng, d: int) -> list[int]:
    images = list(range(d))
    rng.shuffle(images)
    return images


def perm_cycles(images) -> list[tuple[int, ...]]:
    """Disjoint cycles, minimal element first, sorted by it."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = images[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = images[j]
        out.append(tuple(cycle))
    return out


def perm_str(images) -> str:
    cycles = [c for c in perm_cycles(images) if len(c) > 1]
    if not cycles:
        return "id"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def perm_cycle_type(images) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in perm_cycles(images)))


def cycle_type_str(counts: dict[int, int]) -> str:
    """'x1^3*x2^2' with exponent 1 omitted, '1' for the empty type."""
    if not counts:
        return "1"
    return "*".join(f"x{length}" if mult == 1 else f"x{length}^{mult}"
                    for length, mult in sorted(counts.items()))


# -- wreath elements over Z/mZ -------------------------------------------------

def affine_compose(g, h, m):
    """g then h: lam(a,b)*lam(c,e) = lam(a*c, c*b + e)."""
    (a, b), (c, e) = g, h
    return (a * c % m, (c * b + e) % m)


def affine_inverse(g, m):
    a, b = g
    a_inv = pow(a, -1, m) if m > 1 else 0
    return (a_inv, -a_inv * b % m)


def wreath_compose(g, h, m):
    """(psi, maps) * (sigma, maps'): apply g first, then h."""
    psi, gm = g
    sigma, hm = h
    sigma_inv = [0] * len(sigma)
    for i, img in enumerate(sigma):
        sigma_inv[img] = i
    images = [sigma[psi[i]] for i in range(len(psi))]
    maps = [affine_compose(gm[sigma_inv[i]], hm[i], m)
            for i in range(len(psi))]
    return images, maps


def wreath_inverse(g, m):
    psi, maps = g
    inv = [0] * len(psi)
    for i, img in enumerate(psi):
        inv[img] = i
    return inv, [affine_inverse(maps[psi[i]], m) for i in range(len(psi))]


def wreath_str(g, m) -> str:
    psi, maps = g
    return f"({perm_str(psi)}; " + ", ".join(
        f"lam({a},{b})@{m}" for a, b in maps) + ")"


def forward_cycle_product(g, cycle, m):
    psi, maps = g
    acc = maps[cycle[0]]
    for i in cycle[1:]:
        acc = affine_compose(acc, maps[i], m)
    return acc


def hol_class(a: int, b: int, m: int) -> int:
    """Least member of the Hol(Z/mZ)-orbit of the translation part.

    Conjugates of lam(a,b) are lam(a, (1-a)z + c*b) for units c, so the
    orbit of b is the set of x with gcd(x, g) = gcd(b, g), g = gcd(1-a, m);
    its least member is gcd(b, g), or 0 when g divides b.
    """
    g = math.gcd((1 - a) % m, m)
    h = math.gcd(b, g)
    return 0 if h == g else h


def wreath_cycle_type(g, m) -> str:
    """Cycle type of g on (Z/mZ) x {0..d-1} by walking every point."""
    psi, maps = g
    n = len(psi) * m
    seen = bytearray(n)
    counts: dict[int, int] = {}
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        idx = start
        while not seen[idx]:
            seen[idx] = 1
            j = psi[idx // m]
            a, b = maps[j]
            idx = (a * (idx % m) + b) % m + m * j
            length += 1
        counts[length] = counts.get(length, 0) + 1
    return cycle_type_str(counts)


# -- the form isomorphism, on discrete logs ----------------------------------------

def wreath_to_form(g, q: int):
    """Cyclotomic form (A, r) of g, A_i the log of a_i.

    Over C the component maps are c -> w^(d*b) c^s with s = rem1(a, m);
    the form is a_i = w^(psi(i) - i*s_psi(i)) * w^(d*b_psi(i)),
    r_i = s_psi(i).
    """
    psi, maps = g
    d = len(psi)
    n = q - 1
    m = n // d
    logs, exps = [], []
    for i in range(d):
        j = psi[i]
        a, b = maps[j]
        s = rem1(a, m)
        logs.append((j - i * s + d * b) % n)
        exps.append(s)
    return logs, exps


def form_str(logs, exps) -> str:
    a = ",".join("0" if e is None else f"w^{e}" for e in logs)
    return f"f(a=[{a}], r=[{','.join(map(str, exps))}])"


def wreath_c_str(g, q: int) -> str:
    """The wreath element over C as the package prints it."""
    psi, maps = g
    d = len(psi)
    m = (q - 1) // d
    return f"({perm_str(psi)}; " + ", ".join(
        f"lam({rem1(a, m)},w^{d * b % (q - 1)})" for a, b in maps) + ")"


class FieldLogs:
    """Discrete logs in one field, through the package's field (generation only)."""

    def __init__(self, p: int, k: int):
        from cycloperm.field import dlog, make_field
        self.cfg = make_field(p, k)
        self.q = p**k
        self._dlog = dlog

    def log(self, x) -> int:
        return self._dlog(self.cfg, self.cfg.omega, x)

    def poly_terms(self, logs, exps) -> dict[int, int]:
        """{degree: log of coefficient} of the polynomial form, by the DFT
        (1/d) sum_{i,j} zeta^(-ij) a_i T^(j*m + r_i); a None log is a 0 branch."""
        cfg = self.cfg
        n = self.q - 1
        d = len(logs)
        m = n // d
        inv_d = (-self.log(cfg.from_int(d))) % n
        parts: dict[int, list[int]] = {}
        for i in range(d):
            if logs[i] is None:
                continue
            for j in range(d):
                parts.setdefault(j * m + exps[i], []).append(
                    (inv_d + logs[i] - m * i * j) % n)
        out = {}
        for deg, es in parts.items():
            if len(es) == 1:
                out[deg] = es[0]
                continue
            total = cfg.zero
            for e in es:
                total = total + cfg.omega**e
            if not total.is_zero():
                out[deg] = self.log(total)
        return out


def poly_str(terms: dict[int, int]) -> str:
    return " + ".join(f"w^{e}*T^{deg}" for deg, e in sorted(terms.items()))


def parse_poly(text: str) -> dict[int, int]:
    """Parse the package's printed polynomial into {degree: log}."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.split(" + "):
        head, _, tail = term.partition("*T")
        if not head.startswith("w^"):
            raise ValueError(f"bad coefficient in {term!r}")
        deg = 0 if "*T" not in term else (int(tail[1:]) if tail else 1)
        if deg in out:
            raise ValueError(f"degree {deg} printed twice")
        out[deg] = int(head[2:])
    return out


def parse_cycle_index(text: str) -> list[tuple[Fraction, dict[int, int]]]:
    out = []
    for chunk in text.split(" + "):
        parts = chunk.split("*")
        num, _, den = parts[0].partition("/")
        mono = {}
        for part in parts[1:]:
            var, _, exp = part.partition("^")
            mono[int(var[1:])] = int(exp)
        out.append((Fraction(int(num), int(den)), mono))
    return out
