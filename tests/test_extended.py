"""Extended cross-validation beyond the acceptance matrix: deeper prime
powers in the closed formulas, larger wreath shapes, and representative
systems with longer pairings.  Everything is checked against the
brute-force oracle."""

import random

import pytest

from cycloperm.arith import units
from cycloperm.conjugacy import rep_system
from cycloperm.cycle_index import ci_cp, ci_focp, ci_gcp, ci_hol, ci_hol_pp
from cycloperm.oracle import (
    check_rep_system,
    ci_brute,
    enumerate_group,
    group_order,
    materialize,
)
from cycloperm.wreath import AffineMapZ, cycle_type_affine


def test_affine_tables_random_moduli():
    rng = random.Random(0)
    for _ in range(1500):
        m = rng.randrange(2, 200)
        g = AffineMapZ(m, rng.choice(units(m)), rng.randrange(m))
        assert cycle_type_affine(g) == materialize(g).cycle_type()


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (5, 3), (11, 2)])
def test_ci_hol_pp_deeper(p, k):
    assert ci_hol_pp(p, k) == ci_brute(enumerate_group("Hol", 1, p**k))


@pytest.mark.parametrize("m", [36, 48, 60, 100])
def test_ci_hol_composite_deeper(m):
    assert ci_hol(m) == ci_brute(enumerate_group("Hol", 1, m))


@pytest.mark.parametrize("d,m", [(3, 6), (2, 16), (4, 3), (2, 24)])
def test_ci_cp_deeper(d, m):
    brute = ci_brute(enumerate_group("Weq", d, m), group_order("Weq", d, m))
    assert ci_cp(d, m) == brute


@pytest.mark.parametrize("d,m", [(2, 16), (4, 3), (5, 2)])
def test_ci_gcp_focp_deeper(d, m):
    assert ci_focp(d, m) == ci_brute(enumerate_group("W1", d, m))
    if group_order("W", d, m) <= 40000:
        assert ci_gcp(d, m) == ci_brute(enumerate_group("W", d, m))


@pytest.mark.parametrize("d,m", [(2, 16), (4, 3), (3, 6), (4, 4)])
def test_rep_systems_deeper(d, m):
    for group in ("W", "W1", "Weq"):
        for kind in ("long-cycle", "involution"):
            check_rep_system(rep_system(group, kind, d, m))
