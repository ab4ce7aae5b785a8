import argparse
import json
import re

import pytest

from cycloperm import cli, conjugacy, forms
from cycloperm.cli import main
from cycloperm.field import FqConfig
from cycloperm.forms import PolyForm

DEMO_POLY = "w^15*T^5 + w^23*T^7 + w^3*T^17 + w^23*T^19"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_golden(capsys):
    code, out = run(capsys, "analyze", "--p", "5", "--k", "2", "--d", "2",
                    "--poly", DEMO_POLY)
    assert code == 0
    assert out == """\
status: ok
field: q=25 modulus=[2, 4, 1]
d: 2
m: 12
poly: w^15*T^5 + w^23*T^7 + w^3*T^17 + w^23*T^19
cyclotomic: f(a=[w^5,w^21], r=[7,5])
permutation: true
psi: (0,1)
wreath_c: ((0,1); lam(5,w^2), lam(7,w^4))
wreath_z: ((0,1); lam(5,1)@12, lam(7,2)@12)
cycle_type: x4^6
"""


def test_analyze_golden_at_m_1(capsys):
    # d = q-1 gives m = 1: over C every exponent prints as rem1(a, 1) = 1
    # and every translation as w^0, while over Z/1Z both are 0
    code, out = run(capsys, "analyze", "--q", "7", "--d", "6",
                    "--poly", "w^3*T")
    assert code == 0
    assert out == """\
status: ok
field: q=7 modulus=[4, 1]
d: 6
m: 1
poly: w^3*T
cyclotomic: f(a=[w^3,w^3,w^3,w^3,w^3,w^3], r=[1,1,1,1,1,1])
permutation: true
psi: (0,3)(1,4)(2,5)
wreath_c: ((0,3)(1,4)(2,5); lam(1,w^0), lam(1,w^0), lam(1,w^0), \
lam(1,w^0), lam(1,w^0), lam(1,w^0))
wreath_z: ((0,3)(1,4)(2,5); lam(0,0)@1, lam(0,0)@1, lam(0,0)@1, \
lam(0,0)@1, lam(0,0)@1, lam(0,0)@1)
cycle_type: x2^3
"""


def test_analyze_identity(capsys):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2", "--poly", "T")
    assert code == 0
    assert "cycle_type: x1^24" in out
    assert "psi: id" in out


def test_analyze_coefficient_with_a_negative_exponent(capsys):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", "w^-1*T")
    assert code == 0
    assert out == run(capsys, "analyze", "--q", "25", "--d", "2",
                      "--poly", "w^23*T")[1]
    assert "poly: w^23*T" in out


def test_analyze_rejection_exit_code(capsys):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", "T + 1")
    assert code == 2
    assert "status: rejected" in out
    assert "reason: nonzero-constant-term" in out


def test_analyze_non_permutation_map_reports_form(capsys):
    # x -> x^2 on both cosets is a cyclotomic map but not a permutation
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", "T^2", "--format", "structured")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "rejected"
    assert payload["reason"] == "exponent-not-coprime"
    assert payload["permutation"] is False
    assert payload["cyclotomic"] == "f(a=[w^0,w^0], r=[2,2])"


def test_analyze_non_permutation_map_converts_once(capsys, monkeypatch):
    # the rejected permutation check hands back the form it recovered
    real = forms.poly_to_cyclotomic
    calls = []

    def counting(P, ctx):
        calls.append(P)
        return real(P, ctx)

    monkeypatch.setattr(forms, "poly_to_cyclotomic", counting)
    monkeypatch.setattr(cli, "poly_to_cyclotomic", counting)
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", "T^2")
    assert code == 2
    assert len(calls) == 1
    assert out == """\
status: rejected
field: q=25 modulus=[2, 4, 1]
d: 2
m: 12
poly: w^0*T^2
cyclotomic: f(a=[w^0,w^0], r=[2,2])
permutation: false
reason: exponent-not-coprime
"""


def test_analyze_verify(capsys):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", DEMO_POLY, "--verify")
    assert code == 0
    assert "verified: true" in out


def test_analyze_structured(capsys):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", DEMO_POLY, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["cyclotomic"] == "f(a=[w^5,w^21], r=[7,5])"
    assert payload["cycle_type"] == "x4^6"


def test_invert_golden(capsys):
    code, out = run(capsys, "invert", "--p", "5", "--k", "2", "--d", "2",
                    "--poly", DEMO_POLY, "--check")
    assert code == 0
    assert out == """\
status: ok
inverse: w^9*T^5 + w^7*T^7 + w^9*T^17 + w^19*T^19
check: identity-ok
"""


def test_invert_identity(capsys):
    code, out = run(capsys, "invert", "--q", "25", "--d", "2", "--poly", "T")
    assert code == 0
    assert "inverse: w^0*T" in out


def test_invert_non_permutation(capsys):
    code, out = run(capsys, "invert", "--q", "25", "--d", "2",
                    "--poly", "w^15*T^5 + w^3*T^17")
    assert code == 2
    assert "zero-branch-coefficient" in out


def test_to_poly_round_trip(capsys):
    code, out = run(capsys, "to-poly", "--q", "25", "--d", "2",
                    "--form", "f(a=[w^5,w^21], r=[7,5])", "--verify")
    assert code == 0
    assert f"poly: {DEMO_POLY}" in out


def test_cycle_index_hol12_golden(capsys):
    code, out = run(capsys, "cycle-index", "--group", "hol", "--m", "12")
    assert code == 0
    assert "cycle_index: 1/8*x1^2*x2^5 + 1/16*x1^4*x2^4 + 1/24*x1^6*x2^3 + " \
           "1/48*x1^12 + 1/4*x2^6 + 1/12*x3^2*x6^1 + 1/24*x3^4 + 1/6*x4^3 " \
           "+ 1/8*x6^2 + 1/12*x12^1" in out
    assert "terms: 10" in out


def test_cycle_index_gcp_terms(capsys):
    code, out = run(capsys, "cycle-index", "--group", "gcp", "--q", "25",
                    "--d", "2")
    assert code == 0
    assert "terms: 54" in out
    assert "degree: 24" in out


def test_cycle_index_sym1(capsys):
    code, out = run(capsys, "cycle-index", "--group", "sym", "--d", "1")
    assert code == 0
    assert "cycle_index: 1/1*x1^1" in out


def test_cycle_index_verify_modes(capsys):
    for argv in (("cycle-index", "--group", "cp", "--d", "2", "--m", "6",
                  "--verify"),
                 ("cycle-index", "--group", "focp", "--d", "2", "--m", "6",
                  "--verify"),
                 ("cycle-index", "--group", "sym", "--d", "5", "--verify"),
                 ("cycle-index", "--group", "reg", "--m", "9", "--verify"),
                 ("cycle-index", "--group", "wreath-brute", "--d", "2",
                  "--m", "4", "--verify")):
        code, out = run(capsys, *argv)
        assert code == 0
        assert "verified: true" in out


def test_cycle_index_sym_verify_respects_cap(capsys):
    """11! = 39916800 permutations exceed the default cap of 10^7: the
    brute-force check refuses at once instead of enumerating them."""
    code, out = run(capsys, "cycle-index", "--group", "sym", "--d", "11",
                    "--verify")
    assert code == 1
    assert "status: error" in out
    assert "exceeds the cap 10000000" in out
    code, out = run(capsys, "cycle-index", "--group", "sym", "--d", "4",
                    "--verify", "--cap", "23")
    assert code == 1
    assert "exceeds the cap 23" in out


def test_cycle_index_refuses_an_oversized_level(capsys):
    """Hol(Z/720720Z) has 15486 terms, so level 2 of the Sym(2) recurrence
    bounds 239831682 terms: refused before a single product is formed."""
    code, out = run(capsys, "cycle-index", "--group", "gcp", "--d", "2",
                    "--m", "720720")
    assert code == 1
    assert "status: error" in out
    assert "may have 239831682 terms, which exceeds the cap 10000000" in out
    code, out = run(capsys, "cycle-index", "--group", "cp", "--d", "2",
                    "--m", "6", "--cap", "3")
    assert code == 1
    assert "exceeds the cap 3" in out


def test_commands_over_f2(capsys):
    for argv, check in ((("to-poly", "--q", "2", "--d", "1", "--form",
                          "f(a=[w^0], r=[1])", "--verify"),
                         "check: pointwise-ok"),
                        (("analyze", "--q", "2", "--d", "1", "--poly", "T",
                          "--verify"), "verified: true"),
                        (("invert", "--q", "2", "--d", "1", "--poly", "T",
                          "--check"), "check: identity-ok")):
        code, out = run(capsys, *argv)
        assert code == 0, out
        assert check in out


def test_cycle_index_param_conflict(capsys):
    code, out = run(capsys, "cycle-index", "--group", "gcp", "--q", "25",
                    "--d", "2", "--m", "11")
    assert code == 1
    assert "status: error" in out


@pytest.mark.parametrize("argv", [
    ("cycle-index", "--group", "gcp", "--q", "10", "--d", "3"),
    ("reps", "--group", "w", "--kind", "long-cycle", "--q", "10", "--d", "3"),
])
def test_q_that_is_not_a_prime_power_is_an_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == "status: error\nmessage: --q 10 is not a prime power\n"


@pytest.mark.parametrize("argv", [
    ("cycle-index", "--group", "gcp", "--q", "25", "--d", "0"),
    ("cycle-index", "--group", "focp", "--q", "25", "--d", "0"),
    ("cycle-index", "--group", "gcp", "--m", "5", "--d", "0"),
    ("cycle-index", "--group", "focp", "--m", "5", "--d", "0"),
    ("reps", "--group", "w", "--kind", "involution", "--d", "0", "--m", "5"),
    ("reps", "--group", "gcp", "--kind", "involution", "--q", "25", "--d", "0"),
])
def test_d_below_1_is_an_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == "status: error\nmessage: --d 0 is not positive\n"


@pytest.mark.parametrize("argv,m", [
    (("reps", "--group", "w", "--kind", "long-cycle", "--d", "2", "--m", "0"), 0),
    (("reps", "--group", "weq", "--kind", "involution", "--d", "2", "--m", "-3",
      "--verify"), -3),
    (("cycle-index", "--group", "gcp", "--d", "2", "--m", "-4"), -4),
    (("cycle-index", "--group", "wreath-brute", "--d", "2", "--m", "0"), 0),
    (("cycle-index", "--group", "hol", "--m", "0"), 0),
    (("cycle-index", "--group", "reg", "--m", "-1", "--verify"), -1),
])
def test_m_below_1_is_an_error(capsys, argv, m):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == f"status: error\nmessage: --m {m} is not positive\n"


@pytest.mark.parametrize("argv", [
    ("reps", "--group", "w", "--kind", "involution", "--q", "25"),
    ("reps", "--group", "gcp", "--kind", "involution", "--q", "25"),
    ("reps", "--group", "gcp", "--kind", "involution", "--p", "5", "--k", "2"),
    ("cycle-index", "--group", "gcp", "--q", "25"),
])
def test_m_conflict_names_q_and_d(capsys, argv):
    # one rule for wreath and field groups, whether q came from --q or
    # from --p/--k
    code, out = run(capsys, *argv, "--d", "2", "--m", "5")
    assert code == 1
    assert out == ("status: error\n"
                   "message: --m 5 conflicts with q=25, d=2 (expected m=12)\n")


def test_field_reps_need_d_before_a_field(capsys):
    code, out = run(capsys, "reps", "--group", "cp", "--kind", "involution")
    assert code == 1
    assert out == "status: error\nmessage: need --d\n"


def test_reps_w_long_cycle_golden(capsys):
    code, out = run(capsys, "reps", "--group", "w", "--kind", "long-cycle",
                    "--d", "2", "--m", "12")
    assert code == 0
    assert out == """\
status: ok
group: w
kind: long-cycle
count: 1
rep: ((0,1); lam(1,1)@12, lam(1,0)@12)
"""


def test_reps_w_involution_verified(capsys):
    code, out = run(capsys, "reps", "--group", "w", "--kind", "involution",
                    "--d", "2", "--m", "12", "--verify")
    assert code == 0
    assert "count: 37" in out
    assert "verified: true" in out


def test_reps_focp_long_cycle(capsys):
    code, out = run(capsys, "reps", "--group", "focp", "--kind", "long-cycle",
                    "--q", "25", "--d", "2")
    assert code == 0
    assert "count: 1" in out
    assert "rep: f(a=[w^1,w^1], r=[1,1])" in out


@pytest.mark.parametrize("group", ["gcp", "focp", "cp"])
@pytest.mark.parametrize("kind", ["long-cycle", "involution"])
def test_reps_at_m_1(capsys, group, kind):
    # d = q-1: each wreath multiplier is 0 mod 1 but the form's exponent 1
    code, out = run(capsys, "reps", "--group", group, "--kind", kind,
                    "--q", "13", "--d", "12")
    assert code == 0, out
    assert "r=[1,1,1,1,1,1,1,1,1,1,1,1]" in out


def test_reps_weq_verified(capsys):
    code, out = run(capsys, "reps", "--group", "weq", "--kind", "involution",
                    "--d", "2", "--m", "6", "--verify")
    assert code == 0
    assert "verified: true" in out


def test_conjugate_hol_table_pair(capsys):
    code, out = run(capsys, "conjugate", "--group", "hol",
                    "lam(5,6)@12", "lam(5,0)@12")
    assert code == 0
    assert "conjugate: false" in out
    assert "distinguished_by: translation-orbit" in out


def test_conjugate_hol_huge_modulus_class_ids(capsys):
    m = 4 * (10**6 + 3) * (10**6 + 33)
    code, out = run(capsys, "conjugate", "--group", "hol", f"lam(-1,5)@{m}",
                    f"lam(-1,2)@{m}", "--format", "structured")
    assert code == 0
    assert json.loads(out) == {
        "status": "ok", "conjugate": False,
        "distinguished_by": "translation-orbit",
        "class_ids": [str((m, m - 1, 1)), str((m, m - 1, 0))]}


def test_conjugate_self(capsys):
    code, out = run(capsys, "conjugate", "--group", "w",
                    "((0,1); lam(5,1)@12, lam(7,2)@12)",
                    "((0,1); lam(5,1)@12, lam(7,2)@12)")
    assert code == 0
    assert "conjugate: true" in out


def test_conjugate_constructed(capsys):
    # h = g conjugated by ((0,1); lam(1,3)@12, lam(5,0)@12)
    from cycloperm.wreath import AffineMapZ, CosetPerm, WreathElem
    g = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(12, 5, 1), AffineMapZ(12, 7, 2)])
    k = WreathElem(CosetPerm((1, 0)),
                   [AffineMapZ(12, 1, 3), AffineMapZ(12, 5, 0)])
    h = k.inverse().compose(g).compose(k)
    code, out = run(capsys, "conjugate", "--group", "w", str(g), str(h))
    assert code == 0
    assert "conjugate: true" in out


def test_conjugate_psi_mismatch_named(capsys):
    code, out = run(capsys, "conjugate", "--group", "w",
                    "((0,1); lam(1,0)@12, lam(1,0)@12)",
                    "(id; lam(1,0)@12, lam(1,0)@12)")
    assert code == 0
    assert "conjugate: false" in out
    assert "distinguished_by: psi-cycle-type" in out


def test_conjugate_weq_multiplier_named(capsys):
    code, out = run(capsys, "conjugate", "--group", "weq",
                    "((0,1); lam(1,0)@12, lam(1,0)@12)",
                    "((0,1); lam(5,0)@12, lam(5,0)@12)")
    assert code == 0
    assert "conjugate: false" in out
    assert "distinguished_by: multiplier" in out


def test_conjugate_m_ell_named(capsys):
    code, out = run(capsys, "conjugate", "--group", "w",
                    "(id; lam(1,1)@12, lam(1,0)@12)",
                    "(id; lam(1,2)@12, lam(1,0)@12)")
    assert code == 0
    assert "conjugate: false" in out
    assert "distinguished_by: cycle-product-classes(l=1)" in out


@pytest.mark.parametrize("group", ["w", "weq"])
@pytest.mark.parametrize("other, shape", [
    ("((0,1); lam(5,1)@11, lam(5,2)@11)", "(2, 11)"),
    ("((0,1,2); lam(5,1)@12, lam(5,2)@12, lam(5,0)@12)", "(3, 12)"),
])
def test_conjugate_refuses_different_shapes(capsys, group, other, shape):
    # like --group hol with different moduli: an error, not "false"
    code, out = run(capsys, "conjugate", "--group", group,
                    "((0,1); lam(5,1)@12, lam(5,2)@12)", other)
    assert code == 1
    assert out == f"status: error\nmessage: shapes differ: (2, 12) vs {shape}\n"


@pytest.mark.parametrize("psi, message", [
    ("(0,5)", "cycle label 5 is outside 0..1"),
    ("(0,1)(1,0)", "cycle label 1 repeats"),
    ("(0,1)junk", "cannot parse permutation '(0,1)junk'"),
])
def test_conjugate_malformed_cycles_is_an_error(capsys, psi, message):
    code, out = run(capsys, "conjugate", "--group", "w",
                    f"({psi}; lam(1,0)@3, lam(1,0)@3)",
                    "(id; lam(1,0)@3, lam(1,0)@3)")
    assert code == 1
    assert out == f"status: error\nmessage: {message}\n"


def _conjugate_by(g, k):
    return k.inverse().compose(g).compose(k)


def _verify_pairs():
    """(group, g, h, conjugate) for one conjugate and one non-conjugate
    pair per --group of conjugate."""
    from cycloperm.wreath import WreathElem
    g = WreathElem.parse("((0,1); lam(5,1)@12, lam(5,2)@12)")
    in_w = WreathElem.parse("((0,1); lam(1,3)@12, lam(5,0)@12)")
    in_weq = WreathElem.parse("(id; lam(7,3)@12, lam(7,10)@12)")
    return [
        ("hol", "lam(5,6)@12", "lam(5,2)@12", True),
        ("hol", "lam(5,6)@12", "lam(5,0)@12", False),
        ("w", str(g), str(_conjugate_by(g, in_w)), True),
        ("w", str(g), "(id; lam(5,1)@12, lam(5,2)@12)", False),
        ("weq", str(g), str(_conjugate_by(g, in_weq)), True),
        # conjugate in W(2, 12), but not within W=(2, 12)
        ("weq", "((0,1); lam(1,0)@12, lam(1,0)@12)",
         "((0,1); lam(5,0)@12, lam(5,0)@12)", False),
    ]


@pytest.mark.parametrize("group, g, h, conjugate", _verify_pairs())
def test_conjugate_verify_agrees_with_brute_force(capsys, group, g, h,
                                                  conjugate):
    code, out = run(capsys, "conjugate", "--group", group, g, h, "--verify")
    assert code == 0, out
    assert f"conjugate: {'true' if conjugate else 'false'}\n" in out
    assert out.endswith("verified: true\n")
    # the verdict is the one given without --verify
    assert run(capsys, "conjugate", "--group", group, g, h)[1] \
        == out.removesuffix("verified: true\n")


@pytest.mark.parametrize("group, g, name", [
    ("hol", "lam(1,1)@10007", "Hol(Z/10007Z)"),
    ("w", "(id; lam(1,0)@12, lam(1,0)@12, lam(1,0)@12, lam(1,0)@12)",
     "W(4,12)"),
])
def test_conjugate_verify_refuses_a_group_above_the_cap(capsys, monkeypatch,
                                                        group, g, name):
    from cycloperm import oracle

    def visited(*args):
        raise AssertionError("an element was built")

    monkeypatch.setattr(oracle, "AffineMapZ", visited)
    monkeypatch.setattr(oracle, "CosetPerm", visited)
    code, out = run(capsys, "conjugate", "--group", group, g, g, "--verify")
    assert code == 1
    assert out == ("status: error\nmessage: "
                   f"|{name}| exceeds the cap {cli.DEFAULT_CAP}\n")


@pytest.mark.parametrize("group, g, h, conjugate", _verify_pairs()[::3])
def test_conjugate_verify_reports_a_disagreement(capsys, monkeypatch, group,
                                                 g, h, conjugate):
    monkeypatch.setattr(cli, "conjugate_brute_group",
                        lambda *args: not conjugate)
    code, out = run(capsys, "conjugate", "--group", group, g, h, "--verify")
    assert code == 1
    assert out == ("status: error\n"
                   "message: conjugacy disagrees with brute force\n")


def _unbacked_groups(table):
    """The --group choices of cycle-index, reps and conjugate without a
    table entry whose library group oracle.group_order accepts."""
    from cycloperm.oracle import group_order
    choices = {name for command in ("cycle-index", "reps", "conjugate")
               for action in _subparsers(cli.build_parser(command))[
                   command]._actions
               if action.dest == "group" for name in action.choices}
    unbacked = []
    for name in sorted(choices):
        try:
            group_order(table[name][0], 2, 3)
        except (KeyError, ValueError):
            unbacked.append(name)
    return unbacked


def test_unbacked_groups_detector():
    broken = dict(cli.GROUPS, w=("Wreath", None))
    del broken["hol"]
    assert _unbacked_groups(broken) == ["hol", "w"]


def test_every_group_choice_names_a_library_group():
    assert _unbacked_groups(cli.GROUPS) == []


def test_error_exit_code(capsys):
    code, out = run(capsys, "analyze", "--q", "24", "--d", "2", "--poly", "T")
    assert code == 1
    assert "status: error" in out


def test_structured_round_trip_grammars(capsys):
    code, out = run(capsys, "reps", "--group", "w", "--kind", "involution",
                    "--d", "2", "--m", "6", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    from cycloperm.wreath import WreathElem
    for text in payload["rep"]:
        assert str(WreathElem.parse(text)) == text
    code, out = run(capsys, "cycle-index", "--group", "hol", "--m", "10",
                    "--format", "structured")
    payload = json.loads(out)
    from cycloperm.cycle_index import CycleIndex
    assert str(CycleIndex.parse(payload["cycle_index"])) \
        == payload["cycle_index"]
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", DEMO_POLY, "--format", "structured")
    payload = json.loads(out)
    from cycloperm.field import CyclotomicContext, make_field
    from cycloperm.forms import CyclotomicForm, PolyForm
    ctx = CyclotomicContext(make_field(5, 2), 2)
    assert str(PolyForm.parse(ctx.field, payload["poly"])) == payload["poly"]
    assert str(CyclotomicForm.parse(ctx, payload["cyclotomic"])) \
        == payload["cyclotomic"]
    from cycloperm.cycle_index import CycleType
    assert str(CycleType.parse(payload["cycle_type"])) == payload["cycle_type"]


def test_reps_field_group_m_conflict(capsys):
    code, out = run(capsys, "reps", "--group", "gcp", "--kind", "long-cycle",
                    "--q", "25", "--d", "2", "--m", "11")
    assert code == 1
    assert "status: error" in out


def test_reps_w1_involutions(capsys):
    code, out = run(capsys, "reps", "--group", "w1", "--kind", "involution",
                    "--d", "2", "--m", "12", "--verify")
    assert code == 0
    assert "count: 4" in out  # (0,0), (0,6), (6,6), paired
    assert "verified: true" in out


def test_field_flag_overrides(capsys):
    code, out = run(capsys, "analyze", "--p", "5", "--k", "2",
                    "--modulus", "2,4,1", "--omega", "[0,1]", "--d", "2",
                    "--poly", DEMO_POLY)
    assert code == 0
    assert "cyclotomic: f(a=[w^5,w^21], r=[7,5])" in out


def test_field_flag_bad_modulus(capsys):
    code, out = run(capsys, "analyze", "--p", "5", "--k", "2",
                    "--modulus", "1,0,1", "--d", "2", "--poly", "T")
    assert code == 1
    assert "reducible" in out


@pytest.mark.parametrize("modulus", ["2,x,1", "2,4,", "2,٣,1"])
def test_malformed_modulus_names_the_flag_and_the_text(capsys, modulus):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--modulus", modulus, "--poly", "T")
    assert code == 1
    assert out == f"status: error\nmessage: cannot parse --modulus {modulus!r}\n"


def test_to_poly_reads_bracketed_coefficient_vectors(capsys):
    # [1,2] = 1 + 2w is w^8 in F_25 with the Conway modulus
    code, out = run(capsys, "to-poly", "--q", "25", "--d", "2",
                    "--form", "f(a=[[1,2],w^21], r=[7,5])")
    assert code == 0
    assert (code, out) == run(capsys, "to-poly", "--q", "25", "--d", "2",
                              "--form", "f(a=[w^8,w^21], r=[7,5])")


@pytest.mark.parametrize("group, spaced, plain", [
    ("hol", ["lam(5, 6)@12", "lam( 5 ,0 ) @ 12"], ["lam(5,6)@12", "lam(5,0)@12"]),
    ("w", ["( (0, 1) ; lam(5, 1)@12 , lam(7,2)@12 )", "((0,1);lam(5,1)@12,lam(7,2)@12)"],
     ["((0,1); lam(5,1)@12, lam(7,2)@12)"] * 2),
])
def test_conjugate_reads_whitespace_as_the_wreath_elements_do(
        capsys, group, spaced, plain):
    # an affine map on its own follows the whitespace rule it follows
    # inside a wreath element
    code, out = run(capsys, "conjugate", "--group", group, *spaced)
    assert code == 0
    assert (code, out) == run(capsys, "conjugate", "--group", group, *plain)


def test_malformed_inputs_exit_1(capsys):
    code, out = run(capsys, "analyze", "--q", "25", "--d", "2",
                    "--poly", "w^^3*T")
    assert code == 1
    code, out = run(capsys, "conjugate", "--group", "w",
                    "((0,1); lam(5,1)@12", "((0,1); lam(5,1)@12, lam(7,2)@12)")
    assert code == 1
    code, out = run(capsys, "to-poly", "--q", "25", "--d", "2",
                    "--form", "f(a=[w^5], r=[7,5])")
    assert code == 1


@pytest.mark.parametrize("wrong, message", [
    # a bijection, but not the inverse
    ("T", r"composition is not the identity at w\^\d+"),
    # not a bijection of F_q^*
    ("T^2", r"not a bijection: w\^\d+ and w\^\d+ share the image w\^\d+"),
    # does not fix 0
    ("T + 1", r"P\(0\) != 0"),
    # sends w^0 to 0, like 0 itself
    ("T^2 - T", r"not a bijection: 0 and w\^0 share the image 0"),
])
def test_invert_check_rejects_wrong_inverse(capsys, monkeypatch, wrong,
                                            message):
    monkeypatch.setattr(cli, "invert_permutation",
                        lambda form: PolyForm.parse(form.ctx.field, wrong))
    code, out = run(capsys, "invert", "--q", "25", "--d", "2", "--poly",
                    DEMO_POLY, "--check", "--format", "structured")
    payload = json.loads(out)
    assert code == 1
    assert payload["status"] == "error"
    assert re.fullmatch(f".*{message}", payload["message"])


@pytest.mark.parametrize("wrong, point", [("T", "w^0"),
                                          (DEMO_POLY + " + 1", "0")])
def test_to_poly_verify_names_first_mismatch(capsys, monkeypatch, wrong,
                                             point):
    monkeypatch.setattr(cli, "cyclotomic_to_poly",
                        lambda form: PolyForm.parse(form.ctx.field, wrong))
    code, out = run(capsys, "to-poly", "--q", "25", "--d", "2",
                    "--form", "f(a=[w^5,w^21], r=[7,5])", "--verify",
                    "--format", "structured")
    assert code == 1
    assert json.loads(out) == {"status": "error",
                               "message": f"pointwise mismatch at {point}"}


@pytest.mark.parametrize("group", ["gcp", "cp", "focp"])
@pytest.mark.parametrize("kind, wrong_kind", [("long-cycle", "involution"),
                                              ("involution", "long-cycle")])
def test_reps_field_self_check_failure_is_an_error(capsys, monkeypatch, group,
                                                   kind, wrong_kind):
    # hand the field-level path representatives of the other kind,
    # labelled with the asked-for kind
    real = conjugacy.rep_system
    monkeypatch.setattr(cli, "rep_system", lambda g, k, d, m: real(
        g, wrong_kind, d, m)._replace(kind=k))
    code, out = run(capsys, "reps", "--group", group, "--kind", kind,
                    "--q", "25", "--d", "2", "--format", "structured")
    payload = json.loads(out)
    assert code == 1
    assert payload["status"] == "error"
    assert f"is not a {kind}" in payload["message"]


@pytest.mark.parametrize("argv, batches", [
    (["invert", "--poly", DEMO_POLY], 2),
    (["analyze", "--poly", DEMO_POLY], 3),
    (["reps", "--group", "gcp", "--kind", "involution"], 1),
], ids=["invert-2", "analyze-3", "reps-1"])
def test_dlogs_batches_per_query(capsys, monkeypatch, argv, batches):
    # invert: the permutation check and printing the inverse; analyze:
    # the check, printing the polynomial and printing the cyclotomic form;
    # reps: printing all 37 representative forms
    real = FqConfig.dlogs
    calls = []

    def counting(self, xs):
        calls.append(xs)
        return real(self, xs)

    monkeypatch.setattr(FqConfig, "dlogs", counting)
    code, _ = run(capsys, *argv, "--q", "25", "--d", "2")
    assert code == 0
    assert len(calls) == batches


def test_field_reps_verify_builds_one_rep_system(capsys, monkeypatch):
    # the printed forms and the completeness check share one system
    real = conjugacy.rep_system
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conjugacy, "rep_system", counting)
    monkeypatch.setattr(cli, "rep_system", counting)
    code, _ = run(capsys, "reps", "--group", "gcp", "--kind", "involution",
                  "--q", "25", "--d", "2", "--verify")
    assert code == 0
    assert calls == [("W", "involution", 2, 12)]


def _reference_main(argv):
    """main as it dispatched when it always built the full parser."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except forms.Rejected as exc:
        return cli._emit(args, {"status": "rejected", "reason": exc.code})
    except (cli.CommandError, ValueError) as exc:
        cli._emit(args, {"status": "error", "message": str(exc)})
        return 1


def _outcome(capsys, entry, argv):
    """(stdout, stderr, exit code) of entry(argv); a SystemExit counts
    by its code."""
    try:
        code = entry(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return out, err, code


COMMANDS = ("analyze", "invert", "to-poly", "cycle-index", "reps",
            "conjugate")

PARSER_SWEEP = [
    [], ["-h"], ["--help"], ["-h", "analyze"], ["--bogus", "analyze"],
    ["--", "analyze", "--q", "25", "--d", "2", "--poly", "T"],
    ["bogus"], ["analyz"], ["--format", "json"],
    ["analyze"],
    ["analyze", "--q", "25", "--d", "2", "--poly", "T", "--bogus"],
    ["analyze", "--q", "25", "--d", "2", "--poly", DEMO_POLY],
    ["analyze", "--q", "25", "--d", "2", "--poly", "T", "--format", "json"],
    ["invert", "--q", "25", "--d", "2", "--poly", DEMO_POLY, "--check"],
    ["invert", "--q", "25", "--poly", "T"],
    ["to-poly", "--q", "25", "--d", "2", "--form", "f(a=[w^5,w^21], r=[7,5])",
     "--format", "structured"],
    ["cycle-index", "--group", "hol", "--m", "12"],
    ["cycle-index", "--group", "hol", "--m", "twelve"],
    ["reps", "--group", "w", "--kind", "long-cycle", "--d", "2", "--m", "4"],
    ["reps", "--group", "w"],
    ["conjugate", "--group", "hol", "lam(1,0)@3"],
    ["conjugate", "--group", "x", "a", "b"],
    ["conjugate", "--group", "hol", "lam(1,0)@3", "lam(2,0)@3"],
    ["conjugate", "--group", "hol", "lam(1,0)@3", "lam(2,0)@3", "extra"],
] + [[command, "-h"] for command in COMMANDS]


@pytest.mark.parametrize("columns", ["50", "120"])
@pytest.mark.parametrize("argv", PARSER_SWEEP, ids=" ".join)
def test_main_matches_the_full_parser(capsys, monkeypatch, columns, argv):
    # help, usage errors and results read as they do through the full
    # six-command parser, at two terminal widths
    monkeypatch.setenv("COLUMNS", columns)
    assert _outcome(capsys, main, argv) \
        == _outcome(capsys, _reference_main, argv)


def _subparsers(parser):
    """name -> parser of the commands `parser` was built with."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _action_fields(parser):
    return [(a.option_strings, a.dest, a.required, a.choices, a.default,
             a.type, a.nargs, a.help) for a in parser._actions]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_command_parser_matches_the_full_one(command):
    (alone,) = _subparsers(cli.build_parser(command)).values()
    assert _action_fields(alone) \
        == _action_fields(_subparsers(cli.build_parser())[command])


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    real = cli.build_parser
    built = []

    def spy(*args):
        parser = real(*args)
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    code, out = run(capsys, "conjugate", "--group", "hol",
                    "lam(1,0)@3", "lam(1,0)@3")
    assert code == 0
    assert out == "status: ok\nconjugate: true\n"
    (parser,) = built
    assert set(_subparsers(parser)) == {"conjugate"}


@pytest.mark.parametrize("argv, message", [
    (["invert", "--poly", "T^"], "cannot parse term 'T^'"),
    (["invert", "--poly", "T^1.5"], "cannot parse term 'T^1.5'"),
    (["invert", "--poly", "w^*T"], "cannot parse field element 'w^'"),
    (["invert", "--poly", "w^x*T"], "cannot parse field element 'w^x'"),
    (["to-poly", "--form", "f(a=[w^0,w^1],r=[x,1])"],
     "cannot parse cyclotomic form 'f(a=[w^0,w^1],r=[x,1])'"),
    (["to-poly", "--form", "f(a=[w^0, w^],r=[1,1])"],
     "cannot parse field element 'w^'"),
    (["analyze", "--poly", "T^-1"], "cannot parse term 'T^-1'"),
    (["analyze", "--poly", "w^3*T^13++w^7*T"],
     "cannot parse polynomial 'w^3*T^13++w^7*T': empty term"),
    (["invert", "--poly", "w^3**T^13"],
     "cannot parse polynomial 'w^3**T^13': more than one '*' before T"),
])
def test_parse_errors_name_the_input(capsys, argv, message):
    code, out = run(capsys, *argv, "--q", "25", "--d", "2")
    assert code == 1
    assert out == f"status: error\nmessage: {message}\n"
