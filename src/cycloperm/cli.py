"""Command-line front end.

Subcommands: analyze, invert, to-poly, cycle-index, reps, conjugate.
Every command takes --format text|structured (structured = one JSON
object on stdout) and --verify for an oracle cross-check where that
makes sense.  Exit codes: 0 ok, 2 input rejected by the conversion
procedure (with the reason code), 1 error.  `main` builds only the
parser of the command named by its first argument; `build_parser()`
with no argument builds all six.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import factorize
from .conjugacy import (
    FIELD_GROUP_TO_WREATH,
    conjugacy_invariant,
    hol_class_id,
    rep_system,
    reps_as_cyclotomic,
)
from .cycle_index import (
    ci_cp,
    ci_focp,
    ci_gcp,
    ci_hol,
    ci_regular,
    ci_sym,
)
from .field import CyclotomicContext, make_field
from .forms import (
    CyclotomicForm,
    PolyForm,
    Rejected,
    analyze_permutation,
    cyclotomic_strs,
    cyclotomic_to_poly,
    invert_permutation,
    poly_to_cyclotomic,
)
from .oracle import (
    DEFAULT_CAP,
    check_rep_system,
    ci_brute_group,
    image_logs,
    materialize,
)
from .text import pattern
from .wreath import (
    AffineMapZ,
    WreathElem,
    cycle_type_wreath,
    wreath_strs,
)


class CommandError(Exception):
    pass


def _add_format_flags(p):
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the result against brute force")


def _add_field_flags(p, d_required=True):
    p.add_argument("--p", type=int, help="field characteristic")
    p.add_argument("--k", type=int, help="extension degree")
    p.add_argument("--q", type=int, help="field size p^k (alternative to --p/--k)")
    p.add_argument("--modulus", help="comma-separated modulus coefficients c0,...,ck")
    p.add_argument("--omega", help="primitive root override (element syntax)")
    p.add_argument("--d", type=int, required=d_required,
                   help="index of the subgroup")


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k; CommandError when --q is not a prime power."""
    fac = factorize(q)
    if len(fac) != 1:
        raise CommandError(f"--q {q} is not a prime power")
    return fac[0]


def _resolve_field(args):
    if args.q is not None:
        p, k = _prime_power(args.q)
        if args.p is not None and args.p != p:
            raise CommandError(f"--p {args.p} conflicts with --q {args.q}")
        if args.k is not None and args.k != k:
            raise CommandError(f"--k {args.k} conflicts with --q {args.q}")
    elif args.p is not None and args.k is not None:
        p, k = args.p, args.k
    else:
        raise CommandError("need --q or both --p and --k")
    modulus = (pattern("&", "cannot parse --modulus")(args.modulus)[0]
               if args.modulus else None)
    cfg = make_field(p, k, modulus=modulus)
    if args.omega:
        # the default modulus is searched once, for the first field
        cfg = make_field(p, k, modulus=cfg.modulus,
                         omega=cfg.parse_elem(args.omega))
    return cfg


def _emit(args, payload: dict) -> int:
    status = payload.get("status", "ok")
    if args.format == "structured":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                for item in value:
                    print(f"{key}: {item}")
            elif isinstance(value, bool):
                print(f"{key}: {'true' if value else 'false'}")
            else:
                print(f"{key}: {value}")
    return {"ok": 0, "rejected": 2}.get(status, 1)


def cmd_analyze(args) -> int:
    cfg = _resolve_field(args)
    ctx = CyclotomicContext(cfg, args.d)
    P = PolyForm.parse(cfg, args.poly)
    payload = {
        "status": "ok",
        "field": f"q={cfg.q} modulus={list(cfg.modulus)}",
        "d": ctx.d,
        "m": ctx.m,
        "poly": str(P),
    }
    try:
        analysis = analyze_permutation(P, ctx)
    except Rejected as exc:
        if exc.form is not None:
            payload["cyclotomic"] = str(exc.form)
            payload["permutation"] = False
        payload.update(status="rejected", reason=exc.code)
        return _emit(args, payload)
    wz = analysis.wreath
    ct = cycle_type_wreath(wz)
    payload.update({
        "cyclotomic": str(analysis.form),
        "permutation": True,
        "psi": str(analysis.psi),
        "wreath_c": wz.str_over_c(),
        "wreath_z": str(wz),
        "cycle_type": str(ct),
    })
    if args.verify:
        perm = materialize(analysis.form)
        if perm.cycle_type() != ct:
            raise CommandError("cycle type disagrees with materialization")
        payload["verified"] = True
    return _emit(args, payload)


def cmd_invert(args) -> int:
    cfg = _resolve_field(args)
    ctx = CyclotomicContext(cfg, args.d)
    P = PolyForm.parse(cfg, args.poly)
    inverse = invert_permutation(poly_to_cyclotomic(P, ctx))
    payload = {"status": "ok", "inverse": str(inverse)}
    if args.verify or args.check:
        # both are bijections fixing 0, so inverse after P = id suffices
        fwd, back = materialize(P).images, materialize(inverse).images
        e = next((e for e, y in enumerate(fwd) if back[y] != e), None)
        if e is not None:
            raise CommandError(f"composition is not the identity at w^{e}")
        payload["check"] = "identity-ok"
    return _emit(args, payload)


def cmd_to_poly(args) -> int:
    cfg = _resolve_field(args)
    ctx = CyclotomicContext(cfg, args.d)
    form = CyclotomicForm.parse(ctx, args.form)
    P = cyclotomic_to_poly(form)
    payload = {"status": "ok", "poly": str(P)}
    if args.verify:
        # both walks list the points 0, w^0, ..., w^(q-2) in this order
        ys, zs = image_logs(P), image_logs(form)
        if ys != zs:
            i = next(i for i, (y, z) in enumerate(zip(ys, zs)) if y != z)
            raise CommandError(
                f"pointwise mismatch at {f'w^{i - 1}' if i else '0'}")
        payload["check"] = "pointwise-ok"
    return _emit(args, payload)


def _positive(flag: str, value: int) -> None:
    if value < 1:
        raise CommandError(f"--{flag} {value} is not positive")


def _reconcile_dm(args):
    d = args.d
    if d is None:
        raise CommandError("need --d")
    _positive("d", d)
    if args.m is not None:
        _positive("m", args.m)
    if args.q is not None:
        _prime_power(args.q)
        if (args.q - 1) % d != 0:
            raise CommandError(f"d={d} does not divide q-1={args.q - 1}")
        m = (args.q - 1) // d
        if args.m is not None and args.m != m:
            raise CommandError(f"--m {args.m} conflicts with --q {args.q} "
                               f"(expected m={m})")
        return d, m
    if args.m is None:
        raise CommandError("need --m or --q")
    return d, args.m


def cmd_cycle_index(args) -> int:
    def brute():
        return ci_brute_group(*brute_group, args.cap)

    group = args.group
    if group == "sym":
        if args.d is None:
            raise CommandError("need --d for sym")
        ci = ci_sym(args.d, args.cap)
        brute_group = ("W1", args.d, 1)  # Sym(d) is W1(d, 1)
    elif group in ("hol", "reg"):
        if args.m is None:
            raise CommandError(f"need --m for {group}")
        _positive("m", args.m)
        ci = ci_hol(args.m) if group == "hol" else ci_regular(args.m)
        # the regular representation of Z/mZ is W1(1, m)
        brute_group = ("Hol" if group == "hol" else "W1", 1, args.m)
    else:
        d, m = _reconcile_dm(args)
        brute_group = (FIELD_GROUP_TO_WREATH.get(group.upper(), "W"), d, m)
        closed = {"gcp": ci_gcp, "focp": ci_focp, "cp": ci_cp}.get(group)
        ci = closed(d, m, args.cap) if closed else brute()
    payload = {"status": "ok", "group": group, "cycle_index": str(ci),
               "terms": len(ci.terms), "degree": ci.degree()}
    if args.verify:
        # wreath-brute is checked against the closed form of W(d, m)
        if ci != (ci_gcp(d, m, args.cap) if group == "wreath-brute"
                  else brute()):
            raise CommandError("cycle index disagrees with brute force")
        payload["verified"] = True
    return _emit(args, payload)


def cmd_reps(args) -> int:
    group = args.group
    kind = args.kind
    if group in ("w", "w1", "weq"):
        wname = {"w": "W", "w1": "W1", "weq": "Weq"}[group]
        d, m = _reconcile_dm(args)
        system = rep_system(wname, kind, d, m)
        lines = wreath_strs(system.reps)
    elif group in ("gcp", "focp", "cp"):
        if args.d is None:
            raise CommandError("need --d")
        cfg = _resolve_field(args)
        ctx = CyclotomicContext(cfg, args.d)
        if args.m is not None and args.m != ctx.m:
            raise CommandError(f"--m {args.m} conflicts with q={cfg.q}, "
                               f"d={args.d} (expected m={ctx.m})")
        system = rep_system(FIELD_GROUP_TO_WREATH[group.upper()], kind,
                            ctx.d, ctx.m)
        lines = cyclotomic_strs(reps_as_cyclotomic(system, ctx))
    else:
        raise CommandError(f"unknown group {group!r}")
    payload = {"status": "ok", "group": group, "kind": kind,
               "count": len(lines), "rep": lines}
    if args.verify:
        check_rep_system(system, args.cap)
        payload["verified"] = True
    return _emit(args, payload)


def cmd_conjugate(args) -> int:
    if args.group == "hol":
        g, h = map(AffineMapZ.parse, args.elements)
        if g.m != h.m:
            raise CommandError("moduli differ")
        ids = [hol_class_id(g), hol_class_id(h)]
        verdict = ids[0] == ids[1]
        payload = {"status": "ok", "conjugate": verdict}
        if not verdict:
            payload["distinguished_by"] = (
                "multiplier" if g.a != h.a else "translation-orbit")
            payload["class_ids"] = [str(tuple(i)) for i in ids]
        return _emit(args, payload)
    if args.group in ("w", "weq"):
        mode = "W" if args.group == "w" else "Weq"
        g, h = map(WreathElem.parse, args.elements)
        if (g.d, g.m) != (h.d, h.m):
            raise CommandError(f"shapes differ: {(g.d, g.m)} vs {(h.d, h.m)}")
        inv_g = conjugacy_invariant(g, mode)
        inv_h = conjugacy_invariant(h, mode)
        verdict = inv_g == inv_h
        payload = {"status": "ok", "conjugate": verdict}
        if not verdict:
            payload["distinguished_by"] = _wreath_mismatch(inv_g, inv_h, mode)
        return _emit(args, payload)
    raise CommandError(f"unknown group {args.group!r}")


def _wreath_mismatch(inv_g, inv_h, mode):
    if inv_g[0] != inv_h[0]:
        return "psi-cycle-type"
    if mode == "Weq" and inv_g[1] != inv_h[1]:
        return "multiplier"
    fp_g, fp_h = inv_g[-1], inv_h[-1]
    lens = {length for length, _ in fp_g} | {length for length, _ in fp_h}
    for length in sorted(lens):
        if dict(fp_g).get(length) != dict(fp_h).get(length):
            return f"cycle-product-classes(l={length})"
    return "cycle-product-classes"


def _add_poly_flags(p):
    _add_field_flags(p)
    p.add_argument("--poly", required=True)


def _add_invert_flags(p):
    _add_poly_flags(p)
    p.add_argument("--check", action="store_true",
                   help="compose with the input and assert identity")


def _add_to_poly_flags(p):
    _add_field_flags(p)
    p.add_argument("--form", required=True,
                   help="cyclotomic form f(a=[...], r=[...])")


def _add_cycle_index_flags(p):
    p.add_argument("--group", required=True,
                   choices=("gcp", "cp", "focp", "hol", "sym", "reg",
                            "wreath-brute"))
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)


def _add_reps_flags(p):
    p.add_argument("--group", required=True,
                   choices=("gcp", "cp", "focp", "w", "w1", "weq"))
    p.add_argument("--kind", required=True,
                   choices=("long-cycle", "involution"))
    _add_field_flags(p, d_required=False)
    p.add_argument("--m", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)


def _add_conjugate_flags(p):
    p.add_argument("--group", required=True, choices=("hol", "w", "weq"))
    p.add_argument("elements", nargs=2,
                   help="two elements in affine/wreath syntax")


# name -> (help, flag adder, handler); every command also takes the
# format flags
COMMANDS = {
    "analyze": ("polynomial -> cyclotomic/wreath forms and cycle type",
                _add_poly_flags, cmd_analyze),
    "invert": ("polynomial form of the inverse permutation",
               _add_invert_flags, cmd_invert),
    "to-poly": ("cyclotomic form -> polynomial form",
                _add_to_poly_flags, cmd_to_poly),
    "cycle-index": ("exact cycle index of a group",
                    _add_cycle_index_flags, cmd_cycle_index),
    "reps": ("conjugacy class representatives", _add_reps_flags, cmd_reps),
    "conjugate": ("decide conjugacy of two elements",
                  _add_conjugate_flags, cmd_conjugate),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of all six commands, or of `command` alone; the
    top-level usage line names all six either way."""
    parser = argparse.ArgumentParser(
        prog="cycloperm",
        description="index-d cyclotomic permutations of F_q: forms, "
                    "cycle indices, conjugacy, inversion")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        help_text, add_flags, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        _add_format_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command named first needs only its own parser; anything else
    # (help, a usage error) gets the full one
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Rejected as exc:
        code = _emit(args, {"status": "rejected", "reason": exc.code})
        return code
    except (CommandError, ValueError) as exc:
        _emit(args, {"status": "error", "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
