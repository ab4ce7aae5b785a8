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
    distinguished_by,
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
    conjugate_brute_group,
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


# --group name -> (library group, closed-form cycle index of a field
# group, None for the other groups); a field group's library group is
# the wreath group of its wreath form
GROUPS = {
    "gcp": ("W", ci_gcp), "focp": ("W1", ci_focp), "cp": ("Weq", ci_cp),
    "w": ("W", None), "w1": ("W1", None), "weq": ("Weq", None),
    "wreath-brute": ("W", None), "hol": ("Hol", None),
    "sym": ("W1", None), "reg": ("W1", None),
}


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


def _reconcile_dm(args, q=None):
    """(d, m) from --d, --m and the field size: q when given (a field
    built from the flags), else --q."""
    d = args.d
    if d is None:
        raise CommandError("need --d")
    _positive("d", d)
    if args.m is not None:
        _positive("m", args.m)
    if q is None and args.q is not None:
        _prime_power(args.q)
        q = args.q
    if q is None:
        if args.m is None:
            raise CommandError("need --m or --q")
        return d, args.m
    if (q - 1) % d != 0:
        raise CommandError(f"d={d} does not divide q-1={q - 1}")
    m = (q - 1) // d
    if args.m is not None and args.m != m:
        raise CommandError(f"--m {args.m} conflicts with q={q}, d={d} "
                           f"(expected m={m})")
    return d, m


def cmd_cycle_index(args) -> int:
    def brute():
        return ci_brute_group(library_group, d, m, args.cap)

    group = args.group
    library_group, closed = GROUPS[group]
    if group == "sym":
        if args.d is None:
            raise CommandError("need --d for sym")
        ci = ci_sym(args.d, args.cap)
        d, m = args.d, 1  # Sym(d) is W1(d, 1)
    elif group in ("hol", "reg"):
        if args.m is None:
            raise CommandError(f"need --m for {group}")
        _positive("m", args.m)
        ci = ci_hol(args.m) if group == "hol" else ci_regular(args.m)
        # the regular representation of Z/mZ is W1(1, m)
        d, m = 1, args.m
    else:
        d, m = _reconcile_dm(args)
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
    library_group, closed = GROUPS[args.group]
    # a field group (one with a closed form) takes m from its field,
    # which is read once --d is known to be given
    cfg = _resolve_field(args) if closed and args.d is not None else None
    d, m = _reconcile_dm(args, cfg.q if cfg else None)
    system = rep_system(library_group, args.kind, d, m)
    if cfg:
        ctx = CyclotomicContext(cfg, d)
        lines = cyclotomic_strs(reps_as_cyclotomic(system, ctx))
    else:
        lines = wreath_strs(system.reps)
    payload = {"status": "ok", "group": args.group, "kind": args.kind,
               "count": len(lines), "rep": lines}
    if args.verify:
        check_rep_system(system, args.cap)
        payload["verified"] = True
    return _emit(args, payload)


def cmd_conjugate(args) -> int:
    library_group = GROUPS[args.group][0]
    if library_group == "Hol":
        g, h = map(AffineMapZ.parse, args.elements)
        if g.m != h.m:
            raise CommandError("moduli differ")
        ids = [hol_class_id(g), hol_class_id(h)]
        reason = (None if ids[0] == ids[1] else
                  "multiplier" if g.a != h.a else "translation-orbit")
    else:
        g, h = map(WreathElem.parse, args.elements)
        reason = distinguished_by(g, h, library_group)
    payload = {"status": "ok", "conjugate": reason is None}
    if reason is not None:
        payload["distinguished_by"] = reason
        if library_group == "Hol":
            payload["class_ids"] = [str(tuple(i)) for i in ids]
    if args.verify:
        if conjugate_brute_group(library_group, g, h) != (reason is None):
            raise CommandError("conjugacy disagrees with brute force")
        payload["verified"] = True
    return _emit(args, payload)


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
        return _emit(args, {"status": "rejected", "reason": exc.code})
    except (CommandError, ValueError) as exc:
        return _emit(args, {"status": "error", "message": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
