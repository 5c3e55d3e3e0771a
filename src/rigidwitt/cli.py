"""Command-line front end: analysis, Pfister numbers, classification,
decompositions, bound tables, and verification suites.

Exit codes: 0 success, 1 usage, 2 parse error, 3 precondition violation,
4 depth cap exceeded, 5 suite failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from .errors import (
    DepthCapExceededError,
    ParseError,
    RigidWittError,
)
from .ideals import in_In, rigid_decompose
from .pfnum import (
    _theorem_bound,
    classify14,
    classify16,
    pfister_number,
    random_In_form,
)
from .qform import (
    determinant,
    discriminant,
    format_form,
    parse_form,
)
from .sqclass import format_square_class, parse_field, parse_square_class
from .witt import anisotropic_part, value_set, witt_index

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DEPTH_CAP = 4
EXIT_SUITE = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for parse
        raise _UsageError(message)


def _emit(out, payload: dict, as_json: bool, lines) -> None:
    if as_json:
        payload = {"schema": 1, **payload}
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        for line in lines:
            print(line, file=out)


# --- subcommand handlers --------------------------------------------------


def _cmd_analyze(args, out) -> int:
    field = parse_field(args.field)
    phi = parse_form(args.form, field)
    an = anisotropic_part(phi)
    iw = witt_index(phi)
    values = sorted(value_set(phi), key=lambda c: c.sort_key())
    ladder = []
    n = 1
    while in_In(phi, n) and n <= phi.dim + 2:
        ladder.append(n)
        n += 1
    det = determinant(phi)
    disc = discriminant(phi)
    payload = {
        "field": str(field),
        "form": format_form(phi),
        "dim": phi.dim,
        "anisotropic_part": format_form(an),
        "witt_index": iw,
        "value_set": [format_square_class(v) for v in values],
        "in_In": ladder,
        "determinant": format_square_class(det),
        "discriminant": format_square_class(disc),
    }
    lines = [
        f"field: {field}",
        f"form: {format_form(phi)}",
        f"dim: {phi.dim}",
        f"anisotropic part: {format_form(an)}",
        f"witt index: {iw}",
        "value set: {" + ",".join(format_square_class(v) for v in values) + "}",
        "I^n membership: " + (
            ", ".join(f"I^{k}" for k in ladder) if ladder else "none"),
        f"determinant: {format_square_class(det)}",
        f"discriminant: {format_square_class(disc)}",
    ]
    _emit(out, payload, args.json, lines)
    return 0


def _cmd_pfister_number(args, out) -> int:
    if args.depth_cap is not None and args.depth_cap < 0:
        raise _UsageError("--depth-cap must be nonnegative")
    field = parse_field(args.field)
    phi = parse_form(args.form, field)
    k, cert = pfister_number(
        phi, args.n, unscaled=args.unscaled, depth_cap=args.depth_cap)
    name = f"P_{args.n}" if args.unscaled else f"GP_{args.n}"
    payload = {
        "field": str(field),
        "form": format_form(phi),
        "kind": name,
        "value": k,
        "certificate": cert.to_json_dict(),
    }
    lines = [f"{name} = {k}"] + [f"  term: {t}" for t in cert.terms]
    _emit(out, payload, args.json, lines)
    return 0


def _cmd_classify(args, out) -> int:
    field = parse_field(args.field)
    phi = parse_form(args.form, field)
    if args.dim == 14:
        rep = classify14(phi)
        payload = {
            "field": str(field),
            "form": format_form(phi),
            "dim": 14,
            "gp3": rep["gp3"],
            "certificate": rep["certificate"].to_json_dict(),
            "gp2_subform": str(rep["gp2_subform"]),
            "gp2_complement": format_form(rep["gp2_complement"]),
            "shape_ii": rep["shape_ii"],
        }
        lines = [
            f"GP_3 = {rep['gp3']}",
            f"certificate: {' + '.join(str(t) for t in rep['certificate'].terms)}",
            f"GP_2 subform: {rep['gp2_subform']}",
            f"two-term pure-part shape: {'yes' if rep['shape_ii'] else 'no'}",
        ]
    else:
        rep = classify16(phi)
        a, b = rep["splitting_pair"]
        payload = {
            "field": str(field),
            "form": format_form(phi),
            "dim": 16,
            "gp3": rep["gp3"],
            "certificate": rep["certificate"].to_json_dict(),
            "gp2_subform": str(rep["gp2_subform"]),
            "gp2_decomposition": [str(t) for t in rep["gp2_decomposition"]],
            "splitting_pair": [format_square_class(a), format_square_class(b)],
        }
        lines = [
            f"GP_3 = {rep['gp3']}",
            f"certificate: {' + '.join(str(t) for t in rep['certificate'].terms)}",
            f"GP_2 subform: {rep['gp2_subform']}",
            "GP_2 decomposition: " + " + ".join(
                str(t) for t in rep["gp2_decomposition"]),
            "splitting pair: "
            f"{format_square_class(a)}, {format_square_class(b)}",
        ]
    _emit(out, payload, args.json, lines)
    return 0


def _cmd_decompose(args, out) -> int:
    field = parse_field(args.field)
    phi = parse_form(args.form, field)
    a = parse_square_class(args.at, field)
    split = rigid_decompose(phi, a)
    payload = {
        "field": str(field),
        "form": format_form(phi),
        "at": format_square_class(a),
        "t": format_square_class(split.t),
        "sigma": format_form(split.sigma),
        "tau": format_form(split.tau),
    }
    lines = [
        f"t: {format_square_class(split.t)}",
        f"sigma: {format_form(split.sigma)}",
        f"tau: {format_form(split.tau)}",
    ]
    _emit(out, payload, args.json, lines)
    return 0


def _cmd_bounds(args, out) -> int:
    if args.n < 2 or args.dmax < 0:
        raise _UsageError("--n must be at least 2, --dmax nonnegative")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["d", "bound"])
    for d in range(0, args.dmax + 1, 2):
        writer.writerow([d, _theorem_bound(args.n, d)])
    out.write(buf.getvalue())
    return 0


def _cmd_tabulate(args, out) -> int:
    field = parse_field(args.field)
    rng = random.Random(args.seed)
    try:
        dims = [int(x) for x in args.dims.split(",")]
    except ValueError:
        raise _UsageError("--dims must be comma-separated integers") from None
    if min(dims) < 0 or args.samples < 1:
        raise _UsageError("--dims must be nonnegative, --samples positive")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["dim", "samples", "max_gp"])
    for dim in dims:
        best = 0
        for _ in range(args.samples):
            phi = random_In_form(field, args.n, dim, rng, allow_smaller=True)
            k, _cert = pfister_number(phi, args.n)
            best = max(best, k)
        writer.writerow([dim, args.samples, best])
    out.write(buf.getvalue())
    return 0


# --- verification suites --------------------------------------------------


def _suite_roundtrip(rng) -> list[str]:
    from .sqclass import Base, FieldDesc
    from .qform import DiagonalForm

    failures = []
    for i in range(1000):
        base = rng.choice(list(Base))
        field = FieldDesc(base, rng.randrange(0, 4))
        dim = rng.randrange(0, 6)
        phi = DiagonalForm(field, tuple(
            field.random_class(rng) for _ in range(dim)))
        text = format_form(phi)
        back = parse_form(text, field)
        if back != phi:
            failures.append(f"round-trip failed for {text} over {field}")
    return failures


def _suite_oracles(rng) -> list[str]:
    from .sqclass import Base, FieldDesc
    from .qform import DiagonalForm, discriminant
    from .witt import group_ring_equal, anisotropic_part

    failures = []
    for i in range(2000):
        base = rng.choice(list(Base))
        field = FieldDesc(base, rng.randrange(0, 3))

        def rand_form():
            return DiagonalForm(field, tuple(
                field.random_class(rng)
                for _ in range(rng.randrange(0, 6))))

        phi, psi = rand_form(), rand_form()
        lhs = group_ring_equal(phi, psi)
        rhs = anisotropic_part(phi) == anisotropic_part(psi)
        if lhs != rhs:
            failures.append(
                f"group-ring vs anisotropic-part mismatch: "
                f"{format_form(phi)} / {format_form(psi)} over {field}")
    for i in range(500):
        field = FieldDesc(Base.F3, 2)
        phi = DiagonalForm(field, tuple(
            field.random_class(rng) for _ in range(rng.randrange(0, 7))))
        lhs = in_In(phi, 2)
        rhs = phi.dim % 2 == 0 and discriminant(phi).is_one()
        if lhs != rhs:
            failures.append(f"I^2 oracle mismatch for {format_form(phi)}")
    return failures


def _suite_identities(rng) -> list[str]:
    from .sqclass import Base, FieldDesc
    from .qform import pfister, tensor
    from .ideals import lift_form

    failures = []
    for i in range(20):
        base = rng.choice([Base.F3, Base.R, Base.C])
        field = FieldDesc(base, rng.randrange(1, 4))
        psi = random_In_form(field, 2, 8, rng, allow_smaller=True)
        k2, _ = pfister_number(psi, 2)
        big = field.extended(1)
        product = tensor(
            pfister((big.var(big.nvars),)), lift_form(psi, big))
        k3, cert = pfister_number(product, 3)
        if k3 != k2 or not cert.verify():
            failures.append(
                f"tensor identity failed for {format_form(psi)} over {field}")
    return failures


_SUITES = {
    "roundtrip": _suite_roundtrip,
    "oracles": _suite_oracles,
    "identities": _suite_identities,
}


def _cmd_verify(args, out) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in _SUITES:
            raise _UsageError(
                f"unknown suite {name!r}; choose from "
                f"{', '.join(list(_SUITES) + ['all'])}")
    all_failures: dict[str, list[str]] = {}
    for name in names:
        rng = random.Random(args.seed)
        failures = _SUITES[name](rng)
        all_failures[name] = failures
    ok = not any(all_failures.values())
    payload = {
        "suites": {
            name: {"ok": not fails, "failures": fails}
            for name, fails in all_failures.items()
        },
        "ok": ok,
    }
    lines = []
    for name, fails in all_failures.items():
        lines.append(f"{name}: {'ok' if not fails else 'FAIL'}")
        lines.extend(f"  {msg}" for msg in fails)
    _emit(out, payload, args.json, lines)
    return 0 if ok else EXIT_SUITE


# --- argument wiring ------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rigidwitt",
        description="Exact quadratic-form algebra over rigid fields.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, form=True):
        p.add_argument("--field", required=True,
                       help="field spec, e.g. F3[t1,t2]")
        if form:
            p.add_argument("--form", required=True,
                           help="form literal, e.g. <1,t1,-t2> or <<t1,t2>>")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="dimensions, Witt data, ideal ladder")
    add_common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("pfister-number", help="exact GP_n / P_n with certificate")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--unscaled", action="store_true")
    p.add_argument("--depth-cap", type=int, default=None)
    p.set_defaults(handler=_cmd_pfister_number)

    p = sub.add_parser("classify", help="dimension 14/16 classification data")
    add_common(p)
    p.add_argument("--dim", type=int, choices=(14, 16), required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("decompose", help="unimodular split along a class")
    add_common(p)
    p.add_argument("--at", required=True, help="square class, e.g. t1")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("bounds", help="bound table as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("tabulate", help="max observed GP over random samples")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True, help="comma-separated dims")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_tabulate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    out = sys.stdout
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.handler(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DepthCapExceededError as exc:
        print(f"depth cap exceeded: {exc}", file=sys.stderr)
        return EXIT_DEPTH_CAP
    except (RigidWittError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
