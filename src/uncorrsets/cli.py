"""Command line access to constructions, enumeration and verification.

Every subcommand prints deterministic JSON (sorted keys) except
``enumerate --format csv``, which emits bare point rows.  Exit status
is 0 for a positive verdict (match, identities equal, independent),
1 for a negative verdict, 2 for unusable input (a usage error too) and 3
for an internal error (an exception that is no fault of the input, such
as ``LatticeInconsistent``), so a crash never reads as a negative verdict.

Each handler imports the modules it runs, so ``det`` loads no set
machinery, a table document loads no condition route (``enumerate`` of a
table runs ``moments`` alone) and no witness code, and only a slope line
loads the polynomial code of ``constructions``, ``algebraic`` and
``slopeline``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import import_module

from .numeric import format_rational, parse_point, parse_points, rational_from_json


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_box(text: str) -> tuple[int, int]:
    try:
        j, k = text.lower().split("x")
        return int(j), int(k)
    except ValueError:
        raise ValueError(f"box must look like 12x12, got {text!r}") from None


def _rational(text: str) -> Fraction:
    """A rational flag value, read by the documents' text rule (no
    exponent notation); a zero denominator is unusable input."""
    try:
        return rational_from_json(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _support_from_args(args):
    """The BetaSupport that --beta names with --alpha (default 1), or else
    the Support3 of the points of --support (default 1,2,3)."""
    from .model import BetaSupport, Support3

    if args.beta is not None:
        return BetaSupport(_alpha(args), _rational(args.beta))
    if args.alpha is not None:
        raise ValueError("--alpha scales a geometric support and needs --beta")
    text = "1,2,3" if args.support is None else args.support
    if text.count(",") != 2:
        raise ValueError(f"--support must look like a,b,c, got {text!r}")
    return Support3.from_values(*(_rational(v) for v in text.split(",")))


def _alpha(args) -> Fraction:
    return _rational("1" if args.alpha is None else args.alpha)


def _width(args) -> dict:
    # a root isolated without --width keeps constructions.DEFAULT_WIDTH
    return {} if args.width is None else {"width": _rational(args.width)}


def _slope_params(args):
    """The slope line at the rational ratio --beta, or at the near-line
    ratio beta*(m, k) isolated to --width."""
    from . import constructions as c

    if args.beta is None:
        return c.SlopeLineParams(m=args.m, mode=c.MODE_BETA_STAR, k=args.k, **_width(args))
    if args.width is not None:
        raise ValueError("--width isolates beta*(m, k) and needs --k, not --beta")
    return c.SlopeLineParams(m=args.m, mode=c.MODE_AT_OR_ABOVE, beta=_rational(args.beta))


def _read_document(path: str):
    """The document at path as a Construction, whose ``from_json``
    re-certifies an algebraic line, or as a JointTable.  A wrong type
    anywhere in the document is unusable input.  The schema is read
    first, so a table loads no condition route."""
    from . import model

    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"document must be a JSON object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != model.WITNESS_SCHEMA and schema != model.TABLE_SCHEMA:
        raise ValueError("input is neither a witness nor a table document")
    try:
        if schema == model.TABLE_SCHEMA:
            return model.JointTable.from_json(doc)
        from .witnesses import Construction

        return Construction.from_json(doc)
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed document: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _two_points(text: str) -> list[tuple[int, int]]:
    points = parse_points(text)
    if len(points) != 2:
        raise ValueError("--points needs exactly two j,k pairs")
    return points


# how a family takes its support: the reader of the builder's first argument,
# the flags it needs and the flags it may take (an inner tuple's exclude each other)
POINTS = (_support_from_args, (), (("--support", "--beta"), "--alpha"))
GEOMETRIC = (_support_from_args, ("--beta",), ("--alpha",))
SYMMETRIC = (_alpha, (), ("--alpha",))
SLOPE = (_slope_params, ("--m", ("--beta", "--k")), ("--width",))

# each construct family: its builder, named by module and attribute so that
# only the family that runs is imported, its support, and the flags it needs
# and may take for the builder's further arguments
FAMILIES = {
    "empty": (("witnesses", "make_empty"), POINTS, (), ()),
    "all": (("witnesses", "make_full"), POINTS, (), ()),
    "diagonal": (("witnesses", "make_diagonal"), POINTS, (), ()),
    "singleton": (("witnesses", "make_singleton"), POINTS, ("--point",), ()),
    "two-point": (("witnesses", "make_two_point"), POINTS, ("--points",), ()),
    "vline": (("witnesses", "make_vline"), POINTS, ("--j",), ()),
    "hline": (("witnesses", "make_hline"), POINTS, ("--k",), ()),
    "cross": (("witnesses", "make_cross"), POINTS, ("--j", "--k"), ()),
    "antidiagonal": (("witnesses", "make_antidiagonal"), GEOMETRIC, ("--m",), ()),
    "slopeline": (("constructions", "make_slopeline"), SLOPE, (), ()),
    "lattice-union": (("witnesses", "make_lattice_union"), SYMMETRIC, (), ("--lattices",)),
}

# argparse keywords of each flag; a flag that is not given reads None
_FLAGS = {
    "--support": {"help": "a,b,c rational points (default 1,2,3); join a value "
                  "that starts with '-' to the flag, as --support=-1,0,1"},
    "--alpha": {"help": "scale of a geometric or symmetric support (default 1)"},
    "--beta": {"help": "ratio of a geometric support"},
    "--point": {"help": "j,k"},
    "--points": {"help": "j1,k1;j2,k2"},
    "--j": {"type": int},
    "--k": {"type": int},
    "--m": {"type": int},
    "--lattices": {"help": "comma list from ee,eo,oe,oo"},
    "--width": {"help": "isolation width (default 10^-12)"},
}

# the builder arguments that a flag's value gives, where it is not the value
_ARGUMENTS = {
    "--point": parse_point,
    "--points": _two_points,
    "--lattices": lambda text: [[n for n in (text or "").split(",") if n]],
}


def _add_flags(parser, needs, takes) -> None:
    for flags, required in ((needs, True), (takes, False)):
        for flag in flags:
            if isinstance(flag, tuple):
                group = parser.add_mutually_exclusive_group(required=required)
                for one in flag:
                    group.add_argument(one, **_FLAGS[one])
            else:
                parser.add_argument(flag, required=required, **_FLAGS[flag])


def _cmd_construct(args) -> int:
    (module, builder), (reader, _, _), needed, optional = FAMILIES[args.family]
    values = []
    for flag in needed + optional:
        values += _ARGUMENTS.get(flag, lambda value: [value])(getattr(args, flag[2:]))
    make = getattr(import_module(f"{__package__}.{module}"), builder)
    _emit(make(reader(args), *values).to_json())
    return 0


def _cmd_enumerate(args) -> int:
    from .model import JointTable

    jmax, kmax = _parse_box(args.box)
    doc = _read_document(args.witness)
    if isinstance(doc, JointTable):
        from .moments import enumerate_box_table

        points = enumerate_box_table(doc, jmax, kmax)
    else:
        points = doc.enumerate_box(jmax, kmax)
    if args.format == "csv":
        print("j,k")
        for j, k in points:
            print(f"{j},{k}")
    else:
        _emit({"box": [jmax, kmax], "points": [list(p) for p in points]})
    return 0


def _cmd_verify(args) -> int:
    from . import engine
    from .model import JointTable

    jmax, kmax = _parse_box(args.box)
    doc = _read_document(args.witness)
    if isinstance(doc, JointTable):
        raise ValueError("verify needs a witness document, not a table")
    desc = engine.SetDescriptor.parse(args.descriptor) if args.descriptor else doc.descriptor
    report = doc.verify(desc, jmax, kmax)
    _emit(report.to_json())
    return 0 if report.verdict == engine.MATCH else 1


def _cmd_classify(args) -> int:
    from . import engine
    from .model import JointTable

    doc = _read_document(args.table)
    table = doc if isinstance(doc, JointTable) else doc.table()
    _emit({"descriptor": engine.classify_symmetric(table).to_json()})
    return 0


def _emit_root(lo: Fraction, hi: Fraction, **orders: int) -> int:
    _emit(
        {
            **orders,
            "lo": format_rational(lo),
            "hi": format_rational(hi),
            "width": format_rational(hi - lo),
            "approx": float((lo + hi) / 2),
        }
    )
    return 0


def _cmd_beta0(args) -> int:
    from . import constructions

    lo, hi = constructions.beta0(args.m, **_width(args))
    return _emit_root(lo, hi, m=args.m)


def _cmd_betastar(args) -> int:
    from . import constructions

    lo, hi = constructions.beta_star(args.m, args.k, **_width(args))
    return _emit_root(lo, hi, m=args.m, k=args.k)


def _cmd_det(args) -> int:
    from . import determinants

    checks = {"f": determinants.f_check, "g": determinants.g_check,
              "det2": determinants.det2_check}
    result = checks[args.family](args.m, args.n)
    _emit(result.to_json(summary=args.summary))
    return 0 if result.equal else 1


def _cmd_indep_cert(args) -> int:
    from . import determinants

    pts = parse_points(args.points)
    cert = determinants.independence_certificate(pts, _support_from_args(args))
    _emit(cert.to_json())
    return 0 if cert.independent else 1


def _cmd_selftest(args) -> int:
    from . import selftest

    failures = selftest.run(seed=args.seed, fast=args.fast)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, in sub-parsers too, as ValueError, so that
    ``main`` reports it and returns 2 like any other unusable input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uncorrsets",
                     description="exact uncorrelatedness sets of three-point uniform pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a witness for a set shape")
    p.set_defaults(func=_cmd_construct)
    families = p.add_subparsers(dest="family", required=True)
    for family, (_, (_, needs, takes), needed, optional) in FAMILIES.items():
        # exact names only, or two-point would read --point as --points
        f = families.add_parser(family, allow_abbrev=False)
        _add_flags(f, needs + needed, takes + optional)

    p = sub.add_parser("enumerate", help="list the set of a witness in a box")
    p.add_argument("--witness", required=True, help="witness/table file or -")
    p.add_argument("--box", default="12x12", help="JxK bounds")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="re-derive a claimed set and compare")
    p.add_argument("--witness", required=True, help="witness file or -")
    p.add_argument("--box", default="12x12")
    p.add_argument("--descriptor", default=None, help="override claim, e.g. cross:2,3")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="parity classification on symmetric supports")
    p.add_argument("--table", required=True, help="witness/table file or -")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("beta0", help="isolate the threshold ratio for slope m")
    _add_flags(p, ("--m",), ("--width",))
    p.set_defaults(func=_cmd_beta0)

    p = sub.add_parser("betastar", help="isolate the near-line ratio for (m, k)")
    _add_flags(p, ("--m", "--k"), ("--width",))
    p.set_defaults(func=_cmd_betastar)

    p = sub.add_parser("det", help="check a determinant identity")
    p.add_argument("family", choices=["f", "g", "det2"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--summary", action="store_true", help="sizes only, no terms")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("indep-cert", help="certify four collinear order pairs")
    p.add_argument("--points", required=True, help="j1,k1;j2,k2;j3,k3;j4,k4")
    _add_flags(p, ("--beta",), ("--alpha",))
    p.set_defaults(func=_cmd_indep_cert)

    p = sub.add_parser("selftest", help="run the seeded invariant audit")
    p.add_argument("--seed", type=int, default=20250817)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
