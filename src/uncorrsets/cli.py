"""Command line access to constructions, enumeration and verification.

Every subcommand prints deterministic JSON (sorted keys) except
``enumerate --format csv``, which emits bare point rows.  Exit status
is 0 for a positive verdict (match, identities equal, independent),
1 for a negative verdict, 2 for unusable input and 3 for an internal
error (an exception that is no fault of the input, such as
``LatticeInconsistent``), so a crash never reads as a negative verdict.

Each handler imports the modules it runs, so ``det`` loads no set
machinery and a table document never loads ``constructions``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .numeric import format_rational, parse_point, rational_from_json


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _parse_box(text: str) -> tuple[int, int]:
    try:
        j, k = text.lower().split("x")
        return int(j), int(k)
    except ValueError:
        raise ValueError(f"box must look like 12x12, got {text!r}") from None


def _parse_points(text: str) -> list[tuple[int, int]]:
    return [parse_point(chunk) for chunk in text.split(";") if chunk]


def _rational(text: str) -> Fraction:
    """A rational flag value, read by the documents' text rule (no
    exponent notation); a zero denominator is unusable input."""
    try:
        return rational_from_json(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _load_doc(path: str) -> dict:
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"document must be a JSON object, got {type(doc).__name__}")
    return doc


def _support_from_args(args):
    """The Support3 or BetaSupport that the flags name."""
    from .model import BetaSupport, Support3

    if getattr(args, "beta", None) is not None:
        return BetaSupport(_rational(args.alpha), _rational(args.beta))
    a, b, c = (_rational(v) for v in args.support.split(","))
    return Support3.from_values(a, b, c)


def _read_document(path: str):
    """The document at path as a Construction, whose ``from_json``
    re-certifies an algebraic line, or as a JointTable.  A wrong type
    anywhere in the document is unusable input."""
    from . import engine, model

    doc = _load_doc(path)
    schema = doc.get("schema")
    if schema != engine.WITNESS_SCHEMA and schema != model.TABLE_SCHEMA:
        raise ValueError("input is neither a witness nor a table document")
    try:
        if schema == model.TABLE_SCHEMA:
            return model.JointTable.from_json(doc)
        from .constructions import Construction

        return Construction.from_json(doc)
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed document: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_construct(args) -> int:
    from . import constructions

    family = args.family
    if family == "antidiagonal" and args.beta is None:
        raise ValueError("antidiagonal needs --beta (and --alpha)")
    if family == "slopeline" and args.beta is None and args.k is None:
        raise ValueError("slopeline needs --beta (and --alpha) or, for the "
                         "near-line variant, --k")
    if family == "empty":
        built = constructions.make_empty(_support_from_args(args))
    elif family == "all":
        built = constructions.make_full(_support_from_args(args))
    elif family == "diagonal":
        built = constructions.make_diagonal(_support_from_args(args))
    elif family == "singleton":
        j, k = parse_point(_require(args.point, "--point"))
        built = constructions.make_singleton(_support_from_args(args), j, k)
    elif family == "two-point":
        pts = _parse_points(_require(args.points, "--points"))
        if len(pts) != 2:
            raise ValueError("--points needs exactly two j,k pairs")
        built = constructions.make_two_point(_support_from_args(args), *pts)
    elif family == "vline":
        built = constructions.make_vline(
            _support_from_args(args), _require(args.j, "--j")
        )
    elif family == "hline":
        built = constructions.make_hline(
            _support_from_args(args), _require(args.k, "--k")
        )
    elif family == "cross":
        built = constructions.make_cross(
            _support_from_args(args), _require(args.j, "--j"), _require(args.k, "--k")
        )
    elif family == "antidiagonal":
        built = constructions.make_antidiagonal(
            _support_from_args(args), _require(args.m, "--m")
        )
    elif family == "slopeline":
        m = _require(args.m, "--m")
        if args.k is not None:
            params = constructions.SlopeLineParams(
                m=m,
                mode=constructions.MODE_BETA_STAR,
                k=args.k,
                width=_rational(args.width),
            )
        else:
            params = constructions.SlopeLineParams(
                m=m,
                mode=constructions.MODE_AT_OR_ABOVE,
                beta=_rational(_require(args.beta, "--beta")),
            )
        built = constructions.make_slopeline(params)
    elif family == "lattice-union":
        names = [n for n in (args.lattices or "").split(",") if n]
        built = constructions.make_lattice_union(_rational(args.alpha), names)
    else:
        raise ValueError(f"unknown family {family!r}")
    _emit(built.to_json())
    return 0


def _require(value, flag):
    if value is None:
        raise ValueError(f"this construction needs {flag}")
    return value


def _cmd_enumerate(args) -> int:
    from . import engine
    from .model import JointTable

    jmax, kmax = _parse_box(args.box)
    doc = _read_document(args.witness)
    if isinstance(doc, JointTable):
        points = engine.enumerate_box_table(doc, jmax, kmax)
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

    lo, hi = constructions.beta0(args.m, _rational(args.width))
    return _emit_root(lo, hi, m=args.m)


def _cmd_betastar(args) -> int:
    from . import constructions

    lo, hi = constructions.beta_star(args.m, args.k, _rational(args.width))
    return _emit_root(lo, hi, m=args.m, k=args.k)


def _cmd_det(args) -> int:
    from . import determinants

    if args.family == "f":
        result = determinants.f_check(args.m, args.n)
    elif args.family == "g":
        result = determinants.g_check(args.m, args.n)
    else:
        result = determinants.det2_check(args.m, args.n)
    _emit(result.to_json(summary=args.summary))
    return 0 if result.equal else 1


def _cmd_indep_cert(args) -> int:
    from . import determinants
    from .model import BetaSupport

    pts = _parse_points(args.points)
    support = BetaSupport(_rational(args.alpha), _rational(args.beta))
    cert = determinants.independence_certificate(pts, support)
    _emit(cert.to_json())
    return 0 if cert.independent else 1


def _cmd_selftest(args) -> int:
    from . import selftest

    failures = selftest.run(seed=args.seed, fast=args.fast)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncorrsets",
        description="exact uncorrelatedness sets of three-point uniform pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a witness for a set shape")
    p.add_argument(
        "family",
        choices=[
            "empty",
            "all",
            "diagonal",
            "singleton",
            "two-point",
            "vline",
            "hline",
            "cross",
            "antidiagonal",
            "slopeline",
            "lattice-union",
        ],
    )
    p.add_argument(
        "--support",
        default="1,2,3",
        help="a,b,c rational points; join a value that starts with '-' to "
        "the flag, as --support=-1,0,1",
    )
    p.add_argument("--alpha", default="1", help="scale of a geometric or symmetric support")
    p.add_argument("--beta", default=None, help="ratio of a geometric support")
    p.add_argument("--point", default=None, help="j,k")
    p.add_argument("--points", default=None, help="j1,k1;j2,k2")
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--lattices", default=None, help="comma list from ee,eo,oe,oo")
    p.add_argument("--width", default="1/1000000000000", help="isolation width")
    p.set_defaults(func=_cmd_construct)

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
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--width", default="1/1000000000000")
    p.set_defaults(func=_cmd_beta0)

    p = sub.add_parser("betastar", help="isolate the near-line ratio for (m, k)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--width", default="1/1000000000000")
    p.set_defaults(func=_cmd_betastar)

    p = sub.add_parser("det", help="check a determinant identity")
    p.add_argument("family", choices=["f", "g", "det2"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--summary", action="store_true", help="sizes only, no terms")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("indep-cert", help="certify four collinear order pairs")
    p.add_argument("--points", required=True, help="j1,k1;j2,k2;j3,k3;j4,k4")
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", required=True)
    p.set_defaults(func=_cmd_indep_cert)

    p = sub.add_parser("selftest", help="run the seeded invariant audit")
    p.add_argument("--seed", type=int, default=20250817)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
