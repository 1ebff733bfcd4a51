"""Offset witnesses realizing the achievable uncorrelatedness-set shapes.

Every builder returns offsets whose zero set is known in closed form, so
the engine's checks can certify the claim globally.  The empty and full
sets, the diagonal, columns, rows, crosses and antidiagonals take the one
pattern ``engine.shape_offsets`` gives their descriptor (the table is in
the ``engine`` docstring), so builder and checker cannot drift apart.
The other families built here are:

* one or two prescribed points (two on distinct rows and columns), as
  -(n1 + sqrt(2) n2) and n1 + sqrt(2) n2 for the basis n1, n2 that
  ``engine.finite_parts`` takes from the nullspace of their integer
  membership rows, the pattern space ``check_analytic`` certifies them
  against;
* unions of parity classes on a symmetric support (-alpha, 0, alpha).

``Construction`` is the one in-memory witness: ``to_json`` is the one
writer of witness documents and ``from_json`` the one reader;
``enumerate_box``, ``verify`` and ``table`` serve offsets and algebraic
lines alike, and ``verify`` holds the rule for a claim on an algebraic
line.

The slope line, whose builders live in ``constructions`` and whose
algebraic form lives in ``algebraic``, is the one family that needs
``polynomials``.  This module imports it only where ``from_json`` meets
an algebraic line, so building or reading an offset witness loads no
polynomial code.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import (
    BOX_VERIFIED,
    GLOBAL_ANALYTIC,
    LATTICE_NAMES,
    Point,
    SetDescriptor,
    SupportLike,
    UncorrReport,
    compare_claim,
    enumerate_box_offsets,
    finite_parts,
    shape_offsets,
    verify_claim,
    witness_from_json,
)
from .model import (
    BetaSupport,
    JointTable,
    OffsetVector,
    Support3,
    WITNESS_SCHEMA,
    YVector,
    rescale,
    table_from_offsets,
    to_y,
)
from .numeric import Frozen, QuadExt, setfield


class Construction(Frozen):
    """A witness bundled with its support and certified shape claim."""

    __slots__ = ("name", "descriptor", "support", "x", "y", "algebraic")

    def __init__(
        self,
        name: str,
        descriptor: SetDescriptor,
        support: SupportLike | None = None,
        x: OffsetVector | None = None,
        y: YVector | None = None,
        algebraic: "AlgebraicSlopeLine | None" = None,
    ):
        setfield(self, "name", name)
        setfield(self, "descriptor", descriptor)
        setfield(self, "support", support)
        setfield(self, "x", x)
        setfield(self, "y", y)
        setfield(self, "algebraic", algebraic)
        setfield(self, "_key", (name, descriptor, support, x, y, algebraic))

    def to_json(self) -> dict:
        out: dict = {
            "schema": WITNESS_SCHEMA,
            "name": self.name,
            "descriptor": self.descriptor.to_json(),
        }
        if self.support is not None:
            out["support"] = self.support.to_json()
        if self.x is not None:
            out["x"] = self.x.to_json()
        if self.y is not None:
            out["y"] = self.y.to_json()
        if self.algebraic is not None:
            out["algebraic"] = self.algebraic.to_json()
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "Construction":
        """The witness of a document: offsets through
        ``engine.witness_from_json``, an algebraic line re-certified, with
        its power sums ``y_polys``, when present, slopeline_y_polys(m).
        The inverse of ``to_json`` on every document it writes."""
        name = doc.get("name", "")
        if "algebraic" not in doc:
            # witness_from_json has checked that a "y" is to_y(x)
            x, support, desc = witness_from_json(doc)
            return cls(name, desc, support, x, to_y(x) if "y" in doc else None)
        if doc.get("schema") != WITNESS_SCHEMA:
            raise ValueError("not a witness document")
        from .algebraic import AlgebraicSlopeLine
        from .polynomials import IntPoly
        from .slopeline import slopeline_y_polys

        alg = doc["algebraic"]
        line = AlgebraicSlopeLine.from_json(alg)
        line.certify()
        # checked after certify, whose P bounds m
        if "y_polys" in alg:
            ys = tuple(map(IntPoly.from_json, alg["y_polys"]))
            if ys != slopeline_y_polys(line.m):
                raise ValueError(f"y_polys are not slopeline_y_polys({line.m})")
        return cls(name, SetDescriptor.from_json(doc["descriptor"]), algebraic=line)

    def enumerate_box(self, jmax: int, kmax: int) -> list[Point]:
        if self.algebraic is not None:
            return self.algebraic.enumerate_box(jmax, kmax)
        return enumerate_box_offsets(self.x, self.support, jmax, kmax)

    def verify(self, desc: SetDescriptor, jmax: int, kmax: int) -> UncorrReport:
        """The claim desc judged against the witness's set in the box."""
        if self.algebraic is None:
            return verify_claim(self.x, self.support, desc, jmax, kmax)
        # nothing proves the whole set of a line at an algebraic ratio, so
        # a global-analytic claim on it fails its analytic check
        analytic = None if desc.certificate == BOX_VERIFIED else False
        found = self.algebraic.enumerate_box(jmax, kmax)
        return compare_claim(desc, jmax, kmax, found, analytic)

    def table(self) -> JointTable:
        """The joint table of the offsets, rescaled into valid weights, on
        the support taken for both coordinates."""
        if self.algebraic is not None:
            raise ValueError("a line at an algebraic ratio has no rational table")
        s3 = self.support.to_support3()
        x = self.x if self.x.is_zero else rescale(self.x)
        return table_from_offsets(x, s3, s3)


def _closed_form(desc: SetDescriptor, support: SupportLike) -> Construction:
    """The witness ``shape_offsets`` gives for the claim, named by its kind;
    the kinds whose pattern is written in power sums also carry y."""
    x = shape_offsets(desc, support)
    y = to_y(x) if desc.kind in ("antidiagonal", "slopeline") else None
    return Construction(desc.kind, desc, support, x, y)


def make_empty(support: SupportLike) -> Construction:
    return _closed_form(SetDescriptor.empty(), support)


def make_full(support: SupportLike) -> Construction:
    return _closed_form(SetDescriptor.all_points(), support)


def make_diagonal(support: SupportLike) -> Construction:
    return _closed_form(SetDescriptor.diagonal(), support)


def make_vline(support: SupportLike, j: int) -> Construction:
    return _closed_form(SetDescriptor.vline(j), support)


def make_hline(support: SupportLike, k: int) -> Construction:
    return _closed_form(SetDescriptor.hline(k), support)


def make_cross(support: SupportLike, j: int, k: int) -> Construction:
    return _closed_form(SetDescriptor.cross(j, k), support)


def _prescribed(
    name: str, support: SupportLike, points: tuple[Point, ...], sign: int
) -> Construction:
    """sign (n1 + sqrt(2) n2) for the basis n1, n2 of ``finite_parts``;
    the points are checked by the descriptor before the rows are built."""
    desc = SetDescriptor.finite(points, GLOBAL_ANALYTIC)
    n1, n2 = finite_parts(support, points)
    x = OffsetVector(tuple(QuadExt(sign * a, sign * b, 2) for a, b in zip(n1, n2)))
    return Construction(name, desc, support, x)


def make_singleton(support: SupportLike, j0: int, k0: int) -> Construction:
    """At -(n1 + sqrt(2) n2) the condition form x1 + A_j x2 + A_k x3 +
    A_j A_k x4 is (A_j0 - A_j) + sqrt(2) (A_k0 - A_k): both parts are
    rational, so it vanishes only when both do, which pins down (j0, k0)
    since A is injective."""
    return _prescribed("singleton", support, ((j0, k0),), -1)


def make_two_point(support: SupportLike, p1: Point, p2: Point) -> Construction:
    """n1 + sqrt(2) n2 vanishes at (j, k) only if its row lies in the span
    of the rows of p1 and p2, which the bilinear pattern forbids except at
    the two points.  Needs distinct rows and distinct columns; a shared
    line would force that whole line in."""
    return _prescribed("two-point", support, (p1, p2), 1)


def make_antidiagonal(support: BetaSupport, m: int) -> Construction:
    return _closed_form(SetDescriptor.antidiagonal(m), support)


def make_lattice_union(alpha, names) -> Construction:
    """Offsets on (-alpha, 0, alpha) vanishing on exactly the named classes.

    The four parity-class forms are an invertible linear image of the
    offsets, so target values (0 on wanted classes, 1 elsewhere) pin the
    witness down uniquely.
    """
    support = Support3.symmetric(alpha)
    names = tuple(names)
    desc = SetDescriptor.lattice_union(names, GLOBAL_ANALYTIC)
    want = {lat: Fraction(0 if lat in names else 1) for lat in LATTICE_NAMES}
    x1 = want["ee"]
    x3 = (want["eo"] - want["ee"]) / 2
    x2 = (want["oe"] - want["ee"]) / 2
    x4 = (want["oo"] - want["oe"] - want["eo"] + want["ee"]) / 4
    return Construction("lattice-union", desc, support, OffsetVector.of(x1, x2, x3, x4))
