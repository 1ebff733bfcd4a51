"""Three-point uniform supports and offset-parametrized joint tables.

A pair (X, Y) of random variables, each uniform on a three-point support,
has its joint pmf written as 1/9 plus a 3x3 table of deviations.  Uniform
marginals force every row and column of the deviation table to sum to
zero, which leaves four free offsets x1..x4 placed like this (rows are
Y = a, b, c; columns are X = a, b, c):

        x4          x3          -x3-x4
        x2          x1          -x1-x2
        -x2-x4      -x1-x3      x1+x2+x3+x4

Offsets may be rational or quadratic irrationals; probabilities must be
nonnegative, which ``rescale`` arranges by shrinking any offset vector
to the canonical scale 1/(18M) where M is the largest absolute deviation.
``offsets_of`` reads the offsets back off a table.  A ``Support3`` reads
its kind off its points; a document's kind label must agree with them.

Building and checking a table runs on integers.  The offsets are written
once as (R + I sqrt(d)) / L (``numeric.sqrt_parts``), so each deviation
is an integer combination of R and I over the same L, entry rc is
(L + 9 dev_rc) / (9L), and a table's own entries, written the same way,
pass exactly when every entry has ``quad_sign`` >= 0 and every row and
column has 3 sum R == L and sum I == 0.  ``Fraction`` and ``QuadExt``
objects are built only for the results; every table is still checked in
full when it is made.

The y-coordinates y1 = x4, y2 = x3+x4, y3 = x2+x4, y4 = x1+x2+x3+x4 turn
the uncorrelatedness condition on geometric supports into a four-term
power sum; ``to_y`` and ``from_y`` convert between the two charts.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence

from .numeric import (
    Frozen,
    MixedRadicand,
    QuadExt,
    Scalar,
    as_exact,
    exact_sign,
    format_rational,
    quad_sign,
    rational_from_json,
    scalar_from_json,
    scalar_from_parts,
    scalar_to_json,
    setfield,
    sqrt_parts,
)

NINTH = Fraction(1, 9)

# the schema names of the two documents, both here so that a reader can
# tell a table from a witness before it loads either route
TABLE_SCHEMA = "uncorrsets/table"
WITNESS_SCHEMA = "uncorrsets/witness"


class NegativeEntry(ValueError):
    """A joint table cell went negative; carries the offending (row, col)."""

    def __init__(self, row: int, col: int, value):
        super().__init__(f"entry ({row}, {col}) = {value} is negative")
        self.row = row
        self.col = col
        self.value = value


class ZeroVector(ValueError):
    """Rescaling the zero offset vector has no canonical scale."""


class SupportKind(enum.Enum):
    POSITIVE_ORDERED = "positive-ordered"
    SYMMETRIC_ZERO = "symmetric-zero"
    GENERAL_ORDERED = "general-ordered"


# why the points refuse each label but their own kind
_CONTRADICTED = {
    SupportKind.POSITIVE_ORDERED: "positive-ordered support must start above zero",
    SupportKind.SYMMETRIC_ZERO: "symmetric support must be (-v, 0, v): {}",
    SupportKind.GENERAL_ORDERED: "general-ordered support must start at or "
    "below zero and not be (-v, 0, v): {}",
}


class Support3(Frozen):
    """Three strictly increasing rational support points, and the kind
    they fix: (-v, 0, v) is symmetric, a first point above 0 is positive,
    anything else is general.  The kind is read off the points, so only
    they are compared."""

    __slots__ = ("points", "kind")

    def __init__(self, points: tuple[Fraction, Fraction, Fraction]):
        pts = tuple(Fraction(p) for p in points)
        if len(pts) != 3:
            raise ValueError("support needs exactly three points")
        if not (pts[0] < pts[1] < pts[2]):
            raise ValueError(f"support points must increase strictly: {pts}")
        if pts[1] == 0 and pts[0] == -pts[2]:
            kind = SupportKind.SYMMETRIC_ZERO
        elif pts[0] > 0:
            kind = SupportKind.POSITIVE_ORDERED
        else:
            kind = SupportKind.GENERAL_ORDERED
        setfield(self, "points", pts)
        setfield(self, "kind", kind)
        setfield(self, "_key", (pts,))

    @classmethod
    def from_values(cls, a, b, c) -> "Support3":
        return cls((a, b, c))

    @classmethod
    def symmetric(cls, alpha) -> "Support3":
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("symmetric support needs alpha > 0")
        return cls((-alpha, Fraction(0), alpha))

    def to_support3(self) -> "Support3":
        """Itself; lets code take a Support3 or a BetaSupport alike."""
        return self

    def to_json(self) -> dict:
        return {
            "points": [format_rational(p) for p in self.points],
            "kind": self.kind.value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Support3":
        """The support of a document, whose ``kind`` label must be the
        kind its points fix."""
        pts = [rational_from_json(p) for p in obj["points"]]
        label = SupportKind(obj["kind"])
        support = cls(tuple(pts))
        if support.kind is not label:
            raise ValueError(_CONTRADICTED[label].format(support.points))
        return support


class BetaSupport(Frozen):
    """Geometric support (alpha, alpha*beta, alpha*beta^2) with beta > 1."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if beta <= 1:
            raise ValueError("beta must exceed 1")
        setfield(self, "alpha", alpha)
        setfield(self, "beta", beta)
        setfield(self, "_key", (alpha, beta))

    def to_support3(self) -> Support3:
        a = self.alpha
        return Support3((a, a * self.beta, a * self.beta**2))

    def to_json(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BetaSupport":
        return cls(rational_from_json(obj["alpha"]), rational_from_json(obj["beta"]))


def support_from_json(obj: dict):
    if "alpha" in obj:
        return BetaSupport.from_json(obj)
    return Support3.from_json(obj)


def _deviation_table(x1, x2, x3, x4) -> tuple[tuple, ...]:
    """The deviation layout of the module docstring, for offsets of any
    ring: exact scalars, or the integer numerators R or I."""
    return (
        (x4, x3, -x3 - x4),
        (x2, x1, -x1 - x2),
        (-x2 - x4, -x1 - x3, x1 + x2 + x3 + x4),
    )


def _four(values: Sequence) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    vals = tuple(as_exact(v) for v in values)
    if len(vals) != 4:
        raise ValueError(f"expected four components, got {len(vals)}")
    return vals


class OffsetVector(Frozen):
    """The four free deviations (x1, x2, x3, x4) of a joint table."""

    __slots__ = ("x",)

    def __init__(self, x: tuple[Scalar, Scalar, Scalar, Scalar]):
        x = _four(x)
        setfield(self, "x", x)
        setfield(self, "_key", (x,))

    @classmethod
    def of(cls, x1, x2, x3, x4) -> "OffsetVector":
        return cls((x1, x2, x3, x4))

    @property
    def is_zero(self) -> bool:
        return all(exact_sign(v) == 0 for v in self.x)

    def deviations(self) -> tuple[tuple[Scalar, ...], ...]:
        """Full 3x3 deviation table, rows Y = a,b,c and columns X = a,b,c."""
        return _deviation_table(*self.x)

    def transpose(self) -> "OffsetVector":
        """Offsets of the swapped pair (Y, X): x2 and x3 trade places."""
        x1, x2, x3, x4 = self.x
        return OffsetVector((x1, x3, x2, x4))

    def scaled(self, factor) -> "OffsetVector":
        return OffsetVector(tuple(as_exact(factor * v) for v in self.x))

    def to_json(self) -> list:
        return [scalar_to_json(v) for v in self.x]

    @classmethod
    def from_json(cls, obj: Sequence) -> "OffsetVector":
        return cls(tuple(scalar_from_json(v) for v in obj))


class YVector(Frozen):
    """Power-sum coordinates (y1, y2, y3, y4) of an offset vector."""

    __slots__ = ("y",)

    def __init__(self, y: tuple[Scalar, Scalar, Scalar, Scalar]):
        y = _four(y)
        setfield(self, "y", y)
        setfield(self, "_key", (y,))

    @classmethod
    def of(cls, y1, y2, y3, y4) -> "YVector":
        return cls((y1, y2, y3, y4))

    def to_json(self) -> list:
        return [scalar_to_json(v) for v in self.y]

    @classmethod
    def from_json(cls, obj: Sequence) -> "YVector":
        return cls(tuple(scalar_from_json(v) for v in obj))


def to_y(x: OffsetVector) -> YVector:
    x1, x2, x3, x4 = x.x
    return YVector((x4, x3 + x4, x2 + x4, x1 + x2 + x3 + x4))


def from_y(y: YVector) -> OffsetVector:
    y1, y2, y3, y4 = y.y
    return OffsetVector((y4 - y2 - y3 + y1, y3 - y1, y2 - y1, y1))


def _integer_offsets(x: OffsetVector) -> tuple[list[int], list[int], int, int]:
    """(R, I, d, L) with x = (R + I sqrt(d)) / L."""
    try:
        return sqrt_parts(x.x)
    except MixedRadicand:
        # the deviation sums combine every pair of offsets, so they refuse
        # mixed radicands too, naming the pair they meet first
        x.deviations()
        raise


def rescale(x: OffsetVector) -> OffsetVector:
    """Scale offsets so every table entry lands in [1/18, 1/6].

    The canonical scale is (1/9) / (2M) with M the largest absolute
    deviation, so the most extreme cells sit exactly at 1/9 +- 1/18.
    With x = (R + I sqrt(d)) / L, every deviation is (r + i sqrt(d)) / L
    for integer combinations r of R and i of I, and M = (mr + mi sqrt(d))
    / L is found with ``quad_sign`` alone.  Then x / (18M) is
    (R + I sqrt(d)) (mr - mi sqrt(d)) / (18 (mr^2 - d mi^2)), whose
    integer parts are written straight into the result.
    """
    rat, irr, d, _ = _integer_offsets(x)
    if not any(rat) and not any(irr):
        raise ZeroVector("cannot rescale the zero offset vector")
    mr = mi = 0
    for row_r, row_i in zip(_deviation_table(*rat), _deviation_table(*irr)):
        for r, i in zip(row_r, row_i):
            if quad_sign(r, i, d) < 0:
                r, i = -r, -i
            if quad_sign(r - mr, i - mi, d) > 0:
                mr, mi = r, i
    den = 18 * (mr * mr - d * mi * mi)
    return OffsetVector(
        tuple(
            scalar_from_parts(r * mr - d * i * mi, i * mr - r * mi, d, den)
            for r, i in zip(rat, irr)
        )
    )


# the cells of each row, then of each column, of a flattened 3x3 table
_LINES = (
    ("row", ((0, 1, 2), (3, 4, 5), (6, 7, 8))),
    ("column", ((0, 3, 6), (1, 4, 7), (2, 5, 8))),
)


def _check_entries(cells: Sequence[Scalar]) -> None:
    """Raise unless the nine entries (row by row) are nonnegative and
    every row and column sums to 1/3; the entries are checked first, then
    the rows, then the columns, each in order.  One split of all nine
    entries serves every table from one field; ``_check_mixed`` gives the
    same checks, slower, for the rest."""
    try:
        rat, irr, d, den = sqrt_parts(cells)
    except MixedRadicand:
        _check_mixed(cells)
        # not reached: some row or column of a two-field table either
        # mixes the fields or leaves an irrational part over
        raise
    for n in range(9):
        if quad_sign(rat[n], irr[n], d) < 0:
            raise NegativeEntry(n // 3, n % 3, cells[n])
    for name, lines in _LINES:
        for k, (p, q, s) in enumerate(lines):
            if 3 * (rat[p] + rat[q] + rat[s]) != den or irr[p] + irr[q] + irr[s] != 0:
                raise ValueError(f"{name} {k} does not sum to 1/3")


def _check_mixed(cells: Sequence[Scalar]) -> None:
    """The checks of ``_check_entries`` for entries from two quadratic
    fields, each entry and each line split alone, so that the error raised
    is the first that entry signs and running line sums would meet."""
    for n, v in enumerate(cells):
        (r,), (i,), d, _ = sqrt_parts([v])
        if quad_sign(r, i, d) < 0:
            raise NegativeEntry(n // 3, n % 3, v)
    for name, lines in _LINES:
        for k, line in enumerate(lines):
            rat, irr, _, den = sqrt_parts([cells[n] for n in line])
            if 3 * sum(rat) != den or sum(irr) != 0:
                raise ValueError(f"{name} {k} does not sum to 1/3")


class JointTable(Frozen):
    """Joint pmf of (X, Y), both uniform on three points.

    entries[r][c] is P(X = support_x.points[c], Y = support_y.points[r]).
    Construction validates nonnegativity and the uniform marginals, on
    the entries written as (R + I sqrt(d)) / L: each entry's sign is
    ``quad_sign(R, I, d)``, and a row or column sums to 1/3 exactly when
    3 sum R == L and sum I == 0.
    """

    __slots__ = ("entries", "support_x", "support_y")

    def __init__(
        self,
        entries: tuple[tuple[Scalar, ...], ...],
        support_x: Support3,
        support_y: Support3,
    ):
        rows = tuple(tuple(as_exact(v) for v in row) for row in entries)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("joint table must be 3x3")
        _check_entries([v for row in rows for v in row])
        setfield(self, "entries", rows)
        setfield(self, "support_x", support_x)
        setfield(self, "support_y", support_y)
        setfield(self, "_key", (rows, support_x, support_y))

    @classmethod
    def independent(cls, support_x: Support3, support_y: Support3) -> "JointTable":
        row = (NINTH, NINTH, NINTH)
        return cls((row, row, row), support_x, support_y)

    def to_json(self) -> dict:
        return {
            "schema": TABLE_SCHEMA,
            "support_x": self.support_x.to_json(),
            "support_y": self.support_y.to_json(),
            "entries": [[scalar_to_json(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JointTable":
        return cls(
            tuple(
                tuple(scalar_from_json(v) for v in row) for row in obj["entries"]
            ),
            Support3.from_json(obj["support_x"]),
            Support3.from_json(obj["support_y"]),
        )


def table_from_offsets(
    x: OffsetVector, support_x: Support3, support_y: Support3
) -> JointTable:
    """1/9 plus the deviation table; raises NegativeEntry when invalid.

    With x = (R + I sqrt(d)) / L, entry rc is (L + 9 r + 9 i sqrt(d)) / (9L)
    for the integer deviation parts r and i; the JointTable checks it.
    """
    rat, irr, d, den = _integer_offsets(x)
    entries = tuple(
        tuple(
            scalar_from_parts(den + 9 * r, 9 * i, d, 9 * den)
            for r, i in zip(row_r, row_i)
        )
        for row_r, row_i in zip(_deviation_table(*rat), _deviation_table(*irr))
    )
    return JointTable(entries, support_x, support_y)


def offsets_of(table: JointTable) -> OffsetVector:
    """The inverse of ``table_from_offsets``: the offsets at their places in
    the deviation layout, for any object with 3x3 ``entries``."""
    (x4, x3, _), (x2, x1, _), _ = table.entries
    return OffsetVector((x1 - NINTH, x2 - NINTH, x3 - NINTH, x4 - NINTH))
