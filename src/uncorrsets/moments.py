"""The moment route: membership read off the joint table itself.

(j, k) is in U(X, Y) when E[X^j Y^k] = E[X^j] E[Y^k].  This module tests
that definition on a ``JointTable`` and its two supports, and reads
nothing else: no offsets, no moment ratios A_j and no condition form.
The condition route of ``engine`` decides the same sets from the four
offsets; the two are kept independent so one can audit the other, and
this module imports only ``numeric`` and ``model``, so a table run loads
no condition route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .model import JointTable
from .numeric import Point, Scalar, as_exact, check_box, over_one_denominator, sqrt_parts


# The moment route in integers.  Write the supports over one denominator
# each, x_c = px_c / qx and y_r = py_r / qy, and every table entry as
# (A_rc + B_rc sqrt(d)) / L, with L the least common denominator of all
# rational and irrational parts.  Times the positive number
# 9 L qx^j qy^k, the definition E[X^j Y^k] = E[X^j] E[Y^k] reads
#
#     9 sum_r Rint_r(j) py_r^k + 9 sqrt(d) sum_r Bint_r(j) py_r^k = L Sx(j) Sy(k)
#
# with the integers Rint_r(j) = sum_c A_rc px_c^j, Bint_r(j) = sum_c B_rc
# px_c^j, Sx(j) = sum_c px_c^j and Sy(k) = sum_r py_r^k.  A table lives in
# one Q(sqrt(d)) (its row and column sums could not mix radicands), and
# sqrt(d) is irrational, so the equation holds exactly when its rational
# part 9 sum_r Rint_r(j) py_r^k = L Sx(j) Sy(k) and its irrational part
# sum_r Bint_r(j) py_r^k = 0 vanish separately.  The integer form is taken
# once per table (``numeric.sqrt_parts``), Rint, Bint and Sx once per j,
# py_r^k and Sy once per k; a cell is then two 3-term integer sums and no
# Fraction or QuadExt.  The route reads only the table and its supports,
# never offsets or A_j.


def _moment_cells(
    table: JointTable, js: Iterable[int], ks: Iterable[int]
) -> list[Point]:
    """The (j, k) in js x ks with E[X^j Y^k] == E[X^j] E[Y^k], exactly;
    in the order of js, then ks.  Orders must be >= 0."""
    px, _ = over_one_denominator(table.support_x.points)
    py, _ = over_one_denominator(table.support_y.points)
    nums, b, _, den = sqrt_parts([e for row in table.entries for e in row])
    # 9 A_rc and B_rc at index 3r + c
    a = [9 * n for n in nums]
    by_k = []
    for k in ks:
        y0, y1, y2 = (p**k for p in py)
        by_k.append((k, y0, y1, y2, y0 + y1 + y2))
    out: list[Point] = []
    for j in js:
        x0, x1, x2 = (p**j for p in px)
        r0, r1, r2 = (a[i] * x0 + a[i + 1] * x1 + a[i + 2] * x2 for i in (0, 3, 6))
        b0, b1, b2 = (b[i] * x0 + b[i + 1] * x1 + b[i + 2] * x2 for i in (0, 3, 6))
        lsx = den * (x0 + x1 + x2)
        out.extend(
            (j, k)
            for k, y0, y1, y2, sy in by_k
            if r0 * y0 + r1 * y1 + r2 * y2 == lsx * sy
            and b0 * y0 + b1 * y1 + b2 * y2 == 0
        )
    return out


def moment(table: JointTable, j: int, k: int) -> Scalar:
    """E[X^j Y^k] straight from the joint table."""
    sx, sy = table.support_x.points, table.support_y.points
    terms = (
        e * (sx[c] ** j * sy[r] ** k)
        for r, row in enumerate(table.entries)
        for c, e in enumerate(row)
    )
    return as_exact(sum(terms, Fraction(0)))


def is_uncorrelated(table: JointTable, j: int, k: int) -> bool:
    """Moment-route membership test: E[X^j Y^k] == E[X^j] E[Y^k], exactly."""
    if j < 0 or k < 0:
        raise ValueError("moment order must be >= 0")
    return bool(_moment_cells(table, (j,), (k,)))


def enumerate_box_table(table: JointTable, jmax: int, kmax: int) -> list[Point]:
    """Moment-route enumeration; the assumption-free cross-check.

    Each cell is tested on the definition E[X^j Y^k] = E[X^j] E[Y^k]
    multiplied by 9 L qx^j qy^k, so that both sides are integers (the
    integer form written out above ``_moment_cells``).  The integer form
    of the table is taken once, the row sums Rint_r(j), Bint_r(j) and
    Sx(j) once per j <= jmax, the powers py_r^k and Sy(k) once per
    k <= kmax.  That is O(J + K) powers, after which each cell costs two
    3-term integer sums: the rational and the irrational part of the
    equation must vanish separately, because sqrt(d) is irrational.
    Points come out sorted by j, then k; ``is_uncorrelated`` is the same
    test for a single cell.
    """
    check_box(jmax, kmax)
    return _moment_cells(table, range(1, jmax + 1), range(1, kmax + 1))
