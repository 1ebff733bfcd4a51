"""Membership testing, enumeration and verification of uncorrelatedness sets.

For X, Y uniform on a common positive ordered support, E[X^j Y^k] equals
E[X^j] E[Y^k] exactly when

    x1 + A_j x2 + A_k x3 + A_j A_k x4 = 0,

where A_j = (c^j - a^j) / (c^j - b^j) is a strictly decreasing sequence
of rationals larger than 1.  The engine exposes both routes to the same
fact: the moment route tests the definition on the joint table itself,
the condition route evaluates the linear form above.  They are kept
independent so one can audit the other.

Box enumeration on such supports uses the column law, in integers.
With the support over one denominator as pa < pb < pc, A_j = N_j / D_j
where N_j = pc^j - pa^j and D_j = pc^j - pb^j; with the offsets over one
denominator as (R + I sqrt(d)) / L, column j needs D_k U + N_k V = 0 for
U = D_j P1 + N_j P2 and V = D_j P3 + N_j P4, once for P = R and once for
P = I.  Since A is injective, a column is either whole (every U and V is
0), empty (some part has V = 0 but U != 0, or two parts disagree), or
holds the single k whose reduced (N_k, D_k) is the reduced (-U, V), if
any.  One integer solve per column replaces one exact evaluation per
cell, and ``condition_lhs`` stays as the per-cell oracle.

An uncorrelatedness set inside a finite box is summarized by a
``SetDescriptor`` (a shape claim such as "the column j = 2" or "the
antidiagonal j + k = 7") together with a certificate level: a
box-verified claim was checked by enumeration only, a global-analytic
claim additionally matches a witness pattern whose full zero set is
known.  ``shape_offsets`` holds the one pattern of each closed-form
kind; ``constructions`` builds its witnesses from it and
``check_analytic`` certifies any nonzero multiple of it:

    kind             offsets x, or power sums y = to_y(x)   support
    empty            x = (1, 0, 0, 0)                       any with b != -c
    all              x = (0, 0, 0, 0)                       any
    diagonal         x = (0, 1, -1, 0)                      positive ordered
    vline j          x = (0, 0, -A_j, 1)                    positive ordered
    hline k          x = (0, -A_k, 0, 1)                    positive ordered
    cross j, k       x = (A_j A_k, -A_k, -A_j, 1)           positive ordered
    antidiagonal m   y = (beta^m, 0, 0, -1)                 geometric
    slopeline m      y = slopeline_y_polys(m) at beta       geometric, beta >= beta0(m)

The x patterns make the condition form A_j - A_k, A_k (A_j - A_j0),
A_j (A_k - A_k0) or (A_j - A_j0)(A_k - A_k0), which vanish exactly on
the shape because A is injective; the antidiagonal's y makes the power
sum beta^m - beta^(j+k), and the slope line's ``slopeline_d_poly``.
Singletons, two points and parity-lattice unions are families of
witnesses with checks of their own.  ``verify_claim`` re-derives both
sides and reports missing and extra points instead of trusting the
claim.  ``compare_claim`` is the one verdict rule, also for sets
enumerated elsewhere (the algebraic slope line).  ``witness_from_json``
is the one parser of offset witness documents, which
``constructions.Construction.from_json`` reads through it.  The
slope-line polynomials come from ``slopeline``.

Symmetric supports (-v, 0, v) get their own classification: there A_j
degenerates to 0 for even j and 2 for odd j, the box collapses onto the
four parity classes, and membership is decided by four linear forms in
the offsets.  Box enumeration there emits the cells of the classes whose
form vanishes, and ``offsets_delta`` stays as the per-cell oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Sequence, Union

from . import linalg
from .model import (
    BetaSupport,
    JointTable,
    OffsetVector,
    Support3,
    SupportKind,
    YVector,
    from_y,
    support_from_json,
    to_y,
)
from .numeric import (
    MixedRadicand,
    QuadExt,
    Scalar,
    as_exact,
    exact_sign,
    int_from_json,
    over_one_denominator,
    sqrt_parts,
)
from .slopeline import beta0_poly, slopeline_y_polys

Point = tuple[int, int]
SupportLike = Union[Support3, BetaSupport]

DEFAULT_MAX_EXP = 64
ENV_MAX_EXP = "UNCORRSET_MAX_EXP"


class ExponentCapExceeded(ValueError):
    """A box, descriptor or construction asked for moments beyond the
    exponent cap."""


class IncompatibleDescriptor(ValueError):
    """Descriptor kind and support type cannot be combined."""


class LatticeInconsistent(RuntimeError):
    """Parity-class samples disagreed; the classification is unsound."""


def max_exponent() -> int:
    raw = os.environ.get(ENV_MAX_EXP)
    if raw is None:
        return DEFAULT_MAX_EXP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{ENV_MAX_EXP} must be a positive integer")
    return cap


def check_order(*orders: int, terms: int = 1) -> None:
    """Reject an order above the exponent cap; a sum of ``terms`` orders
    (an antidiagonal j + k) may reach ``terms`` times the cap."""
    limit = terms * max_exponent()
    for n in orders:
        if n > limit:
            raise ExponentCapExceeded(f"order {n} exceeds the exponent cap {limit}")


def _check_box(jmax: int, kmax: int) -> None:
    if jmax < 1 or kmax < 1:
        raise ValueError("box bounds must be at least 1")
    cap = max_exponent()
    if jmax > cap or kmax > cap:
        raise ExponentCapExceeded(
            f"box {jmax}x{kmax} exceeds the exponent cap {cap}"
        )


class ASequence:
    """Cached moment ratios A_j of a positive ordered support.

    Values are exact rationals; every access re-checks strict decrease
    against the cached neighbours, so a corrupted support cannot hand
    out a non-injective sequence silently.
    """

    def __init__(self, support: SupportLike):
        if isinstance(support, BetaSupport):
            self._beta: Fraction | None = support.beta
            self._points = support.to_support3().points
        else:
            if support.kind is not SupportKind.POSITIVE_ORDERED:
                raise ValueError("moment ratios need a positive ordered support")
            self._beta = None
            self._points = support.points
        self._cache: dict[int, Fraction] = {}

    def value(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("moment order must be >= 1")
        got = self._cache.get(j)
        if got is not None:
            return got
        if self._beta is not None:
            a = 1 + self._beta ** (-j)
        else:
            pa, pb, pc = self._points
            a = (pc**j - pa**j) / (pc**j - pb**j)
        if a <= 1:
            raise ArithmeticError(f"A_{j} = {a} fell to 1 or below")
        lower = [i for i in self._cache if i < j]
        upper = [i for i in self._cache if i > j]
        if lower and not self._cache[max(lower)] > a:
            raise ArithmeticError(f"A_{max(lower)} <= A_{j}: sequence not decreasing")
        if upper and not a > self._cache[min(upper)]:
            raise ArithmeticError(f"A_{j} <= A_{min(upper)}: sequence not decreasing")
        self._cache[j] = a
        return a

    __getitem__ = value


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


def condition_lhs(x: OffsetVector, seq: ASequence, j: int, k: int) -> Scalar:
    """x1 + A_j x2 + A_k x3 + A_j A_k x4; zero exactly at uncorrelated (j, k)."""
    x1, x2, x3, x4 = x.x
    aj, ak = seq.value(j), seq.value(k)
    return as_exact(x1 + aj * x2 + ak * x3 + aj * ak * x4)


def membership_rows(seq: ASequence, points: Iterable[Point]) -> list[list[Scalar]]:
    """The row (1, A_j, A_k, A_j A_k) of each point: x lies in its
    nullspace exactly when (j, k) satisfies x's membership condition."""
    rows = []
    for j, k in points:
        aj, ak = seq.value(j), seq.value(k)
        rows.append([Fraction(1), aj, ak, aj * ak])
    return rows


def offsets_delta(
    x: OffsetVector, support_x: Support3, support_y: Support3, j: int, k: int
) -> Scalar:
    """E[X^j Y^k] - E[X^j] E[Y^k] as a bilinear form in the deviations.

    Works for any supports and any scale of x, valid table or not,
    because the uniform 1/9 part cancels from the difference.
    """
    sx, sy = support_x.points, support_y.points
    dev = x.deviations()
    acc: Scalar = Fraction(0)
    for r in range(3):
        yk = sy[r] ** k
        for c in range(3):
            acc = acc + dev[r][c] * (sx[c] ** j * yk)
    return as_exact(acc)


def enumerate_box_offsets(
    x: OffsetVector, support: SupportLike, jmax: int, kmax: int
) -> list[Point]:
    """All uncorrelated (j, k) with 1 <= j <= jmax, 1 <= k <= kmax.

    Positive ordered supports are solved one column at a time in
    integers: with A_j = N_j / D_j and the offsets written as
    (R + I sqrt(d)) / L, column j is whole, empty, or holds the one k
    whose reduced (N_k, D_k) equals the column's key (the column law of
    the module docstring).  Symmetric supports (-v, 0, v) answer
    with the parity classes whose form ``_symmetric_lattices`` finds
    zero.  General-ordered supports evaluate the deviation bilinear form
    per cell from hoisted power tables.  Points come out sorted by j,
    then k; ``condition_lhs`` and ``offsets_delta`` remain the per-cell
    oracles.
    """
    _check_box(jmax, kmax)
    s3 = support.to_support3()
    if s3.kind is SupportKind.POSITIVE_ORDERED:
        ratios = _ratio_terms(s3, max(jmax, kmax))
        return _solve_columns(_offset_parts(x), ratios[:jmax], ratios[:kmax])
    if s3.kind is SupportKind.SYMMETRIC_ZERO:
        return _parity_cells(x, jmax, kmax)
    return _bilinear_cells(x, s3, jmax, kmax)


# The condition route in integers (the column law of the module
# docstring).  Times the positive number D_j D_k L, the condition
# x1 + A_j x2 + A_k x3 + A_j A_k x4 = 0 reads D_k U + N_k V = 0 for
# P = R and for P = I separately, since sqrt(d) is irrational.  A part
# with U = V = 0 holds on the whole column, one with V = 0 only holds
# nowhere (D_k > 0), any other exactly where A_k = -U / V; reduced integer
# pairs compare those ratios with no Fraction or QuadExt.


def _ratio_terms(s3: Support3, n: int) -> list[tuple[int, int]]:
    """(N_j, D_j) for j = 1..n, with A_j = N_j / D_j.  Like
    ``ASequence.value``, raises ArithmeticError unless every A_j > 1 and
    the sequence strictly decreases, so a corrupted support cannot hand
    out a non-injective sequence silently."""
    (pa, pb, pc), _ = over_one_denominator(s3.points)
    out: list[tuple[int, int]] = []
    a = b = c = 1
    for j in range(1, n + 1):
        a, b, c = a * pa, b * pb, c * pc
        num, den = c - a, c - b
        if not num > den > 0:
            raise ArithmeticError(f"A_{j} = {num}/{den} fell to 1 or below")
        if out and not out[-1][0] * den > num * out[-1][1]:
            raise ArithmeticError(f"A_{j - 1} <= A_{j}: sequence not decreasing")
        out.append((num, den))
    return out


def _offset_parts(x: OffsetVector) -> list[list[int]]:
    """R, and I when it is not zero, with x = (R + I sqrt(d)) / L."""
    radicands = sorted({v.d for v in x.x if isinstance(v, QuadExt)})
    if len(radicands) > 1:
        raise MixedRadicand(
            f"cannot combine sqrt({radicands[0]}) with sqrt({radicands[1]})"
        )
    rat, irr, _, _ = sqrt_parts(x.x)
    return [rat, irr] if any(irr) else [rat]


def _solve_columns(
    parts: list[list[int]],
    cols: Sequence[tuple[int, int]],
    rows: Sequence[tuple[int, int]],
) -> list[Point]:
    """The members of the box whose columns take (N_j, D_j) from cols and
    whose rows take (N_k, D_k) from rows, sorted by j, then k."""
    row_of = {}
    for k, (n, d) in enumerate(rows, 1):
        g = gcd(n, d)
        row_of[n // g, d // g] = k
    out: list[Point] = []
    for j, (nj, dj) in enumerate(cols, 1):
        keys = set()
        for p1, p2, p3, p4 in parts:
            u, v = dj * p1 + nj * p2, dj * p3 + nj * p4
            if v == 0:
                if u != 0:
                    break  # this part holds nowhere: the column is empty
                continue
            if v < 0:
                u, v = -u, -v
            g = gcd(u, v)
            keys.add((-u // g, v // g))
        else:
            if not keys:
                out.extend((j, k) for k in range(1, len(rows) + 1))
            elif len(keys) == 1 and (k := row_of.get(keys.pop())) is not None:
                out.append((j, k))
    return out


def _parity_cells(x: OffsetVector, jmax: int, kmax: int) -> list[Point]:
    """The box on (-v, 0, v), where for j, k >= 1 the deviation form is
    v^(j+k) times the form of the parity class of (j, k)."""
    zero = set(_symmetric_lattices(x))
    out: list[Point] = []
    for j in range(1, jmax + 1):
        # class names read "e" for an even order, "o" for an odd one
        starts = [k0 for k0 in (1, 2) if "eo"[j % 2] + "eo"[k0 % 2] in zero]
        if starts:
            step = 1 if len(starts) == 2 else 2
            out.extend((j, k) for k in range(starts[0], kmax + 1, step))
    return out


def _bilinear_cells(
    x: OffsetVector, s3: Support3, jmax: int, kmax: int
) -> list[Point]:
    # delta(j, k) = sum_r U_r(j) s_r^k with U_r(j) = sum_c dev[r][c] s_c^j
    dev = x.deviations()
    pts = s3.points
    powers = [tuple(p**n for p in pts) for n in range(max(jmax, kmax) + 1)]
    out: list[Point] = []
    for j in range(1, jmax + 1):
        pj = powers[j]
        u0, u1, u2 = (
            dev[r][0] * pj[0] + dev[r][1] * pj[1] + dev[r][2] * pj[2] for r in range(3)
        )
        for k in range(1, kmax + 1):
            p0, p1, p2 = powers[k]
            if exact_sign(u0 * p0 + u1 * p1 + u2 * p2) == 0:
                out.append((j, k))
    return out


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
    _check_box(jmax, kmax)
    return _moment_cells(table, range(1, jmax + 1), range(1, kmax + 1))


# ---------------------------------------------------------------------------
# set descriptors

KINDS = (
    "empty",
    "all",
    "finite",
    "vline",
    "hline",
    "cross",
    "diagonal",
    "antidiagonal",
    "slopeline",
    "lattice-union",
)

GLOBAL_ANALYTIC = "global-analytic"
BOX_VERIFIED = "box-verified"

# the integer fields each kind needs, with their least values
_KIND_FIELDS = {"vline": {"line_j": 1}, "hline": {"line_k": 1},
                "cross": {"line_j": 1, "line_k": 1},
                "antidiagonal": {"diag_sum": 2}, "slopeline": {"slope": 2}}

LATTICE_NAMES = ("ee", "eo", "oe", "oo")
# first (j, k) of each parity class; ee is even j, even k
_LATTICE_START = {"ee": (2, 2), "eo": (2, 1), "oe": (1, 2), "oo": (1, 1)}


@dataclass(frozen=True)
class SetDescriptor:
    """Shape claim about an uncorrelatedness set plus its certificate."""

    kind: str
    certificate: str = BOX_VERIFIED
    points: tuple[Point, ...] = ()
    line_j: int | None = None
    line_k: int | None = None
    diag_sum: int | None = None
    slope: int | None = None
    lattices: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")
        if self.certificate not in (GLOBAL_ANALYTIC, BOX_VERIFIED):
            raise ValueError(f"unknown certificate {self.certificate!r}")
        for name, least in _KIND_FIELDS.get(self.kind, {}).items():
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ValueError(f"{self.kind} needs an integer {name} >= {least}: {value!r}")
            check_order(value, terms=2 if name == "diag_sum" else 1)
        pts = tuple(sorted((int(j), int(k)) for j, k in self.points))
        if any(j < 1 or k < 1 for j, k in pts):
            raise ValueError("points must have positive coordinates")
        if self.kind == "finite":
            check_order(*(n for p in pts for n in p))
        object.__setattr__(self, "points", pts)
        # names are checked before sorting, which would compare them
        if any(not isinstance(name, str) or name not in LATTICE_NAMES
               for name in self.lattices):
            raise ValueError(f"unknown lattice names in {self.lattices!r}")
        object.__setattr__(self, "lattices", tuple(sorted(set(self.lattices))))

    # constructors named after the shapes they describe

    @classmethod
    def empty(cls, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("empty", certificate)

    @classmethod
    def all_points(cls, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("all", certificate)

    @classmethod
    def finite(
        cls, points: Iterable[Point], certificate: str = BOX_VERIFIED
    ) -> "SetDescriptor":
        return cls("finite", certificate, points=tuple(points))

    @classmethod
    def vline(cls, j: int, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("vline", certificate, line_j=int(j))

    @classmethod
    def hline(cls, k: int, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("hline", certificate, line_k=int(k))

    @classmethod
    def cross(
        cls, j: int, k: int, certificate: str = GLOBAL_ANALYTIC
    ) -> "SetDescriptor":
        return cls("cross", certificate, line_j=int(j), line_k=int(k))

    @classmethod
    def diagonal(cls, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("diagonal", certificate)

    @classmethod
    def antidiagonal(
        cls, total: int, certificate: str = GLOBAL_ANALYTIC
    ) -> "SetDescriptor":
        return cls("antidiagonal", certificate, diag_sum=int(total))

    @classmethod
    def slopeline(
        cls,
        slope: int,
        extra: Iterable[Point] = (),
        certificate: str = GLOBAL_ANALYTIC,
    ) -> "SetDescriptor":
        pts = [(i, slope * i) for i in (1, 2, 3)]
        pts.extend(extra)
        return cls("slopeline", certificate, points=tuple(pts), slope=int(slope))

    @classmethod
    def lattice_union(
        cls, names: Iterable[str], certificate: str = GLOBAL_ANALYTIC
    ) -> "SetDescriptor":
        names = tuple(names)
        if not names:
            return cls.empty(certificate)
        if set(names) == set(LATTICE_NAMES):
            return cls.all_points(certificate)
        return cls("lattice-union", certificate, lattices=names)

    def points_in_box(self, jmax: int, kmax: int) -> set[Point]:
        """The claimed set clipped to 1 <= j <= jmax, 1 <= k <= kmax."""
        if self.kind == "empty":
            return set()
        if self.kind == "all":
            return set(product(range(1, jmax + 1), range(1, kmax + 1)))
        if self.kind in ("finite", "slopeline"):
            return {
                (j, k) for j, k in self.points if j <= jmax and k <= kmax
            }
        if self.kind == "vline":
            if self.line_j > jmax:
                return set()
            return {(self.line_j, k) for k in range(1, kmax + 1)}
        if self.kind == "hline":
            if self.line_k > kmax:
                return set()
            return {(j, self.line_k) for j in range(1, jmax + 1)}
        if self.kind == "cross":
            out = set()
            if self.line_j <= jmax:
                out.update((self.line_j, k) for k in range(1, kmax + 1))
            if self.line_k <= kmax:
                out.update((j, self.line_k) for j in range(1, jmax + 1))
            return out
        if self.kind == "diagonal":
            return {(i, i) for i in range(1, min(jmax, kmax) + 1)}
        if self.kind == "antidiagonal":
            s = self.diag_sum
            return {(j, s - j) for j in range(max(1, s - kmax), min(jmax, s - 1) + 1)}
        if self.kind == "lattice-union":
            out = set()
            for name in self.lattices:
                j0, k0 = _LATTICE_START[name]
                out.update(product(range(j0, jmax + 1, 2), range(k0, kmax + 1, 2)))
            return out
        raise AssertionError(f"unhandled kind {self.kind}")

    # -- text and JSON forms -------------------------------------------

    def format_spec(self) -> str:
        if self.kind == "vline":
            return f"vline:{self.line_j}"
        if self.kind == "hline":
            return f"hline:{self.line_k}"
        if self.kind == "cross":
            return f"cross:{self.line_j},{self.line_k}"
        if self.kind == "antidiagonal":
            return f"antidiagonal:{self.diag_sum}"
        if self.kind == "finite":
            return "finite:" + ";".join(f"{j},{k}" for j, k in self.points)
        if self.kind == "slopeline":
            extras = [p for p in self.points if p[1] != self.slope * p[0] or p[0] > 3]
            head = f"slopeline:{self.slope}"
            if extras:
                return head + ";" + ";".join(f"{j},{k}" for j, k in extras)
            return head
        if self.kind == "lattice-union":
            return "lattices:" + ",".join(self.lattices)
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "SetDescriptor":
        """Parse forms like empty, vline:2, cross:2,3, finite:1,1;2,3."""
        text = text.strip()
        head, _, rest = text.partition(":")
        if head == "empty":
            return cls.empty()
        if head == "all":
            return cls.all_points()
        if head == "diagonal":
            return cls.diagonal()
        if head == "vline":
            return cls.vline(int(rest))
        if head == "hline":
            return cls.hline(int(rest))
        if head == "cross":
            j, k = rest.split(",")
            return cls.cross(int(j), int(k))
        if head == "antidiagonal":
            return cls.antidiagonal(int(rest))
        if head == "finite":
            pts = []
            for chunk in rest.split(";"):
                j, k = chunk.split(",")
                pts.append((int(j), int(k)))
            return cls.finite(pts)
        if head == "slopeline":
            chunks = rest.split(";")
            slope = int(chunks[0])
            extra = []
            for chunk in chunks[1:]:
                j, k = chunk.split(",")
                extra.append((int(j), int(k)))
            return cls.slopeline(slope, extra)
        if head == "lattices":
            return cls.lattice_union(rest.split(","))
        raise ValueError(f"cannot parse descriptor {text!r}")

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "certificate": self.certificate}
        if self.points:
            out["points"] = [list(p) for p in self.points]
        if self.line_j is not None:
            out["j"] = self.line_j
        if self.line_k is not None:
            out["k"] = self.line_k
        if self.diag_sum is not None:
            out["sum"] = self.diag_sum
        if self.slope is not None:
            out["slope"] = self.slope
        if self.lattices:
            out["lattices"] = list(self.lattices)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SetDescriptor":
        def order(key):
            value = obj.get(key)
            return None if value is None else int_from_json(value)

        return cls(
            obj["kind"],
            obj.get("certificate", BOX_VERIFIED),
            points=tuple(
                tuple(int_from_json(n) for n in p) for p in obj.get("points", ())
            ),
            line_j=order("j"),
            line_k=order("k"),
            diag_sum=order("sum"),
            slope=order("slope"),
            lattices=tuple(obj.get("lattices", ())),
        )


# ---------------------------------------------------------------------------
# closed-form shape patterns and the analytic check


def _positive_sequence(support: SupportLike, kind: str) -> ASequence:
    # lines, the diagonal and prescribed points rely on A_j being
    # injective, which only the strictly decreasing sequence of a
    # positive ordered support gives
    if support.to_support3().kind is not SupportKind.POSITIVE_ORDERED:
        raise IncompatibleDescriptor(
            f"a global {kind} claim needs a positive ordered support"
        )
    return ASequence(support)


def shape_offsets(desc: SetDescriptor, support: SupportLike) -> OffsetVector | None:
    """The offsets whose zero set is exactly the claimed shape, from the
    table in the module docstring; None for the family kinds ``finite``
    and ``lattice-union``.  Raises IncompatibleDescriptor when the
    support cannot carry the shape."""
    kind = desc.kind
    if kind in ("finite", "lattice-union"):
        return None
    if kind == "empty":
        _, b, c = support.to_support3().points
        if b == -c:
            # the condition (b^j - c^j)(b^k - c^k) vanishes at even orders
            raise IncompatibleDescriptor("an empty claim needs b != -c")
        return OffsetVector.of(1, 0, 0, 0)
    if kind == "all":
        return OffsetVector.of(0, 0, 0, 0)
    if kind in ("antidiagonal", "slopeline"):
        if not isinstance(support, BetaSupport):
            raise IncompatibleDescriptor(
                f"a global {kind} claim needs a geometric support"
            )
        beta = support.beta
        if kind == "antidiagonal":
            return from_y(YVector.of(beta**desc.diag_sum, 0, 0, -1))
        return from_y(YVector(tuple(p(beta) for p in slopeline_y_polys(desc.slope))))
    seq = _positive_sequence(support, kind)
    if kind == "diagonal":
        return OffsetVector.of(0, 1, -1, 0)
    if kind == "vline":
        return OffsetVector.of(0, 0, -seq.value(desc.line_j), 1)
    if kind == "hline":
        return OffsetVector.of(0, -seq.value(desc.line_k), 0, 1)
    if kind == "cross":
        aj, ak = seq.value(desc.line_j), seq.value(desc.line_k)
        return OffsetVector.of(aj * ak, -ak, -aj, 1)
    raise AssertionError(f"unhandled kind {kind}")


def _nonzero_multiple(x: OffsetVector, pattern: OffsetVector) -> bool:
    """x = c * pattern for some c != 0; for the zero pattern, x = 0."""
    if pattern.is_zero:
        return x.is_zero
    # pattern entries are rational; cross products avoid dividing by them
    i = next(n for n, v in enumerate(pattern.x) if exact_sign(v) != 0)
    xi, pi = x.x[i], pattern.x[i]
    return exact_sign(xi) != 0 and all(
        exact_sign(as_exact(v * pi - xi * p)) == 0 for v, p in zip(x.x, pattern.x)
    )


def _analytic_singleton(x: OffsetVector, seq: ASequence, p: Point) -> bool:
    x1, x2, x3, x4 = x.x
    if exact_sign(x4) != 0 or exact_sign(x2) == 0 or exact_sign(x3) == 0:
        return False
    ratio = as_exact(x2 / x3)
    if not isinstance(ratio, QuadExt):
        return False
    return exact_sign(condition_lhs(x, seq, p[0], p[1])) == 0


def _analytic_two_point(x: OffsetVector, seq: ASequence, pts: Sequence[Point]) -> bool:
    (j1, k1), (j2, k2) = pts
    if j1 == j2 or k1 == k2:
        return False
    # the integer parts of x = (rat + irr sqrt(d)) / L; neither test
    # below depends on the scale L
    rat, irr, _, _ = sqrt_parts(x.x)
    if not any(rat) or not any(irr):
        return False
    if linalg.rank([rat, irr]) != 2:
        return False
    rows = membership_rows(seq, pts)
    # the condition rows must be independent and both parts must solve them
    if linalg.rank(rows) != 2:
        return False
    for part in (rat, irr):
        for row in rows:
            if sum(r * v for r, v in zip(row, part)) != 0:
                return False
    return True


def _analytic_lattice_union(
    x: OffsetVector, support: SupportLike, names: Sequence[str]
) -> bool:
    if support.to_support3().kind is not SupportKind.SYMMETRIC_ZERO:
        raise IncompatibleDescriptor("parity lattices need a symmetric support")
    return set(names) == set(_symmetric_lattices(x))


def check_analytic(
    x: OffsetVector, support: SupportLike, desc: SetDescriptor
) -> bool | None:
    """Does the witness match a pattern whose global zero set is known?

    Returns None when the descriptor only claims box verification, True
    when the global-analytic pattern holds, False when it was claimed
    but does not hold.  A closed-form kind holds when x is a nonzero
    multiple of ``shape_offsets`` (x = 0 for ``all``); a slope line
    also needs exactly its three line points and beta >= beta0(m).
    """
    if desc.certificate != GLOBAL_ANALYTIC:
        return None
    kind = desc.kind
    if kind == "lattice-union":
        return _analytic_lattice_union(x, support, desc.lattices)
    if kind == "finite":
        seq = _positive_sequence(support, kind)
        if len(desc.points) == 1:
            return _analytic_singleton(x, seq, desc.points[0])
        if len(desc.points) == 2:
            return _analytic_two_point(x, seq, desc.points)
        return False
    pattern = shape_offsets(desc, support)
    if kind == "slopeline":
        m = desc.slope
        # extra points (the near-line fourth point) are never global claims
        if set(desc.points) != {(1, m), (2, 2 * m), (3, 3 * m)}:
            return False
        if beta0_poly(m)(support.beta) < 0:
            return False
    return _nonzero_multiple(x, pattern)


# ---------------------------------------------------------------------------
# verification reports

MATCH = "match"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class UncorrReport:
    """Outcome of re-deriving a claimed uncorrelatedness set."""

    verdict: str
    claimed: SetDescriptor
    box: tuple[int, int]
    found: tuple[Point, ...]
    missing: tuple[Point, ...]
    extra: tuple[Point, ...]
    analytic_ok: bool | None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "claimed": self.claimed.to_json(),
            "box": list(self.box),
            "found": [list(p) for p in self.found],
            "missing": [list(p) for p in self.missing],
            "extra": [list(p) for p in self.extra],
            "analytic": self.analytic_ok,
        }


def compare_claim(
    desc: SetDescriptor, jmax: int, kmax: int, found: Sequence[Point], analytic: bool | None
) -> UncorrReport:
    """Match when the box holds exactly the claimed points and the
    analytic check (None for a box-verified claim) did not fail."""
    predicted = desc.points_in_box(jmax, kmax)
    found_set = set(found)
    missing = tuple(sorted(predicted - found_set))
    extra = tuple(sorted(found_set - predicted))
    verdict = MATCH if not missing and not extra and analytic is not False else MISMATCH
    return UncorrReport(verdict, desc, (jmax, kmax), tuple(found), missing, extra, analytic)


def verify_claim(
    x: OffsetVector,
    support: SupportLike,
    desc: SetDescriptor,
    jmax: int,
    kmax: int,
) -> UncorrReport:
    """Enumerate the true set in the box and compare with the claim."""
    found = enumerate_box_offsets(x, support, jmax, kmax)
    return compare_claim(desc, jmax, kmax, found, check_analytic(x, support, desc))


# ---------------------------------------------------------------------------
# symmetric-support classification

# representative probe plus two consistency samples for each parity class
_LATTICE_PROBES: dict[str, tuple[Point, tuple[Point, Point]]] = {
    "ee": ((2, 2), ((4, 2), (2, 4))),
    "eo": ((2, 1), ((4, 1), (2, 3))),
    "oe": ((1, 2), ((1, 4), (3, 2))),
    "oo": ((1, 1), ((3, 1), (1, 3))),
}


def _symmetric_lattices(x: OffsetVector) -> list[str]:
    """Parity classes on which the condition form vanishes identically.

    On (-v, 0, v) the ratios A_j collapse to 0 (even j) or 2 (odd j), so
    membership of a whole parity class is one linear form in the offsets.
    """
    x1, x2, x3, x4 = x.x
    forms = {
        "ee": x1,
        "eo": x1 + 2 * x3,
        "oe": x1 + 2 * x2,
        "oo": x1 + 2 * x2 + 2 * x3 + 4 * x4,
    }
    return [name for name in LATTICE_NAMES if exact_sign(as_exact(forms[name])) == 0]


def classify_symmetric(table: JointTable) -> SetDescriptor:
    """Classify the uncorrelatedness set of a table on symmetric supports.

    The moment route probes one representative of each parity class and
    cross-checks two more samples per class; the condition route reads
    the four linear forms off the deviations.  Any disagreement raises
    LatticeInconsistent, since both routes are exact.
    """
    sx, sy = table.support_x, table.support_y
    if (
        sx.kind is not SupportKind.SYMMETRIC_ZERO
        or sy.kind is not SupportKind.SYMMETRIC_ZERO
    ):
        raise IncompatibleDescriptor("classification needs symmetric supports")

    by_moments = []
    for name in LATTICE_NAMES:
        rep, samples = _LATTICE_PROBES[name]
        member = is_uncorrelated(table, *rep)
        for s in samples:
            if is_uncorrelated(table, *s) != member:
                raise LatticeInconsistent(
                    f"samples of class {name} disagree with representative {rep}"
                )
        if member:
            by_moments.append(name)

    dev = [[table.entries[r][c] - Fraction(1, 9) for c in range(3)] for r in range(3)]
    x = OffsetVector((dev[1][1], dev[1][0], dev[0][1], dev[0][0]))
    by_forms = _symmetric_lattices(x)
    if by_forms != by_moments:
        raise LatticeInconsistent(
            f"moment probes found {by_moments} but the linear forms say {by_forms}"
        )
    return SetDescriptor.lattice_union(by_moments, GLOBAL_ANALYTIC)


# ---------------------------------------------------------------------------
# structural invariants of uncorrelatedness sets on positive supports

def column_closure_violations(
    points: Iterable[Point], jmax: int, kmax: int
) -> list[str]:
    """Columns or rows with two members that are not fully contained.

    On a positive ordered support, two uncorrelated points in a column
    force the whole column (likewise rows), so any violation means the
    point set cannot be an uncorrelatedness set.
    """
    pts = set(points)
    out = []
    for j in range(1, jmax + 1):
        hits = [k for k in range(1, kmax + 1) if (j, k) in pts]
        if len(hits) >= 2 and len(hits) < kmax:
            out.append(f"column j={j} has {len(hits)} of {kmax} points")
    for k in range(1, kmax + 1):
        hits = [j for j in range(1, jmax + 1) if (j, k) in pts]
        if len(hits) >= 2 and len(hits) < jmax:
            out.append(f"row k={k} has {len(hits)} of {jmax} points")
    return out


def cross_maximality_violations(
    points: Iterable[Point], jmax: int, kmax: int
) -> list[str]:
    """A full cross plus any point off it must already be the whole box."""
    pts = set(points)
    full = jmax * kmax
    if len(pts) == full:
        return []
    out = []
    for j0 in range(1, jmax + 1):
        for k0 in range(1, kmax + 1):
            col = all((j0, k) in pts for k in range(1, kmax + 1))
            row = all((j, k0) in pts for j in range(1, jmax + 1))
            if col and row:
                off = [p for p in pts if p[0] != j0 and p[1] != k0]
                if off:
                    out.append(
                        f"cross at ({j0}, {k0}) plus off-point {off[0]} "
                        f"but only {len(pts)} of {full} points present"
                    )
    return out


# ---------------------------------------------------------------------------
# witness documents

WITNESS_SCHEMA = "uncorrsets/witness"


def witness_from_json(obj: dict) -> tuple[OffsetVector, SupportLike, SetDescriptor]:
    """Offsets, support and claim of an offset witness document.  The
    power sums ``"y"`` are optional; when present they must be to_y(x)."""
    if obj.get("schema") != WITNESS_SCHEMA:
        raise ValueError("not a witness document")
    x = OffsetVector.from_json(obj["x"])
    if "y" in obj and YVector.from_json(obj["y"]) != to_y(x):
        raise ValueError("the witness's y is not the power sums to_y(x) of its x")
    return (
        x,
        support_from_json(obj["support"]),
        SetDescriptor.from_json(obj["descriptor"]),
    )
