"""Membership testing, enumeration and verification of uncorrelatedness sets.

X and Y are uniform on a common support of three distinct points.  This
module is the condition route, which decides membership from the four
offsets.  The moment route, which tests E[X^j Y^k] = E[X^j] E[Y^k] on
the joint table itself, lives in ``moments``; the two are kept
independent so one can audit the other.  ``enumerate_box_table``,
``is_uncorrelated`` and ``moment`` are bound here too, and
``classify_symmetric`` reads its moment probes through them.

The condition route is one column law for every support.  With the
support over one denominator as pa < pb < pc, set P_j = pc^j - pa^j and
Q_j = pc^j - pb^j.  Summed against the powers with no division, the
deviation table of ``model`` makes E[X^j Y^k] - E[X^j] E[Y^k] a positive
multiple of

    Q_k U + P_k V,   U = Q_j x1 + P_j x2,   V = Q_j x3 + P_j x4,

which must vanish for x = R and x = I separately when the offsets are
(R + I sqrt(d)) / L, since sqrt(d) is irrational.  (P_k, Q_k) != (0, 0),
as three distinct numbers cannot share one k-th power.  So column j is
whole when every part has U = V = 0, empty when two parts disagree, and
otherwise holds the k whose ratio (P_k : Q_k) is the (-U : V) of its
nonzero parts: one k on a positive ordered support, where A_j = P_j / Q_j
is larger than 1 and strictly decreasing; a parity class on (-v, 0, v),
where the ratio is 0 : 1 for even k and 2 : 1 for odd k; every even k,
where Q_k = 0, when b = -c.  ``offsets_delta`` (the deviation form) and,
on positive ordered supports, ``condition_lhs`` (x1 + A_j x2 + A_k x3 +
A_j A_k x4, the form over Q_j Q_k) stay as the per-cell oracles.

An uncorrelatedness set is claimed by a ``SetDescriptor``: a kind, the
integer ``params`` that ``KINDS`` declares for it (JSON keys and least
values), the ``points`` of a ``finite`` set or a ``slopeline`` (whose
constructor lists (i, m i) for i = 1, 2, 3 and any extra points), the
parity ``lattices`` of a ``lattice-union``, and a certificate level.  A
box-verified claim was checked by enumeration only; a global-analytic
claim is also proved for every (j, k) by its witness (below).  Each
descriptor builds its set once, as a ``SetForm`` in one normal form:
whole columns, whole rows, lines q k = p j + d, parity classes and
finite points, with every finite set as points and the full grid as the
four classes, so equal sets have equal forms.
``points_in_box`` clips the form to a box; the text form
``kind[:params][;points]`` and the JSON form are generic.
``shape_offsets`` holds the one pattern of each closed-form kind, and
``witnesses`` (with ``constructions`` for the slope line) builds its
witnesses from it:

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

One rule certifies a global claim.  (j, k) is a member exactly when its
integer row, (Q_j Q_k, P_j Q_k, Q_j P_k, P_j P_k) by the column law
(``membership_rows``), is orthogonal to both parts R and I of
x = (R + I sqrt(d)) / L, so the set of x depends only on span(R, I).
``check_analytic`` proves a claim when that span is the claim's pattern
space, by two integer ``linalg.rank`` calls.  The space is {0} for
``all``; the line of the pattern for the other closed forms, so every
nonzero Q(sqrt(d)) multiple of it is proved; and for one or two
``finite`` points the plane of ``finite_parts``, the first two vectors
of the reduced nullspace basis of their rows.  For one point (j0, k0)
that plane is where x4 = 0, and the condition reads
x2 (A_j - A_j0) + x3 (A_k - A_k0), whose only zero is (j0, k0) when
x3 / x2 is irrational; for two points on distinct rows and columns it is
the whole nullspace.  Three points, or two on one row or column, are
never proved.  The rows and the vline, hline and cross patterns read
the integer (P_j, Q_j) of ``_ratio_terms``, the one production source of
A_j; ``ASequence`` stays only as the per-cell oracle of ``condition_lhs``.

``verify_claim`` re-derives both sides and reports missing and extra
points instead of trusting the claim.  ``compare_claim`` is the one
verdict rule, also for sets enumerated elsewhere (the algebraic slope
line).  ``witness_from_json`` is the one parser of offset witness
documents, which ``witnesses.Construction.from_json`` reads through
it.  The slope-line polynomials come from ``slopeline``, imported inside
the two slope-line branches only, so a table route loads no polynomial
code.

On symmetric supports (-v, 0, v), (P_j : Q_j) is (0 : 1) for even j and
(2 : 1) for odd j, so membership is constant on the four parity classes
and the column law on the 2x2 box decides them (``_parity_classes``).
``check_analytic`` proves a lattice-union claim when those classes are
the claimed ones, and ``classify_symmetric`` checks them against moment
probes on the table.
"""

from __future__ import annotations

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
    WITNESS_SCHEMA,
    YVector,
    from_y,
    offsets_of,
    support_from_json,
    to_y,
)
from .moments import enumerate_box_table, is_uncorrelated, moment
from .numeric import (
    ExponentCapExceeded,
    Frozen,
    Point,
    Scalar,
    as_exact,
    check_box,
    check_order,
    int_from_json,
    max_exponent,
    over_one_denominator,
    parse_points,
    setfield,
    sqrt_parts,
)

# engine's descriptors and boxes raise ExponentCapExceeded, so it stays an
# engine name; max_exponent stays bound because perfbench reads the cap here

SupportLike = Union[Support3, BetaSupport]


class IncompatibleDescriptor(ValueError):
    """Descriptor kind and support type cannot be combined."""


class LatticeInconsistent(RuntimeError):
    """Parity-class samples disagreed; the classification is unsound."""


class DegenerateSystem(RuntimeError):
    """A membership system lost rank; valid supports cannot do that."""


class ASequence:
    """Cached moment ratios A_j of a positive ordered support, geometric
    ones included, each (c^j - a^j) / (c^j - b^j) of the three points.

    Values are exact rationals; every access re-checks strict decrease
    against the cached neighbours, so a corrupted support cannot hand
    out a non-injective sequence silently.
    """

    def __init__(self, support: SupportLike):
        s3 = support.to_support3()
        if s3.kind is not SupportKind.POSITIVE_ORDERED:
            raise ValueError("moment ratios need a positive ordered support")
        self._points = s3.points
        self._cache: dict[int, Fraction] = {}

    def value(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("moment order must be >= 1")
        got = self._cache.get(j)
        if got is not None:
            return got
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


def condition_lhs(x: OffsetVector, seq: ASequence, j: int, k: int) -> Scalar:
    """x1 + A_j x2 + A_k x3 + A_j A_k x4; zero exactly at uncorrelated (j, k)."""
    x1, x2, x3, x4 = x.x
    aj, ak = seq.value(j), seq.value(k)
    return as_exact(x1 + aj * x2 + ak * x3 + aj * ak * x4)


def membership_rows(
    terms: Sequence[tuple[int, int]], points: Iterable[Point]
) -> list[list[int]]:
    """The integer row (Q_j Q_k, P_j Q_k, Q_j P_k, P_j P_k) of each point,
    with (P_j, Q_j) = terms[j - 1]: x lies in its nullspace exactly when
    (j, k) satisfies x's membership condition."""
    rows = []
    for j, k in points:
        (pj, qj), (pk, qk) = terms[j - 1], terms[k - 1]
        rows.append([qj * qk, pj * qk, qj * pk, pj * pk])
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
    """All uncorrelated (j, k) with 1 <= j <= jmax, 1 <= k <= kmax, sorted
    by j, then k: one integer solve per column on every support, by the
    column law of the module docstring."""
    check_box(jmax, kmax)
    terms = _ratio_terms(support.to_support3(), max(jmax, kmax))
    return _solve_columns(_offset_parts(x), terms[:jmax], terms[:kmax])


def _ratio_terms(s3: Support3, n: int) -> list[tuple[int, int]]:
    """(P_j, Q_j) = (pc^j - pa^j, pc^j - pb^j) for j = 1..n.  On a
    positive ordered support A_j = P_j / Q_j, and, like
    ``ASequence.value``, this raises ArithmeticError unless every A_j > 1
    and the sequence strictly decreases, so a corrupted support cannot
    hand out a non-injective sequence silently."""
    (pa, pb, pc), _ = over_one_denominator(s3.points)
    audit = s3.kind is SupportKind.POSITIVE_ORDERED
    out: list[tuple[int, int]] = []
    a = b = c = 1
    for j in range(1, n + 1):
        a, b, c = a * pa, b * pb, c * pc
        p, q = c - a, c - b
        if audit:
            if not p > q > 0:
                raise ArithmeticError(f"A_{j} = {p}/{q} fell to 1 or below")
            if out and not out[-1][0] * q > p * out[-1][1]:
                raise ArithmeticError(f"A_{j - 1} <= A_{j}: sequence not decreasing")
        out.append((p, q))
    return out


def _offset_parts(x: OffsetVector) -> list[list[int]]:
    """R, and I when it is not zero, with x = (R + I sqrt(d)) / L."""
    rat, irr, _, _ = sqrt_parts(x.x)
    return [rat, irr] if any(irr) else [rat]


def _solve_columns(
    parts: list[list[int]],
    cols: Sequence[tuple[int, int]],
    rows: Sequence[tuple[int, int]],
) -> list[Point]:
    """The members of the box whose columns take (P_j, Q_j) from cols and
    whose rows take (P_k, Q_k) from rows, sorted by j, then k.  A ratio
    (p : q) is keyed by its reduced pair with q > 0, or q = 0 and p > 0,
    so equal ratios meet in one dict with no Fraction or QuadExt."""
    rows_of: dict[tuple[int, int], list[int]] = {}
    for k, (p, q) in enumerate(rows, 1):
        if q < 0 or q == 0 and p < 0:
            p, q = -p, -q
        g = gcd(p, q)  # never 0: the points are distinct
        rows_of.setdefault((p // g, q // g), []).append(k)
    whole = range(1, len(rows) + 1)
    out: list[Point] = []
    for j, (pj, qj) in enumerate(cols, 1):
        key = None
        for p1, p2, p3, p4 in parts:
            # the ratio (-u : v), keyed as the rows are
            u, v = qj * p1 + pj * p2, qj * p3 + pj * p4
            if v < 0 or v == 0 and u > 0:
                u, v = -u, -v
            g = gcd(u, v)
            if g == 0:
                continue  # this part holds on the whole column
            if key is None:
                key = (-u // g, v // g)
            elif key != (-u // g, v // g):
                break  # the parts disagree: the column is empty
        else:
            for k in whole if key is None else rows_of.get(key, ()):
                out.append((j, k))
    return out


# ---------------------------------------------------------------------------
# set descriptors

# each kind with the JSON keys of its integer parameters and their least
# values; an antidiagonal ``sum`` of two orders may reach twice the cap
KINDS: dict[str, dict[str, int]] = {
    "empty": {},
    "all": {},
    "finite": {},
    "vline": {"j": 1},
    "hline": {"k": 1},
    "cross": {"j": 1, "k": 1},
    "diagonal": {},
    "antidiagonal": {"sum": 2},
    "slopeline": {"slope": 2},
    "lattice-union": {},
}
# the kinds whose set is their listed points
_POINT_KINDS = ("finite", "slopeline")

GLOBAL_ANALYTIC = "global-analytic"
BOX_VERIFIED = "box-verified"

LATTICE_NAMES = ("ee", "eo", "oe", "oo")
# first (j, k) of each parity class; ee is even j, even k
_LATTICE_START = {"ee": (2, 2), "eo": (2, 1), "oe": (1, 2), "oo": (1, 1)}
_CLASS_AT = {start: name for name, start in _LATTICE_START.items()}


def _on_line(m: int) -> tuple[Point, ...]:
    """The three points (i, m i) that every slope line m holds."""
    return ((1, m), (2, 2 * m), (3, 3 * m))


class SetForm(Frozen):
    """A subset of N^2 as the union of whole columns j, whole rows k,
    lines q k = p j + d given as (q, p, d), parity classes and finite
    points (the normal form of the module docstring)."""

    __slots__ = ("cols", "rows", "lines", "classes", "points")

    def __init__(
        self,
        cols: frozenset[int] = frozenset(),
        rows: frozenset[int] = frozenset(),
        lines: frozenset[tuple[int, int, int]] = frozenset(),
        classes: frozenset[str] = frozenset(),
        points: frozenset[Point] = frozenset(),
    ):
        setfield(self, "cols", cols)
        setfield(self, "rows", rows)
        setfield(self, "lines", lines)
        setfield(self, "classes", classes)
        setfield(self, "points", points)
        setfield(self, "_key", (cols, rows, lines, classes, points))

    def clip(self, jmax: int, kmax: int) -> set[Point]:
        """The set clipped to 1 <= j <= jmax, 1 <= k <= kmax."""
        out = {(j, k) for j, k in self.points if j <= jmax and k <= kmax}
        out.update(product([j for j in self.cols if j <= jmax], range(1, kmax + 1)))
        out.update(product(range(1, jmax + 1), [k for k in self.rows if k <= kmax]))
        for q, p, d in self.lines:
            for j in range(1, jmax + 1):
                k, r = divmod(p * j + d, q)
                if r == 0 and 1 <= k <= kmax:
                    out.add((j, k))
        for name in self.classes:
            j0, k0 = _LATTICE_START[name]
            out.update(product(range(j0, jmax + 1, 2), range(k0, kmax + 1, 2)))
        return out


def _form(
    kind: str, params: tuple[int, ...], points: tuple[Point, ...], lattices: tuple[str, ...]
) -> SetForm:
    """The set a descriptor names, in the normal form: every finite set
    as points, the full grid as the four classes.  Each kind reads only
    its own fields, so a stray field never changes the set."""
    if kind in _POINT_KINDS:
        return SetForm(points=frozenset(points))
    if kind == "all":
        return SetForm(classes=frozenset(LATTICE_NAMES))
    if kind == "lattice-union":
        return SetForm(classes=frozenset(lattices))
    if kind == "vline":
        return SetForm(cols=frozenset(params))
    if kind == "hline":
        return SetForm(rows=frozenset(params))
    if kind == "cross":
        j, k = params
        return SetForm(cols=frozenset((j,)), rows=frozenset((k,)))
    if kind == "diagonal":
        return SetForm(lines=frozenset({(1, 1, 0)}))
    if kind == "antidiagonal":
        (s,) = params
        return SetForm(points=frozenset((j, s - j) for j in range(1, s)))
    return SetForm()


def _params_refused(kind: str, given) -> ValueError:
    """The error for parameters that are not the ones ``KINDS`` declares."""
    return ValueError(f"{kind} takes the integer parameters "
                      f"({', '.join(KINDS[kind])}), not {given!r}")


class SetDescriptor(Frozen):
    """Shape claim about an uncorrelatedness set plus its certificate.

    ``params`` holds the kind's integer parameters in ``KINDS`` order;
    ``form`` is the claimed set, built once from the other fields and
    not compared."""

    __slots__ = ("kind", "certificate", "params", "points", "lattices", "form")

    def __init__(
        self,
        kind: str,
        certificate: str = BOX_VERIFIED,
        params: tuple[int, ...] = (),
        points: tuple[Point, ...] = (),
        lattices: tuple[str, ...] = (),
    ):
        # a kind that is not a string could be unhashable
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"unknown descriptor kind {kind!r}")
        if certificate not in (GLOBAL_ANALYTIC, BOX_VERIFIED):
            raise ValueError(f"unknown certificate {certificate!r}")
        least = KINDS[kind]
        params = tuple(params)
        if len(params) != len(least):
            raise _params_refused(kind, params)
        for (name, low), value in zip(least.items(), params):
            if type(value) is not int or value < low:
                raise ValueError(f"{kind} needs an integer {name} >= {low}: {value!r}")
        # one read of the cap for every order of the descriptor; a finite
        # set has no params, and its orders are its points
        if params:
            check_order(*params, terms=2 if "sum" in least else 1)
        pts = tuple(sorted({(int(j), int(k)) for j, k in points}))
        if any(j < 1 or k < 1 for j, k in pts):
            raise ValueError("points must have positive coordinates")
        if kind == "finite":
            check_order(*(n for p in pts for n in p))
        # names are checked before sorting, which would compare them
        if any(not isinstance(name, str) or name not in LATTICE_NAMES
               for name in lattices):
            raise ValueError(f"unknown lattice names in {lattices!r}")
        lattices = tuple(sorted(set(lattices)))
        setfield(self, "kind", kind)
        setfield(self, "certificate", certificate)
        setfield(self, "params", params)
        setfield(self, "points", pts)
        setfield(self, "lattices", lattices)
        setfield(self, "form", _form(kind, params, pts, lattices))
        setfield(self, "_key", (kind, certificate, params, pts, lattices))

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
        return cls("vline", certificate, (int(j),))

    @classmethod
    def hline(cls, k: int, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("hline", certificate, (int(k),))

    @classmethod
    def cross(
        cls, j: int, k: int, certificate: str = GLOBAL_ANALYTIC
    ) -> "SetDescriptor":
        return cls("cross", certificate, (int(j), int(k)))

    @classmethod
    def diagonal(cls, certificate: str = GLOBAL_ANALYTIC) -> "SetDescriptor":
        return cls("diagonal", certificate)

    @classmethod
    def antidiagonal(
        cls, total: int, certificate: str = GLOBAL_ANALYTIC
    ) -> "SetDescriptor":
        return cls("antidiagonal", certificate, (int(total),))

    @classmethod
    def slopeline(
        cls,
        slope: int,
        extra: Iterable[Point] = (),
        certificate: str = GLOBAL_ANALYTIC,
    ) -> "SetDescriptor":
        pts = (*_on_line(slope), *extra)
        return cls("slopeline", certificate, (int(slope),), pts)

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
        return self.form.clip(jmax, kmax)

    # -- text and JSON forms -------------------------------------------

    def format_spec(self) -> str:
        """The text form ``kind[:params][;points]`` that ``parse`` reads;
        a slope line writes only its points off the line."""
        if self.kind == "lattice-union":
            return "lattices:" + ",".join(self.lattices)
        chunks = [",".join(map(str, self.params))] if self.params else []
        if self.kind in _POINT_KINDS:
            line = _on_line(*self.params) if self.kind == "slopeline" else ()
            chunks += [f"{j},{k}" for j, k in self.points if (j, k) not in line]
        return self.kind + ":" + ";".join(chunks) if chunks else self.kind

    @classmethod
    def parse(cls, text: str) -> "SetDescriptor":
        """Parse ``kind[:params][;points]``, such as empty, vline:2,
        cross:2,3, finite:1,1;2,3 or slopeline:2;4,9, and a lattice union
        as lattices:ee,oo.  A kind with neither parameters nor points
        ignores what follows the colon; empty point chunks are skipped."""
        head, _, rest = text.strip().partition(":")
        if head == "lattices":
            return cls.lattice_union(rest.split(","))
        if head not in KINDS or head == "lattice-union":
            raise ValueError(f"cannot parse descriptor {text!r}")
        params, sep, tail = (), "", rest
        if KINDS[head]:
            given, sep, tail = rest.partition(";")
            try:
                params = tuple(int(n) for n in given.split(","))
            except ValueError:
                raise _params_refused(head, given) from None
        points = parse_points(tail) if head in _POINT_KINDS else []
        if head == "finite" and not points:
            raise ValueError(f"finite needs at least one point j,k: {text!r}")
        if sep and head not in _POINT_KINDS:
            raise ValueError(f"{head} takes no points: {text!r}")
        if head == "slopeline":
            points[:0] = _on_line(params[0])
        certificate = BOX_VERIFIED if head == "finite" else GLOBAL_ANALYTIC
        return cls(head, certificate, params, tuple(points))

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "certificate": self.certificate}
        if self.points:
            out["points"] = [list(p) for p in self.points]
        out.update(zip(KINDS[self.kind], self.params))
        if self.lattices:
            out["lattices"] = list(self.lattices)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SetDescriptor":
        """Read a descriptor; a missing or non-integer parameter fails the
        kind's check, and integer keys of other kinds are ignored."""
        kind = obj["kind"]
        keys = KINDS.get(kind, ()) if isinstance(kind, str) else ()
        return cls(
            kind,
            obj.get("certificate", BOX_VERIFIED),
            tuple(obj.get(key) for key in keys),
            points=tuple(
                tuple(int_from_json(n) for n in p) for p in obj.get("points", ())
            ),
            lattices=tuple(obj.get("lattices", ())),
        )


# ---------------------------------------------------------------------------
# closed-form shape patterns and the analytic check


def _positive_terms(support: SupportLike, kind: str, n: int) -> list[tuple[int, int]]:
    """(P_j, Q_j) for j = 1..n.  Lines, the diagonal and prescribed points
    rely on A_j being injective, which only the strictly decreasing
    sequence of a positive ordered support gives."""
    s3 = support.to_support3()
    if s3.kind is not SupportKind.POSITIVE_ORDERED:
        raise IncompatibleDescriptor(
            f"a global {kind} claim needs a positive ordered support"
        )
    return _ratio_terms(s3, n)


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
            return from_y(YVector.of(beta ** desc.params[0], 0, 0, -1))
        from .slopeline import slopeline_y_polys

        ys = slopeline_y_polys(desc.params[0])
        return from_y(YVector(tuple(p(beta) for p in ys)))
    terms = _positive_terms(support, kind, max(desc.params, default=0))
    a = [Fraction(*terms[i - 1]) for i in desc.params]
    if kind == "diagonal":
        return OffsetVector.of(0, 1, -1, 0)
    if kind == "vline":
        return OffsetVector.of(0, 0, -a[0], 1)
    if kind == "hline":
        return OffsetVector.of(0, -a[0], 0, 1)
    if kind == "cross":
        aj, ak = a
        return OffsetVector.of(aj * ak, -ak, -aj, 1)
    raise AssertionError(f"unhandled kind {kind}")


def finite_parts(support: SupportLike, points: Sequence[Point]) -> list[list[Fraction]]:
    """n1 and n2, the first two vectors of the reduced nullspace basis of
    the membership rows of one or two points: the pattern space of a
    ``finite`` claim.  Raises IncompatibleDescriptor unless the support is
    positive ordered, then ValueError for any other number of points or
    for two points on one row or column, whose condition forces that
    whole line in, and DegenerateSystem when the nullity is not 4 - |P|."""
    pts = tuple(points)
    terms = _positive_terms(support, "finite", max(map(max, pts), default=0))
    if len(pts) == 2:
        (j1, k1), (j2, k2) = pts
        if pts[0] == pts[1]:
            raise ValueError("two-point witness needs two distinct points")
        if j1 == j2 or k1 == k2:
            raise ValueError(
                "points share a row or column; that forces the whole line, "
                "use a line witness instead"
            )
    elif len(pts) != 1:
        raise ValueError(f"a finite witness holds one or two points, not {len(pts)}")
    basis = linalg.nullspace(membership_rows(terms, pts))
    if len(basis) != 4 - len(pts):
        raise DegenerateSystem(
            f"membership system of {', '.join(map(str, pts))} has nullity "
            f"{len(basis)}, not {4 - len(pts)}"
        )
    return basis[:2]


def check_analytic(
    x: OffsetVector, support: SupportLike, desc: SetDescriptor
) -> bool | None:
    """Does the witness prove the claim for every (j, k)?

    Returns None when the descriptor only claims box verification, True
    when it holds, False when it was claimed but does not hold.  Every
    kind but ``lattice-union`` holds by the span rule of the module
    docstring: the parts R and I of x = (R + I sqrt(d)) / L span the
    claim's pattern space.  A slope line also needs exactly its three
    line points and beta >= beta0(m).
    """
    if desc.certificate != GLOBAL_ANALYTIC:
        return None
    kind = desc.kind
    if kind == "lattice-union":
        s3 = support.to_support3()
        if s3.kind is not SupportKind.SYMMETRIC_ZERO:
            raise IncompatibleDescriptor("parity lattices need a symmetric support")
        return set(desc.lattices) == set(_parity_classes(x, s3))
    if kind == "finite":
        try:
            space = finite_parts(support, desc.points)
        except IncompatibleDescriptor:
            raise  # the support, checked before the points
        except (ValueError, DegenerateSystem):
            return False
    else:
        pattern = shape_offsets(desc, support).x
        if kind == "slopeline":
            (m,) = desc.params
            # extra points (the near-line fourth point) are never global claims
            if set(desc.points) != set(_on_line(m)):
                return False
            from .slopeline import beta0_poly

            if beta0_poly(m)(support.beta) < 0:
                return False
        space = [pattern] if any(pattern) else []
    parts = _offset_parts(x)
    return linalg.rank(parts) == len(space) == linalg.rank(parts + space)


# ---------------------------------------------------------------------------
# verification reports

MATCH = "match"
MISMATCH = "mismatch"


class UncorrReport(Frozen):
    """Outcome of re-deriving a claimed uncorrelatedness set."""

    __slots__ = ("verdict", "claimed", "box", "found", "missing", "extra", "analytic_ok")

    def __init__(
        self,
        verdict: str,
        claimed: SetDescriptor,
        box: tuple[int, int],
        found: tuple[Point, ...],
        missing: tuple[Point, ...],
        extra: tuple[Point, ...],
        analytic_ok: bool | None,
    ):
        setfield(self, "verdict", verdict)
        setfield(self, "claimed", claimed)
        setfield(self, "box", box)
        setfield(self, "found", found)
        setfield(self, "missing", missing)
        setfield(self, "extra", extra)
        setfield(self, "analytic_ok", analytic_ok)
        setfield(self, "_key", (verdict, claimed, box, found, missing, extra, analytic_ok))

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

def _parity_classes(x: OffsetVector, s3: Support3) -> list[str]:
    """The parity classes x's set holds on a support (-v, 0, v), sorted:
    the column law on the 2x2 box.  There (P_j : Q_j) is (2 : 1) at odd j
    and (0 : 1) at even j, whatever v, so each cell of the box decides its
    whole class."""
    terms = _ratio_terms(s3, 2)
    return sorted(_CLASS_AT[p] for p in _solve_columns(_offset_parts(x), terms, terms))


def classify_symmetric(table: JointTable) -> SetDescriptor:
    """Classify the uncorrelatedness set of a table on symmetric supports.

    The moment route probes the first cell of each parity class and
    cross-checks the next cell of the class along each axis; the column
    law decides the classes on the 2x2 box from the deviations.  Any
    disagreement raises LatticeInconsistent, since both routes are exact.
    """
    sx, sy = table.support_x, table.support_y
    if (
        sx.kind is not SupportKind.SYMMETRIC_ZERO
        or sy.kind is not SupportKind.SYMMETRIC_ZERO
    ):
        raise IncompatibleDescriptor("classification needs symmetric supports")

    by_moments = []
    for name in LATTICE_NAMES:
        rep = j0, k0 = _LATTICE_START[name]
        member = is_uncorrelated(table, *rep)
        for s in ((j0 + 2, k0), (j0, k0 + 2)):
            if is_uncorrelated(table, *s) != member:
                raise LatticeInconsistent(
                    f"samples of class {name} disagree with representative {rep}"
                )
        if member:
            by_moments.append(name)

    by_law = _parity_classes(offsets_of(table), sx)
    if by_law != by_moments:
        raise LatticeInconsistent(
            f"moment probes found {by_moments} but the column law says {by_law}"
        )
    return SetDescriptor.lattice_union(by_moments, GLOBAL_ANALYTIC)


# ---------------------------------------------------------------------------
# witness documents

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
