"""Witnesses realizing each achievable uncorrelatedness-set shape.

Every constructor returns offsets whose zero set is known in closed
form, so the engine's checks can certify the claim globally.  The empty
and full sets, the diagonal, columns, rows, crosses, antidiagonals and
the three-point slope line take the one pattern ``engine.shape_offsets``
gives their descriptor (the table is in the ``engine`` docstring), so
builder and checker cannot drift apart.  The families built here are:

* one or two prescribed points (two on distinct rows and columns), as
  -(n1 + sqrt(2) n2) and n1 + sqrt(2) n2 for the basis n1, n2 that
  ``engine.finite_parts`` takes from the nullspace of their integer
  membership rows, the pattern space ``check_analytic`` certifies them
  against;
* unions of parity classes on a symmetric support (-alpha, 0, alpha);
* the near-line slope line, which adds a fourth point (4, k) at an
  algebraic ratio beta_star(m, k).

beta0(m) is the unique root in (1, 2) of B^(m+1) - B^2 - B - 1, and
beta_star(m, k) the root in (1, beta0) of

    P(B) = (B^(m+1) - B^2 - B - 1) B^k + (B^(m+2) + B^(m+1) + B^m - B) B^(2m).

beta_star is irrational, so the fourth-point construction cannot hand
out a rational support; instead ``AlgebraicSlopeLine`` keeps P together
with an isolating interval certified to hold one root (the interval
``beta_star`` returns) and decides membership of (j, k) exactly, through
the gcd of P with the corresponding difference polynomial D(j, k) and
``polynomials.root_count``, whose monotonicity certificates decide a
narrow interval without a Sturm chain; ``certify``
re-derives a line read from a document, with a Sturm count.  Its
``enumerate_box`` puts a cheap filter in front of that exact test: with
D = c0 + B^k c1, monotone interval enclosures of c0 and c1 on (lo, hi)
admit, per column j, only the k whose [lo^k, hi^k] can hold -c0/c1, and
only those cells reach the gcd.  The enclosures and the column bounds
are integer sums, floor divisions and comparisons over the powers of the
interval's ends, scaled to one common denominator once per box.  These
polynomials live in ``slopeline``.  ``Construction`` is the one
in-memory witness:
``to_json`` is the one writer of witness documents and ``from_json`` the
one reader; ``enumerate_box``, ``verify`` and ``table`` serve offsets
and algebraic lines alike, and ``verify`` holds the rule for a claim on
an algebraic line.  A slope m or fourth-point column k above the
exponent cap is refused, like a box.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .engine import (
    BOX_VERIFIED,
    GLOBAL_ANALYTIC,
    LATTICE_NAMES,
    Point,
    SetDescriptor,
    SupportLike,
    UncorrReport,
    WITNESS_SCHEMA,
    _check_box,
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
    YVector,
    rescale,
    table_from_offsets,
    to_y,
)
from .numeric import (
    DEFAULT_MAX_EXP,
    QuadExt,
    check_order,
    format_rational,
    int_from_json,
    rational_from_json,
)
from .polynomials import (
    IntPoly,
    _enclosure,
    _scaled_powers,
    isolate_root,
    root_count,
    sturm_root_count,
)
from .slopeline import (
    beta0_poly,
    beta_star_poly,
    check_slope,
    slopeline_d_poly,
    slopeline_d_terms,
    slopeline_y_polys,
)


class BetaTooSmall(ValueError):
    """The requested ratio is below the threshold root beta0(m)."""


class BracketNotFound(ValueError):
    """No sign-change bracket for the near-line root could be located."""


DEFAULT_WIDTH = Fraction(1, 10**12)

MODE_AT_OR_ABOVE = "at-or-above-beta0"
MODE_BETA_STAR = "beta-star"


@dataclass(frozen=True)
class Construction:
    """A witness bundled with its support and certified shape claim."""

    name: str
    descriptor: SetDescriptor
    support: SupportLike | None = None
    x: OffsetVector | None = None
    y: YVector | None = None
    algebraic: "AlgebraicSlopeLine | None" = None

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


# ---------------------------------------------------------------------------
# threshold and near-line roots


def beta0(m: int, width=DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """Isolating interval for the threshold root beta0(m) in (1, 2)."""
    check_order(m)
    return isolate_root(beta0_poly(m), 1, 2, width)


def beta_star(m: int, k: int, width=DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """The certified isolating interval of ``slopeline_beta_star``: it
    holds exactly one root of P and lies inside (1, beta0)."""
    return slopeline_beta_star(m, k, width).interval


@lru_cache(maxsize=DEFAULT_MAX_EXP)
def _beta0_upper(m: int) -> Fraction:
    """Upper end of beta0(m) isolated to width 2^-20, once per slope; the
    callers have checked m against the exponent cap."""
    return beta0(m, Fraction(1, 2**20))[1]


@dataclass(frozen=True)
class SlopeLineParams:
    """How to realize three (or four) points on the line k = m j.

    mode "at-or-above-beta0" takes a rational beta with beta >= beta0(m)
    and yields exactly {(1, m), (2, 2m), (3, 3m)}, globally.  mode
    "beta-star" takes the extra column k > 4m and realizes the ratio as
    the algebraic root beta_star(m, k), adding the near-line point (4, k).
    """

    m: int
    mode: str
    beta: Fraction | None = None
    k: int | None = None
    width: Fraction = DEFAULT_WIDTH

    def __post_init__(self):
        check_slope(self.m)
        check_order(self.m)
        if self.mode not in (MODE_AT_OR_ABOVE, MODE_BETA_STAR):
            raise ValueError(f"unknown slope-line mode {self.mode!r}")
        if self.mode == MODE_AT_OR_ABOVE:
            if self.beta is None:
                raise ValueError("at-or-above mode needs a rational beta")
            object.__setattr__(self, "beta", Fraction(self.beta))
        else:
            if self.k is None:
                raise ValueError("beta-star mode needs the fourth-point column k")
            check_order(self.k)
        object.__setattr__(self, "width", Fraction(self.width))


@dataclass(frozen=True)
class AlgebraicSlopeLine:
    """A slope-line construction at the algebraic ratio beta_star(m, k).

    Membership of an order pair (j, kk) is decided exactly: beta_star
    is the only root of ``poly`` in ``interval`` (certified by
    ``root_count`` when built, and by a Sturm count in ``certify`` when
    read), so (j, kk) is uncorrelated iff gcd(D(j, kk), poly) still has a
    root there, which ``root_count`` decides.  No floating point, no
    numeric thresholds.
    """

    m: int
    k: int
    poly: IntPoly
    interval: tuple[Fraction, Fraction]

    def contains(self, j: int, kk: int) -> bool:
        d = slopeline_d_poly(self.m, j, kk)
        if d.is_zero:
            return True
        g = IntPoly.gcd(d, self.poly)
        if g.degree <= 0:
            return False
        return root_count(g, self.interval[0], self.interval[1]) >= 1

    def enumerate_box(self, jmax: int, kmax: int) -> list[Point]:
        """The members in the box, in row-by-row order.

        An interval filter runs in front of the exact test.  Write
        D(j, kk) = c0 + B^kk c1 and enclose c0 and c1 over ``interval``.
        A root r there of gcd(D, P) has r^kk = -c0(r)/c1(r), so if the
        enclosure of c1 excludes 0, only a kk whose [lo^kk, hi^kk] meets
        the hull of the quotients -c0/c1 goes to ``contains``; otherwise
        the whole column does.  The filter drops no cell ``contains``
        accepts, and every point returned is decided by ``contains``.

        No Fraction is built: with lo = a/d, hi = b/d and N the larger of
        kmax and the largest degree of a c0 or c1 in the box, the powers
        a^i d^(N-i) and b^i d^(N-i) are built once.  They are the powers
        of lo and hi scaled by S = d^N, and each enclosure end is a sum of
        at most four of them, scaled alike.  Negating c0 and c1 together
        keeps every quotient, so take 0 < a1 <= b1 for the enclosures
        [a0, b0] and [a1, b1].  The hull of the quotients then starts at
        -b0/b1 and ends at -a0/a1, except where b0 > 0 or a0 > 0 moves
        that end to another corner; both corners are then negative and
        below every power, so the same kk are kept.  Those two bounds,
        times S and rounded towards the powers, are compared with the
        integer powers exactly.
        Raises ValueError unless 1 < lo < hi, which the enclosures need.
        """
        _check_box(jmax, kmax)
        lo, hi = self.interval
        if not 1 < lo < hi:
            raise ValueError(f"interval ({lo}, {hi}) must satisfy 1 < lo < hi")
        # c0 has degree at most j + 3m + 1, c1 less; both lists increase
        # with the power, since lo > 1
        top = max(jmax + 3 * self.m + 1, kmax)
        lo_scaled, hi_scaled = _scaled_powers(lo, hi, top)
        scale = lo_scaled[0]
        out = []
        for j in range(1, jmax + 1):
            c0, c1 = slopeline_d_terms(self.m, j)
            a1, b1 = _enclosure(c1, lo_scaled, hi_scaled)
            if a1 <= 0 <= b1:
                candidates = range(1, kmax + 1)
            else:
                a0, b0 = _enclosure(c0, lo_scaled, hi_scaled)
                if b1 < 0:
                    a0, b0, a1, b1 = -b0, -a0, -b1, -a1
                # the first hi^kk >= -b0/b1 and the last lo^kk <= -a0/a1
                first = bisect_left(hi_scaled, -(b0 * scale // b1), 1, kmax + 1)
                last = bisect_right(lo_scaled, -a0 * scale // a1, 1, kmax + 1) - 1
                candidates = range(first, last + 1)
            out.extend((j, kk) for kk in candidates if self.contains(j, kk))
        return out

    def descriptor(self) -> SetDescriptor:
        return SetDescriptor.slopeline(
            self.m, extra=((4, self.k),), certificate=BOX_VERIFIED
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "poly": self.poly.to_json(),
            "interval": [format_rational(q) for q in self.interval],
            "y_polys": [p.to_json() for p in slopeline_y_polys(self.m)],
        }

    def certify(self) -> None:
        """Raise ValueError unless ``poly`` is P(m, k) and ``interval`` lies
        in (1, beta0(m)) holding one root of P, which ``contains`` assumes."""
        m, k = self.m, self.k
        lo, hi = self.interval
        # P has degree m + 1 + k; checked first, so a forged k cannot
        # make the re-derivation build a huge polynomial
        if self.poly.degree != m + 1 + k or self.poly != beta_star_poly(m, k):
            raise ValueError(f"poly is not P for m = {m}, k = {k}")
        if not (1 < lo < hi and beta0_poly(m)(hi) < 0):
            raise ValueError(f"interval ({lo}, {hi}) is not inside (1, beta0({m}))")
        if sturm_root_count(self.poly, lo, hi) != 1:
            raise ValueError(f"interval ({lo}, {hi}) must hold exactly one root of P")

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraicSlopeLine":
        lo, hi = obj["interval"]
        return cls(
            m=int_from_json(obj["m"]),
            k=int_from_json(obj["k"]),
            poly=IntPoly.from_json(obj["poly"]),
            interval=(rational_from_json(lo), rational_from_json(hi)),
        )


def slopeline_beta_star(m: int, k: int, width=DEFAULT_WIDTH) -> AlgebraicSlopeLine:
    """The line at beta_star(m, k), with P built once.  A bracket is found
    by walking 1 + 2^-i until P goes negative (P vanishes at 1 and is
    positive before beta0); ``isolate_root`` narrows it to the width, then
    it is halved until the threshold polynomial is negative at its upper
    end, and until ``root_count`` finds exactly one root of P in it."""
    check_order(m, k)
    p = beta_star_poly(m, k)
    threshold = beta0_poly(m)
    hi0 = _beta0_upper(m)
    step = Fraction(1, 2)
    for _ in range(64):
        lo = 1 + step
        if lo < hi0 and p.sign_at(lo) < 0:
            break
        step /= 2
    else:
        raise BracketNotFound(
            f"P stayed nonnegative on 1 + 2^-i for i <= 64 with m={m}, k={k}"
        )
    if p.sign_at(hi0) <= 0:
        raise BracketNotFound(f"P({hi0}) <= 0; no sign change before beta0")
    lo, hi = isolate_root(p, lo, hi0, width)
    while lo < hi and threshold.sign_at(hi) >= 0:
        lo, hi = isolate_root(p, lo, hi, (hi - lo) / 2)
    while root_count(p, lo, hi) != 1:
        lo, hi = isolate_root(p, lo, hi, (hi - lo) / 4)
    return AlgebraicSlopeLine(m=m, k=k, poly=p, interval=(lo, hi))


# ---------------------------------------------------------------------------
# bundled constructions


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


def make_slopeline(params: SlopeLineParams) -> Construction:
    if params.mode == MODE_AT_OR_ABOVE:
        beta = params.beta
        if beta0_poly(params.m)(beta) < 0:
            lo, hi = beta0(params.m, Fraction(1, 10**6))
            raise BetaTooSmall(
                f"beta = {beta} lies below the threshold root in ({lo}, {hi})"
            )
        return _closed_form(SetDescriptor.slopeline(params.m), BetaSupport(1, beta))
    line = slopeline_beta_star(params.m, params.k, params.width)
    return Construction("slopeline", line.descriptor(), algebraic=line)
