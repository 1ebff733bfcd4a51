"""The slope line at the algebraic ratio beta_star(m, k), as a value.

beta_star(m, k) is the root in (1, beta0(m)) of

    P(B) = (B^(m+1) - B^2 - B - 1) B^k + (B^(m+2) + B^(m+1) + B^m - B) B^(2m).

It is irrational, so the fourth-point construction cannot hand out a
rational support; instead ``AlgebraicSlopeLine`` keeps P together with an
isolating interval certified to hold one root (the interval
``constructions.beta_star`` returns) and decides membership of (j, k)
exactly, through the gcd of P with the corresponding difference
polynomial D(j, k) and ``polynomials.root_count``, whose monotonicity
certificates decide a narrow interval without a Sturm chain; ``certify``
re-derives a line read from a document, with a Sturm count.  Its
``enumerate_box`` puts a cheap filter in front of that exact test: with
D = c0 + B^k c1, monotone interval enclosures of c0 and c1 on (lo, hi)
admit, per column j, only the k whose [lo^k, hi^k] can hold -c0/c1, and
only those cells reach the gcd.  The enclosures and the column bounds
are integer sums, floor divisions and comparisons over the powers of the
interval's ends, scaled to one common denominator once per box.  These
polynomials live in ``slopeline``.

The class has a module of its own because two modules that must not
import each other need it: ``constructions`` builds the line, and
``witnesses.Construction.from_json`` reads it back from a document.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .engine import BOX_VERIFIED, SetDescriptor
from .numeric import (
    Frozen,
    Point,
    check_box,
    format_rational,
    int_from_json,
    rational_from_json,
    setfield,
)
from .polynomials import IntPoly, _enclosure, _scaled_powers, root_count, sturm_root_count
from .slopeline import (
    beta0_poly,
    beta_star_poly,
    slopeline_d_poly,
    slopeline_d_terms,
    slopeline_y_polys,
)


class AlgebraicSlopeLine(Frozen):
    """A slope-line construction at the algebraic ratio beta_star(m, k).

    Membership of an order pair (j, kk) is decided exactly: beta_star
    is the only root of ``poly`` in ``interval`` (certified by
    ``root_count`` when built, and by a Sturm count in ``certify`` when
    read), so (j, kk) is uncorrelated iff gcd(D(j, kk), poly) still has a
    root there, which ``root_count`` decides.  No floating point, no
    numeric thresholds.
    """

    __slots__ = ("m", "k", "poly", "interval")

    def __init__(self, m: int, k: int, poly: IntPoly, interval: tuple[Fraction, Fraction]):
        setfield(self, "m", m)
        setfield(self, "k", k)
        setfield(self, "poly", poly)
        setfield(self, "interval", interval)
        setfield(self, "_key", (m, k, poly, interval))

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
        check_box(jmax, kmax)
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
