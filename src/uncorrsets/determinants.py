"""Vandermonde-type determinants whose cofactors are power sums.

sigma_k(x, y) = x^k + x^(k-1) y + ... + y^k is the complete homogeneous
power sum in two variables.  Two 4x4 determinant families built from
rows of powers of distinct points factor over the classical Vandermonde
product with an explicitly positive cofactor:

* F(m, n) = det with columns (1, v, v^m, v^n), 2 <= m < n;
* G(m, n) = det with columns (1, v^m, v^n, v^(m+n)), 1 <= m < n.

Both closed forms below are multisums of monomials times sigma terms
with nonnegative coefficients, so at increasing positive arguments the
determinants are strictly positive.  That positivity is what makes four
collinear order pairs on k = (b/a) j with a != b an independent system:
the membership matrix of such points is exactly a G(a, b) matrix at
rational powers of the support ratio.

Every identity is checked two independent ways: ``*_direct`` expands the
determinant by cofactors, ``*_closed`` writes each term of the multisum,
a monomial times one sigma, into one coefficient dict (``_sigma_sum``)
and multiplies once by its prefactor.  The two routes share only the
polynomial ring and sigma; their results are compared coefficient by
coefficient.  Orders with m + n above ``MAX_ORDER_SUM`` are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from . import linalg
from .engine import ExponentCapExceeded, Point, check_order
from .model import BetaSupport
from .numeric import format_rational
from .polynomials import MultiPoly

# variable order throughout: x, y, z, t
X, Y, Z, T = range(4)

# largest m + n of a determinant identity; admits every G(a, b) that an
# independence certificate needs at the default exponent cap (a + b <= 31).
# The slowest check under it, G(10, 22), takes about 0.9 s, most of it in
# the closed route's _sigma_sum.
MAX_ORDER_SUM = 32


class NotOnLine(ValueError):
    """The four order pairs do not sit on a common line through 0."""


class SlopeOne(ValueError):
    """Slope 1 makes the middle columns coincide; the system degenerates."""


def _sigma_sum(arity: int, i: int, j: int, terms) -> MultiPoly:
    """Sum of v^exps * sigma_e(v_i, v_j) over the (exps, e) pairs in terms,
    each term written straight into one coefficient dict."""
    out: dict[tuple[int, ...], int] = {}
    for exps, e in terms:
        mono = list(exps)
        ei, ej = mono[i], mono[j]
        for r in range(e + 1):
            mono[i], mono[j] = ei + e - r, ej + r
            key = tuple(mono)
            out[key] = out.get(key, 0) + 1
    return MultiPoly._of(arity, out)


def sigma(k: int, arity: int = 2, i: int = 0, j: int = 1) -> MultiPoly:
    """sigma_k in variables i and j of an arity-wide ring."""
    if k < 0:
        raise ValueError("sigma needs k >= 0")
    return _sigma_sum(arity, i, j, [((0,) * arity, k)])


def sigma_diff_identity(k: int) -> bool:
    """sigma_k(x,y) - sigma_k(x,z) == (y - z) * sum_j x^(k-1-j) sigma_j(y,z)."""
    if k < 1:
        raise ValueError("the difference identity needs k >= 1")
    lhs = sigma(k, 3, X, Y) - sigma(k, 3, X, Z)
    acc = _sigma_sum(3, Y, Z, (((k - 1 - j, 0, 0), j) for j in range(k)))
    rhs = (MultiPoly.variable(3, Y) - MultiPoly.variable(3, Z)) * acc
    return lhs == rhs


def mp_det(mat: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Cofactor expansion of a small matrix of polynomials."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n == 1:
        return mat[0][0]
    arity = mat[0][0].arity
    out = MultiPoly.zero(arity)
    for c in range(n):
        entry = mat[0][c]
        if entry.is_zero:
            continue
        minor = [
            [row[cc] for cc in range(n) if cc != c] for row in mat[1:]
        ]
        cof = entry * mp_det(minor)
        out = out + (cof if c % 2 == 0 else -cof)
    return out


@dataclass(frozen=True)
class DetResult:
    """Both routes to one determinant, compared symbolically."""

    kind: str
    m: int
    n: int
    direct: MultiPoly
    closed: MultiPoly
    equal: bool

    def to_json(self, summary: bool = False) -> dict:
        out: dict = {"kind": self.kind, "m": self.m, "n": self.n, "equal": self.equal}
        if summary:
            out["term_counts"] = {
                "direct": self.direct.term_count,
                "closed": self.closed.term_count,
            }
        else:
            out["direct"] = self.direct.to_json()
            out["closed"] = self.closed.to_json()
        return out


def det2_direct(j: int, m: int) -> MultiPoly:
    """sigma_j(x,y) sigma_m(x,z) - sigma_j(x,z) sigma_m(x,y)."""
    _check_orders(min(j, m), max(j, m), lowest=0)
    return sigma(j, 3, X, Y) * sigma(m, 3, X, Z) - sigma(j, 3, X, Z) * sigma(
        m, 3, X, Y
    )


def det2_closed(j: int, m: int) -> MultiPoly:
    """(z - y) times a double sum with nonnegative coefficients, j <= m."""
    _check_orders(min(j, m), max(j, m), lowest=0)
    if j > m:
        return -det2_closed(m, j)
    acc = _sigma_sum(3, Y, Z, (
        ((j + m - r - s, r, r), s - r - 1)
        for r in range(j + 1)
        for s in range(j + 1, m + 1)
    ))
    return (MultiPoly.variable(3, Z) - MultiPoly.variable(3, Y)) * acc


def det2_check(j: int, m: int) -> DetResult:
    direct = det2_direct(j, m)
    closed = det2_closed(j, m)
    return DetResult("det2", j, m, direct, closed, direct == closed)


@cache
def vandermonde_factor() -> MultiPoly:
    """(y-x)(z-x)(t-x)(z-y)(t-y)(t-z) in the four-variable ring.  Built
    once: no MultiPoly operation changes its operands."""
    vs = [MultiPoly.variable(4, i) for i in range(4)]
    out = MultiPoly.const(4, 1)
    for a in range(4):
        for b in range(a + 1, 4):
            out = out * (vs[b] - vs[a])
    return out


def _power_matrix(exponents: Sequence[int]) -> list[list[MultiPoly]]:
    """Rows (v^e for e in exponents) at v = x, y, z, t, each a monomial."""
    return [
        [
            MultiPoly._of(4, {tuple(e * (c == v) for c in range(4)): 1})
            for e in exponents
        ]
        for v in range(4)
    ]


def f_direct(m: int, n: int) -> MultiPoly:
    """det of the matrix with columns (1, v, v^m, v^n) at v = x, y, z, t."""
    _check_orders(m, n, lowest=1)
    return mp_det(_power_matrix((0, 1, m, n)))


def f_closed(m: int, n: int) -> MultiPoly:
    """Vandermonde product times the quadruple-sum cofactor of F(m, n).

    Empty index ranges (m < 2 or n = m) make the cofactor vanish, in
    step with the repeated-column determinant on the direct route.
    """
    _check_orders(m, n, lowest=1)
    acc = _sigma_sum(4, Z, T, (
        ((n - 3 - j - k, m + j + k - r - s - 1, r, r), s - r - 1)
        for j in range(m - 1)
        for k in range(n - m)
        for r in range(j + 1)
        for s in range(j + 1, m + k)
    ))
    return vandermonde_factor() * acc


def g_direct(m: int, n: int) -> MultiPoly:
    """det of the matrix with columns (1, v^m, v^n, v^(m+n))."""
    _check_orders(m, n, lowest=1)
    return mp_det(_power_matrix((0, m, n, m + n)))


def g_closed(m: int, n: int) -> MultiPoly:
    """Vandermonde product times the quintuple-sum cofactor of G(m, n)."""
    _check_orders(m, n, lowest=1)
    acc = _sigma_sum(4, Z, T, (
        (
            (2 * m + n - 3 - k - p - j, n + k - 2 - r - s, j + r, j + r),
            p + s - j - r - 1,
        )
        for k in range(m, n)
        for j in range(m)
        for p in range(m)
        for s in range(k - p, n)
        for r in range(k - j)
    ))
    return vandermonde_factor() * acc


def _check_orders(m: int, n: int, lowest: int) -> None:
    if m < lowest or n < m:
        raise ValueError(f"orders must satisfy {lowest} <= m <= n, got {m}, {n}")
    if m + n > MAX_ORDER_SUM:
        raise ExponentCapExceeded(
            f"order sum {m} + {n} exceeds the exponent cap {MAX_ORDER_SUM} of det"
        )


def f_check(m: int, n: int) -> DetResult:
    direct = f_direct(m, n)
    closed = f_closed(m, n)
    return DetResult("f", m, n, direct, closed, direct == closed)


def g_check(m: int, n: int) -> DetResult:
    direct = g_direct(m, n)
    closed = g_closed(m, n)
    return DetResult("g", m, n, direct, closed, direct == closed)


# ---------------------------------------------------------------------------
# independence of four collinear order pairs


@dataclass(frozen=True)
class IndependenceCertificate:
    """Why four membership conditions admit only the zero offset.

    The matrix rows are (1, beta^j, beta^k, beta^(j+k)) for each order
    pair; ``det_value`` is its exact determinant and ``closed_value``
    the G(a, b) product formula evaluated at u_i = beta^(j_i / a), equal
    up to the recorded column-swap sign.  The product formula is a
    strictly positive quantity at increasing positive arguments, which
    is the actual proof that the determinant cannot vanish.
    """

    points: tuple[Point, ...]
    slope: Fraction
    det_value: Fraction
    nullspace_dim: int
    closed_value: Fraction
    sign: int
    cross_checked: bool
    independent: bool

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "slope": format_rational(self.slope),
            "det": format_rational(self.det_value),
            "nullspace_dim": self.nullspace_dim,
            "closed_value": format_rational(self.closed_value),
            "sign": self.sign,
            "cross_checked": self.cross_checked,
            "independent": self.independent,
        }


def independence_certificate(
    points: Sequence[Point], support: BetaSupport
) -> IndependenceCertificate:
    """Certify that four collinear order pairs force independence.

    The pairs must lie on a line k = (b/a) j through the origin with
    b/a != 1 in lowest terms; then a divides every j and the membership
    matrix is a G(min(a,b), max(a,b)) power matrix at the rational
    points beta^(j_i/a), so its determinant is (up to a column swap)
    the manifestly positive closed form.
    """
    pts = sorted({(int(j), int(k)) for j, k in points})
    if len(pts) != 4:
        raise ValueError(f"need four distinct order pairs, got {len(pts)}")
    if any(j < 1 or k < 1 for j, k in pts):
        raise ValueError("orders must be >= 1")
    check_order(*(n for p in pts for n in p))
    slope = Fraction(pts[0][1], pts[0][0])
    for j, k in pts:
        if Fraction(k, j) != slope:
            raise NotOnLine(f"({j}, {k}) is not on k = {slope} j")
    if slope == 1:
        raise SlopeOne("slope 1 duplicates the two middle columns")

    beta = support.beta
    rows = [[Fraction(1), beta**j, beta**k, beta ** (j + k)] for j, k in pts]
    det_value = linalg.det(rows)
    null_dim = len(linalg.nullspace(rows))

    a, b = slope.denominator, slope.numerator
    for j, _ in pts:
        if j % a != 0:
            raise NotOnLine(f"j = {j} is not a multiple of {a}")
    u = [beta ** (j // a) for j, _ in pts]
    # for b < a the columns (1, u^a, u^b, u^(a+b)) swap the middle pair of G(b, a)
    closed = g_closed(min(a, b), max(a, b))
    sign = 1 if b > a else -1
    closed_value = Fraction(closed.evaluate(u))
    cross_checked = det_value == sign * closed_value
    independent = det_value != 0 and null_dim == 0 and closed_value > 0
    return IndependenceCertificate(
        points=tuple(pts),
        slope=slope,
        det_value=det_value,
        nullspace_dim=null_dim,
        closed_value=closed_value,
        sign=sign,
        cross_checked=cross_checked,
        independent=independent,
    )
