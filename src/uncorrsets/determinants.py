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
a monomial times one sigma, as a run of packed keys in one coefficient
dict and multiplies by the prefactor one linear factor at a time
(``_sigma_sum``).  The two routes share only the polynomial ring and
sigma; their results are compared coefficient by coefficient.  Orders
with m + n above ``MAX_ORDER_SUM`` are refused.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import lshift
from typing import Sequence

from . import linalg
from .numeric import (
    ExponentCapExceeded,
    Frozen,
    Point,
    check_order,
    format_rational,
    setfield,
)
from .multipoly import MultiPoly

# BetaSupport (model) is named in annotations only, which are never
# evaluated, so ``det`` loads neither model nor engine.

# variable order throughout: x, y, z, t
X, Y, Z, T = range(4)

# largest m + n of a determinant identity; admits every G(a, b) that an
# independence certificate needs at the default exponent cap (a + b <= 31).
# The slowest check under it, G(10, 22), takes about 0.1 s, most of it in
# the closed route's _sigma_sum.
MAX_ORDER_SUM = 32


class NotOnLine(ValueError):
    """The four order pairs do not sit on a common line through 0."""


class SlopeOne(ValueError):
    """Slope 1 makes the middle columns coincide; the system degenerates."""


# the Vandermonde product (y-x)(z-x)(t-x)(z-y)(t-y)(t-z) as pairs (a, b),
# each the factor v_b - v_a, in the order the closed routes multiply
VANDERMONDE = ((Z, T), (X, Y), (X, Z), (X, T), (Y, Z), (Y, T))


def _sigma_sum(arity: int, i: int, j: int, terms, factors=()) -> MultiPoly:
    """The product of (v_b - v_a) over the pairs (a, b) in factors, times
    the sum of v^exps * sigma_e(v_i, v_j) over the (exps, e) pairs in terms.

    Runs on packed keys, as ``MultiPoly.__mul__`` does: variable v takes
    bits [v*w, (v+1)*w) of one int, so with s_v = 2^(v*w) the terms of
    v^exps * sigma_e are the arithmetic progression key(exps) + e*s_i +
    r*(s_j - s_i), r = 0..e (a step of 0 when i == j), and multiplying by
    v_b - v_a is the copy shifted by s_b minus the copy shifted by s_a.
    Equal (exps, e) pairs are counted first, so each distinct run is
    written once, with its multiplicity as the increment.  No exponent of
    the sum exceeds max(exps) + e and each factor adds at most one, so a
    field of w bits for that bound plus one per factor never carries.
    Keys are unpacked once, at the end.
    """
    counts = Counter(terms)
    if not counts:
        return MultiPoly.zero(arity)
    top = max(max(exps) + e for exps, e in counts) + len(factors)
    w = top.bit_length() or 1
    shifts = range(0, w * arity, w)
    si = 1 << i * w
    step = (1 << j * w) - si
    out: dict[int, int] = {}
    get = out.get
    for (exps, e), mult in counts.items():
        start = sum(map(lshift, exps, shifts)) + e * si
        if step:
            for k in range(start, start + (e + 1) * step, step):
                out[k] = get(k, 0) + mult
        else:
            out[start] = get(start, 0) + (e + 1) * mult
    for a, b in factors:
        sa, sb = 1 << a * w, 1 << b * w
        shifted = {k + sb: c for k, c in out.items()}
        get = shifted.get
        for k, c in out.items():
            k += sa
            c = get(k, 0) - c
            if c:
                shifted[k] = c
            else:  # only a key of the first copy can cancel
                del shifted[k]
        out = shifted
    mask = (1 << w) - 1
    return MultiPoly._of(
        arity, {tuple([k >> s & mask for s in shifts]): c for k, c in out.items()}
    )


def sigma(k: int, arity: int = 2, i: int = 0, j: int = 1) -> MultiPoly:
    """sigma_k in variables i and j of an arity-wide ring."""
    if k < 0:
        raise ValueError("sigma needs k >= 0")
    if not (0 <= i < arity and 0 <= j < arity):
        raise ValueError(f"variable index {i} or {j} out of range for arity {arity}")
    return _sigma_sum(arity, i, j, [((0,) * arity, k)])


def sigma_diff_identity(k: int) -> bool:
    """sigma_k(x,y) - sigma_k(x,z) == (y - z) * sum_j x^(k-1-j) sigma_j(y,z)."""
    if k < 1:
        raise ValueError("the difference identity needs k >= 1")
    lhs = sigma(k, 3, X, Y) - sigma(k, 3, X, Z)
    rhs = _sigma_sum(3, Y, Z, (((k - 1 - j, 0, 0), j) for j in range(k)), ((Z, Y),))
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


class DetResult(Frozen):
    """Both routes to one determinant, compared symbolically."""

    __slots__ = ("kind", "m", "n", "direct", "closed", "equal")

    def __init__(
        self, kind: str, m: int, n: int, direct: MultiPoly, closed: MultiPoly, equal: bool
    ):
        setfield(self, "kind", kind)
        setfield(self, "m", m)
        setfield(self, "n", n)
        setfield(self, "direct", direct)
        setfield(self, "closed", closed)
        setfield(self, "equal", equal)
        setfield(self, "_key", (kind, m, n, direct, closed, equal))

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
    return _sigma_sum(3, Y, Z, (
        ((j + m - r - s, r, r), s - r - 1)
        for r in range(j + 1)
        for s in range(j + 1, m + 1)
    ), ((Y, Z),))


def det2_check(j: int, m: int) -> DetResult:
    direct = det2_direct(j, m)
    closed = det2_closed(j, m)
    return DetResult("det2", j, m, direct, closed, direct == closed)


def vandermonde_factor() -> MultiPoly:
    """(y-x)(z-x)(t-x)(z-y)(t-y)(t-z) in the four-variable ring, as a
    product of MultiPolys.  The closed routes multiply by the same factors
    inside ``_sigma_sum``; this product is the reference the tests hold
    them to.  Only selftest and the tests call it, so it is built on each
    call rather than kept for the life of the process."""
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
    return _sigma_sum(4, Z, T, (
        ((n - 3 - j - k, m + j + k - r - s - 1, r, r), s - r - 1)
        for j in range(m - 1)
        for k in range(n - m)
        for r in range(j + 1)
        for s in range(j + 1, m + k)
    ), VANDERMONDE)


def g_direct(m: int, n: int) -> MultiPoly:
    """det of the matrix with columns (1, v^m, v^n, v^(m+n))."""
    _check_orders(m, n, lowest=1)
    return mp_det(_power_matrix((0, m, n, m + n)))


def g_closed(m: int, n: int) -> MultiPoly:
    """Vandermonde product times the quintuple-sum cofactor of G(m, n)."""
    _check_orders(m, n, lowest=1)
    return _sigma_sum(4, Z, T, (
        (
            (2 * m + n - 3 - k - p - j, n + k - 2 - r - s, j + r, j + r),
            p + s - j - r - 1,
        )
        for k in range(m, n)
        for j in range(m)
        for p in range(m)
        for s in range(k - p, n)
        for r in range(k - j)
    ), VANDERMONDE)


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


class IndependenceCertificate(Frozen):
    """Why four membership conditions admit only the zero offset.

    The matrix rows are (1, beta^j, beta^k, beta^(j+k)) for each order
    pair; ``det_value`` is its exact determinant, ``nullspace_dim`` its
    nullity, and ``closed_value`` the G(a, b) product formula evaluated
    at u_i = beta^(j_i / a), equal up to the recorded column-swap sign.
    All three are computed in integers, on rows and points scaled by
    powers of beta's denominator.  The product formula is a
    strictly positive quantity at increasing positive arguments, which
    is the actual proof that the determinant cannot vanish.
    """

    __slots__ = ("points", "slope", "det_value", "nullspace_dim", "closed_value",
                 "sign", "cross_checked", "independent")

    def __init__(
        self,
        points: tuple[Point, ...],
        slope: Fraction,
        det_value: Fraction,
        nullspace_dim: int,
        closed_value: Fraction,
        sign: int,
        cross_checked: bool,
        independent: bool,
    ):
        setfield(self, "points", points)
        setfield(self, "slope", slope)
        setfield(self, "det_value", det_value)
        setfield(self, "nullspace_dim", nullspace_dim)
        setfield(self, "closed_value", closed_value)
        setfield(self, "sign", sign)
        setfield(self, "cross_checked", cross_checked)
        setfield(self, "independent", independent)
        setfield(self, "_key", (points, slope, det_value, nullspace_dim, closed_value,
                                sign, cross_checked, independent))

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

    # with beta = p/q, row (1, beta^j, beta^k, beta^(j+k)) times q^(j+k)
    p, q = support.beta.numerator, support.beta.denominator
    rows = [[q ** (j + k), p**j * q**k, p**k * q**j, p ** (j + k)] for j, k in pts]
    det_value = linalg.det(rows) / q ** sum(j + k for j, k in pts)
    null_dim = 4 - linalg.rank(rows)

    a, b = slope.denominator, slope.numerator
    for j, _ in pts:
        if j % a != 0:
            raise NotOnLine(f"j = {j} is not a multiple of {a}")
    # u_i = beta^t_i with t_i = j_i / a is U_i / q^top; G(a, b) is
    # homogeneous of degree 2(a + b), so G(u) = G(U) / q^(2 top (a + b))
    ts = [j // a for j, _ in pts]
    top = max(ts)
    big_u = [p**t * q ** (top - t) for t in ts]
    # for b < a the columns (1, u^a, u^b, u^(a+b)) swap the middle pair of G(b, a)
    closed = g_closed(min(a, b), max(a, b))
    sign = 1 if b > a else -1
    closed_value = Fraction(closed.evaluate(big_u), q ** (2 * top * (a + b)))
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
