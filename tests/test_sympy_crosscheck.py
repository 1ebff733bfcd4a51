"""Second opinions from sympy, an implementation that shares no code with
this package: integer polynomial gcd and real-root counts (with repeated
roots, and at the degree and coefficient size of the slope line), root
counts with their exact certificates on narrow intervals, the gcd
and membership on the near-line slope line, the F and G determinants at
rational points, a third route to their closed forms through Schur
polynomials and the degree of G's, sparse products the size of the
closed forms' old last step, the determinant, rank and nullspace of
rational matrices, the values of independence certificates, the moment
route's box enumeration against E[X^j Y^k] - E[X^j] E[Y^k] in sympy's
exact arithmetic, and every map that runs on the integer parts of
Q(sqrt(d)) vectors against the same formula in sympy."""

import json
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from uncorrsets.cli import main  # noqa: E402
from uncorrsets.constructions import (  # noqa: E402
    make_cross,
    make_lattice_union,
    make_two_point,
    slopeline_beta_star,
)
from uncorrsets import linalg  # noqa: E402
from uncorrsets.determinants import (  # noqa: E402
    f_closed,
    f_direct,
    g_closed,
    g_direct,
    independence_certificate,
    mp_det,
    vandermonde_factor,
)
from uncorrsets.engine import (  # noqa: E402
    ASequence,
    condition_lhs,
    enumerate_box_table,
    finite_parts,
    offsets_delta,
)
from uncorrsets.model import (  # noqa: E402
    BetaSupport,
    JointTable,
    OffsetVector,
    Support3,
    YVector,
    from_y,
    offsets_of,
    rescale,
    table_from_offsets,
    to_y,
)
from uncorrsets.numeric import MixedRadicand, QuadExt, sqrt_parts  # noqa: E402
from uncorrsets.polynomials import (  # noqa: E402
    IntPoly,
    MultiPoly,
    root_count,
    sturm_root_count,
)
from uncorrsets.slopeline import slopeline_d_poly  # noqa: E402

B = sp.Symbol("B")

factors = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
    lambda c: c[-1] != 0
)
polys = st.lists(factors, min_size=1, max_size=4).map(
    lambda fs: reduce(mul, map(IntPoly, fs))
)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)

# the slope line's scale: degree up to ~40, coefficients up to 10^6, and
# linear factors with rational roots in [-4, 4] so intervals hold roots
big_factors = st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=11).filter(
    lambda c: c[-1] != 0
)
linear_factors = rationals.map(lambda q: [-q.numerator, q.denominator])
big_polys = st.lists(big_factors | linear_factors, min_size=1, max_size=2).map(
    lambda fs: reduce(mul, map(IntPoly, fs))
)


def _sym(p: IntPoly):
    return sp.Poly(list(reversed(p.coeffs)), B, domain="ZZ")


def _normal(p):
    """Primitive with a positive leading coefficient, as IntPoly keeps it."""
    _, p = p.primitive()
    return -p if p.LC() < 0 else p


def _rat(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


def _check_gcd(common, f, g):
    f, g = common * f, common * g
    assert _sym(IntPoly.gcd(f, g)) == _normal(sp.gcd(_sym(f), _sym(g)))


def _check_sturm(p, a, b):
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and p(lo) != 0 and p(hi) != 0)
    assert sturm_root_count(p, lo, hi) == _sym(p).count_roots(_rat(lo), _rat(hi))


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_gcd_matches_sympy(common, f, g):
    _check_gcd(common, f, g)


@settings(max_examples=80, deadline=None)
@given(polys, rationals, rationals)
def test_sturm_count_matches_sympy(p, a, b):
    _check_sturm(p, a, b)


@settings(max_examples=80, deadline=None)
@given(polys, polys, rationals, rationals)
def test_sturm_count_with_repeated_roots_matches_sympy(f, g, a, b):
    # the chain runs on f·f·g itself and ends in gcd(p, p'), not 1
    _check_sturm(f * f * g, a, b)


@settings(max_examples=30, deadline=None)
@given(big_polys, big_polys, big_polys)
def test_gcd_matches_sympy_at_slope_line_scale(common, f, g):
    _check_gcd(common, f, g)


@settings(max_examples=30, deadline=None)
@given(big_polys, big_polys, rationals, rationals)
def test_sturm_count_matches_sympy_at_slope_line_scale(f, g, a, b):
    _check_sturm(f * f * g, a, b)


@settings(max_examples=80, deadline=None)
@given(
    polys,
    big_polys,
    st.fractions(min_value=0, max_value=4, max_denominator=6),
    st.booleans(),
    st.integers(0, 40),
    st.integers(1, 7),
    st.integers(1, 7),
)
def test_root_count_matches_sympy_around_rational_roots(f, g, r, square, e, u, v):
    # a rational root r, repeated factors or not, and an interval around r
    # from wide (reaching below 0, where only Sturm counts) to 2^-40 narrow
    p = f * g * IntPoly([-r.numerator, r.denominator])
    if square:
        p = p * f
    lo, hi = r - Fraction(u, 2**e), r + Fraction(v, 3 * 2**e)
    assume(p(lo) != 0 and p(hi) != 0)
    assert root_count(p, lo, hi) == _sym(p).count_roots(_rat(lo), _rat(hi))


@pytest.mark.parametrize("m, k", [(2, 9), (3, 14), (4, 20)])
def test_near_line_members_match_sympy(m, k):
    """(j, kk) is a member iff gcd(P, D(j, kk)) has a root in the interval."""
    line = slopeline_beta_star(m, k)
    lo, hi = (_rat(q) for q in line.interval)
    p = sp.Poly(
        (B ** (m + 1) - B**2 - B - 1) * B**k
        + (B ** (m + 2) + B ** (m + 1) + B**m - B) * B ** (2 * m),
        B,
    )
    assert p.count_roots(lo, hi) == 1

    def member(j, kk):
        d = (B**m - B) * (B ** (2 * m + 2) - B ** (j + kk)) + (B ** (m + 1) - 1) * (
            B ** (kk + 2) - B ** (j + 2 * m)
        )
        g = p.gcd(sp.Poly(d, B))
        # the gcd itself, not only the verdict drawn from it
        assert _sym(IntPoly.gcd(slopeline_d_poly(m, j, kk), line.poly)) == _normal(g)
        return g.count_roots(lo, hi) >= 1

    want = [(j, kk) for j in range(1, 11) for kk in range(1, 11) if member(j, kk)]
    assert line.enumerate_box(10, 10) == want


def test_p_4_17_divides_d_5_28():
    """The fifth point (5, 28) of the slope line at beta*(4, 17): sympy's
    gcd of P(4, 17) and D(5, 28) is P itself."""
    p = _sym(slopeline_beta_star(4, 17).poly)
    d = _sym(slopeline_d_poly(4, 5, 28))
    assert _normal(sp.gcd(p, d)) == _normal(p)


def _printed_interval(capsys, *argv):
    """(lo, hi) as the CLI prints it."""
    assert main(list(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    return sp.Rational(doc["lo"]), sp.Rational(doc["hi"])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_printed_root_intervals_match_sympy(m, capsys):
    """For the algebraic-line lines k = 4m + 1 .. 4m + 12: sympy counts one
    root of P on ``betastar``'s interval, and beta0(m), the root of
    B^(m+1) - B^2 - B - 1 in (1, 2), lies above its upper end and inside
    ``beta0``'s interval."""
    threshold = sp.Poly(B ** (m + 1) - B**2 - B - 1, B)
    lo0, hi0 = _printed_interval(capsys, "beta0", "--m", str(m))
    assert threshold.count_roots(lo0, hi0) == 1
    assert threshold.count_roots(1, 2) == 1
    for k in range(4 * m + 1, 4 * m + 13):
        p = sp.Poly(
            (B ** (m + 1) - B**2 - B - 1) * B**k
            + (B ** (m + 2) + B ** (m + 1) + B**m - B) * B ** (2 * m),
            B,
        )
        lo, hi = _printed_interval(capsys, "betastar", "--m", str(m), "--k", str(k))
        assert p.count_roots(lo, hi) == 1
        # the one root of the threshold in (1, 2) lies in (hi, 2)
        assert threshold.count_roots(hi, 2) == 1 and threshold(hi) < 0


ORDERS = [(1, 3), (2, 3), (2, 5), (3, 4), (3, 6)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDERS), st.lists(rationals, min_size=4, max_size=4))
def test_f_and_g_match_sympy_determinants(mn, point):
    m, n = mn
    for direct, closed, exponents in (
        (f_direct, f_closed, (0, 1, m, n)),
        (g_direct, g_closed, (0, m, n, m + n)),
    ):
        want = sp.Matrix([[_rat(v) ** e for e in exponents] for v in point]).det()
        want = Fraction(int(want.p), int(want.q))
        assert direct(m, n).evaluate(point) == want
        assert closed(m, n).evaluate(point) == want


V = sp.symbols("x y z t")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 32), min_size=4, max_size=4))
def test_mp_det_matches_sympy_determinants(exponents):
    # repeated exponents among the draws give the zero polynomial
    want = sp.Matrix([[v**e for e in exponents] for v in V]).det(method="berkowitz")
    want = sp.Poly(sp.expand(want), *V).as_dict()
    assert dict(mp_det(exponents).sorted_terms()) == {
        e: int(c) for e, c in want.items() if c
    }


def _complete(k):
    """h_k(x, y, z, t): every monomial of degree k once; 0 below degree 0."""
    if k < 0:
        return sp.Integer(0)
    return sp.Add(*(sp.Mul(*c) for c in combinations_with_replacement(V, k)))


def _schur(parts):
    """s_lambda(x, y, z, t) by Jacobi-Trudi: det(h_(lambda_i - i + j))."""
    n = len(parts)
    return sp.Matrix(n, n, lambda i, j: _complete(parts[i] - i + j)).det()


@pytest.mark.parametrize(
    "closed, m, n",
    [(f_closed, m, n) for m, n in ((2, 3), (2, 5), (3, 4), (3, 6), (4, 7), (6, 10))]
    + [(g_closed, m, n) for m, n in ((1, 2), (1, 4), (2, 3), (2, 5), (3, 4))],
)
def test_closed_forms_are_vandermonde_times_schur(closed, m, n):
    # the cofactors are Schur polynomials (Macdonald, Symmetric Functions
    # and Hall Polynomials, I.3): the columns (v^n, v^m, v, 1) of F(m, n)
    # and (v^(m+n), v^n, v^m, 1) of G(m, n) are lambda + (3, 2, 1, 0)
    parts = (n - 3, m - 2) if closed is f_closed else (m + n - 3, n - 2, m - 1)
    vandermonde = sp.Mul(*(V[b] - V[a] for a in range(4) for b in range(a + 1, 4)))
    want = sp.Poly(vandermonde * _schur(parts), *V).as_dict()
    assert dict(closed(m, n).sorted_terms()) == {e: int(c) for e, c in want.items()}


@pytest.mark.parametrize("m", range(1, 7))
def test_g_closed_is_homogeneous_of_degree_twice_the_order_sum(m):
    for n in range(m + 1, 14 - m):
        poly = sp.Poly.from_dict(dict(g_closed(m, n).sorted_terms()), *V)
        assert poly.is_homogeneous and poly.homogeneous_order() == 2 * (m + n)


def _rational_matrix(rng, nrows, ncols):
    """A random rational matrix: either sparse, so that elimination swaps
    rows, or a product through a random inner size, often singular; and
    sometimes with zero rows and columns, so that elimination skips pivot
    columns."""
    zeros = rng.random()

    def entry():
        if rng.random() < zeros:
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    if rng.random() < 0.5:
        mat = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        inner = rng.randint(0, max(nrows, ncols))
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        mat = [
            [sum((left[i][k] * right[k][j] for k in range(inner)), Fraction(0))
             for j in range(ncols)]
            for i in range(nrows)
        ]
    for i in range(nrows):
        if rng.random() < 0.15:
            mat[i] = [Fraction(0)] * ncols
    for j in range(ncols):
        if rng.random() < 0.15:
            for row in mat:
                row[j] = Fraction(0)
    return mat


def _sym_matrix(mat, ncols):
    return sp.Matrix(len(mat), ncols, [_rat(v) for row in mat for v in row])


def test_det_rank_and_nullspace_match_sympy():
    rng = random.Random(2024)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.4:
            ncols = nrows
        mat = _rational_matrix(rng, nrows, ncols)
        want = _sym_matrix(mat, ncols)
        assert linalg.rank(mat) == want.rank(), mat
        # sympy's basis is the reduced one too, vector for vector
        assert linalg.nullspace(mat) == [
            [Fraction(int(v.p), int(v.q)) for v in vec] for vec in want.nullspace()
        ], mat
        if nrows == ncols:
            assert linalg.det(mat) == Fraction(int(want.det().p), int(want.det().q)), mat
    # the empty matrix: rank 0, and the empty product as its determinant
    assert linalg.rank([]) == 0 and linalg.det([]) == 1
    assert linalg.rank([[], []]) == 0
    assert linalg.rank([[0, 0, 0], [0, 0, 0]]) == 0


@pytest.mark.parametrize(
    "support", [Support3.from_values(1, 2, 3), BetaSupport(1, Fraction(3, 2)),
                Support3.from_values(Fraction(1, 2), 2, 7)],
)
def test_finite_parts_are_sympys_first_two_nullspace_vectors(support):
    # sympy's rows (1, A_j, A_k, A_j A_k) come from the per-cell oracle's
    # Fractions, not from the integer rows that finite_parts reads
    seq, rng = ASequence(support), random.Random(30)
    sets = [[(rng.randint(1, 12), rng.randint(1, 12))] for _ in range(10)]
    while len(sets) < 20:
        p1, p2 = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2)]
        if p1[0] != p2[0] and p1[1] != p2[1]:
            sets.append([p1, p2])
    for points in sets:
        rows = [[1, seq[j], seq[k], seq[j] * seq[k]] for j, k in points]
        want = _sym_matrix(rows, 4).nullspace()[:2]
        assert finite_parts(support, points) == [
            [Fraction(int(v.p), int(v.q)) for v in vec] for vec in want
        ], points


CERT_BETAS = (Fraction(3, 2), Fraction(2), Fraction(5, 3), Fraction(7, 4))


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b])
def test_certificate_values_match_sympy(a, b):
    slope = Fraction(b, a)
    ra, rb = slope.denominator, slope.numerator
    closed = g_closed(min(ra, rb), max(ra, rb))
    for beta in CERT_BETAS:
        for ts in combinations(range(1, 7), 4):
            pts = [(a * t, b * t) for t in ts]
            cert = independence_certificate(pts, BetaSupport(1, beta))
            rows = sp.Matrix([
                [1, _rat(beta) ** j, _rat(beta) ** k, _rat(beta) ** (j + k)] for j, k in pts
            ])
            want = rows.det()
            assert cert.det_value == Fraction(int(want.p), int(want.q)), (pts, beta)
            assert cert.closed_value == closed.evaluate(
                [beta ** (j // ra) for j, _ in pts]
            ), (pts, beta)
            assert cert.nullspace_dim == 4 - rows.rank() == 0
            assert cert.cross_checked and cert.independent


def _sparse(rng, terms, top):
    return MultiPoly(4, {
        tuple(rng.randint(0, top) for _ in range(4)): rng.randint(-(10**6), 10**6)
        for _ in range(terms)
    })


@pytest.mark.parametrize(
    "terms, top",
    # dense enough to cancel, then the closed forms' size (sympy's Poly is
    # dense, so exponents past 2^20 stay with the tuple oracle of
    # test_polynomials.py)
    [(60, 2), (300, 6), (1000, 12)],
)
def test_sparse_products_match_sympy(terms, top):
    rng = random.Random(terms + top)
    a, b = _sparse(rng, terms, top), _sparse(rng, rng.randint(1, 40), top)
    for left, right in ((vandermonde_factor(), a), (a, b)):
        want = (
            sp.Poly.from_dict(dict(left.sorted_terms()), *V)
            * sp.Poly.from_dict(dict(right.sorted_terms()), *V)
        ).as_dict()
        assert dict((left * right).sorted_terms()) == {
            e: int(c) for e, c in want.items()
        }


def _sym_scalar(v):
    if isinstance(v, QuadExt):
        return _rat(v.a) + _rat(v.b) * sp.sqrt(v.d)
    return _rat(v)


def _members_by_sympy(table, jmax, kmax):
    xs = [_rat(p) for p in table.support_x.points]
    ys = [_rat(p) for p in table.support_y.points]
    e = [[_sym_scalar(v) for v in row] for row in table.entries]
    out = []
    for j in range(1, jmax + 1):
        ex = sum(x**j for x in xs) / 3
        for k in range(1, kmax + 1):
            ey = sum(y**k for y in ys) / 3
            joint = sum(
                e[r][c] * xs[c] ** j * ys[r] ** k for r in range(3) for c in range(3)
            )
            if sp.simplify(joint - ex * ey) == 0:
                out.append((j, k))
    return out


# two different supports, each with denominators 2 and 3
SX = Support3.from_values(Fraction(1, 2), Fraction(2, 3), 3)
SY = Support3.from_values(Fraction(1, 3), 1, Fraction(5, 2))
GENERAL = Support3.from_values(-3, 0, 2)
S123 = Support3.from_values(1, 2, 3)


def _table(x, sx, sy):
    return table_from_offsets(rescale(x), sx, sy)


def _own_table(built):
    return _table(built.x, built.support, built.support)


def _planted_general():
    # offsets whose deviation form vanishes at (2, 3) on (-3, 0, 2): the
    # form is linear in x, so x = (c2, -c1, 0, 0) with c_i its value on
    # the unit offsets
    unit = [OffsetVector.of(*(int(i == n) for i in range(4))) for n in range(2)]
    c1, c2 = (offsets_delta(u, GENERAL, GENERAL, 2, 3) for u in unit)
    return _table(OffsetVector.of(c2, -c1, 0, 0), GENERAL, GENERAL)


def _sqrt2_column():
    # the diagonal plus sqrt(2) times the column j = 2, unscaled by rescale
    x = OffsetVector.of(0, 1, QuadExt(-1, Fraction(-8, 5), 2), QuadExt(0, 1, 2))
    return table_from_offsets(x.scaled(Fraction(1, 200)), S123, S123)


TABLES = {
    "two-supports-independent": lambda: JointTable.independent(SX, SY),
    "two-supports": lambda: _table(OffsetVector.of(1, -2, 3, 1), SX, SY),
    "denominators-cross": lambda: _own_table(make_cross(SX, 2, 3)),
    "symmetric-zero": lambda: _own_table(
        make_lattice_union(Fraction(3, 2), ["eo", "oe"])
    ),
    "general-zero": _planted_general,
    "general-zero-two-supports": lambda: _table(
        OffsetVector.of(1, 1, -1, 2), GENERAL, Support3.symmetric(2)
    ),
    "sqrt2-two-point": lambda: _own_table(make_two_point(SY, (1, 2), (3, 1))),
    "sqrt2-column": _sqrt2_column,
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_moment_enumeration_matches_sympy(name):
    table = TABLES[name]()
    assert enumerate_box_table(table, 5, 5) == _members_by_sympy(table, 5, 5)


# ---------------------------------------------------------------------------
# the maps on integer parts against sympy


def _canonical(v):
    """A rational is a Fraction; an irrational a QuadExt that the checking
    constructor would build, with Fraction parts and b != 0."""
    if isinstance(v, QuadExt):
        return (type(v.a) is type(v.b) is Fraction and v.b != 0
                and repr(v) == repr(QuadExt(v.a, v.b, v.d)))
    return type(v) is Fraction


def _same(got, want):
    """got, exact scalars from the package, equal the sympy numbers want."""
    got = list(got)
    assert len(got) == len(want)
    for v, w in zip(got, want):
        assert _canonical(v), v
        assert sp.expand(_sym_scalar(v) - w) == 0, (v, w)


@st.composite
def _field_vectors(draw, n=4):
    """n rationals, or n values of Q(sqrt(2)) or Q(sqrt(3)), and the radicand."""
    d = draw(st.sampled_from([0, 2, 3]))
    if d == 0:
        return [draw(rationals) for _ in range(n)], 0
    return [QuadExt(draw(rationals), draw(rationals), d) for _ in range(n)], d


_positive_points = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
    min_size=3, max_size=3, unique=True,
).map(sorted)
_points = st.lists(rationals, min_size=3, max_size=3, unique=True).map(sorted)
_orders = st.integers(1, 6)


def _sym_deviations(x):
    """The deviation layout of the model docstring, row by row."""
    x1, x2, x3, x4 = x
    return [x4, x3, -x3 - x4, x2, x1, -x1 - x2, -x2 - x4, -x1 - x3, x1 + x2 + x3 + x4]


@settings(max_examples=60, deadline=None, database=None)
@given(_field_vectors(), _field_vectors(n=1), _field_vectors(n=9), rationals)
def test_maps_on_integer_parts_match_sympy(xd, factor, entries, q):
    values, d = xd
    x = OffsetVector(tuple(values))
    x1, x2, x3, x4 = sx = [_sym_scalar(v) for v in x.x]
    _same(to_y(x).y, [x4, x3 + x4, x2 + x4, x1 + x2 + x3 + x4])
    y1, y2, y3, y4 = sx
    _same(from_y(YVector(tuple(values))).x, [y4 - y2 - y3 + y1, y3 - y1, y2 - y1, y1])
    _same([v for row in x.deviations() for v in row], _sym_deviations(sx))
    _same(x.scaled(q).x, [_rat(q) * v for v in sx])
    # a Q(sqrt(d)) factor: in x's field, or any field when x is rational
    (f,), fd = factor
    if fd and d:
        f = QuadExt(f.a, f.b, d)
    _same(x.scaled(f).x, [_sym_scalar(f) * v for v in sx])
    rows = [tuple(entries[0][i:i + 3]) for i in (0, 3, 6)]
    ninth = sp.Rational(1, 9)
    e = [_sym_scalar(v) for v in entries[0]]
    _same(offsets_of(SimpleNamespace(entries=rows)).x,
          [e[4] - ninth, e[3] - ninth, e[1] - ninth, e[0] - ninth])


@settings(max_examples=60, deadline=None, database=None)
@given(_field_vectors(), _positive_points, _points, _points, _orders, _orders)
def test_per_cell_oracles_on_integer_parts_match_sympy(xd, positive, px, py, j, k):
    x = OffsetVector(tuple(xd[0]))
    sx = [_sym_scalar(v) for v in x.x]
    pa, pb, pc = (_rat(p) for p in positive)
    aj, ak = ((pc**n - pa**n) / (pc**n - pb**n) for n in (j, k))
    lhs = condition_lhs(x, ASequence(Support3(tuple(positive))), j, k)
    _same([lhs], [sx[0] + aj * sx[1] + ak * sx[2] + aj * ak * sx[3]])
    support_x, support_y = Support3(tuple(px)), Support3(tuple(py))
    dev = _sym_deviations(sx)
    want = sum(
        dev[3 * r + c] * _rat(px[c]) ** j * _rat(py[r]) ** k
        for r in range(3) for c in range(3)
    )
    _same([offsets_delta(x, support_x, support_y, j, k)], [want])


@settings(max_examples=30, deadline=None, database=None)
@given(st.permutations([2, 3]), st.lists(st.integers(0, 3), min_size=2, max_size=2,
                                         unique=True), _field_vectors())
def test_two_field_vectors_raise_the_message_of_sqrt_parts(radicands, at, xd):
    values = [v.a if isinstance(v, QuadExt) else v for v in xd[0]]
    for i, d in zip(at, radicands):
        values[i] = QuadExt(values[i], 1, d)
    x = OffsetVector(tuple(values))
    with pytest.raises(MixedRadicand) as parts:
        sqrt_parts(x.x)
    first, second = (radicands if at[0] < at[1] else radicands[::-1])
    assert str(parts.value) == f"cannot combine sqrt({first}) with sqrt({second})"
    x1, x2, x3, x4 = x.x
    s3 = Support3.from_values(1, 2, 3)
    calls = [
        lambda: to_y(x),
        lambda: from_y(YVector(x.x)),
        x.deviations,
        lambda: x.scaled(2),
        lambda: offsets_of(SimpleNamespace(entries=((x4, x3, 0), (x2, x1, 0), (0, 0, 0)))),
        lambda: condition_lhs(x, ASequence(s3), 1, 2),
        lambda: offsets_delta(x, s3, s3, 1, 2),
    ]
    for call in calls:
        with pytest.raises(MixedRadicand) as info:
            call()
        assert str(info.value) == str(parts.value)
