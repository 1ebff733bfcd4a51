"""Second opinions from sympy, an implementation that shares no code with
this package: integer polynomial gcd, square-free part and real-root
counts, and the F and G determinants at rational points."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from uncorrsets.determinants import f_closed, f_direct, g_closed, g_direct  # noqa: E402
from uncorrsets.polynomials import IntPoly, sturm_root_count  # noqa: E402

B = sp.Symbol("B")

factors = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
    lambda c: c[-1] != 0
)
polys = st.lists(factors, min_size=1, max_size=4).map(
    lambda fs: reduce(mul, map(IntPoly, fs))
)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _sym(p: IntPoly):
    return sp.Poly(list(reversed(p.coeffs)), B, domain="ZZ")


def _normal(p):
    """Primitive with a positive leading coefficient, as IntPoly keeps it."""
    _, p = p.primitive()
    return -p if p.LC() < 0 else p


def _rat(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_gcd_matches_sympy(common, f, g):
    f, g = common * f, common * g
    assert _sym(IntPoly.gcd(f, g)) == _normal(sp.gcd(_sym(f), _sym(g)))


@settings(max_examples=80, deadline=None)
@given(polys, polys)
def test_squarefree_part_matches_sympy(f, g):
    p = f * f * g
    assert _sym(p.squarefree_part()) == _normal(sp.sqf_part(_sym(p)))


@settings(max_examples=80, deadline=None)
@given(polys, rationals, rationals)
def test_sturm_count_matches_sympy(p, a, b):
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and p(lo) != 0 and p(hi) != 0)
    assert sturm_root_count(p, lo, hi) == _sym(p).count_roots(_rat(lo), _rat(hi))


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
