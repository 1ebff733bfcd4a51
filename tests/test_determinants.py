import ast
import random
from fractions import Fraction
from itertools import chain, permutations, product, repeat
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uncorrsets import determinants, linalg
from uncorrsets.determinants import (
    MAX_ORDER_SUM,
    IndependenceCertificate,
    NotOnLine,
    SlopeOne,
    det2_check,
    det2_closed,
    det2_direct,
    f_check,
    f_closed,
    f_direct,
    g_check,
    g_closed,
    g_direct,
    independence_certificate,
    mp_det,
    sigma,
    sigma_diff_identity,
    vandermonde_factor,
)
from uncorrsets.engine import ExponentCapExceeded
from uncorrsets.model import BetaSupport
from uncorrsets.polynomials import MultiPoly

from route_guard import reachable


def test_sigma_basics():
    assert sigma(0).evaluate((5, 7)) == 1
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert sigma(2) == x**2 + x * y + y**2
    assert sigma(3, 3, 0, 2).evaluate((2, 0, 1)) == 15
    with pytest.raises(ValueError):
        sigma(-1)


def test_sigma_in_one_variable_and_index_checks():
    # sigma_k(v, v) = (k + 1) v^k: every term of the sum is the same monomial
    x = MultiPoly.variable(2, 0)
    assert sigma(2, 2, 0, 0) == 3 * x**2
    assert sigma(0, 2, 1, 1) == MultiPoly.const(2, 1)
    assert sigma(5, 3, 2, 2) == 6 * MultiPoly.variable(3, 2) ** 5
    for i, j in ((0, 3), (3, 0), (-1, 0), (0, -1), (2, 2)):
        with pytest.raises(ValueError, match="variable index"):
            sigma(2, 2, i, j)


def test_sigma_telescopes_power_differences():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    for k in range(1, 9):
        assert x**k - y**k == (x - y) * sigma(k - 1)


def test_sigma_difference_identity():
    for k in range(1, 9):
        assert sigma_diff_identity(k)
    with pytest.raises(ValueError):
        sigma_diff_identity(0)


def test_det2_smallest_case_is_z_minus_y():
    z = MultiPoly.variable(3, 2)
    y = MultiPoly.variable(3, 1)
    assert det2_direct(0, 1) == z - y
    assert det2_closed(0, 1) == z - y


def test_det2_identity_range():
    for j in range(4):
        for m in range(j, 5):
            res = det2_check(j, m)
            assert res.equal, (j, m)
    # swapping the orders flips the sign
    assert det2_closed(3, 1) == -det2_closed(1, 3)
    assert det2_direct(3, 1) == det2_closed(3, 1)


def test_low_order_determinants_are_vandermonde():
    point = (1, 2, 3, 4)
    assert f_direct(2, 3).evaluate(point) == 12
    assert g_direct(1, 2).evaluate(point) == 12
    assert vandermonde_factor().evaluate(point) == 12
    assert f_closed(2, 3) == g_closed(1, 2)


def _pairs(lowest, max_sum):
    """Every (m, n) with lowest <= m < n and m + n <= max_sum."""
    return [
        (m, n) for m in range(lowest, max_sum) for n in range(m + 1, max_sum - m + 1)
    ]


def test_first_family_identities():
    # every order pair the benchmark checks (m + n <= 16)
    for m, n in _pairs(2, 16):
        res = f_check(m, n)
        assert res.equal, (m, n)
        js = res.to_json(summary=True)
        assert js["equal"] is True
        assert js["term_counts"]["direct"] == js["term_counts"]["closed"]


def test_first_family_degenerate_orders():
    # m = 1 repeats the linear column, n = m repeats the top column
    assert f_direct(1, 5).is_zero
    assert f_closed(1, 5).is_zero
    assert f_direct(2, 2).is_zero
    assert f_closed(2, 2).is_zero
    with pytest.raises(ValueError):
        f_check(0, 3)
    with pytest.raises(ValueError):
        f_check(3, 2)


def test_second_family_identities():
    # every order pair the benchmark checks (m + n <= 13)
    for m, n in _pairs(1, 13):
        res = g_check(m, n)
        assert res.equal, (m, n)


def test_second_family_degenerate_orders():
    assert g_direct(2, 2).is_zero
    assert g_closed(2, 2).is_zero
    with pytest.raises(ValueError):
        g_check(2, 1)


def test_identities_at_random_points_for_larger_orders():
    rng = random.Random(40)
    for m, n in ((5, 7), (6, 8), (4, 9)):
        fd, fc = f_direct(m, n), f_closed(m, n)
        gd, gc = g_direct(m, n), g_closed(m, n)
        for _ in range(5):
            pt = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(4)]
            assert fd.evaluate(pt) == fc.evaluate(pt)
            assert gd.evaluate(pt) == gc.evaluate(pt)


def test_closed_forms_positive_at_increasing_points():
    rng = random.Random(41)
    for _ in range(20):
        vals = sorted(
            {Fraction(rng.randint(1, 200), rng.randint(1, 9)) for _ in range(8)}
        )
        if len(vals) < 4:
            continue
        pt = vals[:4]
        assert g_closed(2, 5).evaluate(pt) > 0
        assert f_closed(3, 5).evaluate(pt) > 0


def test_orders_above_the_bound_are_refused_before_either_route():
    for route in (f_direct, f_closed, g_direct, g_closed, det2_direct, det2_closed):
        with pytest.raises(ExponentCapExceeded, match="exceeds the exponent cap"):
            route(3, MAX_ORDER_SUM - 2)
    # the bound admits every G(a, b) of an independence certificate at the
    # default exponent cap 64: a, b <= 16 and coprime
    assert MAX_ORDER_SUM >= 16 + 15
    assert g_check(1, MAX_ORDER_SUM - 1).equal
    assert det2_check(MAX_ORDER_SUM, 0).equal


def test_certificates_above_the_order_bound_are_refused(monkeypatch):
    # a raised exponent cap admits the points; G(17, 19) is past the bound
    monkeypatch.setenv("UNCORRSET_MAX_EXP", "100")
    points = [(17 * t, 19 * t) for t in (1, 2, 3, 4)]
    with pytest.raises(ExponentCapExceeded, match="order sum 17 \\+ 19 exceeds"):
        independence_certificate(points, BetaSupport(1, 2))


def _closed_and_reference(monkeypatch, route, *orders):
    """route(*orders), and the product the closed routes used to make from
    the terms the route hands _sigma_sum: the MultiPoly product of its
    linear factors times the bare sum.  Also the product's degree."""
    real = determinants._sigma_sum
    calls = []

    def spy(arity, i, j, terms, factors=()):
        terms = list(terms)
        calls.append((arity, i, j, terms, factors))
        return real(arity, i, j, terms, factors)

    monkeypatch.setattr(determinants, "_sigma_sum", spy)
    got = route(*orders)
    monkeypatch.undo()
    ((arity, i, j, terms, factors),) = calls
    if len(factors) == 6:
        prefactor = vandermonde_factor()
    else:
        ((a, b),) = factors
        prefactor = MultiPoly.variable(arity, b) - MultiPoly.variable(arity, a)
    degree = max((sum(exps) + e for exps, e in terms), default=0) + len(factors)
    return got, prefactor * real(arity, i, j, terms), degree


# every F and G order with m + n <= 14, the degenerate n = m included
SMALL_ORDERS = [(m, n) for m in range(1, 8) for n in range(m, 15 - m)]

# orders past the exhaustive ranges below whose product has a power of two
# as its degree, where _sigma_sum's key fields (the degree's bit length)
# are one bit wider than one degree lower
MARGIN_ORDERS = {
    f_closed: [(2, 13), (7, 8), (2, 29)],
    g_closed: [(1, 15), (5, 11), (1, 31)],
    det2_closed: [(7, 9), (0, 16), (15, 17)],
}


def test_closed_routes_equal_the_vandermonde_product(monkeypatch):
    cases = {
        f_closed: SMALL_ORDERS + MARGIN_ORDERS[f_closed],
        g_closed: SMALL_ORDERS + MARGIN_ORDERS[g_closed],
        det2_closed: [(j, m) for m in range(9) for j in range(m + 1)]
        + MARGIN_ORDERS[det2_closed],
    }
    for route, orders in cases.items():
        for mn in orders:
            got, want, degree = _closed_and_reference(monkeypatch, route, *mn)
            assert got == want, (route.__name__, mn)
            if mn in MARGIN_ORDERS[route]:
                assert degree & (degree - 1) == 0, mn


def _reference_sum(arity, i, j, counted, factors):
    """The MultiPoly product of the linear factors v_b - v_a times the sum
    of mult * v^exps * sigma_e(v_i, v_j), each term a MultiPoly of its own."""
    total = MultiPoly.zero(arity)
    for (exps, e), mult in counted:
        run = {}
        for r in range(e + 1):
            key = list(exps)
            key[i] += r
            key[j] += e - r
            run[tuple(key)] = run.get(tuple(key), 0) + mult
        total = total + MultiPoly(arity, run)
    for a, b in factors:
        total = total * (MultiPoly.variable(arity, b) - MultiPoly.variable(arity, a))
    return total


@st.composite
def _sigma_sum_cases(draw):
    """A homogeneous term list with multiplicities (small, or up to 10^6 so
    that the digit width B changes its bit length), and a factor list that
    may start on the sigma pair in either orientation."""
    arity = draw(st.integers(2, 4))
    var = st.integers(0, arity - 1)
    i, j = draw(var), draw(var)
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=4))
    degree = max(map(sum, exps), default=0) + draw(st.integers(0, 3))
    mults = st.one_of(st.integers(1, 3), st.integers(1, 10**6))
    counted = [((x, degree - sum(x)), draw(mults)) for x in exps]
    first = draw(st.sampled_from([(), ((i, j),), ((j, i),)]))
    rest = draw(st.lists(st.tuples(var, var), max_size=4))
    return arity, i, j, counted, first + tuple(rest)


@settings(max_examples=150, deadline=None)
@given(_sigma_sum_cases())
# a lone coefficient 2^20 - 1 equals its bound and fills all bits of a
# digit but the sign bit; a telescoped run in each orientation
@example((3, 1, 2, [(((2, 0, 0), 0), 2**20 - 1)], ()))
@example((3, 1, 2, [(((2, 0, 0), 1), 2**19)], ((1, 2), (0, 2))))
@example((3, 1, 2, [(((2, 0, 0), 1), 2**19)], ((2, 1), (0, 1))))
def test_sigma_sum_equals_the_product_built_term_by_term(case):
    arity, i, j, counted, factors = case
    sigma_sum = determinants._sigma_sum
    terms = chain.from_iterable(repeat(term, mult) for term, mult in counted)
    assert sigma_sum(arity, i, j, terms, factors) == _reference_sum(
        arity, i, j, counted, factors
    )
    assert sigma_sum(arity, i, j, [], factors) == MultiPoly.zero(arity)
    exps, e = counted[0][0] if counted else ((0,) * arity, 0)
    mixed = [term for term, _ in counted] + [(exps, e), (exps, e + 1)]
    with pytest.raises(ValueError, match="is not of degree"):
        sigma_sum(arity, i, j, mixed, factors)


def test_closed_routes_make_no_multipoly_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("MultiPoly product in a closed route")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    f_closed(5, 9)
    g_closed(4, 7)
    det2_closed(2, 6)
    assert sigma_diff_identity(6)


def _leibniz(exponents):
    """det of the power matrix (v^e for e in exponents), one row per
    variable, as the permutation sum: the permutation p gives the monomial
    with exponent e_p(v) at variable v and the sign of p.  Zero terms are
    dropped."""
    n = len(exponents)
    out = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        key = tuple(exponents[c] for c in perm)
        out[key] = out.get(key, 0) + (-1) ** inversions
    return {e: c for e, c in out.items() if c}


def test_direct_routes_equal_the_leibniz_sum(monkeypatch):
    for m, n in SMALL_ORDERS:
        assert dict(f_direct(m, n).sorted_terms()) == _leibniz((0, 1, m, n))
        assert dict(g_direct(m, n).sorted_terms()) == _leibniz((0, m, n, m + n))
    # mp_det is the full cofactor recursion: 1 + 4 (1 + 3 (1 + 2)) calls
    calls = []
    real = determinants.mp_det

    def counting(mat):
        calls.append(len(mat))
        return real(mat)

    monkeypatch.setattr(determinants, "mp_det", counting)
    g_direct(2, 3)
    assert len(calls) == 41
    assert sorted(set(calls)) == [1, 2, 3, 4]


def test_mp_det_equals_the_leibniz_sum_on_every_small_power_matrix():
    # every exponent tuple in {0..5}^n, n = 1..4: 1,554 matrices, among
    # them every repeated exponent, whose power matrix has two equal columns
    for n in range(1, 5):
        for exponents in product(range(6), repeat=n):
            got = mp_det(exponents)
            assert got.arity == n
            assert dict(got.sorted_terms()) == _leibniz(exponents), exponents
            assert got.is_zero == (len(set(exponents)) < n), exponents


def test_closed_and_direct_routes_stay_independent():
    tree = ast.parse(Path(determinants.__file__).read_text(encoding="utf-8"))
    for closed in ("f_closed", "g_closed", "det2_closed"):
        assert not {"mp_det", "_power_matrix"} & reachable(tree, closed), closed
    for direct in ("f_direct", "g_direct"):
        assert "_sigma_sum" not in reachable(tree, direct), direct
    # the certificate's closed value is G(a, b) evaluated term by term at
    # its points: no determinant, no power matrix and no polynomial ring
    certificate = reachable(tree, "_g_closed_value")
    assert not {"linalg", "mp_det", "_power_matrix", "MultiPoly"} & certificate
    assert "_g_closed_value" in reachable(tree, "independence_certificate")
    assert "g_closed" not in reachable(tree, "independence_certificate")
    # the guard sees a reference through a helper
    planted = ast.parse("def f_closed():\n    return h()\ndef h():\n    return mp_det\n")
    assert "mp_det" in reachable(planted, "f_closed")


def test_independence_certificate_slope_two():
    cert = independence_certificate(
        [(1, 2), (2, 4), (3, 6), (4, 8)], BetaSupport(1, 2)
    )
    assert cert.slope == 2
    assert cert.det_value == 64512
    assert cert.closed_value == 64512
    assert cert.sign == 1
    assert cert.nullspace_dim == 0
    assert cert.cross_checked
    assert cert.independent
    js = cert.to_json()
    assert js["det"] == "64512"
    assert js["independent"] is True


def test_independence_certificate_reciprocal_slope():
    cert = independence_certificate(
        [(2, 1), (4, 2), (6, 3), (8, 4)], BetaSupport(1, 2)
    )
    assert cert.slope == Fraction(1, 2)
    assert cert.sign == -1
    assert cert.det_value == -cert.closed_value
    assert cert.cross_checked
    assert cert.independent


def test_independence_certificate_fractional_slope():
    cert = independence_certificate(
        [(3, 2), (6, 4), (9, 6), (12, 8)], BetaSupport(1, Fraction(3, 2))
    )
    assert cert.slope == Fraction(2, 3)
    assert cert.cross_checked
    assert cert.independent


def test_an_independent_certificate_runs_no_elimination_for_the_rank(monkeypatch):
    ranks = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(rows) or real(rows))
    for points, beta in (
        ([(1, 2), (2, 4), (3, 6), (4, 8)], 2),
        ([(2, 1), (4, 2), (6, 3), (8, 4)], Fraction(3, 2)),
    ):
        cert = independence_certificate(points, BetaSupport(1, beta))
        assert cert.independent and cert.nullspace_dim == 0
    assert ranks == []


def test_a_zero_determinant_takes_the_nullity_from_the_rank(monkeypatch):
    ranks = []
    monkeypatch.setattr(linalg, "det", lambda rows: Fraction(0))
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(rows) or 3)
    cert = independence_certificate([(1, 2), (2, 4), (3, 6), (4, 8)], BetaSupport(1, 2))
    assert len(ranks) == 1
    assert cert.det_value == 0
    assert cert.nullspace_dim == 1
    assert not cert.cross_checked
    assert not cert.independent


def test_independence_certificate_rejections():
    s = BetaSupport(1, 2)
    with pytest.raises(NotOnLine):
        independence_certificate([(1, 2), (2, 4), (3, 6), (4, 9)], s)
    with pytest.raises(SlopeOne):
        independence_certificate([(1, 1), (2, 2), (3, 3), (4, 4)], s)
    with pytest.raises(ValueError):
        independence_certificate([(1, 2), (1, 2), (2, 4), (3, 6)], s)
    with pytest.raises(ValueError):
        independence_certificate([(0, 1), (1, 2), (2, 4), (3, 6)], s)


def test_certificates_at_the_cap_extremes():
    # every coprime a != b with max(a, b) <= 16: each G(a, b) that a
    # certificate reaches at the default cap of 64, the largest t on the cap
    rng = random.Random(64)
    betas = [Fraction(b) for b in ("3/2", "2", "5/3", "7/4", "9/7", "3")]
    closed = {}
    pairs = [(a, b) for a in range(1, 17) for b in range(1, 17) if a != b and gcd(a, b) == 1]
    for a, b in pairs:
        lo, hi = min(a, b), max(a, b)
        if (lo, hi) not in closed:
            closed[lo, hi] = g_closed(lo, hi)
        top = 64 // hi
        ts = sorted(rng.sample(range(1, top), 3)) + [top]
        beta = rng.choice(betas)
        cert = independence_certificate([(a * t, b * t) for t in ts], BetaSupport(1, beta))
        assert cert.closed_value == closed[lo, hi].evaluate([beta**t for t in ts]), (a, b)
        assert cert.sign == (1 if b > a else -1)
        assert cert.det_value == cert.sign * cert.closed_value, (a, b)
        assert cert.cross_checked and cert.independent, (a, b)
    assert len(closed) == len(pairs) // 2 == 79


def test_certificate_is_a_plain_record():
    cert = independence_certificate(
        [(1, 3), (2, 6), (3, 9), (4, 12)], BetaSupport(1, 2)
    )
    assert isinstance(cert, IndependenceCertificate)
    assert cert.points == ((1, 3), (2, 6), (3, 9), (4, 12))
