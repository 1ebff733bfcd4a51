import ast
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uncorrsets import constructions, polynomials
from uncorrsets.polynomials import (
    ArityMismatch,
    IntPoly,
    MultiPoly,
    NoSignChange,
    isolate_root,
    root_count,
    sturm_root_count,
)
from uncorrsets.slopeline import beta_star_poly

from route_guard import reachable


# ---------------------------------------------------------------------------
# univariate


def test_intpoly_basics():
    p = IntPoly([1, 0, -3, 2])  # 2B^3 - 3B^2 + 1
    assert p.degree == 3
    assert p(2) == 5
    assert p(Fraction(1, 2)) == Fraction(1, 2)
    assert p.derivative() == IntPoly([0, -6, 6])
    assert IntPoly([0, 0]).is_zero
    assert IntPoly.monomial(4, -2) == IntPoly([0, 0, 0, 0, -2])
    q = IntPoly([1, 1])
    assert p + q == IntPoly([2, 1, -3, 2])
    assert q * q == IntPoly([1, 2, 1])
    assert -q == IntPoly([-1, -1])
    assert 3 * q == IntPoly([3, 3])


def test_primitive_and_content():
    p = IntPoly([6, -12, 18])
    assert p.content() == 6
    assert p.primitive() == IntPoly([1, -2, 3])
    assert IntPoly([-2, 0, -4]).primitive() == IntPoly([1, 0, 2])


def test_gcd_with_repeated_roots():
    x_minus_1 = IntPoly([-1, 1])
    x_minus_2 = IntPoly([-2, 1])
    p = x_minus_1 * x_minus_1 * x_minus_2
    q = x_minus_1 * IntPoly([5, 1])
    assert IntPoly.gcd(p, q) == x_minus_1
    # the last member of the Sturm chain: the repeated factor, once
    assert IntPoly.gcd(p, p.derivative()) == x_minus_1
    assert IntPoly.gcd(p * x_minus_2, 4 * x_minus_2**3) == x_minus_2**2
    assert IntPoly.gcd(p, IntPoly([7])).degree == 0
    # scaled inputs do not change the primitive gcd
    assert IntPoly.gcd(3 * p, -5 * q) == x_minus_1


def test_sturm_count():
    # (B-1)(B-2)(B-4): distinct real roots 1, 2, 4
    p = IntPoly([-1, 1]) * IntPoly([-2, 1]) * IntPoly([-4, 1])
    assert sturm_root_count(p, Fraction(0), Fraction(5)) == 3
    assert sturm_root_count(p, Fraction(3, 2), Fraction(5)) == 2
    assert sturm_root_count(p, Fraction(5), Fraction(9)) == 0
    # repeated roots are counted once
    sq = IntPoly([-1, 1]) ** 3 * IntPoly([-2, 1])
    assert sturm_root_count(sq, Fraction(0), Fraction(3)) == 2
    with pytest.raises(ValueError):
        sturm_root_count(p, Fraction(1), Fraction(3))


def test_sturm_count_keeps_signs_under_negative_leading_coefficients():
    # 1 - B^2 over p' = -2B takes one pseudo-division step, so a step
    # scaled by lc(p') = -2 rather than |lc| = 2 would flip the last sign
    assert sturm_root_count(IntPoly([1, 0, -1]), Fraction(-2), Fraction(7, 2)) == 2
    # -(B-1)^2 (B-3) (2B+1): the repeated root at 1 counts once
    p = -(IntPoly([-1, 1]) ** 2) * IntPoly([-3, 1]) * IntPoly([1, 2])
    assert sturm_root_count(p, Fraction(-1), Fraction(4)) == 3
    assert sturm_root_count(p, Fraction(1, 2), Fraction(2)) == 1
    assert sturm_root_count(p, Fraction(-1, 3), Fraction(1, 2)) == 0
    assert sturm_root_count(IntPoly([-5]), Fraction(0), Fraction(1)) == 0


@pytest.fixture
def sturm_calls(monkeypatch):
    """The number of Sturm counts run so far, in a one-item list."""
    calls = [0]
    sturm = polynomials.sturm_root_count

    def counted(p, lo, hi):
        calls[0] += 1
        return sturm(p, lo, hi)

    monkeypatch.setattr(polynomials, "sturm_root_count", counted)
    return calls


def test_root_count_excludes_zero_without_sturm(sturm_calls):
    # B - 1 is at least 1/10 on [11/10, 2]
    assert root_count(IntPoly([-1, 1]), Fraction(11, 10), Fraction(2)) == 0
    assert sturm_calls == [0]


def test_root_count_certifies_a_monotone_sign_change_without_sturm(sturm_calls):
    # B^2 - 2 changes sign on (1414/1000, 1415/1000), where 2B > 0, but its
    # own enclosure there holds 0
    p = IntPoly([-2, 0, 1])
    assert root_count(p, Fraction(1414, 1000), Fraction(1415, 1000)) == 1
    assert sturm_calls == [0]


def test_root_count_falls_back_to_sturm_on_a_double_root(sturm_calls):
    # (2B - 3)^2 is 1 at both ends of (1, 2) and neither certificate holds
    p = IntPoly([-3, 2]) ** 2
    assert root_count(p, Fraction(1), Fraction(2)) == 1
    assert sturm_calls == [1]


def test_root_count_falls_back_to_sturm_below_zero(sturm_calls):
    # the enclosures need lo >= 0; B - 2 would exclude 0 on [-1, 1]
    assert root_count(IntPoly([-2, 1]), Fraction(-1), Fraction(1)) == 0
    assert sturm_calls == [1]
    assert root_count(IntPoly([-1, 0, 1]), Fraction(-2), Fraction(1, 2)) == 1
    assert sturm_calls == [2]


def test_root_count_rejects_an_endpoint_root():
    # the enclosure of B - 1 on [1, 2] ends exactly at 0, so it excludes
    # nothing; the count must not come out as 0
    for lo, hi in ((1, 2), (Fraction(1, 2), 1)):
        with pytest.raises(ValueError, match="endpoint"):
            root_count(IntPoly([-1, 1]), Fraction(lo), Fraction(hi))
    with pytest.raises(ValueError, match="endpoint"):
        root_count(IntPoly([]), Fraction(1), Fraction(2))


def test_root_count_rejects_an_empty_interval():
    for lo, hi in ((2, 2), (3, 2)):
        with pytest.raises(ValueError, match="empty interval"):
            root_count(IntPoly([-1, 1]), Fraction(lo), Fraction(hi))


def _bisect_by_value(p, lo, hi, width):
    """isolate_root as it read signs before: from the Fraction p(mid)."""
    lo, hi = Fraction(lo), Fraction(hi)
    slo = p(lo) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            return mid, mid
        lo, hi = (mid, hi) if (p(mid) > 0) == slo else (lo, mid)
    return lo, hi


@pytest.mark.parametrize(
    "coeffs, lo, hi",
    [
        ([-2, 0, 1], 1, 2),
        ([-1, -1, -1, 0, 0, 1], 1, 2),
        ([5, -7, 0, 3], -3, 0),
        # non-dyadic brackets: the common denominator is not a power of 2
        ([-3, 0, 2], Fraction(1, 3), Fraction(7, 5)),
        ([-1, -1, -1, 0, 0, 1], Fraction(1, 3), Fraction(7, 5)),
        ([5, -7, 0, 3], Fraction(-7, 3), Fraction(1, 9)),
        # (3B - 2)(B^2 + 1): the second midpoint is the root 2/3
        ([-2, 3, -2, 3], Fraction(1, 3), Fraction(5, 3)),
        # (B - 1)(B - 2)(B - 4): three roots in the bracket
        ([-8, 14, -7, 1], 0, 5),
        ([-8, 14, -7, 1], Fraction(1, 2), Fraction(9, 2)),
        # 4(B + 5)(B - 1)(3B - 7): roots on both sides of 0; the enclosures
        # of p' hold only for lo >= 0, and would certify this one wrongly
        ([140, -172, 20, 12], Fraction(-23, 3), 3),
        # (1024B - 1365)(B^2 + 1): a level-10 midpoint is the root, well
        # after a jump can certify the bracket
        ([-1365, 1024, -1365, 1024], 1, 2),
        # P(m, k), sparse and of high degree, on (1 + 2^-i, 2)
        *(
            (beta_star_poly(m, k).coeffs, 1 + Fraction(1, 2**i), 2)
            for m, k, i in ((2, 9, 2), (2, 19, 1), (3, 20, 2), (4, 17, 3), (4, 28, 2))
        ),
    ],
)
def test_isolate_root_intervals_match_the_value_bisection(coeffs, lo, hi):
    p = IntPoly(coeffs)
    widths = (Fraction(1, 10**12), Fraction(3, 7), Fraction(1, 10), Fraction(1, 10**40))
    for width in widths:
        assert isolate_root(p, lo, hi, width) == _bisect_by_value(p, lo, hi, width)


# sparse polynomials, times a factor 2^s B - t with the dyadic root t / 2^s,
# which bisection may meet as a midpoint; where the bracket shows no sign
# change, a linear factor with a root inside it gives one (degree <= 40)
sparse_terms = st.dictionaries(
    st.integers(0, 38), st.integers(-9, 9), min_size=1, max_size=8
)
dyadic_roots = st.tuples(st.integers(-64, 128), st.integers(0, 6))
brackets = st.tuples(
    st.fractions(min_value=-3, max_value=4, max_denominator=12),
    st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12),
    st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100
    ),
)
widths = st.integers(1, 60).map(lambda e: Fraction(1, 2**e)) | st.integers(1, 18).map(
    lambda e: Fraction(3, 10**e)
)


@settings(max_examples=150, deadline=None)
@given(sparse_terms, st.none() | dyadic_roots, brackets, widths)
def test_isolate_root_matches_the_value_bisection_on_sparse_polynomials(
    terms, root, bracket, width
):
    p = IntPoly([terms.get(i, 0) for i in range(39)])
    if root is not None:
        t, s = root
        p = p * IntPoly([-t, 2**s])
    lo, step, inside = bracket
    hi = lo + step
    if p.sign_at(lo) * p.sign_at(hi) > 0:
        c = lo + inside * step
        p = p * IntPoly([-c.numerator, c.denominator])
    assume(p.sign_at(lo) * p.sign_at(hi) < 0)
    assert isolate_root(p, lo, hi, width) == _bisect_by_value(p, lo, hi, width)


def _near_line_bracket(m, k):
    """The bracket ``beta_star`` hands to ``isolate_root``: the first
    1 + 2^-i below hi0 where P < 0, and hi0, the upper end of beta0(m) at
    width 2^-20."""
    p = beta_star_poly(m, k)
    _, hi0 = constructions.beta0(m, Fraction(1, 2**20))
    walk = (1 + Fraction(1, 2**i) for i in range(1, 65))
    lo = next(lo for lo in walk if lo < hi0 and p.sign_at(lo) < 0)
    return p, lo, hi0


JUMP_CASES = [
    _near_line_bracket(4, 28),
    _near_line_bracket(2, 9),
    (IntPoly([-1, -1, -1, 0, 0, 1]), Fraction(1), Fraction(2)),
    (IntPoly([-1365, 1024, -1365, 1024]), Fraction(1), Fraction(2)),
]


@pytest.mark.parametrize(
    "wrong",
    [lambda i: None, lambda i: 0, lambda i: i + 3, lambda i: i - 5, lambda i: 10**40],
    ids=["none", "first-cell", "three-right", "five-left", "past-the-end"],
)
def test_isolate_root_keeps_its_interval_when_newton_names_a_wrong_cell(
    monkeypatch, wrong
):
    newton, calls = polynomials._newton_cell, []

    def broken(*args):
        calls.append(args)
        i = newton(*args)
        return wrong(i)

    monkeypatch.setattr(polynomials, "_newton_cell", broken)
    for p, lo, hi in JUMP_CASES:
        for width in (Fraction(1, 10**12), Fraction(1, 10**40)):
            assert isolate_root(p, lo, hi, width) == _bisect_by_value(p, lo, hi, width)
    # every case reached the jump, so every answer came from the fallback
    # or from the cell check, never from the broken helper alone
    assert len(calls) == 2 * len(JUMP_CASES)


@pytest.fixture
def horner_degrees(monkeypatch):
    """The degree of every integer Horner sum run from now on."""
    degrees = []
    horner = polynomials._horner

    def counted(terms, n, d):
        degrees.append(terms[0][0] if terms else 0)
        return horner(terms, n, d)

    monkeypatch.setattr(polynomials, "_horner", counted)
    return degrees


def test_isolate_root_jumps_in_at_most_half_the_sums_of_bisection(horner_degrees):
    # P(4, 28) has degree 33 and 8 nonzero terms.  On beta_star's bracket
    # at the default width, bisection reads P at both ends and at 37
    # midpoints, and beta_star reads it twice more to find the bracket:
    # 41 sums on P, against 20 or fewer on P and P' with the jump.  The
    # sums of degree below 32 are those on beta0's polynomial.
    p, lo, hi = _near_line_bracket(4, 28)
    want = _bisect_by_value(p, lo, hi, Fraction(1, 10**12))
    horner_degrees.clear()
    assert constructions.beta_star(4, 28) == want
    assert sum(deg >= 32 for deg in horner_degrees) <= 41 // 2
    horner_degrees.clear()
    assert isolate_root(p, lo, hi) == want
    assert len(horner_degrees) <= 39 // 2


def test_beta_star_at_a_tiny_width_is_the_bisection_interval():
    # about a thousand halvings, which the jump replaces by a few sums
    width = Fraction(1, 10**300)
    p, lo, hi = _near_line_bracket(2, 9)
    assert constructions.beta_star(2, 9, width) == _bisect_by_value(p, lo, hi, width)


@pytest.mark.parametrize(
    "coeffs",
    [
        [],
        [5],
        [-3],
        [0, 0, 7],
        [1, -2, 0, 0, 5],
        [0, 4, 0, 0, 0, 0, -1],
        [2, 0, 0, 1, 0, 0, 0, 0, -9],
    ],
)
def test_sparse_horner_is_the_dense_sum(coeffs):
    terms = IntPoly(coeffs).terms
    exponents = [i for i, c in enumerate(coeffs) if c]
    assert [e for e, _ in terms] == exponents[::-1]
    deg = max(exponents, default=0)
    for n, d in ((0, 1), (1, 1), (-3, 1), (7, 1), (5, 3), (-11, 4), (2**70 + 1, 2**64)):
        dense = sum(c * n**i * d ** (deg - i) for i, c in enumerate(coeffs) if c)
        assert polynomials._horner(terms, n, d) == dense


def test_root_isolation_reaches_no_float_and_no_sturm_count():
    """From ``isolate_root`` no float, float literal or float-valued math
    function is reachable, and neither is ``sturm_root_count``, the audit
    route that must stay separate."""
    tree = ast.parse(inspect.getsource(polynomials))
    names = reachable(tree, "isolate_root")
    assert "float" not in names
    assert "sturm_root_count" not in names
    int_valued = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial", "prod"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                assert a.name != "math" or (a.asname or a.name) not in names
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            for a in node.names:
                if (a.asname or a.name) in names:
                    assert a.name in int_valued, f"math.{a.name} reachable"
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in names & funcs.keys() | {"isolate_root"}:
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (name, node.value)


def test_isolate_root_bisection():
    p = IntPoly([-2, 0, 1])  # B^2 - 2
    lo, hi = isolate_root(p, 1, 2, Fraction(1, 10**9))
    assert hi - lo <= Fraction(1, 10**9)
    assert p(lo) < 0 < p(hi)
    assert lo < hi
    # the interval brackets sqrt(2) = 1.41421356237...
    assert Fraction("1.414213562") < hi
    assert lo < Fraction("1.414213563")


def test_isolate_root_requires_sign_change():
    p = IntPoly([1, 0, 1])  # B^2 + 1
    with pytest.raises(NoSignChange):
        isolate_root(p, 0, 5)
    with pytest.raises(ValueError):
        isolate_root(p, 3, 3)


@pytest.mark.parametrize("width", [0, -1])
def test_isolate_root_rejects_nonpositive_width(width):
    with pytest.raises(ValueError, match="width must be positive"):
        isolate_root(IntPoly([-2, 0, 1]), 1, 2, width)


def test_isolate_root_hits_exact_root():
    p = IntPoly([-9, 0, 1])  # roots at 3 and -3
    lo, hi = isolate_root(p, 1, 5)
    assert lo == hi == 3


# ---------------------------------------------------------------------------
# multivariate


def test_multipoly_construction_and_validation():
    p = MultiPoly(2, {(1, 0): 2, (0, 0): -1, (2, 2): 0})
    assert p.term_count == 2
    assert not p.is_zero
    with pytest.raises(ArityMismatch):
        MultiPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})
    with pytest.raises(ArityMismatch):
        MultiPoly(2) + MultiPoly(3)


def test_multipoly_ring_laws_random():
    rng = random.Random(11)

    def rand():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = rng.randint(-4, 4)
        return MultiPoly(3, terms)

    for _ in range(120):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == MultiPoly.zero(3)
        assert a * 0 == MultiPoly.zero(3)
        assert a**2 == a * a


def _reference_product(a: MultiPoly, b: MultiPoly) -> dict:
    """The schoolbook product on exponent tuples, zero terms dropped."""
    out = {}
    for e1, c1 in a.sorted_terms():
        for e2, c2 in b.sorted_terms():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_canonical(p: MultiPoly) -> None:
    for exps, coef in p.sorted_terms():
        assert type(exps) is tuple and len(exps) == p.arity
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coef) is int and coef != 0


def _check_product(a: MultiPoly, b: MultiPoly) -> None:
    for prod in (a * b, b * a):
        _assert_canonical(prod)
        assert dict(prod.sorted_terms()) == _reference_product(a, b)


@pytest.mark.parametrize("arity", [1, 6])
@pytest.mark.parametrize("top", [3, 2**20])
def test_multipoly_product_matches_tuple_reference(arity, top):
    rng = random.Random(arity * 1000 + top)

    def rand():
        return MultiPoly(arity, {
            tuple(rng.randint(0, top) for _ in range(arity)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 12))
        })

    for _ in range(40):
        _check_product(rand(), rand())


@pytest.mark.parametrize(
    "top", [2**w - 1 for w in (1, 2, 7, 20)] + [2**w for w in (1, 2, 7, 20)]
)
def test_multipoly_product_at_the_field_boundary(top):
    # every variable's exponent sum reaches `top`: all ones in a field of
    # w bits, or the first value that needs one bit more
    rng = random.Random(top)
    for arity in (1, 3, 6):
        for _ in range(10):
            split = [rng.randint(0, top) for _ in range(arity)]
            a = MultiPoly(arity, {tuple(split): 1, (0,) * arity: -2})
            b = MultiPoly(arity, {
                tuple(top - s for s in split): 3,
                tuple(rng.randint(0, top - s) for s in split): rng.choice((-2, 2)),
            })
            _check_product(a, b)
            assert (a * b).sorted_terms()[0][0] == (top,) * arity


@pytest.mark.parametrize("arity", [1, 6])
def test_multipoly_product_with_one_term_operand(arity):
    # a one-term operand on either side: a monomial with a negative or a
    # positive coefficient, a negative constant and the constant 1, against
    # operands with cancelling coefficients and exponents past 2^20
    rng = random.Random(arity + 7)

    def rand(terms, top):
        return MultiPoly(arity, {
            tuple(rng.randint(0, top) for _ in range(arity)): rng.choice((-3, -1, 1, 2))
            for _ in range(terms)
        })

    for top in (3, 2**20):
        for _ in range(20):
            many = rand(rng.randint(1, 12), top)
            for one in (
                rand(1, top),
                MultiPoly(arity, {tuple(rng.randint(0, top) for _ in range(arity)): -5}),
                MultiPoly.const(arity, -2),
                MultiPoly.const(arity, 1),
            ):
                assert one.term_count == 1
                _check_product(one, many)
                _check_product(one, one)


def test_multipoly_product_cancellations():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    _check_product(x + y, x - y)
    assert (x + y) * (x - y) == x**2 - y**2
    geometric = sum((x**k * y ** (9 - k) for k in range(10)), MultiPoly.zero(2))
    _check_product(x - y, geometric)
    assert (x - y) * geometric == x**10 - y**10


@pytest.mark.parametrize("arity", [1, 6])
def test_multipoly_product_by_zero_and_ints(arity):
    a = MultiPoly(arity, {(2**20,) * arity: 5, (0,) * arity: -1})
    zero = MultiPoly.zero(arity)
    _check_product(a, zero)
    assert a * zero == zero * a == zero
    assert a * 0 == 0 * a == zero
    assert (a * 0).is_zero and (0 * a).is_zero
    for k in (1, -3, 2**70):
        _assert_canonical(a * k)
        assert a * k == k * a == a * MultiPoly.const(arity, k)
    const = MultiPoly.const(arity, 4)
    _check_product(const, const)
    assert const * const == MultiPoly.const(arity, 16)


def test_multipoly_evaluate_mixed_scalars():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x**2 - 2 * y**2
    assert p.evaluate([Fraction(3), Fraction(1)]) == 7
    # ints stay ints: the sum starts from int coefficients and powers
    for point, want in (([3, 1], 7), ([5, 4], -7), ([0, 0], 0)):
        value = p.evaluate(point)
        assert type(value) is int and value == want
    assert p.evaluate([Fraction(1, 2), 1]) == Fraction(-7, 4)
    with pytest.raises(ArityMismatch):
        p.evaluate([Fraction(1)])


def test_multipoly_sorted_terms_graded_lex():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = 1 + x + y + x * y**2 + x**3
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(3, 0), (1, 2), (1, 0), (0, 1), (0, 0)]


def test_multipoly_json_round_trip():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = 3 * x**2 * y - y + 7
    blob = p.to_json()
    assert blob[0] == {"exps": [2, 1], "coef": "3"}


def test_multipoly_repr_readable():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert repr(x**2 - y) == "MultiPoly(x^2 - y)"
