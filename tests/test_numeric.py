import random
from fractions import Fraction
from time import perf_counter

import pytest

from uncorrsets.numeric import (
    MAX_RADICAND,
    MixedRadicand,
    QuadExt,
    as_exact,
    exact_abs,
    exact_sign,
    format_rational,
    quad_sign,
    rational_from_json,
    scalar_from_json,
    scalar_from_parts,
    scalar_to_json,
    sqrt_parts,
)


def test_radicand_validation():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 12)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)
    with pytest.raises(ValueError):
        QuadExt(1, 1, -2)
    QuadExt(1, 1, 2)
    QuadExt(0, 1, 30)


def test_radicand_bound():
    # a prime far above the bound is refused before the trial division,
    # which would take about 10^10 steps
    start = perf_counter()
    with pytest.raises(ValueError, match="exceeds the bound"):
        QuadExt(0, 1, 10**20 + 39)
    assert perf_counter() - start < 0.1
    assert QuadExt(0, 1, 999_999_999_989).d == 999_999_999_989  # a prime
    assert MAX_RADICAND == 10**12


def test_arithmetic_against_square():
    r = QuadExt(0, 1, 2)
    assert r * r == 2
    assert (1 + r) * (1 - r) == -1
    assert (1 + r) ** 2 == QuadExt(3, 2, 2)
    assert (3 + 2 * r) * (3 - 2 * r) == 1
    assert (1 + r).inverse() == QuadExt(-1, 1, 2)
    assert 1 / (1 + r) == QuadExt(-1, 1, 2)
    assert (1 + r) ** -2 == QuadExt(3, -2, 2)


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicand):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 3)
    # equal rational values in different extensions still compare equal
    assert QuadExt(5, 0, 2) == QuadExt(5, 0, 3)


def test_sign_is_exact_near_ties():
    # 99/70 is a convergent of sqrt(2): the squared comparison must
    # resolve signs that floats get wrong at higher convergents
    assert (QuadExt(Fraction(99, 70), -1, 2)).sign() == 1
    assert (QuadExt(Fraction(-99, 70), 1, 2)).sign() == -1
    big = Fraction(131836323, 93222358)  # deeper convergent, above sqrt(2)
    assert QuadExt(big, -1, 2).sign() == 1
    assert QuadExt(0, 0, 2).sign() == 0
    assert QuadExt(0, -3, 2).sign() == -1


def test_ordering_and_abs():
    r = QuadExt(0, 1, 2)
    assert Fraction(7, 5) < r < Fraction(3, 2)
    assert 1 < r
    assert abs(1 - r) == r - 1
    assert exact_abs(Fraction(-3, 4)) == Fraction(3, 4)
    assert exact_sign(r - 2) == -1
    assert exact_sign(Fraction(0)) == 0


def test_random_field_laws():
    rng = random.Random(7)

    def rand():
        return QuadExt(
            Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
            2,
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a
        if a.sign() != 0:
            assert a * a.inverse() == 1
            assert (b / a) * a == b


def test_hash_consistent_with_rational_equality():
    assert hash(QuadExt(Fraction(3, 2), 0, 2)) == hash(Fraction(3, 2))
    s = {QuadExt(1, 1, 2), QuadExt(1, 1, 2), Fraction(2)}
    assert len(s) == 2


def test_as_exact_collapses_rational_quadext():
    v = as_exact(QuadExt(Fraction(5, 3), 0, 2))
    assert isinstance(v, Fraction) and v == Fraction(5, 3)
    assert as_exact("7/2") == Fraction(7, 2)
    assert isinstance(as_exact(3), Fraction)
    q = Fraction(-7, 3)
    assert as_exact(q) is q
    with pytest.raises(TypeError):
        as_exact(1.5)


def test_rational_formatting():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(4, 2)) == "2"


def test_scalar_json_round_trip():
    assert scalar_to_json(Fraction(1, 2)) == "1/2"
    assert scalar_to_json(5) == "5"
    enc = scalar_to_json(QuadExt(1, Fraction(-1, 2), 2))
    assert enc == {"a": "1", "b": "-1/2", "d": 2}
    assert scalar_from_json(enc) == QuadExt(1, Fraction(-1, 2), 2)
    assert scalar_from_json("9/4") == Fraction(9, 4)
    # a rational dressed up as a QuadExt comes back as a plain Fraction
    assert scalar_to_json(QuadExt(2, 0, 2)) == "2"
    assert scalar_from_json(-3) == -3 and scalar_from_json("1.25") == Fraction(5, 4)
    # inexact or mistyped values are refused, never truncated
    for bad in (0.5, 2.0, True, "1e400", " 1", None, {"a": 1.5, "b": "1", "d": 2},
                {"a": "1", "b": "1", "d": 2.0}):
        with pytest.raises(ValueError):
            scalar_from_json(bad)


@pytest.mark.parametrize(
    "text",
    ["+3", "-0/5", "007/010", ".5", "1.250", "-2.5", "3/5", "1/0", "-1/0", "7" * 5000],
)
def test_rational_from_json_reads_as_fraction_does(text):
    # built from the match's groups, the value (or the exception, with its
    # message) is Fraction(text)'s; the 5,000-digit numerator passes the
    # pattern and meets int()'s digit limit
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            rational_from_json(text)
        assert str(got.value) == str(exc)
    else:
        got = rational_from_json(text)
        assert type(got) is Fraction and got == want


def test_pow_and_str():
    r = QuadExt(0, 1, 2)
    assert r**10 == 32
    assert r**0 == 1
    assert str(QuadExt(1, -1, 2)) == "1 - 1*sqrt(2)"


def _public(v):
    """The same number built through the checking constructor."""
    return QuadExt(v.a, v.b, v.d)


@pytest.mark.parametrize("d", [2, 3])
def test_arithmetic_results_equal_the_public_constructor(d):
    # results of arithmetic skip the radicand checks and the Fraction
    # re-wrap; they must be the very numbers __init__ would build
    rng = random.Random(d)

    def rand():
        return QuadExt(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            d,
        )

    for _ in range(200):
        a, b = rand(), rand()
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        results = [a + b, a - b, a * b, -a, a + q, q - a, a * q, a ** rng.randint(0, 5)]
        if a:
            results += [a.inverse(), b / a, q / a, a ** -rng.randint(1, 3)]
        for v in results:
            assert type(v.a) is Fraction and type(v.b) is Fraction and v.d == d
            w = _public(v)
            assert (v.a, v.b, v.d) == (w.a, w.b, w.d) and repr(v) == repr(w)
        assert a * b == _public(QuadExt(a.a * b.a + d * a.b * b.b, a.a * b.b + a.b * b.a, d))
        if a:
            n = a.a * a.a - d * a.b * a.b
            assert a.inverse() == QuadExt(a.a / n, -a.b / n, d)


def test_quad_sign_is_the_sign_of_quadext():
    rng = random.Random(11)
    for _ in range(500):
        d = rng.choice((2, 3, 5, 7))
        r, i = rng.randint(-50, 50), rng.randint(-50, 50)
        assert quad_sign(r, i, d) == QuadExt(r, i, d).sign()
    # near ties: 99^2 - 2 * 70^2 = 1 and 577^2 - 2 * 408^2 = 1
    assert quad_sign(99, -70, 2) == 1 and quad_sign(-99, 70, 2) == -1
    assert quad_sign(577, -408, 2) == 1 and quad_sign(-577, 408, 2) == -1
    assert quad_sign(0, 0, 0) == 0 and quad_sign(-3, 0, 0) == -1


def test_sqrt_parts_writes_a_vector_over_one_denominator():
    vals = [Fraction(1, 6), QuadExt(Fraction(1, 4), Fraction(-2, 3), 3), 2, Fraction(0)]
    rs, irs, d, den = sqrt_parts(vals)
    assert d == 3 and den == 12
    assert (rs, irs) == ([2, 3, 24, 0], [0, -8, 0, 0])
    assert [scalar_from_parts(r, i, d, den) for r, i in zip(rs, irs)] == vals
    assert type(scalar_from_parts(24, 0, 3, 12)) is Fraction
    assert sqrt_parts([Fraction(1, 2), Fraction(-1, 3)]) == ([3, -2], [0, 0], 0, 6)
    # the first radicand met, then the first that differs from it
    with pytest.raises(MixedRadicand, match=r"^cannot combine sqrt\(5\) with sqrt\(2\)$"):
        sqrt_parts([1, QuadExt(0, 1, 5), QuadExt(1, 1, 5), QuadExt(0, 1, 2)])
