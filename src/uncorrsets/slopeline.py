"""The slope-line polynomials in the support ratio B, defined once.

The threshold polynomial of beta0(m), the near-line polynomial P of
beta_star(m, k), the witness power sums y(B) and D(j, k), with its split
D = c0 + B^k c1, live here, each written from its few terms with like
terms combined, not from products.  The module imports only
``polynomials``, so ``engine`` (the global slope-line check),
``algebraic`` (the line at beta_star) and ``constructions`` (its builders)
all use it without importing each other.
"""

from __future__ import annotations

from .polynomials import IntPoly


def check_slope(m: int) -> None:
    """Refuse a slope below 2, where beta0(m) has no root in (1, 2)."""
    if m < 2:
        raise ValueError("slope must be an integer >= 2")


def beta0_poly(m: int) -> IntPoly:
    """B^(m+1) - B^2 - B - 1, strictly increasing on [1, oo) for m >= 2."""
    check_slope(m)
    p = IntPoly.monomial(m + 1)
    return p + IntPoly([-1, -1, -1])


def beta_star_poly(m: int, k: int) -> IntPoly:
    """P(B) whose root in (1, beta0) realizes the fourth point (4, k)."""
    check_slope(m)
    if k <= 4 * m:
        raise ValueError(
            f"fourth-point column must exceed 4m = {4 * m}; P only dips "
            "below zero when its slope at 1 is negative"
        )
    # P = (B^(m+1) - B^2 - B - 1) B^k + (B^(m+2) + B^(m+1) + B^m - B) B^(2m)
    return _from_terms(
        _add_terms(
            (m + 1 + k, 1), (k + 2, -1), (k + 1, -1), (k, -1),
            (3 * m + 2, 1), (3 * m + 1, 1), (3 * m, 1), (2 * m + 1, -1),
        )
    )


def _from_terms(terms: dict[int, int]) -> IntPoly:
    """The sum of coef B^power over a {power: coef} dict."""
    cs = [0] * (max(terms, default=-1) + 1)
    for power, coef in terms.items():
        cs[power] = coef
    return IntPoly(cs)


def _add_terms(*terms: tuple[int, int]) -> dict[int, int]:
    """{power: coef} of a sum of (power, coef) terms, like terms combined
    and zero coefficients dropped."""
    out: dict[int, int] = {}
    for power, coef in terms:
        out[power] = out.get(power, 0) + coef
    return {power: coef for power, coef in out.items() if coef}


def _binomial(plus: int, minus: int) -> IntPoly:
    """B^plus - B^minus, written term by term."""
    return _from_terms(_add_terms((plus, 1), (minus, -1)))


def slopeline_y_polys(m: int) -> tuple[IntPoly, IntPoly, IntPoly, IntPoly]:
    """Power-sum coordinates of the slope-line witness, as polynomials in B.

    y1 = (B^m - B) B^(2m+2),  y2 = (1 - B^(m+1)) B^(2m),
    y3 = (B^(m+1) - 1) B^2,   y4 = B - B^m.
    """
    check_slope(m)
    return (
        _binomial(3 * m + 2, 2 * m + 3),
        _binomial(2 * m, 3 * m + 1),
        _binomial(m + 3, 2),
        _binomial(1, m),
    )


def slopeline_d_terms(m: int, j: int) -> tuple[dict[int, int], dict[int, int]]:
    """c0 and c1 in B with D(j, k) = c0 + B^k c1, for every k, as
    {power: coef} dicts: like terms combined, zero coefficients dropped,
    so each holds at most 4 terms.

    c0 = (B^m - B) B^(2m+2) - (B^(m+1) - 1) B^(j+2m)
       = B^(3m+2) - B^(2m+3) - B^(j+3m+1) + B^(j+2m),
    c1 = (B^(m+1) - 1) B^2 - (B^m - B) B^j
       = B^(m+3) - B^2 - B^(j+m) + B^(j+1).
    """
    check_slope(m)
    if j < 1:
        raise ValueError("orders must be >= 1")
    c0 = _add_terms(
        (3 * m + 2, 1), (2 * m + 3, -1), (j + 3 * m + 1, -1), (j + 2 * m, 1)
    )
    c1 = _add_terms((m + 3, 1), (2, -1), (j + m, -1), (j + 1, 1))
    return c0, c1


def slopeline_d_poly(m: int, j: int, k: int) -> IntPoly:
    """D(j, k) in B: the power sum of the slope-line witness at (j, k).

    D(j,k) = (B^m - B)(B^(2m+2) - B^(j+k)) + (B^(m+1) - 1)(B^(k+2) - B^(j+2m)).
    Vanishing of D at the support ratio is exactly membership of (j, k).
    It is built from the 8 terms of c0 + B^k c1.
    """
    if k < 1:
        raise ValueError("orders must be >= 1")
    c0, c1 = slopeline_d_terms(m, j)
    return _from_terms(_add_terms(*c0.items(), *((e + k, c) for e, c in c1.items())))
