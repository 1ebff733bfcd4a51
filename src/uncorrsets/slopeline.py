"""The slope-line polynomials in the support ratio B, defined once.

The threshold polynomial of beta0(m), the near-line polynomial P of
beta_star(m, k), the witness power sums y(B) and D(j, k), with its split
D = c0 + B^k c1, live here.  The module imports only ``polynomials``, so
``engine`` (the global slope-line check) and ``constructions`` (the
witnesses) both use it without importing each other.
"""

from __future__ import annotations

from .polynomials import IntPoly


def beta0_poly(m: int) -> IntPoly:
    """B^(m+1) - B^2 - B - 1, strictly increasing on [1, oo) for m >= 2."""
    if m < 2:
        raise ValueError("slope must be an integer >= 2")
    p = IntPoly.monomial(m + 1)
    return p + IntPoly([-1, -1, -1])


def beta_star_poly(m: int, k: int) -> IntPoly:
    """P(B) whose root in (1, beta0) realizes the fourth point (4, k)."""
    if m < 2:
        raise ValueError("slope must be an integer >= 2")
    if k <= 4 * m:
        raise ValueError(
            f"fourth-point column must exceed 4m = {4 * m}; P only dips "
            "below zero when its slope at 1 is negative"
        )
    growth = IntPoly.monomial(m + 2) + IntPoly.monomial(m + 1) + IntPoly.monomial(m)
    growth = growth + IntPoly([0, -1])
    return beta0_poly(m) * IntPoly.monomial(k) + growth * IntPoly.monomial(2 * m)


def _binomial(plus: int, minus: int) -> IntPoly:
    """B^plus - B^minus, written term by term."""
    cs = [0] * (max(plus, minus) + 1)
    cs[plus] += 1
    cs[minus] -= 1
    return IntPoly(cs)


def slopeline_y_polys(m: int) -> tuple[IntPoly, IntPoly, IntPoly, IntPoly]:
    """Power-sum coordinates of the slope-line witness, as polynomials in B.

    y1 = (B^m - B) B^(2m+2),  y2 = (1 - B^(m+1)) B^(2m),
    y3 = (B^(m+1) - 1) B^2,   y4 = B - B^m.
    """
    if m < 2:
        raise ValueError("slope must be an integer >= 2")
    return (
        _binomial(3 * m + 2, 2 * m + 3),
        _binomial(2 * m, 3 * m + 1),
        _binomial(m + 3, 2),
        _binomial(1, m),
    )


def slopeline_d_parts(m: int, j: int) -> tuple[IntPoly, IntPoly]:
    """c0 and c1 in B with D(j, k) = c0 + B^k c1, for every k.

    c0 = (B^m - B) B^(2m+2) - (B^(m+1) - 1) B^(j+2m),
    c1 = (B^(m+1) - 1) B^2 - (B^m - B) B^j.
    """
    if m < 2:
        raise ValueError("slope must be an integer >= 2")
    if j < 1:
        raise ValueError("orders must be >= 1")
    t1, t3 = _binomial(m, 1), _binomial(m + 1, 0)
    c0 = t1 * IntPoly.monomial(2 * m + 2) - t3 * IntPoly.monomial(j + 2 * m)
    c1 = t3 * IntPoly.monomial(2) - t1 * IntPoly.monomial(j)
    return c0, c1


def slopeline_d_poly(m: int, j: int, k: int) -> IntPoly:
    """D(j, k) in B: the power sum of the slope-line witness at (j, k).

    D(j,k) = (B^m - B)(B^(2m+2) - B^(j+k)) + (B^(m+1) - 1)(B^(k+2) - B^(j+2m)).
    Vanishing of D at the support ratio is exactly membership of (j, k).
    """
    if k < 1:
        raise ValueError("orders must be >= 1")
    c0, c1 = slopeline_d_parts(m, j)
    return c0 + c1 * IntPoly.monomial(k)
