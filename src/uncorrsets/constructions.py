"""The slope-line witnesses, and every witness builder under one name.

A slope line m holds the three points (i, m i), i = 1, 2, 3, when the
support is geometric with a ratio beta >= beta0(m), the unique root in
(1, 2) of B^(m+1) - B^2 - B - 1; its offsets are the pattern
``engine.shape_offsets`` gives its descriptor.  At the ratio
beta_star(m, k), the root in (1, beta0) of

    P(B) = (B^(m+1) - B^2 - B - 1) B^k + (B^(m+2) + B^(m+1) + B^m - B) B^(2m),

it holds a fourth point (4, k) as well.  beta_star is irrational, so that
witness is an ``algebraic.AlgebraicSlopeLine``: P with an isolating
interval certified to hold one root (``slopeline_beta_star``).  The
polynomials live in ``slopeline``.  A slope m or fourth-point column k
above the exponent cap is refused, like a box.

The builders of the offset witnesses, and ``Construction``, live in
``witnesses``, which loads no polynomial code; they are bound here too,
with the line's polynomial helpers, so that every builder and every
slope-line name can be read off this one module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicSlopeLine
from .engine import SetDescriptor
from .model import BetaSupport
from .numeric import DEFAULT_MAX_EXP, Frozen, check_order, setfield
from .polynomials import isolate_root, root_count
from .slopeline import beta0_poly, beta_star_poly, check_slope
from .witnesses import Construction, _closed_form

# bound here, unused, so that every builder and the line's spans are read
# off this module (perfbench's tracer patches them by these names)
from .polynomials import sturm_root_count  # noqa: F401
from .slopeline import slopeline_d_poly  # noqa: F401
from .witnesses import (  # noqa: F401
    make_antidiagonal,
    make_cross,
    make_diagonal,
    make_empty,
    make_full,
    make_hline,
    make_lattice_union,
    make_singleton,
    make_two_point,
    make_vline,
)


class BetaTooSmall(ValueError):
    """The requested ratio is below the threshold root beta0(m)."""


class BracketNotFound(ValueError):
    """No sign-change bracket for the near-line root could be located."""


DEFAULT_WIDTH = Fraction(1, 10**12)

MODE_AT_OR_ABOVE = "at-or-above-beta0"
MODE_BETA_STAR = "beta-star"


# ---------------------------------------------------------------------------
# threshold and near-line roots


def beta0(m: int, width=DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """Isolating interval for the threshold root beta0(m) in (1, 2)."""
    check_order(m)
    return isolate_root(beta0_poly(m), 1, 2, width)


def beta_star(m: int, k: int, width=DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """The certified isolating interval of ``slopeline_beta_star``: it
    holds exactly one root of P and lies inside (1, beta0)."""
    return slopeline_beta_star(m, k, width).interval


@lru_cache(maxsize=DEFAULT_MAX_EXP)
def _beta0_upper(m: int) -> Fraction:
    """Upper end of beta0(m) isolated to width 2^-20, once per slope; the
    callers have checked m against the exponent cap."""
    return beta0(m, Fraction(1, 2**20))[1]


class SlopeLineParams(Frozen):
    """How to realize three (or four) points on the line k = m j.

    mode "at-or-above-beta0" takes a rational beta with beta >= beta0(m)
    and yields exactly {(1, m), (2, 2m), (3, 3m)}, globally.  mode
    "beta-star" takes the extra column k > 4m and realizes the ratio as
    the algebraic root beta_star(m, k), adding the near-line point (4, k).
    """

    __slots__ = ("m", "mode", "beta", "k", "width")

    def __init__(
        self,
        m: int,
        mode: str,
        beta: Fraction | None = None,
        k: int | None = None,
        width: Fraction = DEFAULT_WIDTH,
    ):
        check_slope(m)
        check_order(m)
        if mode not in (MODE_AT_OR_ABOVE, MODE_BETA_STAR):
            raise ValueError(f"unknown slope-line mode {mode!r}")
        if mode == MODE_AT_OR_ABOVE:
            if beta is None:
                raise ValueError("at-or-above mode needs a rational beta")
            beta = Fraction(beta)
        else:
            if k is None:
                raise ValueError("beta-star mode needs the fourth-point column k")
            check_order(k)
        setfield(self, "m", m)
        setfield(self, "mode", mode)
        setfield(self, "beta", beta)
        setfield(self, "k", k)
        setfield(self, "width", Fraction(width))
        setfield(self, "_key", (m, mode, beta, k, self.width))


def slopeline_beta_star(m: int, k: int, width=DEFAULT_WIDTH) -> AlgebraicSlopeLine:
    """The line at beta_star(m, k), with P built once.  A bracket is found
    by walking 1 + 2^-i until P goes negative (P vanishes at 1 and is
    positive before beta0); ``isolate_root`` narrows it to the width, then
    it is halved until the threshold polynomial is negative at its upper
    end, and until ``root_count`` finds exactly one root of P in it."""
    check_order(m, k)
    p = beta_star_poly(m, k)
    threshold = beta0_poly(m)
    hi0 = _beta0_upper(m)
    step = Fraction(1, 2)
    for _ in range(64):
        lo = 1 + step
        if lo < hi0 and p.sign_at(lo) < 0:
            break
        step /= 2
    else:
        raise BracketNotFound(
            f"P stayed nonnegative on 1 + 2^-i for i <= 64 with m={m}, k={k}"
        )
    if p.sign_at(hi0) <= 0:
        raise BracketNotFound(f"P({hi0}) <= 0; no sign change before beta0")
    lo, hi = isolate_root(p, lo, hi0, width)
    while lo < hi and threshold.sign_at(hi) >= 0:
        lo, hi = isolate_root(p, lo, hi, (hi - lo) / 2)
    while root_count(p, lo, hi) != 1:
        lo, hi = isolate_root(p, lo, hi, (hi - lo) / 4)
    return AlgebraicSlopeLine(m=m, k=k, poly=p, interval=(lo, hi))


def make_slopeline(params: SlopeLineParams) -> Construction:
    if params.mode == MODE_AT_OR_ABOVE:
        beta = params.beta
        if beta0_poly(params.m)(beta) < 0:
            lo, hi = beta0(params.m, Fraction(1, 10**6))
            raise BetaTooSmall(
                f"beta = {beta} lies below the threshold root in ({lo}, {hi})"
            )
        return _closed_form(SetDescriptor.slopeline(params.m), BetaSupport(1, beta))
    line = slopeline_beta_star(params.m, params.k, params.width)
    return Construction("slopeline", line.descriptor(), algebraic=line)
