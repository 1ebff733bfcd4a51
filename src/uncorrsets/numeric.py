"""Exact scalars for the package.

Rational numbers are plain ``fractions.Fraction``.  On top of those this
module provides ``QuadExt``, a number a + b*sqrt(d) in a real quadratic
extension of the rationals: a validated value with its parts, its exact
sign, equality, hashing and text, and no arithmetic.  That is the full
extent of irrationality the probability tables ever need: a witness
either has rational offsets or lives in a single fixed Q(sqrt(d)), so no
general algebraic-number tower is built.

Every computation in Q(sqrt(d)) runs on integers.  A vector of scalars
is written once as (R + I*sqrt(d)) / L, with one radicand d and L the
least common denominator of every rational and irrational part
(``sqrt_parts``, the one place that refuses two radicands);
``quad_sign`` is the sign rule on those integers, ``scalar_from_parts``
builds a scalar back, and ``map_parts`` applies a map with rational
coefficients to R and I alike.  Signs are decided without any floating
point: for r + i*sqrt(d) with r and i of opposite sign the comparison
reduces to r^2 versus d*i^2, which can never be a tie because d is
square-free and at least 2.

The exponent cap lives here too, as the bottom module every other one
imports: ``max_exponent`` reads it (``UNCORRSET_MAX_EXP``, default 64),
``check_order`` refuses a moment order above it and ``check_box`` a box
that reaches past it, so a determinant check needs no set machinery to
be refused, and both routes and the algebraic line share one box check.
So do ``Frozen``, the base of the package's immutable value classes, and
the readers of the point text forms j,k and j1,k1;j2,k2.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction, "QuadExt"]
Point = tuple[int, int]

DEFAULT_MAX_EXP = 64
ENV_MAX_EXP = "UNCORRSET_MAX_EXP"

_PRIMES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the square-free test trial-divides up to sqrt(d), about 10^6 steps here
MAX_RADICAND = 10**12


class MixedRadicand(ValueError):
    """Two values lie in quadratic fields of different radicands; only
    ``sqrt_parts`` raises it."""


class ExponentCapExceeded(ValueError):
    """A box, descriptor or construction asked for moments beyond the
    exponent cap."""


def max_exponent() -> int:
    raw = os.environ.get(ENV_MAX_EXP)
    if raw is None:
        return DEFAULT_MAX_EXP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{ENV_MAX_EXP} must be a positive integer")
    return cap


def check_box(jmax: int, kmax: int) -> None:
    """Reject a box jmax x kmax that is empty or reaches past the cap."""
    if jmax < 1 or kmax < 1:
        raise ValueError("box bounds must be at least 1")
    cap = max_exponent()
    if jmax > cap or kmax > cap:
        raise ExponentCapExceeded(
            f"box {jmax}x{kmax} exceeds the exponent cap {cap}"
        )


def check_order(*orders: int, terms: int = 1) -> None:
    """Reject an order above the exponent cap; a sum of ``terms`` orders
    (an antidiagonal j + k) may reach ``terms`` times the cap."""
    limit = terms * max_exponent()
    for n in orders:
        if n > limit:
            raise ExponentCapExceeded(f"order {n} exceeds the exponent cap {limit}")


# sets a slot of a Frozen value, once, in its own __init__
setfield = object.__setattr__


class Frozen:
    """An immutable value with slots.

    A subclass declares ``__slots__`` and sets each slot once in its own
    ``__init__`` through ``setfield``, and last the key ``_key``: the tuple
    of its compared fields, in constructor order.  ``==``, ``hash``,
    ``repr`` and copying read that one key, a stored tuple, so they cost
    one tuple comparison or hash; assigning or deleting a field raises
    AttributeError.  Nothing is generated when a class is made, so a
    value class costs no more to import than any other class.
    """

    __slots__ = ("_key",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map(repr, self._key))})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    for p in _PRIMES_SMALL:
        if n % (p * p) == 0:
            return False
    k = _PRIMES_SMALL[-1]
    while k * k <= n:
        k += 1
        if n % (k * k) == 0:
            return False
    return True


_new = object.__new__
_ZERO = Fraction(0)


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


class QuadExt:
    """a + b*sqrt(d) with a, b rational and d a square-free integer >= 2.

    A parsed value: it does no arithmetic.  Compute on its integer parts
    (``sqrt_parts``, ``map_parts``, ``scalar_from_parts``) instead."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a, b, d: int):
        if not isinstance(d, int) or d < 2:
            raise ValueError(f"radicand must be an integer >= 2, got {d!r}")
        r = isqrt(d)
        if r * r == d:
            raise ValueError(f"radicand must not be a perfect square, got {d}")
        if d > MAX_RADICAND:
            raise ValueError(f"radicand {d} exceeds the bound {MAX_RADICAND}")
        if not _is_squarefree(d):
            raise ValueError(f"radicand must be square-free, got {d}")
        self._a = Fraction(a)
        self._b = Fraction(b)
        self._d = d

    @classmethod
    def _of(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) from parts already known good: a and b are
        Fractions and d is the radicand of an existing QuadExt.
        ``scalar_from_parts`` makes its results this way; ``__init__``
        checks everything that comes from outside."""
        q = _new(cls)
        q._a = a
        q._b = b
        q._d = d
        return q

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def sign(self) -> int:
        a, b = self._a, self._b
        # times the positive a.denominator * b.denominator
        return quad_sign(
            a.numerator * b.denominator, b.numerator * a.denominator, self._d
        )

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExt):
            if self._d != other._d:
                return self._b == 0 and other._b == 0 and self._a == other._a
            return self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"QuadExt({self._a}, {self._b}, {self._d})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*sqrt({self._d})"
        op = "+" if self._b > 0 else "-"
        return f"{self._a} {op} {abs(self._b)}*sqrt({self._d})"


def quad_sign(r: int, i: int, d: int) -> int:
    """Sign of r + i*sqrt(d) for integers r and i, decided without floats;
    d >= 2 must not be a square wherever i != 0 (d is unread at i == 0)."""
    if i == 0:
        return (r > 0) - (r < 0)
    if r == 0 or (r > 0) == (i > 0):
        return 1 if i > 0 else -1
    # opposite signs: |r| vs |i| sqrt(d), squared comparison is exact
    lhs = r * r
    rhs = d * i * i
    if lhs == rhs:
        raise ArithmeticError(f"sqrt({d}) behaved rationally at {r} + {i}*sqrt({d})")
    return (1 if r > 0 else -1) if lhs > rhs else (1 if i > 0 else -1)


def over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and the least q > 0 with values[i] == n[i] / q."""
    q = lcm(*(v.denominator for v in values))
    return [v.numerator * (q // v.denominator) for v in values], q


def sqrt_parts(values: Sequence[Scalar]) -> tuple[list[int], list[int], int, int]:
    """(R, I, d, L) with values[n] == (R[n] + I[n]*sqrt(d)) / L.

    L is the least common denominator of every rational and irrational
    part; d is the one radicand, or 0 when no value is a QuadExt (I is
    then all zeros).  Raises MixedRadicand, naming the first radicand met
    and the first one that differs from it, when two values lie in
    different quadratic fields.
    """
    d = 0
    for v in values:
        if isinstance(v, QuadExt):
            if d == 0:
                d = v._d
            elif v._d != d:
                raise MixedRadicand(f"cannot combine sqrt({d}) with sqrt({v._d})")
    if d == 0:
        rational, den = over_one_denominator(values)
        return rational, [0] * len(rational), 0, den
    nums, den = over_one_denominator(
        [v._a if isinstance(v, QuadExt) else v for v in values]
        + [v._b if isinstance(v, QuadExt) else _ZERO for v in values]
    )
    n = len(values)
    return nums[:n], nums[n:], d, den


def scalar_from_parts(r: int, i: int, d: int, den: int) -> Scalar:
    """The canonical scalar (r + i*sqrt(d)) / den: a Fraction when i == 0.
    d must come from ``sqrt_parts``, so it is not checked again."""
    if i == 0:
        return Fraction(r, den)
    return QuadExt._of(Fraction(r, den), Fraction(i, den), d)


def map_parts(values: Sequence[Scalar], fn) -> list[Scalar]:
    """fn applied to the vector values, through its integer parts.

    fn takes the vector's entries as arguments and returns a sequence;
    it must be linear with rational coefficients and no constant term,
    written for any ring (as ``model._deviation_table`` is).  With values = (R + I*sqrt(d)) / L
    from one ``sqrt_parts`` call, the result is (fn(R) + fn(I)*sqrt(d)) / L,
    each entry rebuilt by ``scalar_from_parts``.
    """
    rat, irr, d, den = sqrt_parts(values)
    return [scalar_from_parts(r, i, d, den) for r, i in zip(fn(*rat), fn(*irr))]


def exact_sign(v: Scalar) -> int:
    """Sign of an exact scalar as -1, 0 or 1, decided without floats."""
    if isinstance(v, QuadExt):
        return v.sign()
    return (v > 0) - (v < 0)


def as_exact(v) -> Scalar:
    """Coerce int/str/Fraction/QuadExt to a canonical exact scalar.

    A QuadExt with zero irrational part collapses to its rational value,
    so equality and serialization never depend on how a number was made.
    Text is read by ``rational_from_json``, the one text rule.
    """
    if type(v) is Fraction:
        return v
    if isinstance(v, QuadExt):
        return v.a if v.is_rational else v
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        return rational_from_json(v)
    raise TypeError(f"not an exact scalar: {v!r}")


def format_rational(q) -> str:
    q = _fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_json(v: Scalar):
    """Rationals go to "p/q" strings, quadratic irrationals to {a, b, d}."""
    v = as_exact(v)
    if isinstance(v, QuadExt):
        return {
            "a": format_rational(v.a),
            "b": format_rational(v.b),
            "d": v.d,
        }
    return format_rational(v)


def parse_point(text: str) -> Point:
    """A point in its text form j,k."""
    try:
        j, k = text.split(",")
        return int(j), int(k)
    except ValueError:
        raise ValueError(f"point must look like j,k, got {text!r}") from None


def parse_points(text: str) -> list[Point]:
    """The points of the text form j1,k1;j2,k2; empty chunks are skipped."""
    return [parse_point(chunk) for chunk in text.split(";") if chunk]


def int_from_json(obj) -> int:
    """A JSON integer; a float or a bool is not one."""
    if type(obj) is not int:
        raise ValueError(f"not an integer: {obj!r}")
    return obj


# "p", "p/q" or a decimal "1.25"; no exponent, since "1e9999999" would
# make a 33-million-bit integer before anything could refuse it
_RATIONAL_TEXT = re.compile(r"([-+]?)(?:(\d+)(?:/(\d+))?|(\d*)\.(\d+))")


def rational_from_json(obj) -> Fraction:
    """A rational written as a string such as "3/5", or as a JSON integer.

    The one reader of rationals in documents: a float (already rounded),
    a bool and a string in exponent notation are refused, never
    truncated or taken as 0 and 1.  The Fraction is built from the
    match's integer groups, so the text is parsed once.
    """
    if type(obj) is int:
        return Fraction(obj)
    m = _RATIONAL_TEXT.fullmatch(obj) if isinstance(obj, str) else None
    if m is None:
        raise ValueError(f'not a rational such as "3/5" or 2: {obj!r}')
    sign, num, den, whole, frac = m.groups()
    if num is None:
        den = 10 ** len(frac)
        num = int(whole or 0) * den + int(frac)
    else:
        num, den = int(num), int(den or 1)
    return Fraction(-num if sign == "-" else num, den)


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, dict):
        a, b = rational_from_json(obj["a"]), rational_from_json(obj["b"])
        return as_exact(QuadExt(a, b, int_from_json(obj["d"])))
    return rational_from_json(obj)
