"""Integer polynomials, univariate and sparse multivariate.

``IntPoly`` is a dense univariate polynomial over the integers.  It
carries exactly the machinery the constructions need: exact evaluation
at rationals, bisection-based root isolation to a requested interval
width, primitive gcd, and root counts on an interval.  ``root_count``
decides a count first by two exact monotonicity certificates, each a
few integer sums over the powers of the interval's ends (the
enclosures of ``_enclosure``): an enclosure of p that excludes 0 means
no root, a sign change with an enclosure of p' that excludes 0 means
one.  Only what neither decides goes to the Sturm count,
``sturm_root_count``, which is also the independent check on a document
and in the self-test.  Every remainder
sequence (the gcd and the Sturm chain) runs over the integers: each
step is a pseudo-division scaled by positive factors only, with the
content divided out, so no Fraction is built and the signs of the
chain are those of the rational remainders.  The Sturm chain runs
straight from p and p' to gcd(p, p'), with no square-free pass first.
Root isolation never touches floating point.  It bisects on integer
numerators over one common denominator: lo = a/d and hi = b/d become
(a, a + b) or (a + b, 2b) over 2d, so a step is two integer additions and
one integer Horner sum, and Fractions are built only for the result.

``MultiPoly`` is a sparse multivariate polynomial over the integers,
a dict from exponent tuples to nonzero coefficients.  The determinant
identities are proved by expanding both sides into this ring and
comparing dicts, so the representation is kept canonical at all times
(zero coefficients are dropped on every operation).  A product packs
each exponent tuple into one int (packed exponent vectors; Monagan and
Pearce, CASC 2007), so a monomial product is one integer add.  The
field width is chosen per product, from the largest exponent sum each
variable can reach, so no field ever carries into the next; only the
surviving terms are unpacked back to tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd as int_gcd, lcm
from operator import add, lshift, mul
from typing import Iterable, Sequence

from .numeric import Scalar, int_from_json


class NoSignChange(ValueError):
    """Root isolation was asked to bisect a bracket with equal end signs."""


class ArityMismatch(ValueError):
    """Multivariate operands disagree on the number of variables."""


def _sign(q) -> int:
    return (q > 0) - (q < 0)


class IntPoly:
    """Univariate polynomial with integer coefficients, lowest degree first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power: int, coef: int = 1) -> "IntPoly":
        if power < 0:
            raise ValueError("negative power")
        return cls([0] * power + [coef])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Exact value at an int or a Fraction n/d.

        Horner's rule runs in integers on sum c_i n^i d^(deg-i), and one
        Fraction is built at the end; an int argument gives an int.
        """
        acc = _horner(self._coeffs, x.numerator, x.denominator)
        if isinstance(x, int) or not self._coeffs:
            return acc
        return Fraction(acc, x.denominator ** self.degree)

    def sign_at(self, x: int | Fraction) -> int:
        """The sign of p(x), read from the integer Horner sum."""
        return _sign(_horner(self._coeffs, x.numerator, x.denominator))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self._coeffs])

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self._coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = IntPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self._coeffs)})"

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self._coeffs)][1:])

    def content(self) -> int:
        g = 0
        for c in self._coeffs:
            g = int_gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        """Content removed, leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return IntPoly([c // g for c in self._coeffs])

    @staticmethod
    def gcd(f: "IntPoly", g: "IntPoly") -> "IntPoly":
        """Primitive gcd with positive leading coefficient."""
        a, b = f.primitive()._coeffs, g.primitive()._coeffs
        while b:
            a, b = b, _remainder(a, b)
        return IntPoly(a).primitive()

    def to_json(self) -> list[int]:
        return list(self._coeffs)

    @classmethod
    def from_json(cls, obj: Sequence[int]) -> "IntPoly":
        return cls(int_from_json(c) for c in obj)


def _horner(coeffs: Sequence[int], n: int, d: int) -> int:
    """d^deg · p(n/d) for coefficients low-first, in integers; d > 0, so
    its sign is the sign of p(n/d)."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * scale
        scale *= d
    return acc


def _remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """A positive multiple of the remainder of a by b, primitive.

    Pseudo-division over the integers, low-first coefficient lists: each
    step multiplies a by |lc(b)| / gcd(lc(a), lc(b)), the least positive
    factor that lets lc(b) divide the leading term.  Every factor is
    positive, so the result has the signs of the rational remainder.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        lead = a[-1]
        g = int_gcd(lead, lb)
        scale, q = abs(lb) // g, lead // g if lb > 0 else -lead // g
        if scale != 1:
            a = [scale * c for c in a]
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[i + shift] -= q * c
        while a and a[-1] == 0:
            a.pop()
    g = int_gcd(*a)
    return tuple(c // g for c in a) if g > 1 else tuple(a)


def sturm_root_count(p: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    The chain p, p', -rem, ... ends in gcd(p, p'), which divides every
    member and has no root where p has none, so dividing it out changes
    no sign variation at lo or hi: the count is that of the square-free
    part (the generalized Sturm theorem).  Requires p nonzero at both
    endpoints; callers hold that by construction because their endpoints
    come from sign-change brackets.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise ValueError("endpoint is a root; shrink the interval first")
    chain = [p.coeffs, p.derivative().coeffs]
    while chain[-1]:
        chain.append(tuple(-c for c in _remainder(chain[-2], chain[-1])))
    chain.pop()

    def variations(x: Fraction) -> int:
        n, d = x.numerator, x.denominator
        signs = [s for s in (_sign(_horner(q, n, d)) for q in chain) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(lo) - variations(hi)


def root_count(p: IntPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi),
    as ``sturm_root_count`` gives it: ValueError when p vanishes at an end,
    and also unless lo < hi.

    For 0 <= lo two exact certificates come first, both read from the
    powers of lo and hi over one common denominator: if the enclosure of
    p over [lo, hi] excludes 0 the count is 0, and if p(lo) p(hi) < 0 and
    the enclosure of p' excludes 0, p is strictly monotone there and the
    count is 1.  Around a simple root a narrow interval meets one of the
    two; whatever neither decides goes to ``sturm_root_count``.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo >= 0 and not p.is_zero:
        lo_scaled, hi_scaled = _scaled_powers(lo, hi, p.degree)
        terms = {i: c for i, c in enumerate(p.coeffs) if c}
        low, high = _enclosure(terms, lo_scaled, hi_scaled)
        if low > 0 or high < 0:
            return 0
        at_lo = sum(c * lo_scaled[i] for i, c in terms.items())
        at_hi = sum(c * hi_scaled[i] for i, c in terms.items())
        if _sign(at_lo) * _sign(at_hi) < 0:
            slope = {i - 1: i * c for i, c in terms.items() if i}
            low, high = _enclosure(slope, lo_scaled, hi_scaled)
            if low > 0 or high < 0:
                return 1
    return sturm_root_count(p, lo, hi)


def _scaled_powers(lo: Fraction, hi: Fraction, n: int) -> tuple[list[int], list[int]]:
    """a^i d^(n-i) and b^i d^(n-i) for i = 0..n, with lo = a/d and hi = b/d
    over one common denominator d: the powers of lo and hi times d^n."""
    d = lcm(lo.denominator, hi.denominator)
    down = list(accumulate(repeat(d, n), mul, initial=1))[::-1]  # d^(n-i)

    def scaled(q: Fraction) -> list[int]:
        a = q.numerator * (d // q.denominator)
        return list(map(mul, accumulate(repeat(a, n), mul, initial=1), down))

    return scaled(lo), scaled(hi)


def _enclosure(
    terms: dict[int, int], lo_scaled: list[int], hi_scaled: list[int]
) -> tuple[int, int]:
    """Bounds on the sum of c B^i over [lo, hi] for 0 <= lo, both scaled as
    the powers are: the parts with positive and with negative
    coefficients both increase there."""
    low = high = 0
    for i, c in terms.items():
        if c > 0:
            low += c * lo_scaled[i]
            high += c * hi_scaled[i]
        else:
            low += c * hi_scaled[i]
            high += c * lo_scaled[i]
    return low, high


def isolate_root(
    p: IntPoly, lo, hi, width=Fraction(1, 10**12)
) -> tuple[Fraction, Fraction]:
    """Shrink a sign-change bracket around a root of p by bisection.

    Returns (lo, hi) with hi - lo <= width and p(lo)*p(hi) < 0, unless a
    bisection midpoint is an exact root, in which case the degenerate
    interval (root, root) is returned.  Raises NoSignChange when the
    initial bracket has no sign change, and ValueError when the width is
    not positive (bisection would never reach it).

    The bracket runs as a/d and b/d with one common denominator d: the
    midpoint is (a + b)/2d, the kept endpoint is doubled, and the width
    test is (b - a)·wd > wn·d for width wn/wd, all in integers.
    """
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if lo >= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    slo, shi = p.sign_at(lo), p.sign_at(hi)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise NoSignChange(f"p({lo}) and p({hi}) share sign {slo}")
    cs = p.coeffs
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * d:
        mid, d = a + b, 2 * d
        sm = _sign(_horner(cs, mid, d))
        if sm == 0:
            root = Fraction(mid, d)
            return root, root
        if sm == slo:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return Fraction(a, d), Fraction(b, d)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate integer polynomial with a fixed arity.

    Terms live in a dict mapping exponent tuples to nonzero integer
    coefficients, so equality of two expansions is plain dict equality.
    ``a * b`` runs on packed keys: with w the bit length of the largest
    per-variable sum max_a[i] + max_b[i], variable i takes bits
    [i*w, (i+1)*w) of one int.  Exponents are nonnegative, so no field
    carries and the sum of two packed keys is the packed key of the
    product monomial.  Zero coefficients are dropped before the result
    is unpacked, as on every other operation.  When one operand is a
    single term the product translates the other's exponent tuples
    instead, which can neither collide nor cancel, so nothing is packed.
    ``__init__`` validates whatever it is given; results built inside the
    ring skip that.
    """

    __slots__ = ("_arity", "_terms")

    def __init__(self, arity: int, terms=None):
        if arity < 1:
            raise ValueError("arity must be positive")
        self._arity = arity
        tidy: dict[tuple[int, ...], int] = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ArityMismatch(
                    f"exponent tuple {exps} in a {arity}-variable polynomial"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coef = int(coef)
            if coef:
                tidy[exps] = tidy.get(exps, 0) + coef
                if not tidy[exps]:
                    del tidy[exps]
        self._terms = tidy

    @classmethod
    def _of(cls, arity: int, terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        """Wrap a dict that is already canonical: tuple keys of arity
        nonnegative ints, nonzero int coefficients.  Nothing is checked."""
        p = object.__new__(cls)
        p._arity = arity
        p._terms = terms
        return p

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def const(cls, arity: int, c: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): 1})

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def _check(self, other: "MultiPoly") -> None:
        if self._arity != other._arity:
            raise ArityMismatch(f"{self._arity} variables vs {other._arity}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self._arity, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for exps, coef in other._terms.items():
            s = out.get(exps, 0) + coef
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return MultiPoly._of(self._arity, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self._arity, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly._of(self._arity, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly._of(
                self._arity,
                {e: c * other for e, c in self._terms.items()} if other else {},
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return MultiPoly._of(self._arity, {})
        if len(a) == 1:
            # a translation: keys stay distinct and coefficients nonzero
            ((ea, ca),) = a.items()
            return MultiPoly._of(
                self._arity, {tuple(map(add, ea, e)): ca * c for e, c in b.items()}
            )
        # every field fits its variable's largest exponent sum: no carries
        top = max(map(add, map(max, zip(*a)), map(max, zip(*b))))
        w = top.bit_length() or 1  # a product of constants still needs a field
        shifts = range(0, w * self._arity, w)
        pa = [(sum(map(lshift, e, shifts)), c) for e, c in a.items()]
        pb = [(sum(map(lshift, e, shifts)), c) for e, c in b.items()]
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in pa:
            for k2, c2 in pb:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        mask = (1 << w) - 1
        return MultiPoly._of(
            self._arity,
            {tuple(k >> s & mask for s in shifts): c for k, c in out.items() if c},
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self._arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == MultiPoly.const(self._arity, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._arity == other._arity and self._terms == other._terms

    def __hash__(self):
        return hash((self._arity, frozenset(self._terms.items())))

    def evaluate(self, point: Sequence) -> Scalar:
        """Exact value at a point of ints, Fractions or QuadExt scalars.

        The sum starts from int coefficients and the int power 1, so at a
        point of ints the value is an int.
        """
        if len(point) != self._arity:
            raise ArityMismatch(f"point has {len(point)} coordinates")
        cache: list[dict[int, Scalar]] = [{0: 1} for _ in point]
        acc: Scalar = 0
        for exps, coef in self._terms.items():
            term: Scalar = coef
            for i, e in enumerate(exps):
                powers = cache[i]
                if e not in powers:
                    powers[e] = point[i] ** e
                term = term * powers[e]
            acc = acc + term
        return acc

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in graded-lexicographic order, highest first."""
        return sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def to_json(self) -> list[dict]:
        return [
            {"exps": list(exps), "coef": str(coef)}
            for exps, coef in self.sorted_terms()
        ]

    _NAMES = ("x", "y", "z", "t")

    def __repr__(self) -> str:
        if not self._terms:
            return "MultiPoly(0)"
        names = (
            self._NAMES
            if self._arity <= len(self._NAMES)
            else tuple(f"v{i}" for i in range(self._arity))
        )
        parts = []
        for exps, coef in self.sorted_terms():
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            elif coef == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        return "MultiPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"
