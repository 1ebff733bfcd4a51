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
Every value is one integer Horner sum over the polynomial's nonzero
terms, which ``IntPoly`` keeps: a gap g between two exponents is one
multiply by n^g and d^g, so 8 nonzero terms cost 8 steps at any degree.

Root isolation never touches floating point.  It bisects on integer
numerators over one common denominator: lo = a/d and hi = b/d become
(a, a + b) or (a + b, 2b) over 2d, so a step is two integer additions and
one Horner sum, and Fractions are built only for the result.  The width
fixes the number of halvings, so the result is one cell of a dyadic split
of the bracket.  Once an enclosure of p' over the bracket excludes 0, p
is monotone there and that cell is the one holding the root; Newton's
iteration on a dyadic grid whose precision doubles each step finds it in
O(log log 1/width) sums instead of O(log 1/width) (quadratic interval
refinement; Abbott, ACM Commun. Comput. Algebra 48, 2014; Kerber and
Sagraloff, ISSAC 2011).  The cell is accepted only when p's signs at its
two ends bracket the root, which makes the interval the very one
bisection returns; anything else goes on bisecting.

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

    __slots__ = ("_coeffs", "_terms")

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        self._terms = None

    @classmethod
    def monomial(cls, power: int, coef: int = 1) -> "IntPoly":
        if power < 0:
            raise ValueError("negative power")
        return cls([0] * power + [coef])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The nonzero terms as (exponent, coefficient), highest first: what
        ``_horner`` walks.  Built on first use and kept."""
        if self._terms is None:
            self._terms = _nonzero_terms(self._coeffs)
        return self._terms

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
        acc = _horner(self.terms, x.numerator, x.denominator)
        if isinstance(x, int) or not self._coeffs:
            return acc
        return Fraction(acc, x.denominator ** self.degree)

    def sign_at(self, x: int | Fraction) -> int:
        """The sign of p(x), read from the integer Horner sum."""
        return _sign(_horner(self.terms, x.numerator, x.denominator))

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


def _nonzero_terms(coeffs: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (exponent, coefficient) pairs of the nonzero coefficients of a
    low-first list, highest exponent first: the order ``_horner`` walks."""
    return tuple([(i, c) for i, c in enumerate(coeffs) if c][::-1])


def _horner(terms: Sequence[tuple[int, int]], n: int, d: int) -> int:
    """d^deg · p(n/d) in integers, for p given by its nonzero terms, highest
    exponent first, and deg the first exponent; d > 0, so its sign is the
    sign of p(n/d).

    Horner's rule over the terms alone: a gap g between two exponents
    multiplies by n^g and scales the next coefficient by d^g, and a gap of
    1 is a plain multiply, so a dense polynomial costs what it always did.
    """
    if not terms:
        return 0
    it = iter(terms)
    last, acc = next(it)
    scale = 1
    for e, c in it:
        g = last - e
        if g == 1:
            scale *= d
            acc = acc * n + c * scale
        else:
            scale *= d**g
            acc = acc * n**g + c * scale
        last = e
    return acc * n**last if last else acc


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
    chain = [_nonzero_terms(q) for q in chain]

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
        terms = dict(p.terms)
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
    midpoint is (a + b)/2d and the kept endpoint is doubled, so b - a
    never changes and the number of halvings T is fixed up front by the
    width; the answer is one cell of the split of the bracket into 2^T.

    Bisection may jump to that cell.  While 0 <= a, a certificate tries
    whether p' keeps one sign over the bracket (``_monotone_wait``).  If
    it does, p is strictly monotone there, every later midpoint reads
    p's sign at lo exactly when it lies below the root, and bisection's
    remaining path is fixed: it ends in the cell that holds the root, or
    at the root itself if that is a cell end.  Newton's iteration in
    integers names a cell (``_newton_cell``), and the cell is taken only
    if p's signs at its two ends show the root inside it, or p is 0 at an
    end (``_read_cell``), so the interval is the one bisection returns,
    to the same Fractions.  A failed certificate sets when the next one
    is tried; anything else goes on bisecting from the certified bracket.
    Jumps are tried only while enough halvings are left for one to pay.
    """
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if lo >= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    terms = p.terms
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    pa, pb = _horner(terms, a, d), _horner(terms, b, d)
    slo, shi = _sign(pa), _sign(pb)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise NoSignChange(f"p({lo}) and p({hi}) share sign {slo}")
    # b - a never changes, so the number of halvings is fixed up front
    span = b - a
    levels = (-(-span * width.denominator // (width.numerator * d)) - 1).bit_length()
    deg, up = p.degree, slo > 0
    # jumps are tried up to the last step that leaves enough levels to pay
    last = levels - _JUMP_LEVELS - -(-_JUMP_OVERHEAD // deg)
    retry = 0 if last >= 0 else -1
    # the values at the ends were read after ta + 1 and tb + 1 halvings
    ta = tb = -1
    parts = None
    for step in range(levels):
        if step == retry:
            wait = 1
            if a >= 0:
                if parts is None:
                    dterms, parts = _slope_parts(terms, slo)
                ea = pa << deg * (step - 1 - ta)
                eb = pb << deg * (step - 1 - tb)
                wait = _monotone_wait(parts, a, b, d, abs(eb - ea))
            if not wait:
                left = levels - step
                i = _newton_cell(terms, dterms, a, b, d, ea, eb, left)
                cell = i is not None and _read_cell(terms, slo, a, span, d, left, i)
                if cell:
                    return cell
            elif step + wait <= last:
                retry = step + wait
        mid, d = a + b, 2 * d
        pm = _horner(terms, mid, d)
        if not pm:
            root = Fraction(mid, d)
            return root, root
        if (pm > 0) == up:
            a, b, pa, ta = mid, 2 * b, pm, step
        else:
            a, b, pb, tb = 2 * a, mid, pm, step
    return Fraction(a, d), Fraction(b, d)


# A jump costs about as much as _JUMP_LEVELS bisection steps, plus fixed
# work worth _JUMP_OVERHEAD terms; it is tried only while the levels left
# beyond _JUMP_LEVELS, times the degree, cover that.
_JUMP_LEVELS, _JUMP_OVERHEAD = 20, 24


def _slope_parts(terms, slo: int):
    """The terms of p', and f = -slo·p', the derivative signed to be
    positive past a sign change from slo, split as F+ - F- into two parts
    with nonnegative coefficients, each headed by f's degree so that the
    two share one scale."""
    dterms = tuple((e - 1, e * c) for e, c in terms if e)
    top = dterms[0][0]
    plus = tuple((e, -slo * c) for e, c in dterms if -slo * c > 0)
    minus = tuple((e, slo * c) for e, c in dterms if -slo * c < 0)
    plus, minus = (
        part if part and part[0][0] == top else ((top, 0), *part)
        for part in (plus, minus)
    )
    return dterms, (plus, minus)


def _monotone_wait(parts, a: int, b: int, d: int, rise: int) -> int:
    """0 if p is strictly monotone on [a/d, b/d], 0 <= a, with room for a
    Newton step, else a guess at how many halvings the bracket needs.

    F+ and F- both increase for x >= 0, so low = F+(lo) - F-(hi) bounds f
    from below; low > 0 is the certificate.  Its mean over the bracket is
    the secant slope rise/span, rise = |p(lo)| + |p(hi)| scaled as f is
    once divided by the span.  The jump waits for low >= mean/2, so that a
    Newton step from inside the bracket cannot overshoot far.  mean - low
    halves with the bracket while the mean stays near f at the root, so
    the bits by which it exceeds half the mean are the wait.
    """
    plus, minus = parts
    low = (_horner(plus, a, d) - _horner(minus, b, d)) * (b - a)
    if 2 * low >= rise:
        return 0
    return max(1, (rise - low).bit_length() - rise.bit_length() + 2)


def _newton_cell(terms, dterms, a: int, b: int, d: int, pa: int, pb: int,
                 levels: int) -> int | None:
    """The index of the level-``levels`` cell of [a/d, b/d] that Newton's
    iteration puts the root in, or None if it leaves the bracket; pa and
    pb are p at the ends, scaled alike.

    X/E runs on the grid E = d·2^g: H0 = E^deg p(X/E) and H1 = E^(deg-1)
    p'(X/E) are integer Horner sums, and X - H0 // H1 is the Newton step
    on that grid.  The start is the secant's zero through (lo, p(lo)) and
    (hi, p(hi)), and the first step takes the secant's slope for p',
    which is about as good there and costs no sum.  A grid that resolves
    ``res`` bits of the bracket's width starts near the last halving of
    levels + 2 above ``_NEWTON_START``.  The size of a step is the error
    it removed, so after a step the bits known are twice those it started
    from, up to the grid's; the next grid holds two bits more than twice
    that, up to levels + 2, two bits below the cell width, where the
    iteration stops once that doubling comes within two bits of it.
    Nothing here is trusted; ``_read_cell`` checks the answer.
    """
    span, rise, deg = b - a, pb - pa, terms[0][0]
    # a grid of E = d·2^g resolves g + shift bits of the bracket's width
    shift = span.bit_length() - 1
    final = res = levels + 2
    while res > _NEWTON_START:
        res = (res + 1) // 2
    g = max(res - shift, 0)
    x = ((a * pb - b * pa) << g) // rise
    for n in range(_NEWTON_STEPS):
        target = max(res - shift, 0)
        x <<= target - g
        g = target
        res = g + shift
        e = d << g
        h0 = _horner(terms, x, e)
        if n:
            h1 = _horner(dterms, x, e)
            if not h1:
                return None
            step = h0 // h1
        else:
            step = h0 * span // (rise << g * (deg - 1))
        x -= step
        if not a << g <= x <= b << g:
            return None
        known = res - abs(step).bit_length()
        if res >= final and 2 * known + 2 >= final:
            break
        res = max(res, min(final, 2 * min(2 * known, res) + 2))
    return ((x - (a << g)) << levels) // (span << g)


# the first grid holds at most this many bits of the bracket, and no
# more than this many Newton steps are taken
_NEWTON_START, _NEWTON_STEPS = 18, 12


def _read_cell(terms, slo: int, a: int, span: int, d: int, levels: int, i: int):
    """Bisection's answer, if cell i or a neighbour of the level-``levels``
    split of a monotone bracket [a/d, (a + span)/d] holds the root, else
    None.

    Cell i runs from (a·2^levels + i·span)/(d·2^levels) to the next such
    point.  Where p reads slo at its left end and -slo at its right end,
    the root is interior to it: no midpoint of any level is the root, and
    every midpoint read below it has sign slo, so bisection ends there.
    An end where p is 0 is the root, which bisection meets as a midpoint.
    """
    top = 1 << levels
    base, scale = a << levels, d << levels

    def sign(k: int) -> int:
        if k <= 0:
            return slo
        if k >= top:
            return -slo
        return _sign(_horner(terms, base + k * span, scale))

    i = min(max(i, 0), top - 1)
    left, right = sign(i), sign(i + 1)
    if left == -slo:
        i, left, right = i - 1, sign(i - 1), left
    elif right == slo:
        i, left, right = i + 1, right, sign(i + 2)
    if left == 0 or right == 0:
        root = Fraction(base + (i if left == 0 else i + 1) * span, scale)
        return root, root
    if left == slo and right == -slo:
        return Fraction(base + i * span, scale), Fraction(base + (i + 1) * span, scale)
    return None


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
