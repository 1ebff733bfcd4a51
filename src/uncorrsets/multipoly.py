"""Sparse multivariate integer polynomials.

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

The ring has a module of its own so that ``determinants`` loads it
without the univariate ``IntPoly`` machinery of ``polynomials``.
"""

from __future__ import annotations

from operator import add, lshift
from typing import Sequence

from .numeric import Scalar


class ArityMismatch(ValueError):
    """Multivariate operands disagree on the number of variables."""


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
        """Exact value at a point of ints or Fractions.

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
