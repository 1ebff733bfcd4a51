"""Exact linear algebra over the rationals on small dense matrices.

``det`` and ``rank`` share one fraction-free elimination (Bareiss, Math.
Comp. 22, 1968) over integers: each row is scaled by the lcm of its
denominators, every step divides exactly by the previous pivot, and the
last pivot of a full-rank square matrix is the determinant of the scaled
rows.  ``rref`` and ``nullspace`` return rational rows and run over
Fraction.  Matrices are lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _to_rows(mat: Sequence[Sequence]) -> list[list[Fraction]]:
    rows = [[Fraction(v) for v in row] for row in mat]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
    return rows


def _integer_rows(mat: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of
    those factors."""
    rows, scale = [], 1
    for row in mat:
        row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
        d = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows, scale


def _eliminate(rows: list[list[int]]) -> tuple[int, int]:
    """Bareiss forward elimination of integer rows, in place.

    Returns the rank and the last pivot, signed by the row swaps.  A
    column with no pivot left is skipped, which is elimination on the
    matrix without that column, so every division stays exact.
    """
    n = len(rows)
    r, prev, sign = 0, 1, 1
    for c in range(len(rows[0]) if rows else 0):
        if r == n:
            break
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(r + 1, n):
            f = rows[i][c]
            rows[i] = [(p * v - f * w) // prev for v, w in zip(rows[i], top)]
        prev = p
        r += 1
    return r, sign * prev


def rref(mat: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    rows = _to_rows(mat)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat: Sequence[Sequence]) -> int:
    return _eliminate(_integer_rows(mat)[0])[0]


def nullspace(mat: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column."""
    rows = _to_rows(mat)
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def det(mat: Sequence[Sequence]) -> Fraction:
    rows, scale = _integer_rows(mat)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    r, last = _eliminate(rows)
    return Fraction(last if r == n else 0, scale)
