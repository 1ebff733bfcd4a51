"""Exact linear algebra over the rationals on small dense matrices.

One fraction-free elimination (Bareiss, Math. Comp. 22, 1968) over
integers serves ``det``, ``rank`` and ``nullspace``: each row is scaled
by the lcm of its denominators, every step divides exactly by the
previous pivot, and the last pivot of a full-rank square matrix is the
determinant of the scaled rows.  ``nullspace`` back-substitutes on the
echelon rows in integers and returns the reduced basis: each vector has
1 at its own free column and 0 at the other free columns.  Matrices are
lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .numeric import over_one_denominator


def _integer_rows(mat: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of
    those factors."""
    rows, scale = [], 1
    for row in mat:
        nums, d = over_one_denominator(
            [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
        )
        rows.append(nums)
        scale *= d
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows, scale


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """Bareiss forward elimination of integer rows, in place.

    Returns the pivot columns and the last pivot, signed by the row
    swaps.  A column with no pivot left is skipped, which is elimination
    on the matrix without that column, so every division stays exact.
    """
    n = len(rows)
    pivots, prev, sign = [], 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
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
        pivots.append(c)
    return pivots, sign * prev


def rank(mat: Sequence[Sequence]) -> int:
    return len(_eliminate(_integer_rows(mat)[0])[0])


def nullspace(mat: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    The pivot rows' minor on the pivot columns has the last pivot D as
    its determinant, so by Cramer's rule D times each pivot entry is an
    integer; back-substitution finds those integers with exact
    divisions, and each is divided by D once.
    """
    rows, _ = _integer_rows(mat)
    pivots, den = _eliminate(rows)
    basis = []
    for fc in (c for c in range(len(rows[0]) if rows else 0) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[fc] = Fraction(1)
        nums: dict[int, int] = {}
        for row, pc in reversed(list(zip(rows, pivots))):
            s = row[fc] * den + sum(row[c] * n for c, n in nums.items())
            nums[pc] = -s // row[pc]
            v[pc] = Fraction(nums[pc], den)
        basis.append(v)
    return basis


def det(mat: Sequence[Sequence]) -> Fraction:
    rows, scale = _integer_rows(mat)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, last = _eliminate(rows)
    return Fraction(last if len(pivots) == n else 0, scale)
