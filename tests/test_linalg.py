import random
from fractions import Fraction

import pytest

from uncorrsets import linalg


def test_rref_and_rank():
    assert linalg.rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2
    assert linalg.rank([[1, 2], [3, 4]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([]) == 0


def test_nullspace_annihilates():
    mat = [[1, 2, 1, 0], [0, 1, -1, 2]]
    basis = linalg.nullspace(mat)
    assert len(basis) == 2
    for v in basis:
        for row in mat:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0
    assert linalg.rank(basis) == 2
    assert linalg.nullspace([]) == []
    assert linalg.nullspace([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace([[1, 2], [3, 4]]) == []
    with pytest.raises(ValueError):
        linalg.nullspace([[1, 2], [3]])
    # the reduced basis: 1 at the vector's own free column, 0 at the others
    half = Fraction(1, 2)
    mat = [[0, 1, half, 0, 3 * half], [0, 4, 2, 1, 1], [0, 0, 0, 1, -5]]
    basis = linalg.nullspace(mat)
    free = [0, 2, 4]
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        assert [v[c] for c in free] == [int(c == fc) for c in free]
        for row in mat:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_det_values():
    assert linalg.det([[2]]) == 2
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[1, 2], [2, 4]]) == 0
    vdm = [[1, v, v * v] for v in (2, 3, 5)]
    assert linalg.det(vdm) == (3 - 2) * (5 - 2) * (5 - 3)
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


def test_det_multiplicative_random():
    rng = random.Random(3)
    for _ in range(60):
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        ab = [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert linalg.det(ab) == linalg.det(a) * linalg.det(b)
        assert (linalg.det(a) != 0) == (linalg.rank(a) == 3)
        assert len(linalg.nullspace(a)) == 3 - linalg.rank(a)
