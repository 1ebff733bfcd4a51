import random
from fractions import Fraction

import pytest

from uncorrsets.model import (
    BetaSupport,
    JointTable,
    NegativeEntry,
    OffsetVector,
    Support3,
    SupportKind,
    YVector,
    ZeroVector,
    from_y,
    rescale,
    support_from_json,
    table_from_offsets,
    to_y,
)
from uncorrsets.numeric import QuadExt


def test_support_kinds_and_validation():
    s = Support3.from_values(1, 2, 3)
    assert s.kind is SupportKind.POSITIVE_ORDERED
    s = Support3.from_values(-2, 0, 2)
    assert s.kind is SupportKind.SYMMETRIC_ZERO
    s = Support3.from_values(-3, 1, 2)
    assert s.kind is SupportKind.GENERAL_ORDERED
    with pytest.raises(ValueError):
        Support3.from_values(2, 2, 3)
    with pytest.raises(ValueError):
        Support3.from_values(3, 2, 1)
    with pytest.raises(ValueError):
        Support3((Fraction(0), Fraction(1), Fraction(2)), SupportKind.POSITIVE_ORDERED)
    with pytest.raises(ValueError):
        Support3((Fraction(-1), Fraction(1), Fraction(2)), SupportKind.SYMMETRIC_ZERO)
    assert Support3.symmetric(Fraction(3, 2)).points == (
        Fraction(-3, 2),
        Fraction(0),
        Fraction(3, 2),
    )


def test_beta_support():
    bs = BetaSupport(1, 2)
    assert bs.to_support3().points == (1, 2, 4)
    with pytest.raises(ValueError):
        BetaSupport(1, 1)
    with pytest.raises(ValueError):
        BetaSupport(0, 2)


def test_support_json_round_trip():
    s = Support3.from_values(Fraction(1, 2), 2, 3)
    assert support_from_json(s.to_json()) == s
    bs = BetaSupport(Fraction(1, 3), Fraction(5, 2))
    assert support_from_json(bs.to_json()) == bs


def test_offsets_deviations_layout():
    x = OffsetVector.of(1, 2, 3, 4)
    dev = x.deviations()
    assert dev[0] == (4, 3, -7)
    assert dev[1] == (2, 1, -3)
    assert dev[2] == (-6, -4, 10)
    # every row and column of deviations cancels
    assert all(sum(row) == 0 for row in dev)
    assert all(sum(dev[r][c] for r in range(3)) == 0 for c in range(3))


def test_offsets_transpose_swaps_middle():
    x = OffsetVector.of(1, 2, 3, 4)
    assert x.transpose().x == (1, 3, 2, 4)
    assert x.transpose().transpose() == x


def test_y_chart_round_trip():
    x = OffsetVector.of(5, -2, 7, 3)
    y = to_y(x)
    assert y.y == (3, 10, 1, 13)
    assert from_y(y) == x
    # frozen conversion: y = (16, 0, 0, -1) is x = (15, -16, -16, 16)
    assert from_y(YVector.of(16, 0, 0, -1)) == OffsetVector.of(15, -16, -16, 16)
    rng = random.Random(5)
    for _ in range(50):
        x = OffsetVector.of(*(Fraction(rng.randint(-9, 9), 2) for _ in range(4)))
        assert from_y(to_y(x)) == x
        assert to_y(from_y(YVector(x.x))) == YVector(x.x)


def test_rescale_canonical_scale():
    # largest absolute deviation of (0, 1, -1, 0) is 1, so lambda = 1/18
    x = rescale(OffsetVector.of(0, 1, -1, 0))
    assert x == OffsetVector.of(0, Fraction(1, 18), Fraction(-1, 18), 0)
    s = Support3.from_values(1, 2, 3)
    table = table_from_offsets(x, s, s)
    flat = [v for row in table.entries for v in row]
    assert min(flat) == Fraction(1, 18)
    assert max(flat) == Fraction(1, 6)
    # the most extreme deviation always lands exactly on 1/18
    rng = random.Random(9)
    for _ in range(40):
        raw = OffsetVector.of(*(Fraction(rng.randint(-9, 9), 3) for _ in range(4)))
        if raw.is_zero:
            continue
        scaled = rescale(raw)
        devs = [abs(d) for row in scaled.deviations() for d in row]
        assert max(devs) == Fraction(1, 18)
    with pytest.raises(ZeroVector):
        rescale(OffsetVector.of(0, 0, 0, 0))


def test_rescale_quadext_offsets():
    x = OffsetVector.of(QuadExt(1, 1, 2), -1, QuadExt(0, -1, 2), 0)
    scaled = rescale(x)
    s = Support3.from_values(1, 2, 3)
    table = table_from_offsets(scaled, s, s)
    for row in table.entries:
        for v in row:
            assert v >= Fraction(1, 18)


def test_table_validation():
    s = Support3.from_values(1, 2, 3)
    t = JointTable.independent(s, s)
    assert t.entries[0][0] == Fraction(1, 9)
    with pytest.raises(NegativeEntry) as info:
        table_from_offsets(OffsetVector.of(1, 0, 0, 0), s, s)
    assert (info.value.row, info.value.col) == (1, 2)
    bad = [
        [Fraction(1, 3), 0, 0],
        [0, Fraction(1, 3), 0],
        [Fraction(1, 9)] * 3,
    ]
    with pytest.raises(ValueError):
        JointTable(tuple(tuple(r) for r in bad), s, s)


def test_table_json_round_trip():
    s = Support3.from_values(1, 2, 3)
    x = rescale(OffsetVector.of(0, 1, -1, 0))
    t = table_from_offsets(x, s, s)
    assert JointTable.from_json(t.to_json()) == t
    # quadratic irrationals survive the round trip too
    xq = rescale(OffsetVector.of(QuadExt(1, 1, 2), -1, QuadExt(0, -1, 2), 0))
    tq = table_from_offsets(xq, s, s)
    assert JointTable.from_json(tq.to_json()) == tq


def test_offsets_json_round_trip():
    x = OffsetVector.of(QuadExt(1, Fraction(1, 2), 2), Fraction(-3, 4), 0, 2)
    assert OffsetVector.from_json(x.to_json()) == x
    y = YVector.of(1, 2, 3, 4)
    assert YVector.from_json(y.to_json()) == y
