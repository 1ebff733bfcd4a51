import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    offsets_of,
    rescale,
    support_from_json,
    table_from_offsets,
    to_y,
)
from uncorrsets.numeric import MixedRadicand, QuadExt, as_exact, sqrt_parts


def _labelled(points, kind):
    """The support of a document that labels the points with kind."""
    return Support3.from_json({"points": [str(p) for p in points], "kind": kind.value})


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
        _labelled((0, 1, 2), SupportKind.POSITIVE_ORDERED)
    with pytest.raises(ValueError):
        _labelled((-1, 1, 2), SupportKind.SYMMETRIC_ZERO)
    assert Support3.symmetric(Fraction(3, 2)).points == (
        Fraction(-3, 2),
        Fraction(0),
        Fraction(3, 2),
    )



@pytest.mark.parametrize(
    "points", [(1, 2, 3), (Fraction(1, 2), 2, 7), (-1, 0, 1), (-2, 0, 2)]
)
def test_a_general_kind_on_positive_or_symmetric_points_is_refused(points):
    # the routes that need a positive or symmetric support read the kind,
    # so a kind that contradicts the points would send them astray
    pts = tuple(Fraction(p) for p in points)
    with pytest.raises(ValueError, match="general-ordered support must start"):
        _labelled(pts, SupportKind.GENERAL_ORDERED)
    assert Support3.from_values(*pts).kind is not SupportKind.GENERAL_ORDERED
    for general in ((-3, 1, 2), (0, 1, 2), (-2, -1, 1), (-2, 0, 1)):
        s = _labelled(general, SupportKind.GENERAL_ORDERED)
        assert s == Support3.from_values(*general)

# the three labels, each on points that fix another kind, and the message
# that names what the label needs
CONTRADICTED = [
    ((0, 1, 2), SupportKind.POSITIVE_ORDERED,
     "positive-ordered support must start above zero"),
    ((1, 2, 3), SupportKind.SYMMETRIC_ZERO,
     "symmetric support must be (-v, 0, v): "
     "(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))"),
    ((-1, 0, 1), SupportKind.GENERAL_ORDERED,
     "general-ordered support must start at or below zero and not be "
     "(-v, 0, v): (Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1))"),
]


@pytest.mark.parametrize("points, label, message", CONTRADICTED)
def test_a_label_the_points_contradict_is_refused_by_name(points, label, message):
    with pytest.raises(ValueError) as info:
        _labelled(points, label)
    assert str(info.value) == message


def test_the_kind_is_not_an_argument():
    pts = (Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(TypeError):
        Support3(pts, SupportKind.POSITIVE_ORDERED)
    with pytest.raises(TypeError):
        Support3(points=pts, kind=SupportKind.POSITIVE_ORDERED)


_SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def _increasing_triples(draw):
    """Three increasing rationals: any, with 0 among them, or (-v, 0, v)."""
    shape = draw(st.sampled_from(("any", "with-zero", "symmetric")))
    if shape == "symmetric":
        v = draw(_SMALL.filter(lambda q: q > 0))
        return (-v, Fraction(0), v)
    if shape == "with-zero":
        return tuple(sorted(draw(st.sets(_SMALL.filter(bool), min_size=2, max_size=2))
                            | {Fraction(0)}))
    return tuple(sorted(draw(st.sets(_SMALL, min_size=3, max_size=3))))


@settings(max_examples=300, deadline=None)
@given(_increasing_triples())
def test_the_kind_is_read_off_the_points(pts):
    a, b, c = pts
    if b == 0 and a == -c:
        want = SupportKind.SYMMETRIC_ZERO
    elif a > 0:
        want = SupportKind.POSITIVE_ORDERED
    else:
        want = SupportKind.GENERAL_ORDERED
    s = Support3(pts)
    assert s.kind is want
    assert Support3.from_values(*pts) == s
    assert Support3.from_json(s.to_json()) == s
    assert s.to_json()["kind"] == want.value


def test_offsets_of_inverts_table_from_offsets():
    for x, s in (
        (OffsetVector.of(0, 1, 1, 0), Support3.symmetric(1)),
        (OffsetVector.of(QuadExt(1, 1, 2), -1, QuadExt(0, -1, 2), 0),
         Support3.from_values(1, 2, 3)),
    ):
        x = rescale(x)
        assert offsets_of(table_from_offsets(x, s, s)) == x


def test_beta_support():
    bs = BetaSupport(1, 2)
    assert bs.to_support3().points == (1, 2, 4)
    with pytest.raises(ValueError):
        BetaSupport(1, 1)
    with pytest.raises(ValueError):
        BetaSupport(0, 2)


def test_beta_is_read_off_the_points():
    # the six non-geometric supports of the CLI corpus, and a geometric
    # progression below zero
    for points in ((1, 2, 3), (Fraction(1, 2), 2, 7), (-1, 0, 1), (-3, 1, 2),
                   (-2, -1, 1), (0, 1, 2), (-4, -2, -1)):
        assert Support3(points).beta is None, points
    assert Support3((1, 2, 4)).beta == 2
    for alpha, beta in ((1, 2), (Fraction(1, 3), Fraction(5, 2)), (5, Fraction(7, 3))):
        bs = BetaSupport(alpha, beta)
        assert (bs.alpha, bs.beta) == (alpha, beta)
        # one support in two spellings: the points and what they fix agree,
        # and equality keeps the spelling that decides a document's bytes
        same = bs.to_support3()
        assert (same.points, same.kind, same.beta) == (bs.points, bs.kind, bs.beta)
        assert type(same) is Support3 and same != bs


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
            assert _sym(v) >= _sym(Fraction(1, 18))


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


# The definitions that rescale and table_from_offsets compute in integers,
# written in sympy's exact arithmetic as the oracle.  Each helper imports
# sympy itself, so a missing sympy fails these tests instead of skipping.


def _sym(v):
    """An exact scalar as a sympy number."""
    import sympy

    if isinstance(v, QuadExt):
        return sympy.Rational(v.a) + sympy.Rational(v.b) * sympy.sqrt(v.d)
    return sympy.Rational(v)


def _sym_parts(e, d):
    """The sympy rationals a and b of a sympy number a + b sqrt(d) with no
    sqrt(d) in a denominator; d is 0 for a rational e."""
    import sympy

    e = sympy.expand(e)
    b = e.coeff(sympy.sqrt(d)) if d else sympy.Integer(0)
    a = sympy.expand(e - b * sympy.sqrt(d))
    assert a.is_Rational and b.is_Rational
    return a, b


def _from_sym(e, d):
    """The exact scalar of a sympy number a + b sqrt(d)."""
    a, b = (Fraction(int(n.p), int(n.q)) for n in _sym_parts(e, d))
    return as_exact(QuadExt(a, b, d)) if b else a


def _radicand(x):
    return next((v.d for v in x.x if isinstance(v, QuadExt)), 0)


def _sym_deviations(x):
    """The deviation layout of the model docstring, in sympy."""
    x1, x2, x3, x4 = map(_sym, x.x)
    return (
        (x4, x3, -x3 - x4),
        (x2, x1, -x1 - x2),
        (-x2 - x4, -x1 - x3, x1 + x2 + x3 + x4),
    )


def _largest_deviation(x):
    """M, the largest |deviation| of x, in sympy."""
    devs = [dev for row in _sym_deviations(x) for dev in row]
    return max(max(devs), -min(devs))


def _rescale_by_definition(x):
    import sympy

    m = _largest_deviation(x)
    d = _radicand(x)
    # 1 / m as (a - b sqrt(d)) / (a^2 - d b^2), so that the quotients
    # expand to a + b sqrt(d)
    a, b = _sym_parts(m, d)
    inverse = (a - b * sympy.sqrt(d)) / (a * a - d * b * b)
    return OffsetVector(tuple(_from_sym(v * inverse / 18, d) for v in map(_sym, x.x)))


def _entries_by_definition(x):
    """The entries 1/9 + dev, or the first negative one as (row, col)."""
    ninth = _sym(Fraction(1, 9))
    entries = [[ninth + dev for dev in row] for row in _sym_deviations(x)]
    for r in range(3):
        for c in range(3):
            if entries[r][c] < 0:
                return (r, c)
    d = _radicand(x)
    return tuple(tuple(_from_sym(e, d) for e in row) for row in entries)


def _entries_or_negative(x, s):
    try:
        return table_from_offsets(x, s, s).entries
    except NegativeEntry as exc:
        return (exc.row, exc.col)


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _offsets(draw):
    d = draw(st.sampled_from([None, 2, 3]))
    if d is None:
        parts = [draw(_RATIONALS) for _ in range(4)]
    else:
        parts = [QuadExt(draw(_RATIONALS), draw(_RATIONALS), d) for _ in range(4)]
    return OffsetVector(tuple(parts))


# the largest |deviation| tied between a cell of rational offsets and a
# cell of Q(sqrt(2)) offsets whose sqrt(2) parts cancel, in both orders
_TIES = [
    OffsetVector.of(-2, -2, QuadExt(0, 1, 2), QuadExt(0, -1, 2)),
    OffsetVector.of(-2, -2, QuadExt(2, -1, 2), QuadExt(2, 1, 2)),
]


def _check_builders(x):
    s = Support3.from_values(1, 2, 3)
    assert _entries_or_negative(x, s) == _entries_by_definition(x)
    if x.is_zero:
        return
    scaled = rescale(x)
    assert scaled == _rescale_by_definition(x)
    assert scaled.to_json() == _rescale_by_definition(x).to_json()
    entries = [v for row in table_from_offsets(scaled, s, s).entries for v in row]
    assert entries == [v for row in _entries_by_definition(scaled) for v in row]
    low, high = Fraction(1, 18), Fraction(1, 6)
    assert all(_sym(low) <= _sym(v) <= _sym(high) for v in entries)
    # the most extreme entries sit exactly on the bounds
    assert any(v == low or v == high for v in entries)
    assert _largest_deviation(scaled) == _sym(low)


@settings(max_examples=150, deadline=None, database=None)
@given(_offsets())
def test_builders_match_their_definition(x):
    _check_builders(x)


@pytest.mark.parametrize("x", _TIES)
def test_builders_match_their_definition_on_a_tie(x):
    devs = [dev for row in _sym_deviations(x) for dev in row]
    tied = [dev for dev in devs if abs(dev) == max(abs(v) for v in devs)]
    # both tied cells are rational: one sums rational offsets, the other
    # irrational ones whose sqrt(2) parts cancel
    assert len(tied) == 2 and all(dev.is_Rational for dev in tied)
    _check_builders(x)


def _plus_ninth(devs):
    """1/9 plus each deviation, built with the QuadExt constructor."""
    ninth = Fraction(1, 9)
    return tuple(
        tuple(
            QuadExt(ninth + d.a, d.b, d.d) if isinstance(d, QuadExt) else ninth + d
            for d in row
        )
        for row in devs
    )


def test_negative_irrational_entry_with_a_positive_rational_part():
    s = Support3.from_values(1, 2, 3)
    half = QuadExt(0, Fraction(1, 18), 2)
    # entry (1, 2) is 1/9 - sqrt(2)/9 < 0; rows and columns sum to 1/3
    x = OffsetVector.of(half, half, 0, 0)
    with pytest.raises(NegativeEntry) as info:
        table_from_offsets(x, s, s)
    assert (info.value.row, info.value.col) == (1, 2)
    assert info.value.value == QuadExt(Fraction(1, 9), Fraction(-1, 9), 2)
    with pytest.raises(NegativeEntry) as info:
        JointTable(_plus_ninth(x.deviations()), s, s)
    assert (info.value.row, info.value.col) == (1, 2)


def test_line_sums_read_the_irrational_parts():
    s = Support3.from_values(1, 2, 3)
    r2, m2 = QuadExt(0, Fraction(1, 18), 2), QuadExt(0, Fraction(-1, 18), 2)
    # row 0's rational parts sum to 1/3, its sqrt(2) parts do not
    devs = ((r2, 0, 0), (0, 0, 0), (m2, 0, 0))
    with pytest.raises(ValueError, match="^row 0 does not sum to 1/3$"):
        JointTable(_plus_ninth(devs), s, s)
    # every row sums to 1/3, so the failing columns come in pairs
    q = Fraction(1, 18)
    for devs in (((q, -q, 0), (0, 0, 0), (0, 0, 0)), ((r2, m2, 0), (0, 0, 0), (0, 0, 0))):
        with pytest.raises(ValueError, match="^column 0 does not sum to 1/3$"):
            JointTable(_plus_ninth(devs), s, s)


def test_mixed_radicand_tables_keep_their_message():
    # sqrt_parts's one message, the first radicand met row by row and the
    # first that differs from it, before any entry sign or line sum
    s = Support3.from_values(1, 2, 3)
    r2, r3 = QuadExt(0, Fraction(1, 18), 2), QuadExt(0, Fraction(1, 18), 3)
    m2, m3 = QuadExt(0, Fraction(-1, 18), 2), QuadExt(0, Fraction(-1, 18), 3)
    devs = ((r2, m2, 0), (r3, 0, m3), (0, 0, 0))
    with pytest.raises(MixedRadicand, match=r"^cannot combine sqrt\(2\) with sqrt\(3\)$"):
        JointTable(_plus_ninth(devs), s, s)
    devs = ((r3, r2, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(MixedRadicand, match=r"^cannot combine sqrt\(3\) with sqrt\(2\)$"):
        JointTable(_plus_ninth(devs), s, s)
    # entry (0, 2) is negative, but the radicands are refused first
    devs = ((r3, r2, -1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(MixedRadicand, match=r"^cannot combine sqrt\(3\) with sqrt\(2\)$"):
        JointTable(_plus_ninth(devs), s, s)


def test_mixed_radicand_offsets_keep_the_message_of_their_sums():
    # rescale and table_from_offsets refuse mixed radicands with
    # sqrt_parts's message for the four offsets, whatever their radicands
    s = Support3.from_values(1, 2, 3)
    field = {0: Fraction(1, 3), 2: QuadExt(1, 1, 2), 3: QuadExt(-1, 1, 3), 5: QuadExt(0, 2, 5)}
    mixed = 0
    for code in range(4**4):
        ds = [(0, 2, 3, 5)[(code >> (2 * n)) & 3] for n in range(4)]
        x = OffsetVector(tuple(field[d] for d in ds))
        try:
            sqrt_parts(x.x)
            continue
        except MixedRadicand as exc:
            want = str(exc)
        mixed += 1
        for build in (lambda: rescale(x), lambda: table_from_offsets(x, s, s)):
            with pytest.raises(MixedRadicand) as info:
                build()
            assert str(info.value) == want
    assert mixed == 4**4 - 1 - 3 * 15
