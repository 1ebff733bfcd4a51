"""Property tests: the column solve agrees with both per-cell routes.

Most inputs carry planted zeros, so the sets under test are not all
empty: a random support and a few random target orders give condition
rows, and the witness is drawn from their nullspace (rational, or with a
sqrt(2) part).  The golden constructions add whole columns, crosses, the
full box and Q(sqrt(2)) singletons and pairs on random positive
supports.  Unplanted small offsets, often zero, test boxes up to 64
against the per-cell forms alone: the condition form on positive
supports, the deviation form on symmetric and general ones, b = -c
included.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from uncorrsets import linalg
from uncorrsets.constructions import (
    make_cross,
    make_diagonal,
    make_full,
    make_hline,
    make_lattice_union,
    make_singleton,
    make_two_point,
    make_vline,
)
from uncorrsets.engine import (
    ASequence,
    condition_lhs,
    enumerate_box_offsets,
    enumerate_box_table,
    offsets_delta,
)
from uncorrsets.model import (
    BetaSupport,
    JointTable,
    OffsetVector,
    Support3,
    SupportKind,
    rescale,
    table_from_offsets,
)
from uncorrsets.numeric import QuadExt

SETTINGS = settings(max_examples=60, deadline=None, database=None)

BOX = st.integers(1, 10)

_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_positive = st.builds(Fraction, st.integers(1, 30), st.integers(1, 4))


def _three(values):
    return st.lists(values, min_size=3, max_size=3, unique=True).map(sorted)


positive_supports = st.one_of(
    _three(_positive).map(lambda p: Support3.from_values(*p)),
    st.builds(
        BetaSupport,
        st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2))),
        _positive.map(lambda q: 1 + q),
    ),
)
# general-ordered supports start at or below zero but are not (-v, 0, v);
# on (-c - s, -c, c) every even k carries the ratio Q_k = 0
general_supports = st.one_of(
    _three(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3)))
    .filter(lambda p: p[0] <= 0 and not (p[1] == 0 and p[0] == -p[2]))
    .map(lambda p: Support3.from_values(*p)),
    st.builds(lambda c, s: Support3.from_values(-c - s, -c, c), _positive, _positive),
)
symmetric_supports = _positive.map(Support3.symmetric)
supports = st.one_of(positive_supports, general_supports, symmetric_supports)


def _per_cell(x, support, jmax, kmax):
    """The per-cell oracle: condition form where A_j exists, else the delta."""
    cells = [(j, k) for j in range(1, jmax + 1) for k in range(1, kmax + 1)]
    by_delta = [p for p in cells if offsets_delta(x, support, support, *p) == 0]
    if support.kind is SupportKind.POSITIVE_ORDERED:
        seq = ASequence(support)
        assert [p for p in cells if condition_lhs(x, seq, *p) == 0] == by_delta
    return by_delta


def _by_moments(x, support, jmax, kmax):
    if x.is_zero:
        table = JointTable.independent(support, support)
    else:
        table = table_from_offsets(rescale(x), support, support)
    return enumerate_box_table(table, jmax, kmax)


def _three_routes(x, support, jmax, kmax):
    found = enumerate_box_offsets(x, support, jmax, kmax)
    assert found == _per_cell(x, support, jmax, kmax)
    assert found == _by_moments(x, support, jmax, kmax)
    return found


def _condition_row(support, j, k):
    """Coefficients of the membership condition at (j, k) in x1..x4."""
    if support.kind is SupportKind.POSITIVE_ORDERED:
        seq = ASequence(support)
        aj, ak = seq.value(j), seq.value(k)
        return [Fraction(1), aj, ak, aj * ak]
    units = [OffsetVector(tuple(int(i == n) for i in range(4))) for n in range(4)]
    return [offsets_delta(e, support, support, j, k) for e in units]


@st.composite
def planted(draw):
    support = draw(supports)
    jmax, kmax = draw(BOX), draw(BOX)
    cell = st.tuples(st.integers(1, jmax), st.integers(1, kmax))
    targets = draw(st.lists(cell, min_size=1, max_size=3, unique=True))
    rows = [_condition_row(support, j, k) for j, k in targets]
    if support.kind is SupportKind.POSITIVE_ORDERED and draw(st.booleans()):
        # v = x3 + A_j x4 = 0 on one column: it is empty, or whole when it
        # also holds a target
        aj = ASequence(support).value(draw(st.integers(1, jmax)))
        targets = targets[:2]
        rows = rows[:2] + [[Fraction(0), Fraction(0), Fraction(1), aj]]
    # at most three rows in four unknowns: the nullspace is never trivial
    basis = linalg.nullspace(rows)
    coeffs = st.lists(_rationals, min_size=len(basis), max_size=len(basis))
    rat, irr = draw(coeffs), draw(coeffs)
    if not draw(st.booleans()):
        irr = [0] * len(basis)
    x = tuple(
        QuadExt(
            sum(c * v[i] for c, v in zip(rat, basis)),
            sum(c * v[i] for c, v in zip(irr, basis)),
            2,
        )
        for i in range(4)
    )
    return OffsetVector(x), support, jmax, kmax, targets


@SETTINGS
@given(planted())
def test_planted_zeros_three_routes_agree(case):
    x, support, jmax, kmax, targets = case
    found = _three_routes(x, support, jmax, kmax)
    assert set(targets) <= set(found)


def _by_definition(table, jmax, kmax):
    """The moment route written out per cell: the 9-term E[X^j Y^k]
    against the product of the marginals.  E[X^j Y^k] is a rational
    linear form in the entries a + b sqrt(d), so its a and b parts are
    summed separately, and the b part must vanish."""
    xs, ys = table.support_x.points, table.support_y.points
    parts = [
        [(v.a, v.b) if isinstance(v, QuadExt) else (v, 0) for v in row]
        for row in table.entries
    ]
    out = []
    for j in range(1, jmax + 1):
        for k in range(1, kmax + 1):
            weights = [(r, c, xs[c] ** j * ys[r] ** k) for r in range(3) for c in range(3)]
            joint_a = sum(parts[r][c][0] * w for r, c, w in weights)
            joint_b = sum(parts[r][c][1] * w for r, c, w in weights)
            ex = sum(p**j for p in xs) / 3
            ey = sum(p**k for p in ys) / 3
            if joint_a == ex * ey and joint_b == 0:
                out.append((j, k))
    return out


@SETTINGS
@given(planted(), st.one_of(st.none(), supports))
def test_moment_enumeration_is_the_definition(case, support_y):
    # the planted offsets give member cells when Y shares X's support; a
    # second support for Y covers tables with two supports
    x, support, jmax, kmax, _ = case
    sy = support if support_y is None else support_y
    if x.is_zero:
        table = JointTable.independent(support, sy)
    else:
        table = table_from_offsets(rescale(x), support, sy)
    assert enumerate_box_table(table, jmax, kmax) == _by_definition(table, jmax, kmax)


def test_moment_enumeration_is_the_definition_at_64():
    # Q(sqrt(2)) entries and orders up to the default cap
    built = make_two_point(Support3.from_values(Fraction(1, 2), 2, 7), (5, 60), (64, 3))
    s3 = built.support
    table = table_from_offsets(rescale(built.x), s3, s3)
    found = enumerate_box_table(table, 64, 64)
    assert found == [(5, 60), (64, 3)]
    assert found == _by_definition(table, 64, 64)


def test_moment_enumeration_tests_the_irrational_part():
    # the diagonal plus sqrt(2) times the column j = 2: the rational part
    # of the condition vanishes on the whole diagonal, the sqrt(2) part
    # only at j = 2, so a route that drops the irrational part answers
    # the diagonal.  An unscaled table keeps the two parts apart (rescale
    # multiplies by a factor in Q(sqrt(2)), which mixes them).
    s = Support3.from_values(1, 2, 3)
    x = OffsetVector.of(0, 1, QuadExt(-1, Fraction(-8, 5), 2), QuadExt(0, 1, 2))
    table = table_from_offsets(x.scaled(Fraction(1, 200)), s, s)
    by_offsets = enumerate_box_offsets(x, s, 6, 6)
    assert enumerate_box_table(table, 6, 6) == [(2, 2)] == by_offsets


# unplanted offsets: small entries, often zero, some in Q(sqrt(2))
_entries = st.one_of(
    st.just(Fraction(0)),
    _rationals,
    st.builds(lambda a, b: QuadExt(a, b, 2), _rationals, _rationals),
)
offsets = st.tuples(_entries, _entries, _entries, _entries).map(OffsetVector)
BIG_BOX = st.integers(1, 64)


@SETTINGS
@given(offsets, positive_supports, BIG_BOX, BIG_BOX)
def test_column_solve_is_the_condition_form(x, support, jmax, kmax):
    seq = ASequence(support)
    cells = [(j, k) for j in range(1, jmax + 1) for k in range(1, kmax + 1)]
    want = [p for p in cells if condition_lhs(x, seq, *p) == 0]
    assert enumerate_box_offsets(x, support, jmax, kmax) == want


# the per-cell deviation form runs on powers of alpha; fewer examples
@settings(max_examples=20, deadline=None, database=None)
@given(offsets, _positive, BIG_BOX, BIG_BOX)
def test_parity_cells_are_the_deviation_form(x, alpha, jmax, kmax):
    s = Support3.symmetric(alpha)
    cells = [(j, k) for j in range(1, jmax + 1) for k in range(1, kmax + 1)]
    want = [p for p in cells if offsets_delta(x, s, s, *p) == 0]
    assert enumerate_box_offsets(x, s, jmax, kmax) == want


@settings(max_examples=20, deadline=None, database=None)
@given(offsets, general_supports, BIG_BOX, BIG_BOX)
def test_column_law_is_the_deviation_form_on_general_supports(x, s, jmax, kmax):
    cells = [(j, k) for j in range(1, jmax + 1) for k in range(1, kmax + 1)]
    want = [p for p in cells if offsets_delta(x, s, s, *p) == 0]
    assert enumerate_box_offsets(x, s, jmax, kmax) == want


def test_column_law_where_b_is_minus_c():
    # on (-2, -1, 1) the form of (1, 0, 0, 0) is Q_j Q_k, and Q_j = 1 - (-1)^j
    # vanishes at every even order: the cells with j or k even
    s = Support3.from_values(-2, -1, 1)
    found = _three_routes(OffsetVector.of(1, 0, 0, 0), s, 5, 5)
    assert len(found) == 16
    cells = [(j, k) for j in range(1, 6) for k in range(1, 6)]
    assert found == [(j, k) for j, k in cells if j % 2 == 0 or k % 2 == 0]


def test_parity_cells_tell_the_classes_apart():
    # each class alone, on a box whose sides have both parities
    s = Support3.symmetric(Fraction(3, 2))
    starts = {"ee": (2, 2), "eo": (2, 1), "oe": (1, 2), "oo": (1, 1)}
    for name, (j0, k0) in starts.items():
        built = make_lattice_union(Fraction(3, 2), [name])
        want = [(j, k) for j in range(j0, 6, 2) for k in range(k0, 5, 2)]
        assert enumerate_box_offsets(built.x, s, 5, 4) == want, name


@st.composite
def golden(draw):
    support = draw(positive_supports)
    jmax, kmax = draw(BOX), draw(BOX)
    j1, j2 = draw(st.lists(st.integers(1, jmax + 2), min_size=2, max_size=2, unique=True))
    k1, k2 = draw(st.lists(st.integers(1, kmax + 2), min_size=2, max_size=2, unique=True))
    build = draw(
        st.sampled_from(
            [
                lambda: make_full(support),
                lambda: make_diagonal(support),
                lambda: make_vline(support, j1),
                lambda: make_hline(support, k1),
                lambda: make_cross(support, j1, k1),
                lambda: make_singleton(support, j1, k1),
                lambda: make_two_point(support, (j1, k1), (j2, k2)),
            ]
        )
    )
    return build(), jmax, kmax


@SETTINGS
@given(golden())
def test_golden_witnesses_three_routes_agree(case):
    built, jmax, kmax = case
    found = _three_routes(built.x, built.support, jmax, kmax)
    assert set(found) == built.descriptor.points_in_box(jmax, kmax)


@SETTINGS
@given(
    _positive,
    st.lists(st.sampled_from(("ee", "eo", "oe", "oo")), unique=True),
    BOX,
    BOX,
)
def test_lattice_unions_three_routes_agree(alpha, names, jmax, kmax):
    built = make_lattice_union(alpha, names)
    found = _three_routes(built.x, built.support, jmax, kmax)
    assert set(found) == built.descriptor.points_in_box(jmax, kmax)


def test_enumeration_cases_are_not_all_empty():
    s = Support3.from_values(1, 2, 3)
    geo = BetaSupport(1, Fraction(3, 2))
    for built in (
        make_vline(s, 3),
        make_cross(geo, 2, 5),
        make_singleton(s, 4, 2),
        make_two_point(geo, (2, 7), (5, 3)),
        make_lattice_union(Fraction(1, 2), ["eo"]),
    ):
        found = _three_routes(built.x, built.support, 8, 8)
        assert found
        assert found == sorted(built.descriptor.points_in_box(8, 8))
