import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uncorrsets import engine, linalg, moments, numeric
from uncorrsets.constructions import make_diagonal, make_singleton
from uncorrsets.engine import (
    ASequence,
    BOX_VERIFIED,
    ExponentCapExceeded,
    GLOBAL_ANALYTIC,
    IncompatibleDescriptor,
    LATTICE_NAMES,
    LatticeInconsistent,
    MATCH,
    MISMATCH,
    SetDescriptor,
    check_analytic,
    classify_symmetric,
    condition_lhs,
    enumerate_box_offsets,
    enumerate_box_table,
    finite_parts,
    is_uncorrelated,
    max_exponent,
    membership_rows,
    moment,
    offsets_delta,
    shape_offsets,
    verify_claim,
    witness_from_json,
)
from uncorrsets.model import (
    BetaSupport,
    OffsetVector,
    Support3,
    YVector,
    from_y,
    rescale,
    table_from_offsets,
)
from uncorrsets.numeric import MixedRadicand, QuadExt, sqrt_parts
from uncorrsets.selftest import obeys_shape_law

from route_guard import reachable


S123 = Support3.from_values(1, 2, 3)


def test_moment_ratios_on_123():
    seq = ASequence(S123)
    assert seq.value(1) == 2
    assert seq.value(2) == Fraction(8, 5)
    assert seq.value(3) == Fraction(26, 19)
    assert seq[4] == Fraction(16, 13)
    with pytest.raises(ValueError):
        seq.value(0)


def test_moment_ratios_beta_fast_path():
    # a geometric support's A_j, read off its three points, is 1 + beta^-j
    for bs in (BetaSupport(1, 2), BetaSupport(Fraction(1, 3), Fraction(3, 2)),
               BetaSupport(5, Fraction(7, 3))):
        seq = ASequence(bs)
        direct = ASequence(bs.to_support3())
        for j in range(1, 41):
            assert seq.value(j) == 1 + bs.beta**-j
            assert seq.value(j) == direct.value(j)


def test_moment_ratio_audit_catches_corruption():
    seq = ASequence(S123)
    seq.value(1)
    seq._cache[2] = Fraction(1, 2)  # plant a value below 1's successor
    with pytest.raises(ArithmeticError):
        seq.value(3)


def test_box_enumeration_audits_the_ratios_too():
    # a support corrupted past its own validation: A_1 = (2 - 1) / (2 - 3)
    bad = Support3.from_values(1, 2, 3)
    object.__setattr__(bad, "points", (Fraction(1), Fraction(3), Fraction(2)))
    with pytest.raises(ArithmeticError):
        enumerate_box_offsets(OffsetVector.of(0, 1, -1, 0), bad, 4, 4)
    # A = 6, 12/7, 72/37 on (-2, 3, 4) passed off as positive: every
    # A_j > 1, but A_2 < A_3
    flat = Support3.from_values(1, 2, 3)
    object.__setattr__(flat, "points", (Fraction(-2), Fraction(3), Fraction(4)))
    with pytest.raises(ArithmeticError, match="A_2 <= A_3"):
        enumerate_box_offsets(OffsetVector.of(0, 1, -1, 0), flat, 4, 4)


@pytest.mark.parametrize("support", [S123, Support3.symmetric(1)])
def test_box_enumeration_refuses_mixed_radicands(support):
    x = OffsetVector.of(QuadExt(0, 1, 2), 0, QuadExt(0, 1, 3), 0)
    with pytest.raises(MixedRadicand):
        enumerate_box_offsets(x, support, 3, 3)
    # named as sqrt_parts names it: the first radicand met, then the other
    swapped = OffsetVector.of(QuadExt(0, 1, 3), 0, QuadExt(0, 1, 2), 0)
    with pytest.raises(MixedRadicand) as parts:
        sqrt_parts(swapped.x)
    with pytest.raises(MixedRadicand) as box:
        enumerate_box_offsets(swapped, support, 3, 3)
    assert str(box.value) == str(parts.value) == "cannot combine sqrt(3) with sqrt(2)"


def test_marginal_and_joint_moments():
    t = table_from_offsets(rescale(OffsetVector.of(0, 1, -1, 0)), S123, S123)
    # the marginals are the joint moments of order (j, 0) and (0, k)
    assert moment(t, 0, 0) == 1
    assert moment(t, 1, 0) == moment(t, 0, 1) == 2
    assert moment(t, 2, 0) == moment(t, 0, 2) == Fraction(14, 3)
    assert moment(t, 1, 1) == 4
    assert is_uncorrelated(t, 1, 1)
    assert not is_uncorrelated(t, 1, 2)


def test_condition_lhs_frozen_values():
    seq = ASequence(S123)
    # diagonal offsets: lhs is A_j - A_k
    diag = OffsetVector.of(0, 1, -1, 0)
    assert condition_lhs(diag, seq, 1, 2) == Fraction(2, 5)
    assert condition_lhs(diag, seq, 3, 3) == 0
    # column j = 2: x = (0, 0, -A_2, 1)
    vline = OffsetVector.of(0, 0, Fraction(-8, 5), 1)
    assert condition_lhs(vline, seq, 1, 1) == Fraction(4, 5)
    assert condition_lhs(vline, seq, 2, 5) == 0
    # one-point witness at (1, 1): irrational slope picks out a single zero
    single = OffsetVector.of(QuadExt(2, 2, 2), -1, QuadExt(0, -1, 2), 0)
    assert condition_lhs(single, seq, 1, 1) == 0
    assert condition_lhs(single, seq, 2, 1) == Fraction(2, 5)


def test_condition_route_equals_moment_route():
    rng = random.Random(31)
    for _ in range(30):
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        x = OffsetVector.of(*vals)
        if x.is_zero:
            continue
        x = rescale(x)
        t = table_from_offsets(x, S123, S123)
        seq = ASequence(S123)
        for j in range(1, 7):
            for k in range(1, 7):
                want = is_uncorrelated(t, j, k)
                got = condition_lhs(x, seq, j, k) == 0
                assert got == want


def test_moment_route_stays_independent_of_the_condition_route():
    # the moment route audits every enumeration only while it reads
    # nothing but the table and its supports
    tree = ast.parse(Path(moments.__file__).read_text(encoding="utf-8"))
    condition_route = {
        "ASequence",
        "condition_lhs",
        "offsets_delta",
        "enumerate_box_offsets",
        "deviations",
        "shape_offsets",
    }
    for name in ("moment", "is_uncorrelated", "enumerate_box_table"):
        assert not condition_route & reachable(tree, name), name
    # the guard sees a reference through a helper
    planted = ast.parse(
        "def moment(t):\n    return h(t)\ndef h(t):\n    return t.deviations()\n"
    )
    assert "deviations" in reachable(planted, "moment")


def test_condition_route_stays_independent_of_the_moment_route():
    # the reverse guard: the box enumeration on offsets must not lean on
    # the table or the moment route it is audited against
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    moment_route = {
        "_moment_cells",
        "enumerate_box_table",
        "is_uncorrelated",
        "moment",
        "entries",
    }
    assert not moment_route & reachable(tree, "enumerate_box_offsets")


def test_column_law_stays_independent_of_the_per_cell_oracles():
    # box enumeration is audited against the per-cell forms and the
    # parity forms, so it must decide every support without them
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    oracles = {
        "condition_lhs",
        "offsets_delta",
        "ASequence",
        "exact_sign",
        "deviations",
        "moment",
        "_moment_cells",
    }
    assert not oracles & reachable(tree, "enumerate_box_offsets")
    # the guard sees a reference through a helper
    planted = ast.parse(
        "def enumerate_box_offsets(x):\n    return h(x)\n"
        "def h(x):\n    return exact_sign(x)\n"
    )
    assert "exact_sign" in reachable(planted, "enumerate_box_offsets")


def test_delta_route_on_general_support():
    s = Support3.from_values(-3, 1, 2)
    rng = random.Random(77)
    for _ in range(10):
        vals = [Fraction(rng.randint(-5, 5), 2) for _ in range(4)]
        x = OffsetVector.of(*vals)
        if x.is_zero:
            continue
        x = rescale(x)
        t = table_from_offsets(x, s, s)
        got = enumerate_box_offsets(x, s, 6, 6)
        want = enumerate_box_table(t, 6, 6)
        assert got == want
        for j, k in got:
            assert offsets_delta(x, s, s, j, k) == 0


def test_enumerate_shapes():
    assert enumerate_box_offsets(OffsetVector.of(1, 0, 0, 0), S123, 8, 8) == []
    assert enumerate_box_offsets(OffsetVector.of(0, 0, 0, 0), S123, 3, 3) == [
        (j, k) for j in (1, 2, 3) for k in (1, 2, 3)
    ]
    diag = enumerate_box_offsets(OffsetVector.of(0, 1, -1, 0), S123, 9, 9)
    assert diag == [(i, i) for i in range(1, 10)]
    single = OffsetVector.of(QuadExt(2, 2, 2), -1, QuadExt(0, -1, 2), 0)
    assert enumerate_box_offsets(single, S123, 6, 6) == [(1, 1)]


def test_box_guards(monkeypatch):
    x = OffsetVector.of(0, 1, -1, 0)
    with pytest.raises(ValueError):
        enumerate_box_offsets(x, S123, 0, 5)
    monkeypatch.setenv("UNCORRSET_MAX_EXP", "8")
    assert max_exponent() == 8
    assert len(enumerate_box_offsets(x, S123, 8, 8)) == 8
    with pytest.raises(ExponentCapExceeded):
        enumerate_box_offsets(x, S123, 9, 8)
    with pytest.raises(ExponentCapExceeded):
        SetDescriptor.vline(9)
    with pytest.raises(ExponentCapExceeded):
        SetDescriptor.finite([(2, 9)])
    # an antidiagonal sum of two orders may reach twice the cap
    assert SetDescriptor.antidiagonal(16).params == (16,)
    with pytest.raises(ExponentCapExceeded):
        SetDescriptor.antidiagonal(17)
    monkeypatch.setenv("UNCORRSET_MAX_EXP", "0")
    with pytest.raises(ValueError):
        max_exponent()
    monkeypatch.delenv("UNCORRSET_MAX_EXP")
    assert max_exponent() == 64


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SetDescriptor("circle")
    with pytest.raises(ValueError):
        SetDescriptor("empty", certificate="hoped-for")
    with pytest.raises(ValueError):
        SetDescriptor.finite([(0, 1)])
    with pytest.raises(ValueError):
        SetDescriptor.lattice_union(["ee", "xx"])
    # a name that is not a string is refused before the names are sorted,
    # so the message does not depend on the string hash seed
    unknown = r"^unknown lattice names in \(1, 'oo'\)$"
    with pytest.raises(ValueError, match=unknown):
        SetDescriptor.from_json({"kind": "lattice-union", "lattices": [1, "oo"]})
    with pytest.raises(ValueError, match=unknown):
        SetDescriptor.lattice_union([1, "oo"])
    with pytest.raises(ValueError):
        SetDescriptor.antidiagonal(1)
    with pytest.raises(ValueError):
        SetDescriptor.slopeline(1)
    # points are sorted and deduplicated into a canonical order
    d = SetDescriptor.finite([(3, 1), (1, 2), (3, 1)])
    assert d.points == ((1, 2), (3, 1))


def test_a_repeated_point_is_one_point():
    twice = SetDescriptor.finite([(1, 1), (1, 1)], GLOBAL_ANALYTIC)
    once = SetDescriptor.finite([(1, 1)], GLOBAL_ANALYTIC)
    assert twice == once and hash(twice) == hash(once)
    # the claim is a singleton, so it goes to the singleton check and not
    # to the two-point check, which refuses two points in one column
    built = make_singleton(Support3.from_values(1, 2, 3), 1, 1)
    for claim in (twice, once):
        report = built.verify(claim, 6, 6)
        assert report.verdict == MATCH and report.analytic_ok is True


def test_descriptor_points_in_box():
    assert SetDescriptor.empty().points_in_box(4, 4) == set()
    assert len(SetDescriptor.all_points().points_in_box(3, 5)) == 15
    assert SetDescriptor.vline(2).points_in_box(3, 3) == {(2, 1), (2, 2), (2, 3)}
    assert SetDescriptor.vline(5).points_in_box(3, 3) == set()
    assert SetDescriptor.hline(3).points_in_box(2, 4) == {(1, 3), (2, 3)}
    assert SetDescriptor.cross(2, 3).points_in_box(2, 2) == {(2, 1), (2, 2)}
    assert SetDescriptor.diagonal().points_in_box(4, 6) == {
        (1, 1), (2, 2), (3, 3), (4, 4)
    }
    assert SetDescriptor.antidiagonal(7).points_in_box(12, 12) == {
        (j, 7 - j) for j in range(1, 7)
    }
    assert SetDescriptor.antidiagonal(7).points_in_box(3, 3) == set()
    assert SetDescriptor.slopeline(2).points_in_box(12, 12) == {
        (1, 2), (2, 4), (3, 6)
    }
    assert SetDescriptor.slopeline(2, extra=[(4, 9)]).points_in_box(4, 8) == {
        (1, 2), (2, 4), (3, 6)
    }
    assert SetDescriptor.lattice_union(["ee"]).points_in_box(4, 4) == {
        (2, 2), (2, 4), (4, 2), (4, 4)
    }


def _kind_cases():
    """Descriptors of every kind, each with its membership predicate
    written out; inside the 64x64 box no two of them name the same set
    unless they are the same set."""
    cases = [
        (SetDescriptor.empty(), lambda j, k: False),
        (SetDescriptor.all_points(), lambda j, k: True),
        (SetDescriptor.diagonal(), lambda j, k: j == k),
    ]
    for n in (1, 2, 5, 13, 64):
        cases += [
            (SetDescriptor.vline(n), lambda j, k, n=n: j == n),
            (SetDescriptor.hline(n), lambda j, k, n=n: k == n),
            (SetDescriptor.cross(n, 3), lambda j, k, n=n: j == n or k == 3),
        ]
    for s in (2, 3, 7, 13, 64, 65, 127, 128):
        cases.append((SetDescriptor.antidiagonal(s), lambda j, k, s=s: j + k == s))
    for m in (2, 3, 21):
        cases += [
            (SetDescriptor.slopeline(m), lambda j, k, m=m: j <= 3 and k == m * j),
            (SetDescriptor.slopeline(m, [(4, 2 * m + 1)]),
             lambda j, k, m=m: (j <= 3 and k == m * j) or (j, k) == (4, 2 * m + 1)),
        ]
    for pts in ([(1, 1)], [(2, 5), (4, 3)], [(1, 64), (64, 1), (7, 7)]):
        cases.append((SetDescriptor.finite(pts), lambda j, k, pts=pts: (j, k) in pts))
    for mask in range(16):
        names = [n for i, n in enumerate(LATTICE_NAMES) if mask >> i & 1]
        cases.append((SetDescriptor.lattice_union(names),
                      lambda j, k, names=names: "eo"[j % 2] + "eo"[k % 2] in names))
    return cases


def test_form_is_the_set():
    cases = _kind_cases()
    assert {d.kind for d, _ in cases} == set(engine.KINDS)
    for d, member in cases:
        for jmax, kmax in ((1, 1), (2, 5), (7, 3), (12, 12), (30, 64), (64, 64)):
            want = {(j, k) for j in range(1, jmax + 1) for k in range(1, kmax + 1)
                    if member(j, k)}
            assert d.points_in_box(jmax, kmax) == want, (d, jmax, kmax)
    # forms are equal exactly when the sets are
    forms_of = {}
    for d, _ in cases:
        forms_of.setdefault(frozenset(d.points_in_box(64, 64)), set()).add(d.form)
    assert all(len(forms) == 1 for forms in forms_of.values())
    assert len({d.form for d, _ in cases}) == len(forms_of)


def test_equal_sets_have_equal_forms():
    parse, from_json = SetDescriptor.parse, SetDescriptor.from_json
    assert parse("antidiagonal:3").form == parse("finite:1,2;2,1").form
    assert SetDescriptor.slopeline(2).form == parse("finite:1,2;2,4;3,6").form
    every = from_json({"kind": "lattice-union", "lattices": list(LATTICE_NAMES)})
    assert every.kind == "lattice-union" and every.form == SetDescriptor.all_points().form
    none = from_json({"kind": "lattice-union", "lattices": []})
    assert none.kind == "lattice-union" and none.form == SetDescriptor.empty().form
    assert parse("antidiagonal:3").form != parse("finite:1,2").form
    # the form is derived: it takes no part in equality
    assert parse("antidiagonal:3") != parse("finite:1,2;2,1")


def test_stray_fields_never_change_the_set():
    D = SetDescriptor
    read = [
        ({"kind": "empty", "points": [[1, 1]], "lattices": ["ee"]}, D.empty()),
        ({"kind": "cross", "j": 2, "k": 3, "points": [[5, 5]], "lattices": ["oo"]},
         D.cross(2, 3)),
        ({"kind": "diagonal", "points": [[1, 2]], "lattices": ["eo"], "sum": 4},
         D.diagonal()),
        ({"kind": "lattice-union", "lattices": ["ee"], "points": [[1, 1]]},
         D.lattice_union(["ee"])),
        ({"kind": "finite", "points": [[1, 2]], "lattices": ["oo"], "j": 3},
         D.finite([(1, 2)])),
        ({"kind": "vline", "j": 2, "k": 5}, D.vline(2)),
        # a slope line's set is its listed points, line points or not
        ({"kind": "slopeline", "slope": 2, "points": [[4, 9]]}, D.finite([(4, 9)])),
    ]
    for doc, clean in read:
        d = SetDescriptor.from_json(doc)
        assert d.form == clean.form, doc
        assert d.points_in_box(12, 12) == clean.points_in_box(12, 12), doc
    # stray points and lattices are kept; integer keys of other kinds are not
    assert SetDescriptor.from_json(read[0][0]).to_json()["points"] == [[1, 1]]
    assert "k" not in SetDescriptor.from_json({"kind": "vline", "j": 2, "k": 5}).to_json()
    for doc in ({"kind": "vline"}, {"kind": "cross", "j": 1}, {"kind": "slopeline"},
                {"kind": ["vline"]}):
        with pytest.raises(ValueError):
            SetDescriptor.from_json(doc)


def test_descriptor_text_forms():
    specs = [
        "empty",
        "all",
        "diagonal",
        "vline:2",
        "hline:3",
        "cross:2,3",
        "antidiagonal:7",
        "finite:1,1;2,3",
        "slopeline:2;4,9",
        "lattices:ee,oo",
    ]
    for spec in specs:
        d = SetDescriptor.parse(spec)
        assert d.format_spec() == spec
        assert SetDescriptor.from_json(d.to_json()) == d
    assert SetDescriptor.parse("finite:1,1").certificate == BOX_VERIFIED
    assert SetDescriptor.parse("vline:2").certificate == GLOBAL_ANALYTIC
    # naming all four parity classes is just the full grid
    assert SetDescriptor.parse("lattices:ee,eo,oe,oo").kind == "all"
    # a kind with neither parameters nor points ignores what follows
    assert SetDescriptor.parse("empty:junk") == SetDescriptor.empty()
    assert SetDescriptor.parse("all:1") == SetDescriptor.all_points()
    assert SetDescriptor.parse("diagonal:3") == SetDescriptor.diagonal()
    assert SetDescriptor.parse(" vline:2 ") == SetDescriptor.vline(2)
    assert SetDescriptor.parse("lattices:oo,ee,ee") == SetDescriptor.lattice_union(["ee", "oo"])
    for bad in ("finite:", "vline:2,3", "vline:2;3,4", "cross:2", "helix:3",
                "slopeline:1", "slopeline:2,3", "lattice-union:ee"):
        with pytest.raises(ValueError):
            SetDescriptor.parse(bad)


_ORDER = st.integers(1, numeric.DEFAULT_MAX_EXP)


@st.composite
def _descriptors(draw):
    """A descriptor of any kind, with the certificate its text form reads
    back to and no stray fields."""
    kind = draw(st.sampled_from(list(engine.KINDS)))
    if kind == "finite":
        return SetDescriptor.finite(draw(st.lists(st.tuples(_ORDER, _ORDER), min_size=1)))
    if kind == "lattice-union":
        names = st.lists(st.sampled_from(LATTICE_NAMES), min_size=1, max_size=3, unique=True)
        return SetDescriptor.lattice_union(draw(names))
    params = tuple(
        draw(st.integers(least, 2 * numeric.DEFAULT_MAX_EXP if key == "sum"
                         else numeric.DEFAULT_MAX_EXP))
        for key, least in engine.KINDS[kind].items()
    )
    if kind == "slopeline":
        m = params[0]
        off_line = st.tuples(_ORDER, _ORDER).filter(lambda p: p[0] > 3 or p[1] != m * p[0])
        return SetDescriptor.slopeline(m, draw(st.lists(off_line, max_size=3)))
    return SetDescriptor(kind, GLOBAL_ANALYTIC, params)


@settings(max_examples=300, deadline=None, database=None)
@given(_descriptors())
def test_descriptor_round_trips(d):
    assert SetDescriptor.parse(d.format_spec()) == d
    assert SetDescriptor.from_json(d.to_json()) == d


def test_verify_claim_match_and_mismatch():
    diag = OffsetVector.of(0, 1, -1, 0)
    report = verify_claim(diag, S123, SetDescriptor.diagonal(), 8, 8)
    assert report.verdict == MATCH
    assert report.analytic_ok is True
    assert report.missing == () and report.extra == ()

    report = verify_claim(diag, S123, SetDescriptor.vline(1), 4, 4)
    assert report.verdict == MISMATCH
    assert (1, 2) in report.missing
    assert (2, 2) in report.extra

    # box agreement is not enough when a global pattern is claimed wrongly
    claim = SetDescriptor.finite(
        [(i, i) for i in range(1, 5)], certificate=GLOBAL_ANALYTIC
    )
    report = verify_claim(diag, S123, claim, 4, 4)
    assert report.missing == () and report.extra == ()
    assert report.analytic_ok is False
    assert report.verdict == MISMATCH

    js = report.to_json()
    assert js["verdict"] == "mismatch"
    assert js["analytic"] is False
    assert js["box"] == [4, 4]


def test_check_analytic_patterns():
    seqless = SetDescriptor.empty(BOX_VERIFIED)
    assert check_analytic(OffsetVector.of(1, 0, 0, 0), S123, seqless) is None
    assert check_analytic(
        OffsetVector.of(1, 0, 0, 0), S123, SetDescriptor.empty()
    ) is True
    assert check_analytic(
        OffsetVector.of(0, 0, 0, 0), S123, SetDescriptor.all_points()
    ) is True
    assert check_analytic(
        OffsetVector.of(0, 1, -1, 0), S123, SetDescriptor.diagonal()
    ) is True
    assert check_analytic(
        OffsetVector.of(0, 1, -2, 0), S123, SetDescriptor.diagonal()
    ) is False
    assert check_analytic(
        OffsetVector.of(0, 0, Fraction(-8, 5), 1), S123, SetDescriptor.vline(2)
    ) is True
    assert check_analytic(
        OffsetVector.of(0, Fraction(-8, 5), 0, 1), S123, SetDescriptor.hline(2)
    ) is True
    cross = OffsetVector.of(
        Fraction(16, 5), Fraction(-8, 5), -2, 1
    )  # A_1 A_2, -A_2, -A_1, 1
    assert check_analytic(cross, S123, SetDescriptor.cross(1, 2)) is True
    single = OffsetVector.of(QuadExt(2, 2, 2), -1, QuadExt(0, -1, 2), 0)
    assert check_analytic(
        single, S123, SetDescriptor.finite([(1, 1)], GLOBAL_ANALYTIC)
    ) is True
    # a rational slope x2/x3 cannot certify a singleton
    rational = OffsetVector.of(Fraction(18, 5), -1, -1, 0)
    assert check_analytic(
        rational, S123, SetDescriptor.finite([(2, 2)], GLOBAL_ANALYTIC)
    ) is False


_A = ASequence(S123).value
_GEO2 = BetaSupport(1, 2)
# the closed-form pattern of each kind, written out by hand; at beta = 2 the
# slope-2 power sums (B^2 - B) B^6, (1 - B^3) B^4, (B^3 - 1) B^2 and B - B^2
# are 128, -112, 28 and -2
_PATTERNS = [
    (SetDescriptor.empty(), S123, (1, 0, 0, 0)),
    (SetDescriptor.all_points(), S123, (0, 0, 0, 0)),
    (SetDescriptor.diagonal(), S123, (0, 1, -1, 0)),
    (SetDescriptor.vline(2), S123, (0, 0, -_A(2), 1)),
    (SetDescriptor.hline(3), S123, (0, -_A(3), 0, 1)),
    (SetDescriptor.cross(2, 3), S123, (_A(2) * _A(3), -_A(3), -_A(2), 1)),
    (SetDescriptor.antidiagonal(5), _GEO2, from_y(YVector.of(32, 0, 0, -1)).x),
    (SetDescriptor.slopeline(2), _GEO2, from_y(YVector.of(128, -112, 28, -2)).x),
]


@pytest.mark.parametrize(
    "desc, support, pattern", _PATTERNS, ids=[d.kind for d, _, _ in _PATTERNS]
)
def test_check_analytic_certifies_exactly_the_nonzero_multiples(desc, support, pattern):
    x = OffsetVector(pattern)
    for factor in (Fraction(-3, 7), QuadExt(1, 1, 2), QuadExt(0, -5, 2)):
        assert check_analytic(x.scaled(factor), support, desc) is True
    for i in range(4):
        if desc.kind == "empty" and i == 0:
            continue  # bumping x1 only rescales the empty pattern
        bumped = list(x.x)
        bumped[i] += 1
        assert check_analytic(OffsetVector(tuple(bumped)), support, desc) is False
    zero = OffsetVector.of(0, 0, 0, 0)
    assert check_analytic(zero, support, desc) is (desc.kind == "all")


_SQRT2 = QuadExt(0, 1, 2)
_FINITE_SUPPORTS = [S123, BetaSupport(1, Fraction(3, 2)), Support3.from_values(Fraction(1, 2), 2, 7)]


def _parts(c):
    """(a, b) of c = a + b sqrt(2), for c rational or in Q(sqrt(2))."""
    return (c.a, c.b) if isinstance(c, QuadExt) else (Fraction(c), Fraction(0))


def _combination(vectors, coefficients):
    """sum c_i v_i over Q(sqrt(2)) for rational v_i: the a and b parts of
    the c_i sum separately."""
    parts = [_parts(c) for c in coefficients]
    return OffsetVector(tuple(
        QuadExt(sum(a * v[i] for (a, _), v in zip(parts, vectors)),
                sum(b * v[i] for (_, b), v in zip(parts, vectors)), 2)
        for i in range(4)
    ))


@pytest.mark.parametrize("support", _FINITE_SUPPORTS)
def test_span_rule_certifies_irrational_combinations_of_the_finite_basis(support):
    # c1 / c2 is irrational in each pair, so R and I span span(n1, n2)
    coefficients = [(1, _SQRT2), (QuadExt(1, 1, 2), Fraction(-2, 3)),
                    (QuadExt(3, -1, 2), QuadExt(1, 2, 2))]
    for points in ([(2, 3)], [(1, 2), (3, 5)], [(4, 1), (1, 6)]):
        desc = SetDescriptor.finite(points, GLOBAL_ANALYTIC)
        basis = finite_parts(support, points)
        for c in coefficients:
            assert check_analytic(_combination(basis, c), support, desc) is True


def test_span_rule_refuses_witnesses_that_do_not_span_the_pattern_space():
    terms = engine._ratio_terms(S123, 7)
    single = SetDescriptor.finite([(2, 3)], GLOBAL_ANALYTIC)
    pair = SetDescriptor.finite([(1, 2), (3, 5)], GLOBAL_ANALYTIC)
    zero = OffsetVector.of(0, 0, 0, 0)
    for desc in (single, pair):
        basis = finite_parts(S123, desc.points)
        assert check_analytic(_combination(basis, (1, _SQRT2)), S123, desc) is True
        # a rational ratio c1 / c2: the parts span one line of the plane,
        # and when c1, c2 are both rational (or both in sqrt(2) Q) the
        # irrational (or rational) part is zero
        for c in ((1, 2), (_SQRT2, QuadExt(0, 3, 2)), (QuadExt(1, 1, 2), QuadExt(-2, -2, 2))):
            assert check_analytic(_combination(basis, c), S123, desc) is False
        assert check_analytic(zero, S123, desc) is False
    # n3 of the singleton's rows has x4 = 1, outside the pattern space
    n1, n2, n3 = linalg.nullspace(membership_rows(terms, [(2, 3)]))
    assert n3[3] == 1
    assert check_analytic(_combination((n1, n2, n3), (1, _SQRT2, 1)), S123, single) is False
    # two points in one column or row, and three points, are never proved
    for points in ([(2, 3), (2, 5)], [(1, 4), (3, 4)], [(1, 2), (3, 5), (4, 7)]):
        basis = linalg.nullspace(membership_rows(terms, points))
        x = _combination(basis[:2], (1, _SQRT2)[:len(basis)])
        desc = SetDescriptor.finite(points, GLOBAL_ANALYTIC)
        assert check_analytic(x, S123, desc) is False
    for points in ([], [(1, 2), (3, 5), (4, 7)]):
        with pytest.raises(ValueError, match="one or two points"):
            finite_parts(S123, points)


def test_span_rule_uses_no_per_cell_oracle_or_field_arithmetic():
    # the span rule decides every offset claim with integer ranks, and a
    # lattice union by the column law on the 2x2 box; the patterns and
    # the finite basis come from the integer (P_j, Q_j)
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    forbidden = {"exact_sign", "as_exact", "condition_lhs", "QuadExt", "ASequence"}
    reached = reachable(tree, "check_analytic")
    assert {"finite_parts", "shape_offsets", "rank", "_parity_classes"} <= reached
    assert not forbidden & reached
    for name in ("finite_parts", "shape_offsets"):
        reached = reachable(tree, name)
        assert "_ratio_terms" in reached, name
        assert not forbidden & reached, name
    # the guard sees a reference through a helper
    planted = ast.parse(
        "def check_analytic(x):\n    return h(x)\n"
        "def h(x):\n    return as_exact(x)\n"
    )
    assert "as_exact" in reachable(planted, "check_analytic")


def test_shape_offsets_refuses_supports_that_cannot_carry_the_shape():
    sym, general = Support3.symmetric(1), Support3.from_values(-1, 1, 2)
    assert shape_offsets(SetDescriptor.finite([(1, 1)], GLOBAL_ANALYTIC), S123) is None
    assert shape_offsets(SetDescriptor.lattice_union(["ee"]), sym) is None
    assert shape_offsets(SetDescriptor.empty(), sym) == OffsetVector.of(1, 0, 0, 0)
    for desc in (SetDescriptor.diagonal(), SetDescriptor.vline(2),
                 SetDescriptor.hline(2), SetDescriptor.cross(1, 2)):
        for support in (sym, general):
            with pytest.raises(IncompatibleDescriptor):
                shape_offsets(desc, support)
    for desc in (SetDescriptor.antidiagonal(4), SetDescriptor.slopeline(2)):
        with pytest.raises(IncompatibleDescriptor):
            shape_offsets(desc, S123)
    # with b = -c the empty pattern's condition (b^j - c^j)(b^k - c^k)
    # vanishes at every even order; a = -c leaves it nonzero
    for pts in ((-2, -1, 1), (Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 3))):
        with pytest.raises(IncompatibleDescriptor):
            shape_offsets(SetDescriptor.empty(), Support3.from_values(*pts))
    empty_on = Support3.from_values(-2, 1, 2)
    assert shape_offsets(SetDescriptor.empty(), empty_on) == OffsetVector.of(1, 0, 0, 0)


def test_check_analytic_support_compatibility():
    sym = Support3.symmetric(2)
    with pytest.raises(IncompatibleDescriptor):
        check_analytic(OffsetVector.of(0, 1, -1, 0), sym, SetDescriptor.diagonal())
    with pytest.raises(IncompatibleDescriptor):
        check_analytic(
            OffsetVector.of(0, 0, 0, 1), S123, SetDescriptor.antidiagonal(4)
        )
    with pytest.raises(IncompatibleDescriptor):
        check_analytic(
            OffsetVector.of(0, 1, -1, 0), S123, SetDescriptor.lattice_union(["oo"])
        )
    with pytest.raises(IncompatibleDescriptor):
        check_analytic(
            OffsetVector.of(1, 0, 0, 0), Support3.from_values(-2, -1, 1),
            SetDescriptor.empty(),
        )
    # the support is checked before the points: a claim no points could
    # make true is still refused on the support, not judged False
    for points in ([(1, 1)], [(2, 3), (2, 5)], [(1, 2), (3, 5), (4, 7)]):
        for support in (sym, Support3.from_values(-3, 1, 2)):
            with pytest.raises(IncompatibleDescriptor):
                check_analytic(
                    OffsetVector.of(0, 1, 1, 0), support,
                    SetDescriptor.finite(points, GLOBAL_ANALYTIC),
                )


def test_classify_symmetric_single_class():
    sym = Support3.symmetric(1)
    x = rescale(OffsetVector.of(0, 1, 1, 0))
    t = table_from_offsets(x, sym, sym)
    d = classify_symmetric(t)
    assert d.kind == "lattice-union"
    assert d.lattices == ("ee",)
    pts = enumerate_box_offsets(x, sym, 6, 6)
    assert set(pts) == d.points_in_box(6, 6)


def _planted_parity_offsets(rng):
    """Random Q(sqrt(2)) offsets on (-v, 0, v) whose set holds a random
    subset of the parity classes: the inverse of the class values
    (x1, x1 + 2 x3, x1 + 2 x2, x1 + 2 x2 + 2 x3 + 4 x4) at ee, eo, oe, oo."""
    def scalar():
        return QuadExt(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                       Fraction(rng.randint(-6, 6), rng.randint(1, 4)), 2)

    def inverse(ee, eo, oe, oo):
        return ee, (oe - ee) / 2, (eo - ee) / 2, (oo - oe - eo + ee) / 4

    values = [_parts(Fraction(0) if rng.random() < 0.5 else scalar()) for _ in range(4)]
    # the map is rational, so the a and b parts go through it separately
    rat = inverse(*(a for a, _ in values))
    irr = inverse(*(b for _, b in values))
    return OffsetVector(tuple(QuadExt(a, b, 2) for a, b in zip(rat, irr)))


@pytest.mark.parametrize("v", [1, 2, Fraction(1, 3), Fraction(7, 2)])
def test_parity_classes_match_the_deviation_form_at_the_representatives(v):
    sym, rng = Support3.symmetric(v), random.Random(32)
    for _ in range(60):
        x = _planted_parity_offsets(rng)
        want = [name for name in LATTICE_NAMES
                if offsets_delta(x, sym, sym, *engine._LATTICE_START[name]) == 0]
        assert engine._parity_classes(x, sym) == want, x
        desc = SetDescriptor.lattice_union(want)
        if desc.kind == "lattice-union":
            assert check_analytic(x, sym, desc) is True


def test_parity_classes_read_neither_the_moment_route_nor_a_per_cell_oracle():
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    others = {
        "condition_lhs",
        "offsets_delta",
        "ASequence",
        "exact_sign",
        "as_exact",
        "deviations",
        "moment",
        "_moment_cells",
        "is_uncorrelated",
        "enumerate_box_table",
        "entries",
    }
    reached = reachable(tree, "_parity_classes")
    assert {"_solve_columns", "_ratio_terms"} <= reached
    assert not others & reached


def test_classify_symmetric_rejects_other_supports():
    t = table_from_offsets(rescale(OffsetVector.of(0, 1, -1, 0)), S123, S123)
    with pytest.raises(IncompatibleDescriptor):
        classify_symmetric(t)


class _BrokenTable:
    """Raw probability grid that skips JointTable validation."""

    def __init__(self, entries, support):
        self.entries = entries
        self.support_x = support
        self.support_y = support


def test_classify_symmetric_detects_inconsistency():
    sym = Support3.symmetric(1)
    ninth = Fraction(1, 9)
    entries = [[ninth] * 3 for _ in range(3)]
    entries[0][0] = ninth + ninth  # breaks the marginals, not the sign checks
    broken = _BrokenTable(tuple(tuple(r) for r in entries), sym)
    with pytest.raises(LatticeInconsistent):
        classify_symmetric(broken)


def test_structural_invariants_helpers():
    # a partial column, a partial row, and a cross with a point off it
    # break the shape law
    assert obeys_shape_law([(1, 1), (1, 2), (1, 3)], 3, 3)
    assert not obeys_shape_law([(1, 1), (1, 2)], 3, 3)
    assert not obeys_shape_law([(1, 2), (3, 2)], 3, 3)

    cross = {(2, k) for k in (1, 2, 3)} | {(j, 2) for j in (1, 2, 3)}
    assert obeys_shape_law(cross, 3, 3)
    assert not obeys_shape_law(cross | {(1, 1)}, 3, 3)
    full = {(j, k) for j in (1, 2, 3) for k in (1, 2, 3)}
    assert obeys_shape_law(full, 3, 3)
    # the third shape: at most one point in each row and each column
    assert obeys_shape_law([], 3, 3)
    assert obeys_shape_law([(1, 2), (2, 3), (3, 1)], 3, 3)
    assert not obeys_shape_law([(1, 2), (2, 2), (3, 1)], 3, 3)


def test_enumerated_sets_respect_invariants():
    rng = random.Random(13)
    for _ in range(25):
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(4)]
        x = OffsetVector.of(*vals)
        pts = enumerate_box_offsets(x, S123, 7, 7)
        assert obeys_shape_law(pts, 7, 7)
        flipped = enumerate_box_offsets(x.transpose(), S123, 7, 7)
        assert sorted(flipped) == sorted((k, j) for j, k in pts)


def test_witness_documents():
    x = OffsetVector.of(0, 1, -1, 0)
    doc = make_diagonal(S123).to_json()
    x2, s2, d2 = witness_from_json(doc)
    assert x2 == x and s2 == S123 and d2 == SetDescriptor.diagonal()
    assert doc["name"] == "diagonal"
    with pytest.raises(ValueError):
        witness_from_json({"schema": "something/else"})
