from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import ceil, floor

import pytest

from uncorrsets import constructions, polynomials
from uncorrsets.constructions import (
    AlgebraicSlopeLine,
    BetaTooSmall,
    DEFAULT_WIDTH,
    MODE_AT_OR_ABOVE,
    MODE_BETA_STAR,
    SlopeLineParams,
    beta0,
    beta0_poly,
    beta_star,
    beta_star_poly,
    make_antidiagonal,
    make_cross,
    make_diagonal,
    make_empty,
    make_full,
    make_hline,
    make_lattice_union,
    make_singleton,
    make_slopeline,
    make_two_point,
    make_vline,
    slopeline_beta_star,
    slopeline_d_poly,
)
from uncorrsets.engine import (
    MATCH,
    classify_symmetric,
    enumerate_box_offsets,
    verify_claim,
)
from uncorrsets.model import (
    BetaSupport,
    Support3,
    rescale,
    table_from_offsets,
)
from uncorrsets.polynomials import (
    IntPoly,
    _enclosure,
    _scaled_powers,
    isolate_root,
    sturm_root_count,
)
from uncorrsets.slopeline import slopeline_d_terms, slopeline_y_polys

S123 = Support3.from_values(1, 2, 3)
GEO = BetaSupport(1, 2)


def _assert_certified(construction, jmax=16, kmax=16):
    report = verify_claim(
        construction.x, construction.support, construction.descriptor, jmax, kmax
    )
    assert report.verdict == MATCH, report.to_json()
    assert report.analytic_ok is True


def test_elementary_golden_sets():
    _assert_certified(make_empty(S123))
    _assert_certified(make_full(S123))
    _assert_certified(make_diagonal(S123))
    _assert_certified(make_diagonal(GEO))
    for i in (1, 2, 3):
        _assert_certified(make_vline(S123, i))
        _assert_certified(make_hline(S123, i))
    _assert_certified(make_cross(S123, 2, 3))
    _assert_certified(make_cross(GEO, 1, 4))


def test_singleton_golden_sets():
    for point in ((1, 1), (2, 3), (5, 7)):
        _assert_certified(make_singleton(S123, *point))
        _assert_certified(make_singleton(GEO, *point))


def test_two_point_golden_sets():
    for pair in (((1, 2), (2, 1)), ((2, 5), (4, 3))):
        _assert_certified(make_two_point(S123, *pair))
        _assert_certified(make_two_point(GEO, *pair))


def test_two_point_rejects_shared_lines():
    with pytest.raises(ValueError, match="two distinct points"):
        make_two_point(S123, (2, 3), (2, 3))
    with pytest.raises(ValueError, match="share a row or column"):
        make_two_point(S123, (2, 3), (2, 5))
    with pytest.raises(ValueError, match="share a row or column"):
        make_two_point(S123, (1, 4), (3, 4))


def test_antidiagonal_golden_sets():
    for m in (2, 4, 7):
        _assert_certified(make_antidiagonal(GEO, m), 12, 12)
    bumpy = BetaSupport(Fraction(1, 3), Fraction(5, 2))
    _assert_certified(make_antidiagonal(bumpy, 3), 12, 12)
    with pytest.raises(ValueError):
        make_antidiagonal(GEO, 1)


def test_antidiagonal_y_shape():
    c = make_antidiagonal(GEO, 5)
    assert c.y.y == (32, 0, 0, -1)
    doc = c.to_json()
    assert doc["y"] == ["32", "0", "0", "-1"]


def test_threshold_root_m2_matches_decimal_oracle():
    lo, hi = beta0(2)
    # the root of B^3 - B^2 - B - 1 is 1.83928675521416113255...
    assert hi - lo <= Fraction(1, 10**12)
    assert lo < Fraction("1.8392867552141612")
    assert hi > Fraction("1.8392867552141611")
    p = beta0_poly(2)
    assert p(lo) < 0 < p(hi)


def test_threshold_root_brackets_for_higher_slopes():
    for m in (3, 4, 6):
        p = beta0_poly(m)
        lo, hi = beta0(m, Fraction(1, 10**9))
        assert 1 < lo < hi < 2
        assert p(lo) < 0 < p(hi)
        assert hi - lo <= Fraction(1, 10**9)
    with pytest.raises(ValueError):
        beta0_poly(1)


def test_near_line_polynomial_shape():
    p = beta_star_poly(2, 9)
    assert p.coeffs == (0, 0, 0, 0, 0, -1, 1, 1, 1, -1, -1, -1, 1)
    for m, k in ((2, 9), (2, 12), (3, 13), (4, 17), (5, 21)):
        q = beta_star_poly(m, k)
        assert q(1) == 0
        assert q.derivative()(1) == 8 * m - 2 * k
    with pytest.raises(ValueError):
        beta_star_poly(2, 8)


def test_near_line_root_m2_k9():
    lo, hi = beta_star(2, 9)
    assert hi - lo <= Fraction(1, 10**12)
    assert lo < Fraction("1.5823471837")
    assert hi > Fraction("1.5823471836")
    p = beta_star_poly(2, 9)
    assert p(lo) < 0 < p(hi)
    # the whole interval sits strictly below the threshold root
    assert beta0_poly(2)(hi) < 0


def test_beta0_bracket_is_isolated_once_per_slope(monkeypatch):
    widths = []

    def counting(p, lo, hi, width):
        widths.append(width)
        return isolate_root(p, lo, hi, width)

    monkeypatch.setattr(constructions, "isolate_root", counting)
    constructions._beta0_upper.cache_clear()
    first = slopeline_beta_star(2, 9)
    assert Fraction(1, 2**20) in widths
    widths.clear()
    slopeline_beta_star(2, 10)
    assert widths and Fraction(1, 2**20) not in widths
    assert first.interval == slopeline_beta_star(2, 9).interval


@pytest.mark.parametrize("width", [0, -1])
def test_root_isolation_rejects_nonpositive_width(width):
    with pytest.raises(ValueError, match="width must be positive"):
        beta0(2, width)
    with pytest.raises(ValueError, match="width must be positive"):
        beta_star(2, 9, width)


def _uncertified_interval(m, k, width):
    """The near-line interval before ``root_count`` certifies it: the
    first 1 + 2^-i below beta0's upper end where P < 0, narrowed to the
    width, then halved until its upper end is below beta0."""
    p, threshold = beta_star_poly(m, k), beta0_poly(m)
    hi0 = constructions._beta0_upper(m)
    walk = (1 + Fraction(1, 2**i) for i in range(1, 65))
    lo = next(lo for lo in walk if lo < hi0 and p.sign_at(lo) < 0)
    lo, hi = isolate_root(p, lo, hi0, width)
    while lo < hi and threshold.sign_at(hi) >= 0:
        lo, hi = isolate_root(p, lo, hi, (hi - lo) / 2)
    return lo, hi


def _refusal(f, *args):
    """The type and message of the ValueError that f(*args) raises."""
    with pytest.raises(ValueError) as info:
        f(*args)
    return info.type, str(info.value)


NEAR_LINE_WIDTHS = [Fraction(1, 10**12), Fraction(1, 50), Fraction(1, 4),
                    Fraction(3, 7), Fraction(1, 10**100)]


@pytest.mark.parametrize("m", range(2, 7))
def test_beta_star_is_the_certified_interval(m):
    # beta_star is slopeline_beta_star's interval; on these 120 lines per
    # slope the certificate narrows nothing, so it is also the interval
    # that beta_star gave before it was certified
    for k in range(4 * m + 1, 4 * m + 25):
        for width in NEAR_LINE_WIDTHS:
            got = beta_star(m, k, width)
            assert got == slopeline_beta_star(m, k, width).interval
            assert got == _uncertified_interval(m, k, width)
    # a column at 4m, a width that is not positive, a column above the cap
    # and a slope below 2 are refused alike
    for mm, k, width in ((m, 4 * m, DEFAULT_WIDTH), (m, 4 * m + 1, 0),
                         (m, 4 * m + 1, -1), (m, 65, 1), (1, 9, DEFAULT_WIDTH)):
        assert _refusal(beta_star, mm, k, width) == _refusal(
            slopeline_beta_star, mm, k, width)


def test_difference_polynomial_factorizations():
    b2_minus_1 = IntPoly([-1, 0, 1])
    b_minus_1 = IntPoly([-1, 1])
    for m in (2, 3, 5):
        for i in (1, 2, 3):
            assert slopeline_d_poly(m, i, m * i).is_zero
        for k in (1, m + 1, 3 * m + 2):
            d1 = slopeline_d_poly(m, 1, k)
            want = b2_minus_1 * IntPoly.monomial(m + 1) * (
                IntPoly.monomial(k) - IntPoly.monomial(m)
            )
            assert d1 == want
            d2 = slopeline_d_poly(m, 2, k)
            want = (
                IntPoly.monomial(2)
                * b_minus_1
                * (IntPoly.monomial(m) + IntPoly([1]))
                * (IntPoly.monomial(k) - IntPoly.monomial(2 * m))
            )
            assert d2 == want
            d3 = slopeline_d_poly(m, 3, k)
            want = (
                IntPoly.monomial(2)
                * b2_minus_1
                * (IntPoly.monomial(k) - IntPoly.monomial(3 * m))
            )
            assert d3 == want
    # at j = 4 the difference matches the near-line polynomial up to
    # the factor (1 - B) B^2, which is how the fourth point appears
    for m, k in ((2, 9), (2, 12), (3, 13)):
        d4 = slopeline_d_poly(m, 4, k)
        lift = IntPoly([1, -1]) * IntPoly.monomial(2) * beta_star_poly(m, k)
        assert d4 == lift


def test_slopeline_at_rational_ratio():
    c = make_slopeline(SlopeLineParams(m=2, mode=MODE_AT_OR_ABOVE, beta=2))
    assert c.support == GEO
    assert c.y.y == (128, -112, 28, -2)
    report = verify_claim(c.x, c.support, c.descriptor, 12, 12)
    assert report.verdict == MATCH
    assert report.analytic_ok is True
    assert set(report.found) == {(1, 2), (2, 4), (3, 6)}
    # bigger slopes and ratios work the same way
    c = make_slopeline(SlopeLineParams(m=3, mode=MODE_AT_OR_ABOVE, beta=Fraction(5, 2)))
    report = verify_claim(c.x, c.support, c.descriptor, 12, 12)
    assert report.verdict == MATCH
    assert set(report.found) == {(1, 3), (2, 6), (3, 9)}


def test_slopeline_rejects_small_ratio():
    with pytest.raises(BetaTooSmall) as info:
        make_slopeline(SlopeLineParams(m=2, mode=MODE_AT_OR_ABOVE, beta=Fraction(9, 5)))
    assert "threshold root" in str(info.value)


def test_slopeline_params_validation():
    with pytest.raises(ValueError, match="slope must be an integer >= 2"):
        SlopeLineParams(m=1, mode=MODE_AT_OR_ABOVE, beta=2)
    with pytest.raises(ValueError):
        SlopeLineParams(m=2, mode="guess", beta=2)
    with pytest.raises(ValueError):
        SlopeLineParams(m=2, mode=MODE_AT_OR_ABOVE)
    with pytest.raises(ValueError):
        SlopeLineParams(m=2, mode=MODE_BETA_STAR)
    with pytest.raises(ValueError):
        make_slopeline(SlopeLineParams(m=2, mode=MODE_BETA_STAR, k=8))


def test_algebraic_slopeline_m2_k9():
    line = slopeline_beta_star(2, 9)
    assert sturm_root_count(line.poly, *line.interval) == 1
    assert line.contains(1, 2)
    assert line.contains(4, 9)
    assert not line.contains(4, 8)
    assert not line.contains(1, 3)
    assert line.enumerate_box(12, 12) == [(1, 2), (2, 4), (3, 6), (4, 9)]
    assert line.descriptor().points == ((1, 2), (2, 4), (3, 6), (4, 9))
    again = AlgebraicSlopeLine.from_json(line.to_json())
    assert again == line


def test_algebraic_slopeline_other_orders():
    line = slopeline_beta_star(3, 14)
    pts = line.enumerate_box(14, 14)
    assert pts == [(1, 3), (2, 6), (3, 9), (4, 14)]


def test_algebraic_slopeline_m4_k17_holds_a_fifth_point():
    # P(4, 17) divides D(5, 28), so beta*(4, 17) puts (5, 28) on the set
    # too; construct's four-point claim does not know it yet
    line = slopeline_beta_star(4, 17)
    assert line.contains(5, 28)
    pts = line.enumerate_box(12, 34)
    assert (5, 28) in pts
    assert pts == [(1, 4), (2, 8), (3, 12), (4, 17), (5, 28)]


def _per_cell(line, jmax, kmax):
    return [
        (j, kk)
        for j in range(1, jmax + 1)
        for kk in range(1, kmax + 1)
        if line.contains(j, kk)
    ]


def _count_exact_tests(monkeypatch):
    counts = Counter()
    contains, gcd = AlgebraicSlopeLine.contains, IntPoly.gcd
    sturm = polynomials.sturm_root_count

    def counted_contains(self, j, kk):
        counts["contains"] += 1
        return contains(self, j, kk)

    def counted_gcd(f, g):
        counts["gcd"] += 1
        return gcd(f, g)

    def counted_sturm(p, lo, hi):
        counts["sturm"] += 1
        return sturm(p, lo, hi)

    monkeypatch.setattr(AlgebraicSlopeLine, "contains", counted_contains)
    monkeypatch.setattr(IntPoly, "gcd", staticmethod(counted_gcd))
    monkeypatch.setattr(polynomials, "sturm_root_count", counted_sturm)
    return counts


# the near-line lines the benchmark's algebraic-line workload builds
WORKLOAD_LINES = [(m, k) for m in (2, 3, 4) for k in range(4 * m + 1, 4 * m + 13)]


def _fraction_hull_candidates(line, jmax, kmax):
    """How many cells the filter of ``enumerate_box`` should send to the
    exact test, by the rule written in Fractions: per column, the kk whose
    [lo^kk, hi^kk] meets the hull of the four quotients -c0/c1 of the
    enclosure ends, found by bisection over the Fraction powers; the whole
    column when the enclosure of c1 holds 0.  Also a count of the columns
    whose c1 enclosure lies below 0, and of those where c0's reaches above
    0, so that some quotients are positive."""
    lo, hi = line.interval
    lo_powers = [lo**kk for kk in range(1, kmax + 1)]
    hi_powers = [hi**kk for kk in range(1, kmax + 1)]
    lo_scaled, hi_scaled = _scaled_powers(lo, hi, jmax + 3 * line.m + 1)
    total, columns = 0, Counter()
    for j in range(1, jmax + 1):
        c0, c1 = slopeline_d_terms(line.m, j)
        a1, b1 = _enclosure(c1, lo_scaled, hi_scaled)
        if a1 <= 0 <= b1:
            total += kmax
            continue
        a0, b0 = _enclosure(c0, lo_scaled, hi_scaled)
        columns["c1 < 0"] += b1 < 0
        columns["c1 < 0 < c0"] += b1 < 0 < b0
        quotients = [Fraction(-c, dd) for c in (a0, b0) for dd in (a1, b1)]
        first = bisect_left(hi_powers, min(quotients)) + 1
        last = bisect_right(lo_powers, max(quotients))
        total += max(0, last - first + 1)
    return total, columns


@pytest.mark.parametrize("m", [2, 3, 4])
def test_algebraic_enumeration_matches_the_per_cell_loop(m, monkeypatch):
    counts = _count_exact_tests(monkeypatch)
    coarse = Counter()
    for k in range(4 * m + 1, 4 * m + 13):
        line = slopeline_beta_star(m, k)
        want = _per_cell(line, 12, 12)
        counts.clear()
        assert line.enumerate_box(12, 12) == want
        filtered = dict(counts)
        # the exact work is that of testing the members alone
        counts.clear()
        for j, kk in want:
            assert line.contains(j, kk)
        assert filtered == dict(counts) and counts["contains"] == len(want)
        # every certified interval isolates the same root, so the set does
        # not depend on the width; coarse ones let non-members through the
        # filter, and at 1/4 some columns go whole to the exact test
        for width in (Fraction(1, 50), Fraction(1, 4)):
            counts.clear()
            assert slopeline_beta_star(m, k, width).enumerate_box(12, 12) == want
            coarse["contains"] += counts["contains"]
            coarse["members"] += len(want)
    assert coarse["contains"] > coarse["members"]


@pytest.mark.parametrize("m, k", [(2, 9), (3, 17), (4, 25)])
@pytest.mark.parametrize("lo_den, hi_den", [(3**30, 3**30), (3**30, 7**17)])
def test_algebraic_enumeration_on_a_non_dyadic_interval(
    m, k, lo_den, hi_den, monkeypatch
):
    # the enclosures run over one common denominator of both ends; a
    # wrong one shows on ends whose denominators are no power of 2 and
    # differ from each other
    built = slopeline_beta_star(m, k)
    lo, hi = built.interval
    interval = (
        Fraction(floor(lo * lo_den), lo_den),
        Fraction(ceil(hi * hi_den), hi_den),
    )
    assert all(q.denominator % 2 for q in interval)
    line = AlgebraicSlopeLine(m, k, built.poly, interval)
    line.certify()
    counts = _count_exact_tests(monkeypatch)
    want = _per_cell(line, 12, 2 * k)
    assert want == built.enumerate_box(12, 2 * k)
    counts.clear()
    assert line.enumerate_box(12, 2 * k) == want
    # the wider interval still sends only the members to the exact test
    assert counts["contains"] == len(want)
    assert counts["contains"] == _fraction_hull_candidates(line, 12, 2 * k)[0]


def test_workload_lines_reach_sturm_only_on_coarse_intervals(monkeypatch):
    # at the default width every root count of a build and of a 12 x 2k
    # enumeration is decided by an exact certificate; at width 1/4 some
    # fall back to the Sturm count, and the sets stay those of the
    # per-cell loop
    counts = _count_exact_tests(monkeypatch)
    lines = {mk: slopeline_beta_star(*mk) for mk in WORKLOAD_LINES}
    boxes = {mk: line.enumerate_box(12, 2 * mk[1]) for mk, line in lines.items()}
    assert counts["sturm"] == 0
    for (m, k), line in lines.items():
        coarse = slopeline_beta_star(m, k, Fraction(1, 4))
        assert coarse.enumerate_box(12, 2 * k) == boxes[m, k]
        assert boxes[m, k] == _per_cell(line, 12, 2 * k)
    assert counts["sturm"] > 0


@pytest.mark.parametrize(
    "width", [DEFAULT_WIDTH, Fraction(1, 50), Fraction(1, 4), Fraction(3, 7)]
)
def test_filter_keeps_the_cells_of_the_fraction_hull(width, monkeypatch):
    # the integer bounds of enumerate_box admit exactly the cells of the
    # rule in Fractions, on columns where c1 is positive and where it is
    # negative alike
    lines = [slopeline_beta_star(m, k, width) for m, k in WORKLOAD_LINES]
    counts = _count_exact_tests(monkeypatch)
    columns = Counter()
    for line in lines:
        counts.clear()
        line.enumerate_box(16, 2 * line.k)
        cells, line_columns = _fraction_hull_candidates(line, 16, 2 * line.k)
        assert counts["contains"] == cells
        columns += line_columns
    assert columns["c1 < 0"] > 0


@pytest.mark.parametrize(
    "lo, hi",
    [(Fraction(27, 20), Fraction(729, 500)), (Fraction(11, 8), Fraction(1199, 800))],
)
def test_filter_on_columns_where_c1_is_negative_and_c0_is_not(lo, hi, monkeypatch):
    # on a certified line every column with c1 < 0 also has c0 < 0, so its
    # quotients are negative and no kk is kept; above beta0(5) an interval
    # has columns with c1 < 0 whose quotients reach above 0
    line = AlgebraicSlopeLine(5, 21, beta_star_poly(5, 21), (lo, hi))
    cells, columns = _fraction_hull_candidates(line, 16, 42)
    assert columns["c1 < 0 < c0"] > 0
    counts = _count_exact_tests(monkeypatch)
    want = _per_cell(line, 16, 42)
    counts.clear()
    assert line.enumerate_box(16, 42) == want
    assert counts["contains"] == cells


def test_enclosures_hold_every_value_on_the_interval():
    # B^2 - 2B dips to -1 at B = 1 inside [1/3, 5/2], below both end values
    # (-5/9 and 5/4), so the end values alone are no enclosure
    lo, hi, n = Fraction(1, 3), Fraction(5, 2), 19
    lo_scaled, hi_scaled = _scaled_powers(lo, hi, n)
    scale = 6**n  # the common denominator of the ends, to the n
    assert lo_scaled == [lo**i * scale for i in range(n + 1)]
    assert hi_scaled == [hi**i * scale for i in range(n + 1)]
    parts = [{2: 1, 1: -2}]
    parts += [c for m in (2, 3) for j in (1, 4, 9) for c in slopeline_d_terms(m, j)]
    for terms in parts:
        low, high = _enclosure(terms, lo_scaled, hi_scaled)
        for i in range(13):
            b = lo + (hi - lo) * i / 12
            assert low <= scale * sum(c * b**e for e, c in terms.items()) <= high


def test_algebraic_enumeration_needs_an_interval_above_one():
    line = AlgebraicSlopeLine(
        m=2, k=9, poly=beta_star_poly(2, 9), interval=(Fraction(1, 2), Fraction(2))
    )
    with pytest.raises(ValueError, match="1 < lo < hi"):
        line.enumerate_box(4, 4)


def test_beta_star_construction_bundles_algebraic_data():
    c = make_slopeline(SlopeLineParams(m=2, mode=MODE_BETA_STAR, k=9))
    assert c.x is None and c.support is None
    assert c.algebraic is not None
    doc = c.to_json()
    assert doc["algebraic"]["m"] == 2
    assert doc["algebraic"]["k"] == 9
    assert "interval" in doc["algebraic"]


def test_all_sixteen_parity_unions():
    names = ("ee", "eo", "oe", "oo")
    subsets = [()]
    for r in (1, 2, 3, 4):
        subsets.extend(combinations(names, r))
    for subset in subsets:
        c = make_lattice_union(1, subset)
        pts = enumerate_box_offsets(c.x, c.support, 6, 6)
        assert set(pts) == c.descriptor.points_in_box(6, 6)
        report = verify_claim(c.x, c.support, c.descriptor, 6, 6)
        assert report.verdict == MATCH
        assert report.analytic_ok is True
        if not c.x.is_zero:
            table = table_from_offsets(rescale(c.x), c.support, c.support)
            assert classify_symmetric(table) == c.descriptor
