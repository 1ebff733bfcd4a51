"""Acceptance gate: one test per shipped guarantee, one console line each.

The seven criteria cover, in order: agreement of the two membership
routes, exactness of every golden construction, the determinant
identities, the threshold and near-line slope behaviour, the
independence certificate for four collinear orders, the parity
classification on symmetric supports, and the structural invariants
every uncorrelatedness set must obey.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from uncorrsets.constructions import (
    MODE_AT_OR_ABOVE,
    SlopeLineParams,
    beta0,
    beta0_poly,
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
from uncorrsets.determinants import (
    f_check,
    f_closed,
    f_direct,
    g_check,
    g_closed,
    g_direct,
    independence_certificate,
    vandermonde_factor,
)
from uncorrsets.engine import (
    ASequence,
    MATCH,
    classify_symmetric,
    column_closure_violations,
    condition_lhs,
    cross_maximality_violations,
    enumerate_box_offsets,
    is_uncorrelated,
    verify_claim,
)
from uncorrsets.model import (
    BetaSupport,
    JointTable,
    OffsetVector,
    Support3,
    rescale,
    table_from_offsets,
)

S123 = Support3.from_values(1, 2, 3)
GEO = BetaSupport(1, 2)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'pass' if ok else 'fail'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_positive_support(rng: random.Random) -> Support3:
    while True:
        pts = sorted(
            {Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(3)}
        )
        if len(pts) == 3:
            return Support3.from_values(*pts)


def _random_offsets(rng: random.Random) -> OffsetVector:
    while True:
        x = OffsetVector.of(
            *(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4))
        )
        if not x.is_zero:
            return x


def test_criterion_1_route_agreement(capsys):
    started = time.perf_counter()
    rng = random.Random(101)
    supports = [_random_positive_support(rng) for _ in range(20)]
    vectors = 0
    mismatches = []
    for support in supports:
        seq = ASequence(support)
        for _ in range(10):
            x = rescale(_random_offsets(rng))
            vectors += 1
            table = table_from_offsets(x, support, support)
            for j in range(1, 11):
                for k in range(1, 11):
                    by_moments = is_uncorrelated(table, j, k)
                    by_condition = condition_lhs(x, seq, j, k) == 0
                    if by_moments != by_condition:
                        mismatches.append((support.points, x.x, j, k))
    elapsed = time.perf_counter() - started
    ok = not mismatches and vectors >= 200 and elapsed < 60
    _report(
        capsys,
        1,
        ok,
        f"moment route matched the condition route for {vectors} offset "
        f"vectors on {len(supports)} supports over the 10x10 box, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_golden_constructions(capsys):
    box = {(j, k) for j in range(1, 17) for k in range(1, 17)}
    runs = []
    runs.append((make_empty(S123), set()))
    for p in ((1, 1), (2, 3), (5, 7)):
        runs.append((make_singleton(S123, *p), {p}))
    for pair in (((1, 2), (2, 1)), ((2, 5), (4, 3))):
        runs.append((make_two_point(S123, *pair), set(pair)))
    for i in (1, 2, 3):
        runs.append((make_vline(S123, i), {(i, k) for k in range(1, 17)}))
        runs.append((make_hline(S123, i), {(j, i) for j in range(1, 17)}))
    runs.append(
        (
            make_cross(S123, 2, 3),
            {(2, k) for k in range(1, 17)} | {(j, 3) for j in range(1, 17)},
        )
    )
    runs.append((make_diagonal(S123), {(i, i) for i in range(1, 17)}))
    for m in (2, 4, 7):
        runs.append(
            (make_antidiagonal(GEO, m), {(j, k) for j, k in box if j + k == m})
        )
    failures = []
    for built, expected in runs:
        report = verify_claim(built.x, built.support, built.descriptor, 16, 16)
        if (
            report.verdict != MATCH
            or set(report.found) != expected
            or report.analytic_ok is not True
        ):
            failures.append((built.name, report.to_json()))
    _report(
        capsys,
        2,
        not failures,
        f"{len(runs)} golden constructions reproduced exactly in the 16x16 "
        f"box, {len(failures)} failures",
    )


def test_criterion_3_determinant_identities(capsys):
    started = time.perf_counter()
    bad = []
    f_pairs = [(m, n) for m in range(2, 8) for n in range(m + 1, 8)]
    for m, n in f_pairs:
        if not f_check(m, n).equal:
            bad.append(("f", m, n))
    g_pairs = [(m, n) for m in range(1, 7) for n in range(m + 1, 7)]
    for m, n in g_pairs:
        if not g_check(m, n).equal:
            bad.append(("g", m, n))
    if not (f_direct(1, 6).is_zero and f_closed(1, 6).is_zero):
        bad.append(("f degenerate", 1, 6))
    if f_closed(2, 3) != vandermonde_factor() or g_closed(1, 2) != vandermonde_factor():
        bad.append(("vandermonde base case", 0, 0))
    fd, fc = f_direct(9, 10), f_closed(9, 10)
    gd, gc = g_direct(9, 10), g_closed(9, 10)
    rng = random.Random(103)
    points = 0
    for _ in range(100):
        pt = [Fraction(rng.randint(1, 100), rng.randint(1, 5)) for _ in range(4)]
        points += 1
        if fd.evaluate(pt) != fc.evaluate(pt) or gd.evaluate(pt) != gc.evaluate(pt):
            bad.append(("point", tuple(pt), 0))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 120
    _report(
        capsys,
        3,
        ok,
        f"{len(f_pairs)} + {len(g_pairs)} symbolic identities, degenerate "
        f"cases, and {points}-point agreement at orders (9, 10), "
        f"{len(bad)} failures, {elapsed:.1f}s",
    )


def test_criterion_4_slope_line_threshold(capsys):
    problems = []
    lo, hi = beta0(2, Fraction(1, 10**9))
    p = beta0_poly(2)
    if not (1 < lo < hi < 2 and hi - lo <= Fraction(1, 10**9)):
        problems.append(f"interval ({lo}, {hi}) malformed")
    if not (p(lo) < 0 < p(hi)):
        problems.append("interval does not bracket the threshold root")
    if not (lo < Fraction("1.8392867553") and hi > Fraction("1.8392867552")):
        problems.append("interval misses 1.8392867552...")

    c = make_slopeline(SlopeLineParams(m=2, mode=MODE_AT_OR_ABOVE, beta=2))
    found = set(enumerate_box_offsets(c.x, c.support, 12, 12))
    if found != {(1, 2), (2, 4), (3, 6)}:
        problems.append(f"beta=2 box gave {sorted(found)}")
    negatives = [slopeline_d_poly(2, 4, k)(Fraction(2)) for k in range(1, 13)]
    if not all(v < 0 for v in negatives):
        problems.append("a fourth-row difference failed to stay negative")

    line = slopeline_beta_star(2, 9)
    pts = set(line.enumerate_box(12, 12))
    if not {(1, 2), (2, 4), (3, 6), (4, 9)} <= pts:
        problems.append(f"near-line box lost a required point: {sorted(pts)}")
    if len(pts) == 144:
        problems.append("near-line set degenerated to the full box")
    if not (1 < line.interval[0] and beta0_poly(2)(line.interval[1]) < 0):
        problems.append("near-line ratio is not inside (1, beta0)")
    _report(
        capsys,
        4,
        not problems,
        "threshold interval of width 1e-9, exact three-point set at beta=2, "
        "negative fourth-row differences for k <= 12, and the near-line "
        "four-point set at the algebraic ratio"
        + ("" if not problems else f"; problems: {problems}"),
    )


def test_criterion_5_independence_certificate(capsys):
    cert = independence_certificate([(1, 2), (2, 4), (3, 6), (4, 8)], GEO)
    ok = (
        cert.det_value != 0
        and cert.nullspace_dim == 0
        and cert.cross_checked
        and cert.independent
    )
    _report(
        capsys,
        5,
        ok,
        f"orders (1,2),(2,4),(3,6),(4,8) at ratio 2 give determinant "
        f"{cert.det_value} with nullspace dimension {cert.nullspace_dim}",
    )


def test_criterion_6_parity_classification(capsys):
    sym = Support3.symmetric(1)
    problems = []
    if classify_symmetric(JointTable.independent(sym, sym)).kind != "all":
        problems.append("independence table did not classify as the full grid")
    empty_table = table_from_offsets(rescale(OffsetVector.of(1, 0, 0, 0)), sym, sym)
    if classify_symmetric(empty_table).kind != "empty":
        problems.append("offsets (1,0,0,0) did not classify as empty")
    names = ("ee", "eo", "oe", "oo")
    cases = list(combinations(names, 1)) + list(combinations(names, 2))
    for subset in cases:
        c = make_lattice_union(1, subset)
        table = table_from_offsets(rescale(c.x), c.support, c.support)
        got = classify_symmetric(table)
        if got != c.descriptor:
            problems.append(f"{subset} classified as {got.format_spec()}")
    _report(
        capsys,
        6,
        not problems,
        f"independence and empty tables plus {len(cases)} lattice unions "
        f"classified correctly with consistent probes"
        + ("" if not problems else f"; problems: {problems}"),
    )


def test_criterion_7_structural_invariants(capsys):
    witnesses = [
        make_empty(S123),
        make_diagonal(S123),
        make_vline(S123, 2),
        make_hline(S123, 3),
        make_cross(S123, 2, 3),
        make_singleton(S123, 2, 3),
        make_two_point(S123, (2, 5), (4, 3)),
        make_antidiagonal(GEO, 4),
        make_slopeline(SlopeLineParams(m=2, mode=MODE_AT_OR_ABOVE, beta=2)),
    ]
    problems = []
    rescaled = 0
    for built in witnesses:
        s3 = built.support.to_support3()
        table = table_from_offsets(rescale(built.x), s3, s3)
        rescaled += 1
        for row in table.entries:
            for v in row:
                if not v >= 0:
                    problems.append(f"{built.name}: negative cell {v}")
        pts = enumerate_box_offsets(built.x, built.support, 9, 9)
        flipped = enumerate_box_offsets(built.x.transpose(), built.support, 9, 9)
        if sorted(flipped) != sorted((k, j) for j, k in pts):
            problems.append(f"{built.name}: transposition symmetry broke")
        if column_closure_violations(pts, 9, 9):
            problems.append(f"{built.name}: a partial line appeared")
        if cross_maximality_violations(pts, 9, 9):
            problems.append(f"{built.name}: a non-maximal cross appeared")
    _report(
        capsys,
        7,
        not problems,
        f"{rescaled} witnesses rescaled to valid tables; transposition, "
        f"line closure and cross maximality held on every 9x9 run"
        + ("" if not problems else f"; problems: {problems}"),
    )
