"""Acceptance gate: one test per shipped guarantee, one console line each.

The seven criteria cover, in order: agreement of the two membership
routes, exactness of every golden construction, the determinant
identities, the threshold and near-line slope behaviour, the
independence certificate for four collinear orders, the parity
classification on symmetric supports, and the structural invariants
every uncorrelatedness set must obey.  Each test builds its criterion's
inputs and calls the matching section of ``uncorrsets.selftest``, which
holds the checks; ``uncorrsets selftest`` runs the same sections on
smaller inputs.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from uncorrsets import selftest
from uncorrsets.constructions import (
    MODE_AT_OR_ABOVE,
    SlopeLineParams,
    make_antidiagonal,
    make_cross,
    make_diagonal,
    make_empty,
    make_hline,
    make_singleton,
    make_slopeline,
    make_two_point,
    make_vline,
)
from uncorrsets.model import BetaSupport, OffsetVector, Support3

S123 = Support3.from_values(1, 2, 3)
GEO = BetaSupport(1, 2)


def _report(capsys, num: int, section, limits_ok: bool = True, extra: str = ""):
    ok = section.ok and limits_ok
    detail = f"{section.label}, {len(section.problems)} failures{extra}"
    with capsys.disabled():
        print(f"criterion {num}: {'pass' if ok else 'fail'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}; problems: {section.problems}"


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


def _golden_runs():
    """Each golden construction with its exact set in the 16x16 box."""
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
    return runs


def test_criterion_1_route_agreement(capsys):
    started = time.perf_counter()
    rng = random.Random(101)
    supports = [_random_positive_support(rng) for _ in range(20)]
    pairs = [(s, _random_offsets(rng)) for s in supports for _ in range(10)]
    # random offsets vanish on no cell; the golden witnesses give both
    # routes members to agree on
    pairs += [(built.support, built.x) for built, _ in _golden_runs()]
    section = selftest.route_agreement(pairs, 10)
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        1,
        section,
        section.checked >= 200 and elapsed < 60,
        f", {elapsed:.1f}s",
    )


def test_criterion_2_golden_constructions(capsys):
    _report(capsys, 2, selftest.golden_witnesses(_golden_runs(), 16))


def test_criterion_3_determinant_identities(capsys):
    started = time.perf_counter()
    f_pairs = [(m, n) for m in range(2, 8) for n in range(m + 1, 8)]
    g_pairs = [(m, n) for m in range(1, 7) for n in range(m + 1, 7)]
    rng = random.Random(103)
    samples = [
        ((9, 10), [Fraction(rng.randint(1, 100), rng.randint(1, 5)) for _ in range(4)])
        for _ in range(100)
    ]
    section = selftest.determinant_identities(f_pairs, g_pairs, samples)
    elapsed = time.perf_counter() - started
    _report(capsys, 3, section, elapsed < 120, f", {elapsed:.1f}s")


def test_criterion_4_slope_line_threshold(capsys):
    _report(capsys, 4, selftest.slope_line_threshold(12, Fraction(1, 10**9)))


def test_criterion_5_independence_certificate(capsys):
    section = selftest.independence([(1, 2), (2, 4), (3, 6), (4, 8)], GEO)
    _report(capsys, 5, section)


def test_criterion_6_parity_classification(capsys):
    names = ("ee", "eo", "oe", "oo")
    cases = list(combinations(names, 1)) + list(combinations(names, 2))
    _report(capsys, 6, selftest.parity_classes(cases, 16))


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
    pairs = [(built.support, built.x) for built in witnesses]
    _report(capsys, 7, selftest.structural_invariants(pairs, 9))
