"""Seeded audit of the package's guarantees, one section function each.

A section takes its inputs and returns a ``Section``: the two membership
routes and the per-cell form agree on positive and general supports,
every golden construction reproduces its expected set, the F and G
determinant identities hold, the slope line behaves at and near its
threshold, four collinear orders are independent, parity unions on
symmetric supports classify back to themselves and enumerate as the
per-cell form says, and every enumerated set obeys transposition and
the shape law of positive ordered supports.  ``run`` calls the sections
on seeded inputs at self-test scale; the acceptance tests call the same
sections on their own, larger inputs.  Everything is exact; a single
FAIL means broken arithmetic, not bad luck.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import isqrt

from . import constructions, determinants, engine, linalg, model
from .engine import ASequence, SetDescriptor
from .model import BetaSupport, OffsetVector, Support3, SupportKind
from .numeric import Frozen, QuadExt, setfield
from .polynomials import IntPoly, root_count, sturm_root_count


class Section(Frozen):
    """One audited guarantee: what was checked, on how many inputs, and
    a line per failed check."""

    __slots__ = ("label", "checked", "problems")

    def __init__(self, label: str, checked: int, problems: tuple[str, ...] = ()):
        setfield(self, "label", label)
        setfield(self, "checked", checked)
        setfield(self, "problems", problems)
        setfield(self, "_key", (label, checked, problems))

    @property
    def ok(self) -> bool:
        return not self.problems


def route_agreement(pairs: list, box: int) -> Section:
    """Five sides, for each (support, offsets) pair: the moment route's and
    the condition route's box enumerations on the offsets rescaled into a
    table, as the CLI runs them; the condition route's and the per-cell
    form's on the offsets as given; and the moment route's on a table of
    the offsets times a rational factor.  The per-cell form is the
    condition form on a positive ordered support and the deviation form
    ``offsets_delta`` on any other, where no ``ASequence`` exists.
    ``rescale``'s factor lies in Q(sqrt(d)) and mixes the rational and
    sqrt(d) parts, so only the unscaled and rationally scaled sides show a
    route that drops a part."""
    problems = []
    cells = list(product(range(1, box + 1), repeat=2))
    for support, x in pairs:
        scaled, s3 = model.rescale(x), support.to_support3()
        table = model.table_from_offsets(scaled, s3, s3)
        rational = model.table_from_offsets(x.scaled(_rational_scale(x)), s3, s3)
        if s3.kind is SupportKind.POSITIVE_ORDERED:
            seq = ASequence(support)
            per_cell = {p for p in cells if engine.condition_lhs(x, seq, *p) == 0}
        else:
            per_cell = {p for p in cells if engine.offsets_delta(x, s3, s3, *p) == 0}
        sides = (
            set(engine.enumerate_box_table(table, box, box)),
            set(engine.enumerate_box_offsets(scaled, support, box, box)),
            set(engine.enumerate_box_offsets(x, support, box, box)),
            per_cell,
            set(engine.enumerate_box_table(rational, box, box)),
        )
        for j, k in sorted(set.union(*sides) - set.intersection(*sides)):
            problems.append(f"{s3.points} {x.x} at ({j}, {k})")
    supports = len({support for support, _ in pairs})
    return Section(
        "moment route, box enumeration and per-cell form matched "
        f"for {len(pairs)} offset vectors on {supports} supports over the "
        f"{box}x{box} box, rescaled, unscaled and rationally scaled",
        len(pairs),
        tuple(problems),
    )


def _rational_scale(x: OffsetVector) -> Fraction:
    """A rational factor that keeps every table entry of x in [1/18, 1/6]:
    each deviation a + b sqrt(d) is at most |a| + |b| (isqrt(d) + 1)."""
    bound = Fraction(0)
    for row in x.deviations():
        for dev in row:
            if isinstance(dev, QuadExt):
                dev = abs(dev.a) + abs(dev.b) * (isqrt(dev.d) + 1)
            bound = max(bound, abs(dev))
    return model.NINTH / (2 * bound)


def golden_witnesses(cases: list, box: int) -> Section:
    """Each (construction, expected point set) pair, verified in the box:
    the claim matches with a pattern proof and the points found are
    exactly the expected ones."""
    problems = []
    for built, expected in cases:
        report = built.verify(built.descriptor, box, box)
        if (
            report.verdict != engine.MATCH
            or set(report.found) != expected
            or report.analytic_ok is not True
        ):
            problems.append(f"{built.name}: {report.to_json()}")
    return Section(
        f"{len(cases)} golden constructions reproduced exactly in the "
        f"{box}x{box} box",
        len(cases),
        tuple(problems),
    )


def determinant_identities(f_pairs: list, g_pairs: list, samples: list) -> Section:
    """F and G expansions against their closed forms, symbolically on the
    order pairs, plus the degenerate and Vandermonde base cases, and
    both families evaluated at each ((m, n), point) sample."""
    d = determinants
    problems = [f"F{mn}" for mn in f_pairs if not d.f_check(*mn).equal]
    problems += [f"G{mn}" for mn in g_pairs if not d.g_check(*mn).equal]
    if not (d.f_direct(1, 6).is_zero and d.f_closed(1, 6).is_zero):
        problems.append("F(1, 6) is not zero")
    base = d.vandermonde_factor()
    if d.f_closed(2, 3) != base or d.g_closed(1, 2) != base:
        problems.append("F(2, 3) or G(1, 2) is not the Vandermonde factor")
    forms: dict = {}
    for (m, n), pt in samples:
        if (m, n) not in forms:
            forms[m, n] = [
                (d.f_direct(m, n), d.f_closed(m, n)),
                (d.g_direct(m, n), d.g_closed(m, n)),
            ]
        if any(a.evaluate(pt) != b.evaluate(pt) for a, b in forms[m, n]):
            problems.append(f"orders ({m}, {n}) at {tuple(pt)}")
    return Section(
        f"{len(f_pairs)} + {len(g_pairs)} symbolic identities, degenerate "
        f"cases, and {len(samples)}-point agreement at orders "
        f"{', '.join(map(str, sorted(forms)))}",
        len(f_pairs) + len(g_pairs) + 2 + len(samples),
        tuple(problems),
    )


def power_sum_identities(det2_pairs, sigma_orders) -> Section:
    """The 2x2 determinant identity and the power-sum difference identity,
    symbolically."""
    d = determinants
    problems = [f"det2{jm}" for jm in det2_pairs if not d.det2_check(*jm).equal]
    problems += [f"sigma {k}" for k in sigma_orders if not d.sigma_diff_identity(k)]
    return Section(
        f"{len(det2_pairs)} 2x2 determinant and {len(sigma_orders)} power-sum "
        "identities hold symbolically",
        len(det2_pairs) + len(sigma_orders),
        tuple(problems),
    )


def slope_line_threshold(box: int, width: Fraction) -> Section:
    """The slope-2 line of the paper: the threshold beta0(2) isolated to
    the width, the exact three-point set at beta = 2, negative fourth-row
    differences, and the four-point set at the near-line ratio beta*(2, 9).
    The root counts that decide that set are audited against Sturm counts
    on P and on every gcd(D, P) of degree >= 1 in the box.  beta*(2, 9)
    is also isolated to width 10^-100, where the jump to the bisection's
    final cell does nearly all the work; a Sturm count confirms the one
    root in the interval."""
    problems = []
    lo, hi = constructions.beta0(2, width)
    p = constructions.beta0_poly(2)
    if not (1 < lo < hi < 2 and hi - lo <= width):
        problems.append(f"interval ({lo}, {hi}) malformed")
    if not (p(lo) < 0 < p(hi)):
        problems.append("interval does not bracket the threshold root")
    if not (lo < Fraction("1.8392867553") and hi > Fraction("1.8392867552")):
        problems.append("interval misses 1.8392867552...")

    c = constructions.make_slopeline(
        constructions.SlopeLineParams(
            m=2, mode=constructions.MODE_AT_OR_ABOVE, beta=Fraction(2)
        )
    )
    found = set(c.enumerate_box(box, box))
    if found != {(1, 2), (2, 4), (3, 6)}:
        problems.append(f"beta=2 box gave {sorted(found)}")
    d_poly = constructions.slopeline_d_poly
    if not all(d_poly(2, 4, k)(Fraction(2)) < 0 for k in range(1, box + 1)):
        problems.append("a fourth-row difference failed to stay negative")

    line = constructions.slopeline_beta_star(2, 9)
    pts = line.enumerate_box(box, box)
    want = [(j, k) for j, k in ((1, 2), (2, 4), (3, 6), (4, 9)) if k <= box]
    if pts != want:
        problems.append(f"near-line box gave {pts}, not {want}")
    if not (1 < line.interval[0] and p(line.interval[1]) < 0):
        problems.append("near-line ratio is not inside (1, beta0)")
    gcds = [
        g
        for j, k in product(range(1, box + 1), repeat=2)
        if (g := IntPoly.gcd(d_poly(2, j, k), line.poly)).degree >= 1
    ]
    for q in [line.poly, *gcds]:
        if root_count(q, *line.interval) != sturm_root_count(q, *line.interval):
            problems.append(f"root count and Sturm count differ on {q}")
    fine = Fraction(1, 10**100)
    lo, hi = constructions.beta_star(2, 9, fine)
    if not (lo < hi and hi - lo <= fine and sturm_root_count(line.poly, lo, hi) == 1):
        problems.append(f"beta*(2, 9) at width {fine} is not one root of P")
    return Section(
        f"threshold interval of width {width}, exact three-point set at "
        f"beta=2, negative fourth-row differences for k <= {box}, the "
        "near-line four-point set at the algebraic ratio, root counts "
        f"equal to Sturm counts on P and its {len(gcds)} gcds with D, and "
        "beta*(2, 9) isolated to width 1e-100 with one root by Sturm",
        5 + len(gcds),
        tuple(problems),
    )


def independence(orders, support: BetaSupport) -> Section:
    """The collinear-order certificate: nonzero determinant, trivial
    nullspace, and the two routes to it agree."""
    cert = determinants.independence_certificate(orders, support)
    problems = []
    if cert.det_value == 0:
        problems.append("determinant is zero")
    if cert.nullspace_dim != 0:
        problems.append(f"nullspace dimension {cert.nullspace_dim}")
    if not cert.cross_checked:
        problems.append("determinant and nullspace routes disagree")
    if not cert.independent:
        problems.append("certificate does not claim independence")
    return Section(
        f"orders {','.join(f'({j},{k})' for j, k in orders)} at ratio "
        f"{support.beta} give determinant {cert.det_value} with nullspace "
        f"dimension {cert.nullspace_dim}",
        len(orders),
        tuple(problems),
    )


def parity_classes(subsets: list, box: int) -> Section:
    """On (-1, 0, 1): the independence table is the full grid, offsets
    (1, 0, 0, 0) give the empty set, and each named union of parity
    classes classifies back to itself, and its box enumeration is the
    set of cells where the per-cell deviation form vanishes."""
    sym = Support3.symmetric(1)
    cells = list(product(range(1, box + 1), repeat=2))
    problems = []
    full = model.JointTable.independent(sym, sym)
    if engine.classify_symmetric(full).kind != "all":
        problems.append("independence table did not classify as the full grid")
    x = model.rescale(OffsetVector.of(1, 0, 0, 0))
    if engine.classify_symmetric(model.table_from_offsets(x, sym, sym)).kind != "empty":
        problems.append("offsets (1,0,0,0) did not classify as empty")
    for subset in subsets:
        built = constructions.make_lattice_union(1, subset)
        got = engine.classify_symmetric(built.table())
        want = SetDescriptor.lattice_union(subset, engine.GLOBAL_ANALYTIC)
        if not got == built.descriptor == want:
            problems.append(f"{subset} classified as {got.format_spec()}")
        found = engine.enumerate_box_offsets(built.x, sym, box, box)
        delta = [p for p in cells if engine.offsets_delta(built.x, sym, sym, *p) == 0]
        if found != delta:
            problems.append(f"{subset} enumerated as {found}")
    return Section(
        f"independence and empty tables plus {len(subsets)} lattice unions "
        f"classified correctly and enumerated over the {box}x{box} box",
        len(subsets) + 2,
        tuple(problems),
    )


def obeys_shape_law(points, jmax: int, kmax: int) -> bool:
    """Is the set in the box one of the three shapes a positive ordered
    support allows: the whole box; at most one whole column and at most
    one whole row, with no point off them; or at most one point in each
    row and in each column?  By the column law each shape is one rank of
    the witness's 2x2 matrices; it implies line closure and cross
    maximality."""
    pts = set(points)
    if len(pts) == jmax * kmax:
        return True
    cols, rows = Counter(j for j, _ in pts), Counter(k for _, k in pts)
    if max(cols.values(), default=0) <= 1 and max(rows.values(), default=0) <= 1:
        return True
    whole_cols = {j for j, n in cols.items() if n == kmax}
    whole_rows = {k for k, n in rows.items() if n == jmax}
    return (
        len(whole_cols) <= 1
        and len(whole_rows) <= 1
        and all(j in whole_cols or k in whole_rows for j, k in pts)
    )


def structural_invariants(pairs: list, box: int) -> Section:
    """For each (support, offsets) pair: the rescaled table has every
    entry in [1/18, 1/6], transposing the offsets transposes the set, and
    the set in the box obeys the shape law."""
    problems = []
    lo, hi = Fraction(1, 18), Fraction(1, 6)
    for support, x in pairs:
        s3 = support.to_support3()
        table = model.table_from_offsets(model.rescale(x), s3, s3)
        if not all(lo <= v <= hi for row in table.entries for v in row):
            problems.append(f"{x.x}: a rescaled entry left [1/18, 1/6]")
        pts = engine.enumerate_box_offsets(x, support, box, box)
        flipped = engine.enumerate_box_offsets(x.transpose(), support, box, box)
        if sorted(flipped) != sorted((k, j) for j, k in pts):
            problems.append(f"{x.x}: transposition symmetry broke")
        if not obeys_shape_law(pts, box, box):
            problems.append(f"{x.x}: {sorted(pts)} breaks the shape law")
    return Section(
        f"{len(pairs)} offset vectors rescaled to valid tables; transposition "
        f"and the shape law held on every {box}x{box} run",
        len(pairs),
        tuple(problems),
    )


# ---------------------------------------------------------------------------
# seeded inputs at self-test scale


def _random_support(rng: random.Random) -> Support3:
    pts = sorted(rng.sample(range(1, 40), 3))
    den = rng.choice((1, 1, 2, 3))
    return Support3.from_values(*(Fraction(p, den) for p in pts))


def _random_offsets(rng: random.Random) -> OffsetVector:
    def scalar():
        if rng.random() < 0.25:
            return QuadExt(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                2,
            )
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    while True:
        x = OffsetVector.of(scalar(), scalar(), scalar(), scalar())
        if not x.is_zero:
            return x


def _planted_offsets(rng: random.Random, s3: Support3, box: int) -> OffsetVector:
    """Offsets whose form vanishes on one or two random cells of the box:
    a nonzero combination of the nullspace of their ``offsets_delta`` rows."""
    units = [OffsetVector(tuple(int(i == n) for i in range(4))) for n in range(4)]
    cells = [(rng.randint(1, box), rng.randint(1, box)) for _ in range(rng.randint(1, 2))]
    rows = [[engine.offsets_delta(e, s3, s3, *p) for e in units] for p in cells]
    basis = linalg.nullspace(rows)
    while True:
        coeffs = [rng.randint(-3, 3) for _ in basis]
        x = OffsetVector(
            tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(4))
        )
        if not x.is_zero:
            return x


def _golden_cases(box: int):
    s = Support3.from_values(1, 2, 3)
    line = range(1, box + 1)
    slope = constructions.SlopeLineParams(
        m=2, mode=constructions.MODE_AT_OR_ABOVE, beta=Fraction(2)
    )
    return [
        (constructions.make_empty(s), set()),
        (constructions.make_diagonal(s), {(i, i) for i in line}),
        (constructions.make_singleton(s, 2, 3), {(2, 3)}),
        (constructions.make_two_point(s, (1, 2), (2, 1)), {(1, 2), (2, 1)}),
        (constructions.make_vline(s, 2), {(2, k) for k in line}),
        (constructions.make_hline(s, 3), {(j, 3) for j in line}),
        (
            constructions.make_cross(s, 2, 3),
            {(2, k) for k in line} | {(j, 3) for j in line},
        ),
        (
            constructions.make_antidiagonal(BetaSupport(1, 2), 4),
            {(1, 3), (2, 2), (3, 1)},
        ),
        (constructions.make_slopeline(slope), {(1, 2), (2, 4), (3, 6)}),
    ]


def run(seed: int = 20250817, fast: bool = False, out=print) -> int:
    """Run every section on seeded inputs; print one ok/FAIL line each and
    return the number of failed sections."""
    rng = random.Random(seed)
    rounds = 6 if fast else 20
    box = 6 if fast else 8
    orders = [(2, 3), (2, 4), (3, 5)] if fast else [(2, 3), (2, 4), (3, 5), (4, 6)]
    random_pairs = [
        (_random_support(rng), _random_offsets(rng)) for _ in range(rounds)
    ]
    samples = [
        (
            rng.choice(orders),
            [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(4)],
        )
        for _ in range(rounds)
    ]
    golden = _golden_cases(box)
    # the golden witnesses give both routes members to agree on; random
    # offsets almost never vanish on a cell
    pairs = random_pairs + [(built.support, built.x) for built, _ in golden]
    # general supports, one with b = -c, have no A_j; structural_invariants
    # holds only on positive ones, so these pairs audit the routes alone
    general = [Support3.from_values(-3, 1, 2), Support3.from_values(-2, -1, 1)]
    planted = [(s, _planted_offsets(rng, s, box)) for s in general for _ in range(2)]
    names = engine.LATTICE_NAMES
    subsets = [
        tuple(n for i, n in enumerate(names) if mask & (1 << i)) for mask in range(16)
    ]
    sections = (
        lambda: route_agreement(pairs + planted, box),
        lambda: golden_witnesses(golden, box),
        lambda: determinant_identities(orders, [(1, 2), (2, 3), (3, 4)], samples),
        lambda: power_sum_identities(
            [(j, m) for j in range(0, 4) for m in range(j, 5)], range(1, 9)
        ),
        lambda: slope_line_threshold(12, Fraction(1, 10**9)),
        lambda: independence([(1, 2), (2, 4), (3, 6), (4, 8)], BetaSupport(1, 2)),
        lambda: parity_classes(subsets, box),
        lambda: structural_invariants(pairs, box),
    )
    failures = 0
    for section in sections:
        result = section()
        if result.ok:
            out(f"ok   {result.label}")
        else:
            failures += 1
            out(f"FAIL {result.label}")
            for problem in result.problems[:5]:
                out(f"       {problem}")
    out(f"{failures} failure(s)" if failures else "all self-test sections passed")
    return failures
