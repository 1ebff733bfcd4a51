"""Seeded workloads of the uncorrsets benchmark, with their answer oracles.

A job is one independent user request: build a witness (or an identity,
or a certificate), serialize it, decide it, and check the answer.  The
expected answer never comes from the route under test: set jobs are
checked against the closed form of a descriptor the benchmark builds from
the job's own parameters (``SetDescriptor.points_in_box``), determinant
jobs must report ``equal`` and certificates ``independent`` and
``cross_checked``.

Inputs are plain data drawn from ``random.Random(seed)``; the package sees
only the objects built from them.  Every round of a workload holds the same
mix of shapes and box strata, and the quantities that set most of a job's
cost (box sides, k, (m, n)) are spread evenly rather than drawn, so a run's
figures do not hinge on a few lucky draws.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

FAMILIES = (
    "empty", "all", "diagonal", "vline", "hline", "cross", "singleton",
    "two-point", "antidiagonal", "slopeline", "lattice-union",
)
# support styles of the families that take any positive ordered support
STYLES = ("int", "den", "geo")
GEO_ALPHAS = ("1", "2", "1/2", "3/2")
GEO_BETAS = ("3/2", "2", "5/2", "3", "4/3", "5/3", "7/4")
# every slope-line threshold beta0(m) lies below 2
SLOPE_BETAS = ("2", "9/4", "5/2", "3")
SYM_ALPHAS = ("1", "2", "3", "1/2", "3/2", "5/2")
LATTICES = ("ee", "eo", "oe", "oo")
# distinct CLI requests; an untraced run repeats each once per pass
CLI_JOBS = 6
CLI_TIMEOUT_S = 60


def _norm(obj):
    """The JSON value a document reads back as, for comparisons."""
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# set families: shared by verify-sweep and moment-audit


def _positive_support(rng, style):
    pts = sorted(rng.sample(range(1, 40), 3))
    if style == "geo":
        return ["beta", rng.choice(GEO_ALPHAS), rng.choice(GEO_BETAS)]
    den = 1 if style == "int" else rng.choice((2, 3))
    return ["points"] + [str(Fraction(p, den)) for p in pts]


def set_spec(rng, family, style, jmax, kmax):
    """Parameters of one set job; every claimed point lies inside the box."""
    spec = {"family": family, "box": [jmax, kmax]}
    if family == "antidiagonal":
        spec["support"] = ["beta", rng.choice(GEO_ALPHAS), rng.choice(GEO_BETAS)]
        spec["m"] = rng.randint(2, jmax + kmax)
    elif family == "slopeline":
        spec["support"] = ["beta", "1", rng.choice(SLOPE_BETAS)]
        spec["m"] = rng.choice((2, 3, 4))
    elif family == "lattice-union":
        spec["support"] = ["sym", rng.choice(SYM_ALPHAS)]
        spec["lattices"] = sorted(rng.sample(LATTICES, rng.randint(1, 3)))
    else:
        spec["support"] = _positive_support(rng, style)
        j1, j2 = rng.sample(range(1, jmax + 1), 2)
        k1, k2 = rng.sample(range(1, kmax + 1), 2)
        spec["points"] = [[j1, k1], [j2, k2]]
    return spec


def build_support(mods, spec):
    sup = spec["support"]
    if sup[0] == "beta":
        return mods.model.BetaSupport(Fraction(sup[1]), Fraction(sup[2]))
    if sup[0] == "sym":
        return mods.model.Support3.symmetric(Fraction(sup[1]))
    return mods.model.Support3.from_values(*(Fraction(p) for p in sup[1:]))


def construct(mods, spec):
    c = mods.constructions
    fam = spec["family"]
    (j1, k1), (j2, k2) = spec.get("points", ((0, 0), (0, 0)))
    if fam == "slopeline":
        return c.make_slopeline(c.SlopeLineParams(
            m=spec["m"], mode=c.MODE_AT_OR_ABOVE, beta=Fraction(spec["support"][2])))
    if fam == "lattice-union":
        return c.make_lattice_union(Fraction(spec["support"][1]), spec["lattices"])
    s = build_support(mods, spec)
    if fam == "empty":
        return c.make_empty(s)
    if fam == "all":
        return c.make_full(s)
    if fam == "diagonal":
        return c.make_diagonal(s)
    if fam == "vline":
        return c.make_vline(s, j1)
    if fam == "hline":
        return c.make_hline(s, k1)
    if fam == "cross":
        return c.make_cross(s, j1, k1)
    if fam == "singleton":
        return c.make_singleton(s, j1, k1)
    if fam == "two-point":
        return c.make_two_point(s, (j1, k1), (j2, k2))
    if fam == "antidiagonal":
        return c.make_antidiagonal(s, spec["m"])
    raise ValueError(f"unknown family {fam!r}")


def expected_descriptor(mods, spec):
    """The shape each family is built to have, from the job parameters only."""
    D = mods.engine.SetDescriptor
    fam = spec["family"]
    (j1, k1), (j2, k2) = spec.get("points", ((0, 0), (0, 0)))
    if fam == "empty":
        return D.empty()
    if fam == "all":
        return D.all_points()
    if fam == "diagonal":
        return D.diagonal()
    if fam == "vline":
        return D.vline(j1)
    if fam == "hline":
        return D.hline(k1)
    if fam == "cross":
        return D.cross(j1, k1)
    if fam == "singleton":
        return D.finite([(j1, k1)], mods.engine.GLOBAL_ANALYTIC)
    if fam == "two-point":
        return D.finite([(j1, k1), (j2, k2)], mods.engine.GLOBAL_ANALYTIC)
    if fam == "antidiagonal":
        return D.antidiagonal(spec["m"])
    if fam == "slopeline":
        return D.slopeline(spec["m"])
    if fam == "lattice-union":
        return D.lattice_union(spec["lattices"])
    raise ValueError(f"unknown family {fam!r}")


def _cli_support_args(spec):
    sup = spec["support"]
    if sup[0] == "beta":
        return ["--alpha", sup[1], "--beta", sup[2]]
    if sup[0] == "sym":
        return ["--alpha", sup[1]]
    return ["--support", ",".join(sup[1:])]


def cli_construct_args(spec):
    fam = spec["family"]
    (j1, k1), (j2, k2) = spec.get("points", ((0, 0), (0, 0)))
    args = ["construct", fam]
    if fam == "slopeline":
        return args + ["--m", str(spec["m"]), "--beta", spec["support"][2]]
    args += _cli_support_args(spec)
    if fam in ("vline", "cross"):
        args += ["--j", str(j1)]
    if fam in ("hline", "cross"):
        args += ["--k", str(k1)]
    if fam == "singleton":
        args += ["--point", f"{j1},{k1}"]
    if fam == "two-point":
        args += ["--points", f"{j1},{k1};{j2},{k2}"]
    if fam == "antidiagonal":
        args += ["--m", str(spec["m"])]
    if fam == "lattice-union":
        args += ["--lattices", ",".join(spec["lattices"])]
    return args


def _sides(lo, hi, n):
    """``n`` box sides spread evenly over the stratum lo..hi, both ends included."""
    return [lo + (hi - lo) * q // (n - 1) for q in range(n)]


def _stratified_rounds(rng, n_rounds, strata):
    """Each round: every family once in every box stratum, in seeded order.

    Box sides do not depend on the seed, because the box sets most of a
    job's cost: in every round the eleven families of a stratum take the
    eleven sides ``_sides`` spreads over it, each family a different side
    for j and for k, and the assignment turns by one family per round.  The
    support style of a (family, stratum) pair is the same in every round, and
    each family meets every style once across the three strata.  So lists of
    the same length hold the same mix of costs whatever the seed, which
    picks the support values, claimed points, parameters and order.
    """
    n = len(FAMILIES)
    grids = [_sides(lo, hi, n) for lo, hi in strata]
    rounds = []
    for r in range(n_rounds):
        jobs = []
        for s, grid in enumerate(grids):
            for f, fam in enumerate(FAMILIES):
                style = STYLES[(f + s) % len(STYLES)]
                jobs.append(set_spec(rng, fam, style, grid[(f + r) % n],
                                     grid[(n - 1 - f + r) % n]))
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


# ---------------------------------------------------------------------------
# CLI access to the checkout's package


class Cli:
    """Runs ``python -m uncorrsets.cli`` against the checkout's sources."""

    def __init__(self, src):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.cwd = str(src.parent)

    def check(self, args, want, stdin=None):
        """Run once; (exit status is 0 and stdout is the JSON ``want``, stdout)."""
        proc = subprocess.run(
            [sys.executable, "-m", "uncorrsets.cli", *args],
            input=stdin, capture_output=True, text=True, env=self.env,
            cwd=self.cwd, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return False, proc.stdout
        try:
            return json.loads(proc.stdout) == want, proc.stdout
        except json.JSONDecodeError:
            return False, proc.stdout

    def startup_s(self):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import uncorrsets.cli"], env=self.env,
            cwd=self.cwd, timeout=CLI_TIMEOUT_S, capture_output=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))
        return perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, one job, and one CLI job of a workload.

    ``run`` returns (ok, cells) where cells counts the order pairs the job
    decided; ``run_cli`` returns (ok, wall seconds of the subprocesses).
    """

    name = ""
    max_box = 0

    def rounds(self, rng, n):
        raise NotImplementedError

    def warmup(self, rng):
        raise NotImplementedError

    def cli_specs(self, rng):
        raise NotImplementedError

    def run(self, mods, spec):
        raise NotImplementedError

    def run_cli(self, mods, cli, spec):
        raise NotImplementedError


class SetWorkload(Workload):
    """The eleven set families, each once per box stratum in every round."""

    strata: tuple[tuple[int, int], ...] = ()

    def rounds(self, rng, n):
        return _stratified_rounds(rng, n, self.strata)

    def warmup(self, rng):
        return [set_spec(rng, fam, STYLES[i % 3], 4, 4)
                for i, fam in enumerate(FAMILIES)]

    def cli_specs(self, rng):
        return [set_spec(rng, FAMILIES[i % len(FAMILIES)], STYLES[i % 3], 12, 12)
                for i in range(CLI_JOBS)]


class VerifySweep(SetWorkload):
    name = "verify-sweep"
    strata = ((12, 28), (29, 46), (47, 64))
    max_box = 64

    def _verify(self, mods, spec):
        built = construct(mods, spec)
        doc = json.loads(json.dumps(built.to_json()))
        x, support, desc = mods.engine.witness_from_json(doc)
        jmax, kmax = spec["box"]
        return built, desc, mods.engine.verify_claim(x, support, desc, jmax, kmax)

    def run(self, mods, spec):
        _, desc, report = self._verify(mods, spec)
        want = expected_descriptor(mods, spec)
        jmax, kmax = spec["box"]
        ok = (
            desc == want
            and report.verdict == mods.engine.MATCH
            and report.analytic_ok is True
            and set(report.found) == want.points_in_box(jmax, kmax)
        )
        return ok, jmax * kmax

    def run_cli(self, mods, cli, spec):
        built, _, report = self._verify(mods, spec)
        jmax, kmax = spec["box"]
        t0 = perf_counter()
        ok1, doc = cli.check(cli_construct_args(spec), _norm(built.to_json()))
        ok2, _ = cli.check(["verify", "--witness", "-", "--box", f"{jmax}x{kmax}"],
                           _norm(report.to_json()), stdin=doc)
        return ok1 and ok2, perf_counter() - t0


class MomentAudit(SetWorkload):
    name = "moment-audit"
    strata = ((8, 15), (16, 23), (24, 32))
    max_box = 32

    def _table(self, mods, spec):
        built = construct(mods, spec)
        support = built.support
        if isinstance(support, mods.model.BetaSupport):
            support = support.to_support3()
        x = built.x if built.x.is_zero else mods.model.rescale(built.x)
        table = mods.model.table_from_offsets(x, support, support)
        return mods.model.JointTable.from_json(json.loads(json.dumps(table.to_json())))

    def run(self, mods, spec):
        table = self._table(mods, spec)
        jmax, kmax = spec["box"]
        found = mods.engine.enumerate_box_table(table, jmax, kmax)
        want = expected_descriptor(mods, spec)
        ok = set(found) == want.points_in_box(jmax, kmax)
        if spec["family"] == "lattice-union":
            ok = ok and mods.engine.classify_symmetric(table) == want
        return ok, jmax * kmax

    def run_cli(self, mods, cli, spec):
        table = self._table(mods, spec)
        jmax, kmax = spec["box"]
        doc = json.dumps(table.to_json())
        points = mods.engine.enumerate_box_table(table, jmax, kmax)
        want = {"box": [jmax, kmax], "points": [list(p) for p in points]}
        t0 = perf_counter()
        ok, _ = cli.check(["enumerate", "--witness", "-", "--box", f"{jmax}x{kmax}"],
                          want, stdin=doc)
        if spec["family"] == "lattice-union":
            desc = mods.engine.classify_symmetric(table)
            ok2, _ = cli.check(["classify", "--table", "-"],
                               {"descriptor": desc.to_json()}, stdin=doc)
            ok = ok and ok2
        return ok, perf_counter() - t0


class AlgebraicLine(Workload):
    """Near-line slope lines at beta*(m, k), m in {2, 3, 4}, 4m < k <= 4m + 12."""

    name = "algebraic-line"
    max_box = 28

    def rounds(self, rng, n):
        """Per round and slope m: one job in each third of the k range.

        Within a third, k steps through its four values from a seeded start,
        so a list of a multiple of four rounds holds each k once per four
        rounds.  One job of the three is a 4 x k strip, which holds the fourth
        point (4, k); the other two enumerate a square of side 4..7.  Which
        third gets the strip and which side a square has depend on m and the
        third only, so every round holds the same mix.
        """
        start = {(m, t): rng.randrange(4) for m in (2, 3, 4) for t in range(3)}
        rounds = []
        for r in range(n):
            jobs = []
            for m in (2, 3, 4):
                for third in range(3):
                    k = 4 * m + 4 * third + 1 + (start[m, third] + r) % 4
                    if third == m % 3:
                        box = [4, k]
                    else:
                        side = 4 + (m + third) % 4
                        box = [side, side]
                    jobs.append({"m": m, "k": k, "box": box})
            rng.shuffle(jobs)
            rounds.append(jobs)
        return rounds

    def warmup(self, rng):
        return [{"m": 2, "k": 9, "box": [3, 3]}]

    def cli_specs(self, rng):
        # k in the middle of each slope's range, so the seed does not set
        # the cost of a CLI job
        return [{"m": 2 + i % 3, "k": 4 * (2 + i % 3) + 6, "box": [4, 4]}
                for i in range(CLI_JOBS)]

    def _want(self, mods, spec):
        return mods.engine.SetDescriptor.slopeline(
            spec["m"], extra=((4, spec["k"]),), certificate=mods.engine.BOX_VERIFIED)

    def _build(self, mods, spec):
        c = mods.constructions
        return c.make_slopeline(c.SlopeLineParams(
            m=spec["m"], mode=c.MODE_BETA_STAR, k=spec["k"]))

    def run(self, mods, spec):
        doc = json.loads(json.dumps(self._build(mods, spec).to_json()))
        line = mods.constructions.AlgebraicSlopeLine.from_json(doc["algebraic"])
        desc = mods.engine.SetDescriptor.from_json(doc["descriptor"])
        jmax, kmax = spec["box"]
        found = line.enumerate_box(jmax, kmax)
        want = self._want(mods, spec)
        ok = desc == want and set(found) == want.points_in_box(jmax, kmax)
        return ok, jmax * kmax

    def run_cli(self, mods, cli, spec):
        built = self._build(mods, spec)
        jmax, kmax = spec["box"]
        desc = self._want(mods, spec)
        found = tuple(built.algebraic.enumerate_box(jmax, kmax))
        report = mods.engine.UncorrReport(
            mods.engine.MATCH, desc, (jmax, kmax), found, (), (), None)
        t0 = perf_counter()
        ok1, doc = cli.check(["construct", "slopeline", "--m", str(spec["m"]),
                              "--k", str(spec["k"])], _norm(built.to_json()))
        ok2, _ = cli.check(["verify", "--witness", "-", "--box", f"{jmax}x{kmax}"],
                           _norm(report.to_json()), stdin=doc)
        return ok1 and ok2, perf_counter() - t0


class DetIdentities(Workload):
    """F and G identity checks plus collinear independence certificates.

    A cell here is one order pair whose identity or membership was decided:
    (m, n) for an F or G check, and each of the four pairs of a certificate.
    """

    name = "det-identities"
    max_box = 0
    # (m, n) strata by size; G(m, n) costs grow fast with m + n
    g_strata = ((1, 5), (6, 9), (10, 13))
    f_strata = ((5, 8), (9, 12), (13, 16))
    cert_betas = ("3/2", "2", "5/2", "3", "4/3", "5/3")

    @staticmethod
    def _pairs(lo_sum, hi_sum, lowest):
        """Every (m, n) with lowest <= m < n and lo_sum <= m + n <= hi_sum."""
        return [(m, total - m) for total in range(lo_sum, hi_sum + 1)
                for m in range(lowest, (total + 1) // 2)]

    def _cert(self, rng):
        while True:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            if a != b and Fraction(b, a).denominator == a:
                break
        ts = sorted(rng.sample(range(1, 7), 4))
        return {"kind": "cert", "points": [[a * t, b * t] for t in ts],
                "beta": rng.choice(self.cert_betas)}

    def rounds(self, rng, n):
        """Per round one G and one F check in each stratum, and four certificates.

        Round r takes pair r (cyclically) of each stratum's list of pairs,
        because (m, n) sets most of a check's cost; the seed picks the
        certificates and the order.
        """
        strata = ([("g", self._pairs(lo, hi, 1)) for lo, hi in self.g_strata]
                  + [("f", self._pairs(lo, hi, 2)) for lo, hi in self.f_strata])
        rounds = []
        for r in range(n):
            jobs = []
            for kind, pairs in strata:
                m, nn = pairs[r % len(pairs)]
                jobs.append({"kind": kind, "m": m, "n": nn})
            jobs.extend(self._cert(rng) for _ in range(4))
            rng.shuffle(jobs)
            rounds.append(jobs)
        return rounds

    def warmup(self, rng):
        return [{"kind": "f", "m": 2, "n": 3}, {"kind": "g", "m": 1, "n": 2},
                self._cert(rng)]

    def cli_specs(self, rng):
        specs = []
        for i in range(CLI_JOBS):
            # (m, n) sets the cost of a check, so it does not come from the seed
            if i % 3 == 0:
                m, n = self._pairs(5, 8, 2)[i // 3]
                specs.append({"kind": "f", "m": m, "n": n})
            elif i % 3 == 1:
                m, n = self._pairs(3, 7, 1)[i // 3]
                specs.append({"kind": "g", "m": m, "n": n})
            else:
                specs.append(self._cert(rng))
        return specs

    def _decide(self, mods, spec):
        d = mods.determinants
        if spec["kind"] == "cert":
            support = mods.model.BetaSupport(1, Fraction(spec["beta"]))
            cert = d.independence_certificate(
                [tuple(p) for p in spec["points"]], support)
            return cert, cert.independent and cert.cross_checked, 4
        check = d.f_check if spec["kind"] == "f" else d.g_check
        result = check(spec["m"], spec["n"])
        return result, result.equal, 1

    def _doc(self, result, spec):
        if spec["kind"] == "cert":
            return result.to_json()
        return result.to_json(summary=True)

    def run(self, mods, spec):
        result, ok, cells = self._decide(mods, spec)
        json.dumps(self._doc(result, spec))
        return ok, cells

    def run_cli(self, mods, cli, spec):
        result, ok, _ = self._decide(mods, spec)
        want = _norm(self._doc(result, spec))
        if spec["kind"] == "cert":
            args = ["indep-cert", "--points",
                    ";".join(f"{j},{k}" for j, k in spec["points"]),
                    "--beta", spec["beta"]]
        else:
            args = ["det", spec["kind"], str(spec["m"]), str(spec["n"]), "--summary"]
        t0 = perf_counter()
        ok_cli, _ = cli.check(args, want)
        return ok and ok_cli, perf_counter() - t0


WORKLOADS = {w.name: w for w in (VerifySweep(), MomentAudit(), AlgebraicLine(),
                                 DetIdentities())}
