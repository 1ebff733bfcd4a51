"""Benchmark of the uncorrsets package in this checkout.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # one row per workload

Load is a closed loop with one client and no threads: the next job starts
when the previous one has finished.  The seed and ``--seconds`` fix a list
of whole rounds (each round holds the workload's full mix), which runs
PASSES times, each time in another seeded order.  A few CLI jobs run in
between, as sequential subprocesses against ``src/`` of this checkout.  A
job that raises, answers wrongly, or whose CLI run exits nonzero or prints
other JSON than the in-process result counts as failed, and any failure
makes the command exit with status 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined job list, each job once untraced and once with every layer
wrapped (see tracer.py), and reports the per-layer metrics; the span table
goes to perfbench/out/.  README.md defines every metric.  The last line of
stdout is always one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

from time import perf_counter

# set-up time counts from here: every import, the package's included
START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import SPANNED, Tracer  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402

DEFAULT_SEED = 20261017
SETUP_REPEATS = 5
# passes over the job list in an untraced run
PASSES = 2
# rounds in the job list of an untraced run per second of --seconds, so
# that PASSES passes and their CLI jobs fill the run
ROUNDS_PER_S = {"verify-sweep": 3 / 30, "moment-audit": 3 / 30,
                "algebraic-line": 8 / 30, "det-identities": 60 / 30}
# median seconds of reference() and CPU seconds of spawn_reference() on the
# machine the baseline was taken on (2-vCPU Intel Xeon VM, Python 3.11.7),
# and how much job time may pass between two samples of reference()
REF_S = 0.0080
SPAWN_REF_S = 0.070
REF_EVERY_S = 0.1
# reference samples on either side of a time that it is read against
REF_WINDOW = 2
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "cells_per_s": "1/s",
         "job_p50_ms": "ms", "job_p90_ms": "ms", "cli_p50_ms": "ms"}
STARTUP_PROBES = 5
LAYERS = ("numeric", "model", "engine", "constructions", "polynomials", "linalg",
          "determinants")
# rounds in a traced run per second of --seconds; a fixed job list keeps the
# counts of two traced runs with one seed identical
TRACE_ROUNDS_PER_S = {"verify-sweep": 0.1, "moment-audit": 0.1,
                      "algebraic-line": 0.3, "det-identities": 1.0}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_package() -> types.SimpleNamespace:
    """Import uncorrsets from this checkout's src/."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("uncorrsets")
    if Path(pkg.__file__).resolve().parent != (SRC / "uncorrsets").resolve():
        raise BenchError(f"imported uncorrsets from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"uncorrsets.{name}") for name in LAYERS}
    loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "uncorrsets"]
    return types.SimpleNamespace(all_modules=loaded, **mods)


def provenance() -> dict:
    info = {"git_sha": "unknown", "git_dirty": None,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        info["git_sha"] = git("rev-parse", "HEAD") or "unknown"
        info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return info


class Run:
    """Counts and timings of one benchmark process."""

    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        # the raw samples of an untraced run, for the result record
        self.samples = None

    def job(self, mods, spec):
        """Run one in-process job; returns the cells it decided (0 on failure)."""
        self.attempted += 1
        try:
            ok, cells = self.wl.run(mods, spec)
        except Exception:
            ok, cells, why = False, 0, traceback.format_exc()
        else:
            why = "wrong answer"
        if not ok:
            self.failed += 1
            self._report(spec, why)
        return cells

    def cli_job(self, mods, cli, spec):
        self.attempted += 1
        try:
            ok, wall = self.wl.run_cli(mods, cli, spec)
        except Exception:
            ok, wall, why = False, None, traceback.format_exc()
        else:
            why = "CLI exit status or output differs"
        if not ok:
            self.failed += 1
            self._report(spec, why)
        return ok, wall

    def _report(self, spec, why):
        if self.reported < 5:
            print(f"FAILED job {json.dumps(spec)}: {why}", file=sys.stderr)
        self.reported += 1


def setup(run: Run, n_rounds: int, t0: float):
    """Import the package, generate the seeded inputs and warm up.

    The elapsed time it returns counts from ``t0``, which is the start of the
    process when the set-up is what is being timed.
    """
    mods = load_package()
    rng = random.Random(run.seed)
    rounds = run.wl.rounds(rng, n_rounds)
    cli_specs = run.wl.cli_specs(rng)
    for spec in run.wl.warmup(rng):
        run.job(mods, spec)
    elapsed = perf_counter() - t0
    cap = mods.engine.max_exponent()
    if cap < run.wl.max_box:
        raise BenchError(f"UNCORRSET_MAX_EXP is {cap}, below the largest box "
                         f"{run.wl.max_box} of {run.wl.name}")
    return mods, rounds, rng, cli_specs, elapsed, cap


def pass_rounds(run: Run, seconds: float) -> int:
    """Rounds in the job list of an untraced run of ``seconds``."""
    return max(1, round(seconds * ROUNDS_PER_S[run.wl.name]))


def cold_setup_s(run: Run, seconds: float) -> float:
    """Seconds of one set-up in a fresh process, from its first import on."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", run.wl.name,
         "--seed", str(run.seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


_BIG = (3 ** 4000 + 17, 7 ** 2500 + 5)


def reference() -> None:
    """A fixed piece of pure-Python work that uses nothing of uncorrsets.

    The kinds of work the jobs spend their time on: sums of small
    ``Fraction``s, products and remainders of integers of thousands of bits,
    and building a dict of tuples and lists.
    """
    x = Fraction(0)
    for i in range(1, 160):
        x += Fraction(i % 7 + 1, i)
    a, b = _BIG
    for _ in range(60):
        a, b = b, (a % b) or b + 1
        a * b
    d = {}
    for i in range(6000):
        d[(i, i % 17)] = [i] * 3


def _timed_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def children_cpu_s() -> float:
    """CPU seconds (user and system) of the ended child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn_reference() -> float:
    """CPU seconds of an interpreter that starts, does nothing and ends."""
    c0 = children_cpu_s()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return children_cpu_s() - c0


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``values``.

    A mean of all order statistics, weighted by the Beta(q (n+1), (1-q) (n+1))
    probability of each one's slot (i-1)/n..i/n, so it moves less with any
    single value than one order statistic, or two interpolated, would.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule inside each slot
    total = weight_sum = 0.0
    for i, x in enumerate(xs):
        w = 0.0
        for s in range(steps):
            t = (i + (s + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w * x
        weight_sum += w
    return total / weight_sum


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    """The job list in passes; every time is read against a reference.

    Each pass runs every job of the list once, in its own seeded order.
    Every CLI job also runs once per pass, and the fresh-process set-ups are
    spread over the passes.

    The machine's speed swings by tens of percent within seconds and drifts
    over minutes, and every time measured moves with it.  So
    ``reference()`` runs between the jobs, at least every REF_EVERY_S of job
    time, and each job and set-up time is divided by the median of the
    REF_WINDOW reference samples on either side of it, then multiplied by
    REF_S: it reads as at the speed the baseline machine had.  A job's time
    is the median of its passes.  A CLI job is timed by the CPU time of its
    processes, since its wall time also holds the delays with which this
    virtual machine wakes an idle CPU.  A ``spawn_reference()`` runs just
    before each CLI job, and CLI times are read against the median of the
    run's spawn samples, times SPAWN_REF_S: a single spawn varies too much
    to read one CLI run against.  The times as measured go to the notes.
    """
    cli = Cli(SRC)
    mods, rounds, rng, cli_specs, setup_time, cap = setup(
        run, pass_rounds(run, seconds), START)
    jobs = [spec for r in rounds for spec in r]
    cells = [0] * len(jobs)
    refs = [_timed_reference()]
    # (seconds, index of the reference sample before it)
    times: list[list[tuple[float, int]]] = [[] for _ in jobs]
    setups = [(setup_time, 0)]
    spawns = []  # CPU seconds of spawn_reference()
    cli_runs = []  # CPU seconds of the processes of each CLI job
    # when the fresh-process set-ups are due, in passes from the start
    setups_due = [(i + 0.5) * PASSES / (SETUP_REPEATS - 1)
                  for i in range(SETUP_REPEATS - 1)]
    since_ref = 0.0
    for passes in range(PASSES):
        # positions in this pass after which a CLI job or a set-up runs
        extras: dict[int, list] = {}
        for c, spec in enumerate(cli_specs):
            pos = len(jobs) * (c + 1) // (len(cli_specs) + 1)
            extras.setdefault(pos, []).append(spec)
        while setups_due and setups_due[0] < passes + 1:
            pos = int((setups_due.pop(0) - passes) * len(jobs))
            extras.setdefault(pos, []).append(None)
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for pos, i in enumerate(order):
            if since_ref >= REF_EVERY_S:
                refs.append(_timed_reference())
                since_ref = 0.0
            t0 = perf_counter()
            cells[i] = run.job(mods, jobs[i])
            dt = perf_counter() - t0
            since_ref += dt
            times[i].append((dt, len(refs) - 1))
            for spec in extras.get(pos, ()):
                if spec is None:
                    setups.append((cold_setup_s(run, seconds), len(refs) - 1))
                    continue
                spawns.append(spawn_reference())
                c0 = children_cpu_s()
                ok, _ = run.cli_job(mods, cli, spec)
                if ok:
                    cli_runs.append(children_cpu_s() - c0)
    while len(setups) < SETUP_REPEATS:
        setups.append((cold_setup_s(run, seconds), len(refs) - 1))

    def at_ref(sample):
        t, k = sample
        return t * REF_S / statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])

    spawn_scale = SPAWN_REF_S / statistics.median(spawns) if spawns else 1.0

    def summary(job_s, setup_s, cli_s):
        job_time = sum(job_s)
        return {
            "setup_s": statistics.median(setup_s),
            "jobs_per_s": len(jobs) / job_time,
            "cells_per_s": sum(cells) / job_time,
            "job_p50_ms": 1000 * quantile(job_s, 0.5),
            "job_p90_ms": 1000 * quantile(job_s, 0.9),
            "cli_p50_ms": 1000 * statistics.median(cli_s) if cli_s else 0.0,
        }

    values = summary([statistics.median(map(at_ref, t)) for t in times],
                     [at_ref(x) for x in setups],
                     [cpu * spawn_scale for cpu in cli_runs])
    measured = summary([statistics.median(dt for dt, _ in t) for t in times],
                       [dt for dt, _ in setups], cli_runs)
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    run.samples = {"refs": refs, "jobs": times, "setups": setups, "spawns": spawns,
                   "cli": cli_runs}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {"jobs": len(jobs), "rounds": len(rounds), "passes": PASSES,
             "cells": sum(cells), "cli_samples": len(cli_runs),
             "setups": len(setups), "ref_samples": len(refs),
             "ref_median_s": statistics.median(refs),
             "spawn_median_s": statistics.median(spawns) if spawns else 0.0,
             "wall_s": perf_counter() - START, "max_exp": cap,
             **{f"measured_{k}": v for k, v in measured.items()}}
    return metrics, notes


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    cli = Cli(SRC)
    n_rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[run.wl.name]))
    mods, rounds, _, cli_specs, _, cap = setup(run, n_rounds, perf_counter())
    jobs = [(run.job, spec) for r in rounds for spec in r]
    jobs += [(probe, spec) for spec in PROBES]
    # each job runs untraced and then traced, back to back, so that drift in
    # machine speed during the run does not show up as tracing overhead
    tracer = Tracer(mods)
    untraced = 0.0
    for i, (fn, spec) in enumerate(jobs):
        t0 = perf_counter()
        fn(mods, spec)
        untraced += perf_counter() - t0
        tracer.install()
        try:
            tracer.run_job(i, fn, mods, spec)
        finally:
            tracer.uninstall()
    agg = tracer.aggregate()
    traced_wall = agg["bench.job"]["total_s"]
    # job time inside no layer span: JSON round trips, oracles, helpers
    unattributed = agg["bench.job"]["self_s"] / traced_wall

    startup = statistics.median(cli.startup_s() for _ in range(STARTUP_PROBES))
    cli_failed_before = run.failed
    for spec in cli_specs:
        run.cli_job(mods, cli, spec)

    metrics = {}
    for name, _, _ in SPANNED:
        if f"{name}.calls" not in metrics:
            metrics[f"{name}.calls"] = (agg[name]["calls"], "count")
            metrics[f"{name}.self_s"] = (agg[name]["self_s"], "s")
    value_calls = agg["engine.ASequence.value"]["calls"]
    gcd_calls = agg["polynomials.IntPoly.gcd"]["calls"]
    metrics.update({
        "engine.ASequence.value.unique_ratio": (
            tracer.value_distinct / value_calls if value_calls else 0.0, "ratio"),
        "engine.member_ratio": (
            tracer.members / tracer.cells if tracer.cells else 0.0, "ratio"),
        "engine.errors": (tracer.errors["engine"], "count"),
        "numeric.QuadExt.calls": (tracer.counts["numeric.QuadExt"], "count"),
        "numeric.as_exact.calls": (tracer.counts["numeric.as_exact"], "count"),
        "numeric.max_bits": (tracer.max_bits, "bits"),
        "constructions.errors": (tracer.errors["constructions"], "count"),
        "polynomials.IntPoly.gcd.nontrivial_ratio": (
            tracer.gcd_nontrivial / gcd_calls if gcd_calls else 0.0, "ratio"),
        "cli.startup_ms": (1000 * startup, "ms"),
        "cli.errors": (run.failed - cli_failed_before, "count"),
        "trace.overhead_ratio": ((traced_wall - untraced) / untraced, "ratio"),
        "trace.unattributed_ratio": (unattributed, "ratio"),
    })
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{run.wl.name}-seed{run.seed}.csv.gz"
    tracer.write_spans(spans)
    notes = {"jobs": len(jobs) - len(PROBES), "probe_jobs": len(PROBES),
             "rounds": n_rounds,
             "spans": len(tracer.span_name), "untraced_wall_s": untraced,
             "traced_wall_s": traced_wall,
             "spans_file": str(spans.relative_to(ROOT)), "max_exp": cap}
    return metrics, notes


# One minimal call into every traced layer, on every workload, so that each
# per-layer time is a measurement there rather than a constant zero.  The
# probes cost milliseconds, against seconds of workload jobs.
PROBES = ({"probe": "sets"}, {"probe": "line"}, {"probe": "dets"})


def probe(mods, spec):
    e, m, c, d = mods.engine, mods.model, mods.constructions, mods.determinants
    if spec["probe"] == "sets":
        s = m.Support3.from_values(1, 2, 3)
        built = c.make_two_point(s, (1, 2), (2, 1))
        x, sup, desc = e.witness_from_json(json.loads(json.dumps(built.to_json())))
        e.verify_claim(x, sup, desc, 2, 2)
        sym = c.make_lattice_union(1, ["ee"])
        table = m.table_from_offsets(m.rescale(sym.x), sym.support, sym.support)
        e.enumerate_box_table(table, 2, 2)
        e.classify_symmetric(table)
        e.offsets_delta(sym.x, sym.support, sym.support, 1, 1)
    elif spec["probe"] == "line":
        c.slopeline_beta_star(2, 9).enumerate_box(1, 2)
    else:
        d.f_check(2, 3)
        d.g_check(1, 2)
        d.independence_certificate([(1, 2), (2, 4), (3, 6), (4, 8)],
                                   m.BetaSupport(1, 2))


def emit(run: Run, metrics: dict, notes: dict, trace: int) -> None:
    info = provenance()
    print(f"# uncorrsets benchmark  workload={run.wl.name} seed={run.seed} "
          f"(default {DEFAULT_SEED}) trace={trace}")
    print(f"# git_sha={info['git_sha']} dirty={info['git_dirty']} "
          f"python={info['python']} nproc={info['nproc']} "
          f"UNCORRSET_MAX_EXP={notes['max_exp']}")
    print("# " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in notes.items() if k != "max_exp"))
    rate = run.failed / run.attempted
    print(f"# attempted={run.attempted} failed={run.failed} error_rate={rate:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=run.wl.name, seed=run.seed, trace=trace,
                  default_seed=DEFAULT_SEED, provenance=info, notes=notes,
                  samples=run.samples)
    with open(OUT / f"result-{run.wl.name}-seed{run.seed}-trace{trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))


def run_child(workload: str, seed: int, seconds: float, trace: int = 0):
    """One workload in a fresh process: (exit status, result or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def run_all(args) -> int:
    """Every workload in a fresh process, one after another; one row each."""
    rows, status = [], 0
    for name in WORKLOADS:
        code, result, err = run_child(name, args.seed, args.seconds, args.trace)
        sys.stderr.write(err)
        if code != 0 or result is None:
            status = 1
        if result is not None:
            rows.append((name, result))
    if not rows:
        return 1
    metric_names = list(rows[0][1]["metrics"])
    print(f"{'workload':16s} {'error_rate':>12s} " + " ".join(
        f"{m:>14s}" for m in metric_names))
    print(f"{'':16s} {'ratio':>12s} " + " ".join(
        f"{rows[0][1]['metrics'][m]['unit']:>14s}" for m in metric_names))
    for name, result in rows:
        rate = result["failed"] / result["attempted"]
        print(f"{name:16s} {rate:12.4g} " + " ".join(
            f"{result['metrics'][m]['value']:14.6g}" for m in metric_names))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up from the start of this process, print "
                        "its seconds and exit (the fresh-process set-up samples)")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only times the set-up of one workload")
    if not (SRC / "uncorrsets" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run = Run(WORKLOADS[args.workload], args.seed)
    try:
        if args.setup_only:
            print(f"{setup(run, pass_rounds(run, args.seconds), START)[4]!r}")
            return 0 if run.failed == 0 else 1
        metrics, notes = (traced if args.trace else timed)(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(run, metrics, notes, args.trace)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
