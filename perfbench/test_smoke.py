"""Smoke test of the benchmark itself; run with

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload briefly, checks the result line against
BENCHMARK.json and that the result record keeps the times as measured,
shows that a wrong expectation is counted as a failed job
and turns into a nonzero exit status, that tracing puts every patched
function back and gives the same counts on a repeated run, and that the
layer spans account for nearly all of the traced job time.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Job time inside no layer span (JSON round trips, oracles, unwrapped
# helpers) is about 1 % on every workload; a share above this limit means
# some layer's work goes unmeasured.
UNATTRIBUTED_LIMIT = 0.05


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def _check_result(line, wanted):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    return result


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_schema(name):
    code, lines, err = _bench("--workload", name, "--seed", "7", "--seconds", "0.3",
                              "--trace", "0")
    assert code == 0, err
    result = _check_result(lines[-1], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_run_keeps_measured_times_and_samples():
    code, _, err = _bench("--workload", "det-identities", "--seed", "7", "--seconds", "0.3",
                          "--trace", "0")
    assert code == 0, err
    record = json.loads((HERE / "out" / "result-det-identities-seed7-trace0.json").read_text())
    for name in ("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "cli_p50_ms"):
        assert record["notes"][f"measured_{name}"] > 0
    samples = record["samples"]
    assert len(samples["jobs"]) == record["notes"]["jobs"]
    assert all(len(t) == run.PASSES for t in samples["jobs"])
    assert len(samples["cli"]) == run.PASSES * workloads.CLI_JOBS
    assert len(samples["spawns"]) == run.PASSES * workloads.CLI_JOBS


def test_quantile():
    assert run.quantile([5.0], 0.9) == 5.0
    assert run.quantile([2.0] * 7, 0.5) == pytest.approx(2.0)
    xs = [float(i) for i in range(1, 100)]
    assert run.quantile(xs, 0.5) == pytest.approx(50.0)
    assert 88 < run.quantile(xs, 0.9) < 92
    assert run.quantile(xs, 0.5) < run.quantile(xs, 0.9)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_accounts_for_job_time(name):
    code, lines, err = _bench("--workload", name, "--seed", "7", "--seconds", "0.3",
                              "--trace", "1")
    assert code == 0, err
    result = _check_result(lines[-1], SPEC["per_layer"])
    assert 0 < result["metrics"]["trace.unattributed_ratio"]["value"] < UNATTRIBUTED_LIMIT


def test_traced_counts_repeat():
    results = []
    for _ in range(2):
        code, lines, err = _bench("--workload", "det-identities", "--seed", "7",
                                  "--seconds", "2", "--trace", "1")
        assert code == 0, err
        results.append(_check_result(lines[-1], SPEC["per_layer"]))
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith((".calls", "_ratio", ".max_bits", ".errors"))
               and not k.startswith("trace.")} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["determinants.mp_det.calls"] > 0


def test_wrong_descriptor_is_a_failed_job(monkeypatch):
    mods = run.load_package()
    spec = workloads.set_spec(random.Random(1), "vline", "int", 12, 12)
    for wl in (workloads.VerifySweep(), workloads.MomentAudit()):
        r = run.Run(wl, 1)
        r.job(mods, spec)
        assert (r.attempted, r.failed) == (1, 0)
        monkeypatch.setattr(
            workloads, "expected_descriptor",
            lambda mods, s: mods.engine.SetDescriptor.vline(s["points"][0][0] % 12 + 1))
        r.job(mods, spec)
        assert (r.attempted, r.failed) == (2, 1)
        monkeypatch.undo()

    line = workloads.AlgebraicLine()
    r = run.Run(line, 1)
    spec = {"m": 2, "k": 9, "box": [4, 9]}
    r.job(mods, spec)
    monkeypatch.setattr(line, "_want", lambda mods, s: mods.engine.SetDescriptor.slopeline(
        2, extra=((4, 10),), certificate=mods.engine.BOX_VERIFIED))
    r.job(mods, spec)
    assert (r.attempted, r.failed) == (2, 1)


def test_wrong_answer_makes_the_command_fail(monkeypatch):
    monkeypatch.setattr(
        workloads, "expected_descriptor",
        lambda mods, s: mods.engine.SetDescriptor.empty())
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "moment-audit", "--seconds", "0.1"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_tracer_restores_every_binding_and_nests_recursion():
    mods = run.load_package()
    owners = list(mods.all_modules)
    owners += [getattr(m, n) for m in mods.all_modules for n in dir(m)
               if isinstance(getattr(m, n), type)
               and getattr(m, n).__module__.startswith("uncorrsets")]
    before = [(o, dict(vars(o))) for o in owners]
    tracer = Tracer(mods)
    tracer.install()
    try:
        assert hasattr(mods.constructions.sturm_root_count, "__wrapped__")
        assert hasattr(mods.engine.ASequence.__getitem__, "__wrapped__")
        assert hasattr(mods.polynomials.MultiPoly.__rmul__, "__wrapped__")
        tracer.run_job(0, mods.determinants.g_check, 2, 3)
        tracer.run_job(1, mods.polynomials.IntPoly.gcd,
                       mods.polynomials.IntPoly([-1, 0, 1]), mods.polynomials.IntPoly([1, 1]))
        # time outside every layer span stays with the job's root span
        tracer.run_job(2, time.sleep, 0.02)
    finally:
        tracer.uninstall()
    assert all(dict(vars(o)) == d for o, d in before)
    agg = tracer.aggregate()
    # a 4x4 cofactor expansion: 1 + 4 + 4*3 + 4*3*2 calls, each nested
    assert agg["determinants.mp_det"]["calls"] == 41
    assert agg["polynomials.IntPoly.gcd"]["calls"] == 1
    assert tracer.gcd_nontrivial == 1
    total = agg["bench.job"]["total_s"]
    assert abs(sum(row["self_s"] for row in agg.values()) - total) < 1e-9 * max(1, total)
    assert all(row["self_s"] >= 0 for row in agg.values())
    assert agg["bench.job"]["self_s"] >= 0.02


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _ = _bench("--workload", "det-identities", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
