"""The benchmark's CLI requests, run through ``cli.main`` in-process.

``perfbench/workloads.py`` writes the argv of every CLI job it times.  If
``construct`` refused one of them, those jobs would fail instead of being
measured.  So every set family in every support style, and each workload's
own CLI jobs (the near-line ``construct slopeline --m --k`` among them),
must exit 0 with the document the benchmark expects.  This module only
reads ``perfbench/``.
"""

import json
import random
import sys
import types
from pathlib import Path

import pytest

from leaf_runs import run
from uncorrsets import constructions, determinants, engine, model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

MODS = types.SimpleNamespace(
    constructions=constructions, determinants=determinants, engine=engine, model=model
)


class InProcessCli:
    """``workloads.Cli`` with each run made by ``cli.main`` in this process."""

    def __init__(self):
        self.runs = []

    def check(self, args, want, stdin=None):
        code, out, err = run(stdin or "", args)
        self.runs.append((args, code, err))
        return code == 0 and json.loads(out) == want, out


@pytest.mark.parametrize("style", workloads.STYLES)
@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_each_family_and_style_builds_the_benchmark_document(family, style):
    spec = workloads.set_spec(random.Random(f"{family}:{style}"), family, style, 12, 12)
    code, out, err = run("", workloads.cli_construct_args(spec))
    assert (code, err) == (0, ""), spec
    assert json.loads(out) == workloads._norm(workloads.construct(MODS, spec).to_json())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_cli_job_passes(name):
    workload = workloads.WORKLOADS[name]
    cli = InProcessCli()
    for spec in workload.cli_specs(random.Random(11)):
        ok, _ = workload.run_cli(MODS, cli, spec)
        assert ok, cli.runs
