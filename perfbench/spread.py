"""Run one workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload verify-sweep --seeds 1-10 [--seconds 30]

Runs are untraced and sequential, each in a fresh process.  For every metric
it prints the median and the distance between the first and third quartile
as a share of the median (``statistics.quantiles(values, n=4)``), which is
the spread the bounds in BENCHMARK.json are set against, and the ten values.
Any run that fails makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import ROOT, run_child


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    values, status = {}, 0
    for seed in args.seeds:
        code, result, err = run_child(args.workload, seed, args.seconds)
        if code != 0 or result is None:
            print(f"seed {seed}: exit {code}\n{err}", file=sys.stderr)
            status = 1
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:14s} median {med:12.6g}  iqr/median {spread:7.4f}  "
              f"bound {bounds[name]:.2f}  values {' '.join(f'{v:.6g}' for v in vals)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
