"""Run-to-run spread of every end-to-end metric, per workload.

Runs ``run.py --trace 0`` once per seed for each workload and prints, per
(workload, metric), the median, the quartiles and the spread -- quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives them
-- next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of its bound is flagged (``setup_s`` is only compared for its
median).  Run from the repository root::

    python3 benchmarks/repobench/steadiness.py --seeds 10 --out spreads.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import spread, summary

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    parser = argparse.ArgumentParser(description="run-to-run spread per workload and metric")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload (seeds 100..)")
    parser.add_argument("--workload", action="append", help="restrict to a workload (repeatable)")
    parser.add_argument("--out", default=None, help="also write the raw values as JSON")
    arguments = parser.parse_args(argv)
    workloads = arguments.workload or [workload["name"] for workload in declared["workloads"]]

    raw: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        values = raw.setdefault(workload, {})
        for seed in range(100, 100 + arguments.seeds):
            completed = subprocess.run(
                [*declared["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=600,
            )
            result = json.loads(completed.stdout.decode("utf-8").splitlines()[-1])
            if completed.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        for name, series in values.items():
            stats = summary(series)
            share = spread(series)
            flag = "" if name == "setup_s" or share <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:16s} {name:20s} median {stats['median']:10.4f}"
                  f"  q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}"
                  f"  spread {share:6.3f}  bound {bounds[name]:.2f}{flag}", flush=True)
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
