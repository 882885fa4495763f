"""Exact-repeat self-check of the benchmark's work counts.

Runs the traced run (``--trace 1``) of every sweep workload twice with the
same seed and ``PYTHONHASHSEED`` pinned, and fails unless every count --
the ``work.*`` counters and every ``*_calls`` layer count -- is identical
across the two runs.  A count-based claim is only trustworthy if this
passes.  Run from the repository root::

    python3 benchmarks/repobench/repeatcheck.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
SWEEPS = ("sweep-seq", "sweep-par", "sweep-telemetry")


def counts(workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        env=env, stdout=subprocess.PIPE, check=True, timeout=600,
    )
    metrics = json.loads(completed.stdout.decode("utf-8").splitlines()[-1])["metrics"]
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if entry["unit"] == "count" or name.startswith("work.")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="exact-repeat check of the work counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    arguments = parser.parse_args(argv)
    failures = 0
    for workload in SWEEPS:
        first = counts(workload, arguments.seed, arguments.seconds)
        second = counts(workload, arguments.seed, arguments.seconds)
        differ = sorted(name for name in first if first[name] != second.get(name))
        failures += bool(differ)
        verdict = "differ: " + ", ".join(differ) if differ else "identical"
        print(f"{workload}: {len(first)} counts {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
