"""Regenerate ``reference.json``, the benchmark's committed outputs.

Run from the repository root, only when a change is meant to change the
inferred invariants::

    PYTHONPATH=src python3 benchmarks/repobench/regenerate.py

For every reference input seed it runs the full registry twice through the
engine -- ``jobs=1`` and ``jobs=<cpu count>`` -- as both ``table1`` and
``spec`` jobs, and refuses to write unless the two sweeps agree on every
program and every job succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from golden import (
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    documented_coverage,
    spec_digest,
    table1_digest,
)


def outputs(jobs: int, seed: int) -> dict[str, dict]:
    """One program's reference entry per registry program, from one engine."""
    from repro.benchsuite.registry import all_benchmarks
    from repro.core.engine import EngineJob, InferenceEngine
    from repro.core.sling import SlingConfig
    from repro.serve.protocol import records_for_report

    benchmarks = all_benchmarks()
    engine = InferenceEngine(jobs=jobs)
    config = SlingConfig(discard_crashed_runs=True)
    table1 = engine.run(
        [EngineJob(kind="table1", benchmark=b.name, seed=seed, config=config) for b in benchmarks]
    )
    spec = engine.run(
        [EngineJob(kind="spec", benchmark=b.name, seed=seed, config=config) for b in benchmarks]
    )
    entries = {}
    for benchmark, row, served in zip(benchmarks, table1, spec):
        for report in (row, served):
            if not report.ok:
                raise SystemExit(f"{benchmark.name} seed {seed} failed: {report.error}")
        entries[benchmark.name] = {
            "t1": table1_digest(row.payload),
            "doc": documented_coverage(benchmark, row.payload.specification),
            "spec": spec_digest(records_for_report("ref", served)),
        }
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2,
                        help="worker count of the parallel sweep (default: cpu count)")
    parser.add_argument("--out", default=str(REFERENCE_PATH))
    arguments = parser.parse_args(argv)
    parallel_jobs = max(2, arguments.jobs)

    seeds = {}
    for seed in REFERENCE_SEEDS:
        sequential = outputs(1, seed)
        parallel = outputs(parallel_jobs, seed)
        disagree = sorted(
            name for name in sequential if sequential[name] != parallel.get(name)
        )
        if disagree or set(sequential) != set(parallel):
            print(f"refusing to write: jobs=1 and jobs={parallel_jobs} disagree at seed"
                  f" {seed} on {disagree or 'the program set'}", file=sys.stderr)
            return 1
        seeds[str(seed)] = sequential
        print(f"seed {seed}: {len(sequential)} programs agree", file=sys.stderr)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump({"seeds": seeds}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {arguments.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
