"""One cold Table 1 sweep in a fresh process (spawned by ``run.py``).

Prints two JSON lines on stdout: ``{"ready": t}`` once imports are done,
the registry is loaded and the engine is up, then ``{"result": {...}}``
after the sweep.  Clock readings are ``repro.telemetry.monotime`` values,
which share one system-wide monotonic clock with the parent.

The timed region is ``engine.run`` over one ``table1`` job per registry
program (plus closing the program's trace file under ``--trace-out``).
Every row is checked against ``reference.json`` after the timed region.
With ``--wrap`` the layer wrappers of :mod:`layers` are installed and the
result carries per-layer self times that close exactly to
``workers * wall``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import nullcontext

from repro.benchsuite.registry import all_benchmarks
from repro.core.engine import EngineJob, InferenceEngine
from repro.core.sling import SlingConfig
from repro.telemetry import Telemetry, monotime

from benchstats import close_accounting, to_ns
from golden import check_table1, load_reference
from layers import WORK_COUNTS, Layers, sum_job_layers


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _layer_accounting(reports, workers: int, wall_ns: int, sweep_end_ns: int) -> dict:
    totals = sum_job_layers(reports)
    closed = close_accounting(
        workers, wall_ns, {layer: self_ns for layer, (self_ns, _) in totals.items()}
    )
    busy_ns = sum(to_ns(report.seconds) for report in reports)
    last_end: dict[int, int] = {}
    for report in reports:
        pid, _, end = report.job_span
        last_end[pid] = max(last_end.get(pid, end), end)
    return {
        "layers": totals,
        "unattributed_ns": closed["unattributed"],
        "workers": workers,
        "wall_ns": wall_ns,
        "busy_ns": busy_ns,
        "straggler_ns": max(0, sweep_end_ns - min(last_end.values())),
    }


def _trace_counts(path: str) -> dict:
    spans = 0
    size = 0
    with open(path, "rb") as handle:
        for line in handle:
            size += len(line)
            if b'"type": "span"' in line:
                spans += 1
    return {"spans": spans, "trace_bytes": size}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one cold Table 1 sweep")
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="reference input seed")
    parser.add_argument("--wrap", action="store_true", help="install the layer wrappers")
    parser.add_argument("--trace-out", default=None, help="program trace file (telemetry on)")
    arguments = parser.parse_args(argv)

    benchmarks = all_benchmarks()
    engine = InferenceEngine(jobs=arguments.jobs)
    layers = None
    if arguments.wrap:
        layers = Layers().install()
    telemetry = Telemetry(arguments.trace_out) if arguments.trace_out else None
    config = SlingConfig(discard_crashed_runs=True, telemetry=telemetry)
    batch = [
        EngineJob(kind="table1", benchmark=b.name, seed=arguments.seed, config=config)
        for b in benchmarks
    ]
    delivered: list[float] = []
    _emit({"ready": monotime()})

    cpu_before = _cpu_seconds()
    start = monotime()
    sweep_span = (
        telemetry.tracer().span("sweep", name="table1", benchmarks=len(batch), jobs=engine.jobs)
        if telemetry is not None
        else nullcontext()
    )
    with sweep_span:
        reports = engine.run(batch, on_report=lambda index, report: delivered.append(monotime()))
    if telemetry is not None:
        telemetry.close()
    end = monotime()
    cpu = _cpu_seconds() - cpu_before

    reference = load_reference()
    mismatches = []
    for benchmark, report in zip(benchmarks, reports):
        if not report.ok:
            mismatches.append(f"{benchmark.name} seed {arguments.seed}: failed: {report.error}")
            continue
        problem = check_table1(reference, arguments.seed, benchmark, report.payload)
        if problem is not None:
            mismatches.append(problem)
    result = {
        "seed": arguments.seed,
        "jobs": len(reports),
        "failed": len(mismatches),
        "mismatches": mismatches[:5],
        "start": start,
        "wall_s": end - start,
        "cpu_s": cpu,
        "job_seconds": [report.seconds for report in reports],
        "delivered": delivered,
        "work": {
            name: sum(getattr(report.cache, name) for report in reports) for name in WORK_COUNTS
        },
        "maxrss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    if layers is not None:
        result.update(
            _layer_accounting(
                reports, min(engine.jobs, len(batch)), to_ns(end) - to_ns(start), to_ns(end)
            )
        )
    if arguments.trace_out:
        result.update(_trace_counts(arguments.trace_out))
    _emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
