"""The ``repro`` command-line interface.

Installed as the ``repro`` console script and runnable as ``python -m
repro``.  Subcommands:

``infer``
    Run full specification inference on named benchmarks (or whole
    categories) through the batch engine and print the invariants.  With
    ``--connect SOCKET`` the request is served by a running ``repro
    serve`` daemon instead (NDJSON record stream on stdout), falling back
    to an in-process run emitting the identical stream when no daemon
    answers.
``serve``
    Run the long-lived inference daemon: NDJSON requests over a Unix
    socket, bounded admission, per-request deadlines, graceful drain on
    SIGTERM and crash-safe resume (see ``docs/serving.md``).
``table1`` / ``table2``
    Regenerate the paper's evaluation tables, optionally in parallel
    (``--jobs N``) and as JSON (``--json``).
``bench``
    Measure sequential-vs-parallel wall time and cache hit rates of the
    engine over the Table 1 suite and emit a JSON report.  With
    ``--warm-start`` it instead runs the suite twice against one persistent
    cache file and reports the cold/warm ratio and disk hit rate.
``cache``
    Inspect and manage persistent cache files: ``stats``, ``export``,
    ``import``, ``clear`` and ``fingerprint`` (the registry fingerprint
    used as the CI cache key).
``trace``
    Analyse NDJSON span traces written by ``--trace-out``: ``summary``
    (per-phase table, hottest locations/predicates), ``export --format
    chrome`` (Perfetto / ``about://tracing``) and ``diff`` (see
    ``docs/observability.md``).
``chaos``
    Run named fault-injection scenarios (worker kills, hangs, cache
    corruption, disk-full, poison jobs) against the Table 1 smoke workload
    and verify the self-healing contract (see ``docs/resilience.md``).
``docs``
    Regenerate ``docs/predicates.md`` from the predicate standard library.

Every subcommand that analyses programs goes through
:class:`repro.core.engine.InferenceEngine`, so ``--jobs``/``--timeout``
behave identically everywhere.

Import rule: this module imports nothing heavy at module level.  Each
handler imports its machinery when its subcommand is dispatched, so
``repro infer --connect`` -- one short-lived process per question to a
daemon -- loads only :mod:`repro.serve.client` and
:mod:`repro.serve.protocol` besides the package roots and this module.
``tests/cli/test_import_footprint.py`` and ``make serve-smoke`` hold it
to that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def add_table2_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the Table 2 flags, which Table 1 shares (``python -m repro table2``)."""
    parser.add_argument("--category", action="append", help="restrict to a category (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="random seed for test inputs")
    parser.add_argument(
        "--max-programs",
        "--limit",
        dest="max_programs",
        type=int,
        default=None,
        help="cap programs per category (smoke runs)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-benchmark timeout in seconds"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of the table")


def add_table1_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the Table 1 flags (``python -m repro table1``)."""
    add_table2_arguments(parser)
    parser.add_argument(
        "--invariants", action="store_true", help="include inferred formulas in --json output"
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace of the run (see docs/observability.md)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLING reproduction: dynamic inference of separation-logic invariants.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    infer = subparsers.add_parser(
        "infer", help="infer specifications for benchmarks from the registry"
    )
    infer.add_argument(
        "--benchmark",
        action="append",
        help="benchmark name, e.g. sll/insertFront (repeatable)",
    )
    infer.add_argument(
        "--category", action="append", help="run every benchmark of a category (repeatable)"
    )
    infer.add_argument("--list", action="store_true", help="list benchmark names and exit")
    infer.add_argument("--seed", type=int, default=0, help="random seed for test inputs")
    infer.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    infer.add_argument(
        "--timeout", type=float, default=None, help="per-benchmark timeout in seconds"
    )
    infer.add_argument("--json", action="store_true", help="emit JSON instead of text")
    infer.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace of the run (see docs/observability.md)",
    )
    infer.add_argument(
        "--connect",
        default=None,
        metavar="SOCKET",
        help=(
            "submit to a running 'repro serve' daemon on this Unix socket "
            "and stream its NDJSON records to stdout; falls back to an "
            "in-process run emitting the identical stream when no daemon "
            "answers"
        ),
    )
    infer.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --connect: request deadline, seconds from admission",
    )
    infer.add_argument(
        "--request-id",
        default="infer",
        metavar="ID",
        help="with --connect: the request id stamped into every record",
    )
    infer.set_defaults(handler=_cmd_infer)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived inference daemon (see docs/serving.md)"
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH", help="Unix socket to listen on"
    )
    serve.add_argument("--jobs", type=int, default=1, help="engine worker processes")
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="admission queue capacity; overflowing submissions are rejected",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="request journal for crash-safe resume (default: SOCKET.journal)",
    )
    serve.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persistent cache file, flushed incrementally per function",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout applied to every request (deadlines tighten it)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace (request/queue_wait/drain spans)",
    )
    serve.set_defaults(handler=_cmd_serve)

    table1 = subparsers.add_parser("table1", help="regenerate Table 1 (invariant inference)")
    add_table1_arguments(table1)
    table1.set_defaults(handler=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="regenerate Table 2 (SLING vs S2)")
    add_table2_arguments(table2)
    table2.set_defaults(handler=_cmd_table2)

    bench = subparsers.add_parser(
        "bench", help="benchmark the engine: sequential vs parallel, cache hit rates"
    )
    bench.add_argument("--category", action="append", help="restrict to a category (repeatable)")
    bench.add_argument(
        "--limit", type=int, default=None, help="cap programs per category (smoke runs)"
    )
    bench.add_argument("--jobs", type=int, default=4, help="parallel sweep worker count")
    bench.add_argument("--seed", type=int, default=0, help="random seed for test inputs")
    bench.add_argument("--out", default=None, help="write the JSON report to this file")
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BENCH_prev.json",
        help=(
            "load a previous bench report and fail (exit 1) when the "
            "sequential wall time regressed by more than 20%% "
            "(see --compare-threshold)"
        ),
    )
    bench.add_argument(
        "--compare-threshold",
        type=float,
        default=BENCH_REGRESSION_THRESHOLD,
        metavar="FRACTION",
        help=(
            "relative sequential wall-time increase tolerated by --compare "
            "(default 0.20; raise it on shared/noisy machines where the "
            "committed baseline was measured idle)"
        ),
    )
    bench.add_argument(
        "--assert-accel",
        type=float,
        default=None,
        metavar="RATIO",
        help=(
            "fail (exit 1) when this run's speedup.cache -- the same-run, "
            "load-immune accelerated-vs-unaccelerated sequential ratio -- "
            "falls below RATIO"
        ),
    )
    bench.add_argument(
        "--warm-start",
        action="store_true",
        help=(
            "persistent-cache mode: run the suite twice against one cache "
            "file (cold write, warm read) and report the cold/warm ratio "
            "and disk hit rate instead of the parallel sweeps"
        ),
    )
    bench.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help=(
            "cache file for --warm-start (default: a temporary file, "
            "deleted afterwards; pass a path to keep the warmed cache)"
        ),
    )
    bench.add_argument(
        "--assert-warm-hit",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "with --warm-start, fail (exit 1) when the warm sweep's disk "
            "hit rate falls below RATE (e.g. 0.9)"
        ),
    )
    bench.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace the accelerated sweeps and add a per-phase 'phases' "
            "summary to the report (additive keys only); the NDJSON trace "
            "goes to --trace-out, default trace.ndjson"
        ),
    )
    bench.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="NDJSON trace file for --trace (implies --trace when given)",
    )
    bench.add_argument("--quiet", action="store_true", help="suppress progress messages")
    bench.set_defaults(handler=_cmd_bench)

    cache = subparsers.add_parser(
        "cache", help="inspect and manage persistent cache files"
    )
    cache.add_argument(
        "action",
        choices=("stats", "export", "import", "clear", "fingerprint"),
        help=(
            "stats: summarize a cache file; export: dump it portably; "
            "import: merge a dump into a cache file; clear: drop all "
            "entries; fingerprint: print the standard predicate registry's "
            "fingerprint (the cache key)"
        ),
    )
    cache.add_argument(
        "--file", default=None, metavar="PATH", help="the cache file to operate on"
    )
    cache.add_argument(
        "--dump",
        default=None,
        metavar="PATH",
        help="dump file written by export / read by import (default: stdout/stdin)",
    )
    cache.set_defaults(handler=_cmd_cache)

    trace = subparsers.add_parser(
        "trace", help="analyse NDJSON span traces written by --trace-out"
    )
    trace.add_argument(
        "action",
        choices=("summary", "export", "diff"),
        help=(
            "summary: per-phase self/total table and hottest spans; "
            "export: convert to another format (--format); "
            "diff: per-phase deltas between two traces (old new)"
        ),
    )
    trace.add_argument(
        "files", nargs="+", metavar="FILE", help="trace file(s); diff takes exactly two"
    )
    trace.add_argument(
        "--format",
        choices=("chrome",),
        default="chrome",
        help="export format (chrome: trace-event JSON for Perfetto/about://tracing)",
    )
    trace.add_argument(
        "--out", default=None, metavar="FILE", help="write export output here (default: stdout)"
    )
    trace.add_argument(
        "--top", type=int, default=10, help="hottest spans listed per kind (summary)"
    )
    trace.add_argument("--json", action="store_true", help="emit JSON instead of text")
    trace.set_defaults(handler=_cmd_trace)

    chaos = subparsers.add_parser(
        "chaos", help="run fault-injection scenarios against the smoke workload"
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        help="scenario name (repeatable; default: all scenarios)",
    )
    chaos.add_argument("--list", action="store_true", help="list scenario names and exit")
    chaos.add_argument(
        "--category", action="append", help="restrict the workload to a category (repeatable)"
    )
    chaos.add_argument(
        "--limit", type=int, default=None, help="cap programs per category (default 2)"
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="override the scenario's worker-pool size",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault-plan and workload seed")
    chaos.add_argument("--json", action="store_true", help="emit JSON verdicts instead of text")
    chaos.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write an NDJSON span trace of the chaos sweeps (retry/pool_heal spans)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    docs = subparsers.add_parser("docs", help="regenerate docs/predicates.md")
    docs.add_argument(
        "--out",
        default="docs/predicates.md",
        help="output path (default: docs/predicates.md)",
    )
    docs.add_argument("--stdout", action="store_true", help="print to stdout instead")
    docs.set_defaults(handler=_cmd_docs)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_infer(arguments: argparse.Namespace) -> None:
    if arguments.list:
        from repro.benchsuite.registry import all_benchmarks

        for benchmark in all_benchmarks():
            print(f"{benchmark.name:32s} [{benchmark.category}]")
        return

    names: list[str] = list(arguments.benchmark or [])
    if arguments.category:
        from repro.benchsuite.registry import all_benchmarks

        wanted = set(arguments.category)
        names.extend(
            benchmark.name
            for benchmark in all_benchmarks()
            if benchmark.category in wanted and benchmark.name not in names
        )
    if not names:
        raise SystemExit("infer: pass --benchmark NAME and/or --category NAME (or --list)")

    if arguments.connect:
        _infer_served(arguments, names)
        return

    from repro.core.engine import EngineJob, InferenceEngine
    from repro.sl.stdpreds import STRUCT_FIELDS

    config = None
    telemetry = None
    if arguments.trace_out:
        from repro.core.sling import SlingConfig
        from repro.telemetry import Telemetry

        telemetry = Telemetry(arguments.trace_out)
        config = SlingConfig(discard_crashed_runs=True, telemetry=telemetry)
    engine = InferenceEngine(jobs=arguments.jobs, job_timeout=arguments.timeout)
    reports = engine.run(
        [
            EngineJob(kind="spec", benchmark=name, seed=arguments.seed, config=config)
            for name in names
        ]
    )
    if telemetry is not None:
        telemetry.merge_segments()
        telemetry.close()

    if arguments.json:
        print(json.dumps([_spec_report_dict(report) for report in reports], indent=2))
        failed = sum(1 for report in reports if not report.ok)
        if failed:
            raise SystemExit(f"infer: {failed} benchmark(s) failed")
        return

    failures = 0
    for report in reports:
        if not report.ok:
            failures += 1
            print(f"== {report.job.benchmark}: FAILED ({report.error})")
            continue
        payload = report.payload
        spec = payload.specification
        print(f"== {payload.benchmark} ({payload.function}), {report.seconds:.2f}s ==")
        for invariant in spec.preconditions:
            print(f"  [pre     ] {invariant.pretty(STRUCT_FIELDS)}")
        for location, invariants in spec.postconditions.items():
            for invariant in invariants:
                flag = " (spurious)" if invariant.spurious else ""
                print(f"  [{location:8s}] {invariant.pretty(STRUCT_FIELDS)}{flag}")
        for location, invariants in spec.loop_invariants.items():
            for invariant in invariants:
                print(f"  [{location:8s}] {invariant.pretty(STRUCT_FIELDS)}")
        print(f"  validated: {spec.validated}")
    if failures:
        raise SystemExit(f"infer: {failures} benchmark(s) failed")


def _infer_served(arguments: argparse.Namespace, names: list[str]) -> None:
    """``infer --connect``: daemon-served, with an in-process fallback."""
    from repro.serve.client import ServeUnavailable, run_local, submit
    from repro.serve.protocol import ServeRequest

    request = ServeRequest(
        id=arguments.request_id,
        benchmarks=tuple(names),
        seed=arguments.seed,
        deadline=arguments.deadline,
    )
    try:
        terminal = submit(arguments.connect, request, sys.stdout)
    except ServeUnavailable as reason:
        print(f"# {reason}; running in-process", file=sys.stderr)
        terminal = run_local(request, sys.stdout, jobs=arguments.jobs)
    if terminal["type"] == "rejected":
        raise SystemExit(f"infer: request rejected: {terminal['reason']}")
    if terminal["status"] != "complete":
        raise SystemExit(f"infer: request ended {terminal['status']}")


def _cmd_serve(arguments: argparse.Namespace) -> None:
    from repro.serve.daemon import DEFAULT_QUEUE_LIMIT, ServeDaemon

    telemetry = None
    if arguments.trace_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(arguments.trace_out)
    daemon = ServeDaemon(
        arguments.socket,
        jobs=arguments.jobs,
        queue_limit=arguments.queue_limit or DEFAULT_QUEUE_LIMIT,
        journal_path=arguments.journal,
        cache_file=arguments.cache_file,
        request_timeout=arguments.request_timeout,
        telemetry=telemetry,
    )
    sys.exit(daemon.serve())


def _cmd_table1(arguments: argparse.Namespace) -> None:
    from repro.evaluation.table1 import table1_command

    table1_command(arguments)


def _cmd_table2(arguments: argparse.Namespace) -> None:
    from repro.evaluation.table2 import table2_command

    table2_command(arguments)


def _spec_report_dict(report) -> dict:
    data = {
        "benchmark": report.job.benchmark,
        "ok": report.ok,
        "seconds": round(report.seconds, 4),
        "cache": report.cache.as_dict(),
    }
    if not report.ok:
        data["error"] = report.error
        return data
    spec = report.payload.specification
    data["function"] = report.payload.function
    data["validated"] = spec.validated
    data["invariants"] = [
        {
            "location": invariant.location,
            "formula": invariant.pretty(),
            "spurious": invariant.spurious,
        }
        for invariant in spec.all_invariants()
    ]
    return data


#: Relative wall-time increase over the previous report that fails a
#: ``bench --compare`` run.
BENCH_REGRESSION_THRESHOLD = 0.20


def _cmd_bench(arguments: argparse.Namespace) -> None:
    from repro.core.engine import benchmark_engine

    progress = None if arguments.quiet else lambda message: print(f"# {message}", file=sys.stderr)
    if arguments.warm_start:
        _cmd_bench_warm_start(arguments, progress)
        return
    # Read the baseline up front: --out may legitimately point at the same
    # file (the accumulating BENCH_engine.json trajectory), and comparing
    # after the write would pit the new report against itself.
    previous = None
    if arguments.compare:
        with open(arguments.compare, encoding="utf-8") as handle:
            previous = json.load(handle)
    trace_out = arguments.trace_out
    if arguments.trace and trace_out is None:
        trace_out = "trace.ndjson"
    report = benchmark_engine(
        categories=arguments.category,
        limit=arguments.limit,
        jobs=arguments.jobs,
        seed=arguments.seed,
        progress=progress,
        trace_out=trace_out,
    )
    text = json.dumps(report, indent=2)
    # The regression gates run BEFORE the report is written: when --out and
    # --compare point at the same trajectory file, a failing run must not
    # replace the very baseline it failed against.
    failure = None
    if previous is not None:
        failure = _compare_bench_reports(previous, report, arguments.compare_threshold)
    if failure is None and arguments.assert_accel is not None:
        accel = report["speedup"]["cache"]
        if accel is None or accel < arguments.assert_accel:
            failure = (
                f"bench: acceleration speedup {accel} fell below the required "
                f"{arguments.assert_accel} (sequential vs sequential_nocache, "
                "measured in this same run)"
            )
    if arguments.out and failure is None:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {arguments.out}", file=sys.stderr)
    else:
        print(text)
    if failure is not None:
        raise SystemExit(failure)


def _cmd_bench_warm_start(arguments: argparse.Namespace, progress) -> None:
    """``bench --warm-start``: Table 1 twice against one persistent cache file."""
    import tempfile

    from repro.core.engine import benchmark_warm_start

    cache_file = arguments.cache_file
    temp_dir = None
    if cache_file is None:
        temp_dir = tempfile.TemporaryDirectory(prefix="repro-warm-")
        cache_file = os.path.join(temp_dir.name, "warm.sqlite")
    try:
        report = benchmark_warm_start(
            categories=arguments.category,
            limit=arguments.limit,
            seed=arguments.seed,
            cache_file=cache_file,
            jobs=arguments.jobs,
            progress=progress,
        )
    finally:
        if temp_dir is not None:
            temp_dir.cleanup()
    text = json.dumps(report, indent=2)
    failure = None
    if arguments.assert_warm_hit is not None:
        hit_rate = report["disk"]["warm"]["hit_rate"]
        if hit_rate < arguments.assert_warm_hit:
            failure = (
                f"bench: warm-start disk hit rate {hit_rate} fell below the "
                f"required {arguments.assert_warm_hit}"
            )
    if arguments.out and failure is None:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {arguments.out}", file=sys.stderr)
    else:
        print(text)
    if failure is not None:
        raise SystemExit(failure)


def _cmd_cache(arguments: argparse.Namespace) -> None:
    """``repro cache``: inspect and manage persistent cache files."""
    import pickle

    from repro.cache import CacheStore, registry_fingerprint
    from repro.sl.stdpreds import standard_predicates

    if arguments.action == "fingerprint":
        # The registry fingerprint doubles as the CI cache key: predicate
        # edits change it, so stale warmed caches are never restored.
        print(registry_fingerprint(standard_predicates()))
        return

    if arguments.file is None:
        raise SystemExit(f"cache {arguments.action}: pass --file PATH")
    store = CacheStore(arguments.file)
    try:
        if arguments.action == "stats":
            print(json.dumps(store.stats(), indent=2))
        elif arguments.action == "clear":
            dropped = store.clear()
            print(f"cleared {dropped} entries from {arguments.file}", file=sys.stderr)
        elif arguments.action == "export":
            dump = store.export_rows()
            if arguments.dump:
                with open(arguments.dump, "wb") as handle:
                    pickle.dump(dump, handle, protocol=pickle.HIGHEST_PROTOCOL)
                print(
                    f"exported {len(dump['rows'])} entries to {arguments.dump}",
                    file=sys.stderr,
                )
            else:
                sys.stdout.buffer.write(pickle.dumps(dump, protocol=pickle.HIGHEST_PROTOCOL))
        elif arguments.action == "import":
            if arguments.dump:
                with open(arguments.dump, "rb") as handle:
                    dump = pickle.load(handle)
            else:
                dump = pickle.loads(sys.stdin.buffer.read())
            merged = store.import_rows(dump)
            if merged == 0 and store.load_errors:
                raise SystemExit(
                    f"cache import: dump rejected (schema mismatch or "
                    f"unreadable store {arguments.file})"
                )
            print(f"imported {merged} entries into {arguments.file}", file=sys.stderr)
    finally:
        store.close()


def _cmd_trace(arguments: argparse.Namespace) -> None:
    """``repro trace``: summarize, export or diff NDJSON span traces."""
    from repro.telemetry import (
        TraceError,
        diff_summaries,
        hottest,
        phase_summary,
        read_trace,
        to_chrome,
    )

    try:
        if arguments.action == "diff":
            if len(arguments.files) != 2:
                raise SystemExit("trace diff: pass exactly two trace files (old new)")
            diff = diff_summaries(
                read_trace(arguments.files[0]), read_trace(arguments.files[1])
            )
            if arguments.json:
                print(json.dumps(diff, indent=2))
            else:
                print(_format_trace_diff(diff))
            return
        if len(arguments.files) != 1:
            raise SystemExit(f"trace {arguments.action}: pass exactly one trace file")
        records = read_trace(arguments.files[0])
    except TraceError as error:
        raise SystemExit(f"trace: {error}")

    if arguments.action == "export":
        payload = json.dumps(to_chrome(records), indent=2)
        if arguments.out:
            with open(arguments.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {arguments.out}", file=sys.stderr)
        else:
            print(payload)
        return

    summary = phase_summary(records)
    hot = {
        label: hottest(records, kind, top=arguments.top)
        for label, kind in (
            ("locations", "location"),
            ("predicates", "candidate_group"),
        )
    }
    if arguments.json:
        print(json.dumps({"phases": summary, "hottest": hot}, indent=2))
        return
    print(_format_trace_summary(summary, hot))


def _format_trace_summary(summary: dict, hot: dict) -> str:
    from repro.telemetry import SPAN_KINDS

    header = f"{'phase':20s} {'count':>8s} {'total(s)':>10s} {'self(s)':>10s}"
    lines = [header, "-" * len(header)]
    ordered = [kind for kind in SPAN_KINDS if kind in summary]
    ordered += [kind for kind in summary if kind not in SPAN_KINDS]
    for kind in ordered:
        entry = summary[kind]
        self_column = (
            f"{entry['self_seconds']:10.3f}" if "self_seconds" in entry else f"{'(aux)':>10s}"
        )
        lines.append(
            f"{kind:20s} {entry['count']:8d} {entry['total_seconds']:10.3f} {self_column}"
        )
    for label, ranked in hot.items():
        if not ranked:
            continue
        lines.append("")
        lines.append(f"hottest {label}:")
        for entry in ranked:
            lines.append(
                f"  {entry['name']:40s} {entry['count']:6d}x {entry['total_seconds']:10.3f}s"
            )
    return "\n".join(lines)


def _format_trace_diff(diff: dict) -> str:
    header = (
        f"{'phase':20s} {'count':>13s} {'total(s)':>21s} {'delta':>10s}"
    )
    lines = [header, "-" * len(header)]
    for kind, entry in diff.items():
        lines.append(
            f"{kind:20s} {entry['count_old']:6d}>{entry['count_new']:<6d} "
            f"{entry['total_seconds_old']:10.3f}>{entry['total_seconds_new']:<10.3f} "
            f"{entry['total_delta']:+10.3f}"
        )
    return "\n".join(lines)


def _compare_bench_reports(
    previous: dict, report: dict, threshold: float = BENCH_REGRESSION_THRESHOLD
) -> str | None:
    """Check the sequential wall time against the threshold.

    The sequential sweep is the comparison metric: it is the engine's
    reference execution mode and is unaffected by worker-count or
    fork-overhead differences between machines.  Returns the failure
    message on a regression beyond the threshold, ``None`` otherwise.
    """
    previous_seconds = previous["wall_seconds"]["sequential"]
    current_seconds = report["wall_seconds"]["sequential"]
    ratio = current_seconds / previous_seconds if previous_seconds else float("inf")
    print(
        f"# sequential wall time: {previous_seconds:.3f}s -> {current_seconds:.3f}s "
        f"({ratio:.2f}x of previous)",
        file=sys.stderr,
    )
    if current_seconds > previous_seconds * (1.0 + threshold):
        return (
            f"bench: sequential wall time regressed by more than "
            f"{threshold:.0%} "
            f"({previous_seconds:.3f}s -> {current_seconds:.3f}s)"
        )
    return None


def _cmd_chaos(arguments: argparse.Namespace) -> None:
    from repro.faults.chaos import run_scenarios, scenario_catalog

    catalog = scenario_catalog()
    if arguments.list:
        for name in sorted(catalog):
            print(f"{name:16s} {catalog[name]}")
        return

    names = arguments.scenario or sorted(catalog)
    unknown = [name for name in names if name not in catalog]
    if unknown:
        raise SystemExit(f"unknown chaos scenario(s): {', '.join(unknown)}")

    telemetry = None
    if arguments.trace_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(arguments.trace_out)
    try:
        reports = run_scenarios(
            names,
            categories=arguments.category,
            limit=arguments.limit,
            jobs=arguments.jobs,
            seed=arguments.seed,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()

    if arguments.json:
        print(json.dumps([report.as_dict() for report in reports], indent=2))
    else:
        print("\n\n".join(report.summary() for report in reports))
    if any(not report.passed for report in reports):
        sys.exit(1)


def _cmd_docs(arguments: argparse.Namespace) -> None:
    from repro.docsgen import render_predicate_reference

    text = render_predicate_reference()
    if arguments.stdout:
        print(text, end="")
        return
    directory = os.path.dirname(arguments.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {arguments.out}", file=sys.stderr)


def main(argv: list[str] | None = None) -> None:
    """Entry point of the ``repro`` console script and ``python -m repro``."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    try:
        arguments.handler(arguments)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. ``repro infer ... | head -1``): exit
        # cleanly.  Pointing stdout at /dev/null first keeps the
        # interpreter's shutdown flush from tracebacking on the same pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
    except _engine_error() as error:
        raise SystemExit(f"{arguments.command}: {error}")


def _engine_error() -> type:
    """:class:`~repro.errors.EngineError`, imported on demand.

    ``main`` names it in an ``except`` clause, whose expression Python
    evaluates only once an exception propagates: a run that succeeds never
    imports the module, and the ``--connect`` client stays import-light.
    """
    from repro.errors import EngineError

    return EngineError


if __name__ == "__main__":
    main()
