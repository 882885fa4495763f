"""The repository benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 benchmarks/repobench/run.py --workload sweep-seq --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

``sweep-seq``        cold Table 1 sweeps, ``InferenceEngine(jobs=1)``
``sweep-par``        the same sweeps with ``jobs=<cpu count>``
``sweep-telemetry``  ``sweep-seq`` with the program's tracer writing a trace
``serve-connect``    a ``repro serve`` daemon and a closed loop of
                     ``repro infer --connect`` clients, one at a time

Every sweep runs in a fresh process over all registry programs; a run does
one sweep per reference input seed, so every run has the same input mix.
A run's work is fixed by ``--seed`` and ``--seconds`` alone, never by a
clock.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a
separate run with the layer wrappers of ``layers.py`` installed and prints
the per-layer metrics.  Every output is checked against ``reference.json``;
any mismatch is reported on stderr and the run exits 1.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SRC = ROOT / "src"

#: Seconds a child may run before it is killed (a run must end in 180 s).
CHILD_LIMIT = 150.0
#: Nominal seconds of one round of each workload on a 2-CPU box; a run
#: does as many whole rounds as fit in ``--seconds``, at least one.
ROUND_SECONDS = {
    "sweep-seq": 26.0, "sweep-par": 15.0, "sweep-telemetry": 29.0, "serve-connect": 25.0,
}
#: Daemon starts measured per serve run (``setup_s`` is their median).
DAEMON_STARTS = 5
#: Programs of the serve workload (every ``len(registry) // SERVE_PROGRAMS``-th).
SERVE_PROGRAMS = 25
#: Multi-program requests per serve round (``SERVE_PROGRAMS // SERVE_MULTI`` programs each).
SERVE_MULTI = 5


def _fail(message: str, code: int = 2) -> None:
    print(f"repobench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "repro" / "__init__.py").is_file():
    _fail(f"no program sources at {SRC / 'repro'}; run from a full checkout")
sys.path.insert(0, str(SRC))

from repro.telemetry import monotime  # noqa: E402

from benchstats import tail  # noqa: E402
from golden import REFERENCE_SEEDS, check_served, load_reference, reference_seed  # noqa: E402
from layers import LAYER_NAMES, WORK_COUNTS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One child process, timed from spawn to reap, with its rusage."""

    def __init__(self, argv: list[str], cwd: Path, stdout=subprocess.PIPE, stderr=None):
        self.spawned = monotime()
        self.process = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
        )
        self._timer = threading.Timer(CHILD_LIMIT, self.process.kill)
        self._timer.start()
        self.usage = None
        self.exited = None

    def reap(self) -> int:
        """Wait for exit; returns the exit code."""
        try:
            _, status, self.usage = os.wait4(self.process.pid, 0)
        finally:
            self._timer.cancel()
        self.exited = monotime()
        self.process.returncode = os.waitstatus_to_exitcode(status)
        if self.process.stdout is not None:
            self.process.stdout.close()
        return self.process.returncode

    def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            self.reap()

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime

    @property
    def maxrss_mb(self) -> float:
        return self.usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- sweeps --


def run_sweep(jobs: int, seed: int, wrap: bool = False, trace_out: Path | None = None) -> dict:
    """One sweep process; returns its result plus parent-side timings."""
    argv = [sys.executable, str(BENCH_DIR / "sweep_child.py"),
            "--jobs", str(jobs), "--seed", str(seed)]
    if wrap:
        argv.append("--wrap")
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    child = Child(argv, ROOT)
    try:
        lines = child.process.stdout.read().decode("utf-8").splitlines()
        code = child.reap()
    finally:
        child.kill()
    if code != 0 or len(lines) < 2:
        _fail(f"sweep child (jobs={jobs}, seed={seed}) exited {code}", 1)
    result = json.loads(lines[-1])["result"]
    result["setup_s"] = json.loads(lines[0])["ready"] - child.spawned
    result["first_record_s"] = result["delivered"][0] - child.spawned
    # A row's request latency is the caller's wait for it: from the previous
    # row's delivery (the sweep's start for the first row) to its own.
    marks = [result["start"], *result["delivered"]]
    result["requests"] = [after - before for before, after in zip(marks, marks[1:])]
    result["process_cpu_s"] = child.cpu_s
    result["maxrss_mb"] = max(child.maxrss_mb, result["maxrss_kb"] / 1024.0)
    if trace_out is not None:
        trace_out.unlink()
    return result


def sweep_plan(seed: int, rounds: int) -> list[int]:
    """Input seeds of a run: every reference seed once per round, rotated by ``seed``."""
    offsets = range(len(REFERENCE_SEEDS))
    return [reference_seed(seed, offset) for _ in range(rounds) for offset in offsets]


def sweep_metrics(results: list[dict]) -> dict:
    jobs = [seconds for result in results for seconds in result["job_seconds"]]
    requests = [latency for result in results for latency in result["requests"]]
    rows = sum(result["jobs"] for result in results)
    failed = sum(result["failed"] for result in results)
    return {
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "sweep_s": statistics.median(result["wall_s"] for result in results),
        "sweep_cpu_s": statistics.median(result["cpu_s"] for result in results),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail(jobs),
        "request_p50_s": statistics.median(requests),
        "request_tail_s": tail(requests),
        "first_record_p50_s": statistics.median(result["first_record_s"] for result in results),
        "request_cpu_s": sum(result["process_cpu_s"] for result in results) / rows,
        "peak_rss_mb": max(result["maxrss_mb"] for result in results),
        "ok_share": (rows - failed) / rows,
    }


def sweep_layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of wrapped sweeps: times as means per sweep, counts as totals."""
    count = len(results)
    metrics = {}
    layers: dict[str, list[int]] = {}
    for result in results:
        for layer, (self_ns, calls) in result["layers"].items():
            entry = layers.setdefault(layer, [0, 0])
            entry[0] += self_ns
            entry[1] += calls
    workers_wall = sum(result["workers"] * result["wall_ns"] for result in results)
    unattributed = sum(result["unattributed_ns"] for result in results)
    for layer, (self_ns, calls) in layers.items():
        metrics[f"{layer}_s"] = self_ns / 1e9 / count
        metrics[f"{layer}_calls"] = calls
    busy = sum(result["busy_ns"] for result in results)
    metrics.update({
        "unattributed_s": unattributed / 1e9 / count,
        "workers_x_wall_s": workers_wall / 1e9 / count,
        "core.engine.busy_s": busy / 1e9 / count,
        "core.engine.overhead_s": (workers_wall - busy) / 1e9 / count,
        "core.engine.straggler_s": sum(result["straggler_ns"] for result in results) / 1e9 / count,
    })
    return metrics


def work_metrics(work: dict[str, int]) -> dict:
    """Exact work counts and the ratios derived from them."""
    metrics = {f"work.{name}": value for name, value in work.items()}
    generated = work["candidates_generated"]
    lookups = work["disk_hits"] + work["disk_misses"]
    metrics["work.prefilter_share"] = (
        work["candidates_prefiltered"] / generated if generated else 0.0
    )
    metrics["cache.disk_hit_share"] = work["disk_hits"] / lookups if lookups else 0.0
    return metrics


def median_wall(results: list[dict]) -> float:
    return statistics.median(result["wall_s"] for result in results)


def sweep_workload(arguments, jobs: int, telemetry: bool, scratch: Path) -> tuple[dict, int, int]:
    plan = sweep_plan(arguments.seed, arguments.rounds)

    def sweep(index: int, seed: int, wrap: bool = False, program_trace: bool = telemetry) -> dict:
        trace_out = scratch / f"trace-{index}.ndjson" if program_trace else None
        return run_sweep(jobs, seed, wrap=wrap, trace_out=trace_out)

    if not arguments.trace:
        runs = [sweep(index, seed) for index, seed in enumerate(plan)]
        metrics = sweep_metrics(runs)
    else:
        # Half the plan, each seed wrapped and unwrapped back to back (and,
        # for sweep-telemetry, once more with the program's tracer off).
        wrapped, plain, untraced = [], [], []
        for index, seed in enumerate(plan[: max(1, len(plan) // 2)]):
            wrapped.append(sweep(index, seed, wrap=True))
            plain.append(sweep(index, seed))
            if telemetry:
                untraced.append(sweep(index, seed, program_trace=False))
        metrics = sweep_layer_metrics(wrapped)
        metrics.update(work_metrics(
            {name: sum(r["work"][name] for r in wrapped) for name in WORK_COUNTS}
        ))
        metrics["trace_overhead_ratio"] = median_wall(wrapped) / median_wall(plain)
        if telemetry:
            metrics["telemetry.spans"] = sum(r["spans"] for r in plain)
            metrics["telemetry.trace_bytes"] = sum(r["trace_bytes"] for r in plain)
            metrics["telemetry.overhead_ratio"] = median_wall(plain) / median_wall(untraced)
        runs = wrapped + plain + untraced
    for result in runs:
        for mismatch in result["mismatches"]:
            print(f"repobench: mismatch: {mismatch}", file=sys.stderr)
    return metrics, sum(r["jobs"] for r in runs), sum(r["failed"] for r in runs)


# ----------------------------------------------------------------- serve --


def serve_requests(seed: int, rounds: int) -> list[list[str]]:
    """The closed loop's request list: benchmark names per request.

    A fixed, evenly spaced set of registry programs; every program is named
    by two single-program requests and once inside one of the
    multi-program requests.  The seed only shuffles the order and the
    grouping, so every seed serves the same multiset of programs.
    """
    from repro.benchsuite.registry import all_benchmarks

    names = [benchmark.name for benchmark in all_benchmarks()]
    chosen = [names[i * len(names) // SERVE_PROGRAMS] for i in range(SERVE_PROGRAMS)]
    rng = random.Random(seed)
    requests = []
    for _ in range(rounds):
        grouped = chosen[:]
        rng.shuffle(grouped)
        size = len(grouped) // SERVE_MULTI
        round_requests = [[name] for name in chosen for _ in range(2)]
        round_requests += [grouped[i * size:(i + 1) * size] for i in range(SERVE_MULTI)]
        rng.shuffle(round_requests)
        requests += round_requests
    return requests


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """A ``repro serve`` daemon in its own directory, on a relative socket."""

    SOCKET = "d.sock"

    def __init__(self, directory: Path, traced: bool = False):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.record = directory / "daemon.json"
        argv = [sys.executable, str(BENCH_DIR / "serve_launch.py"),
                "daemon-traced" if traced else "daemon", str(self.record),
                "serve", "--socket", self.SOCKET, "--cache-file", "cache.sqlite"]
        self.log = open(directory / "daemon.log", "wb")
        self.child = Child(argv, directory, stdout=self.log, stderr=subprocess.STDOUT)
        self.ready_s = self._wait_ready() - self.child.spawned

    def _wait_ready(self) -> float:
        path = os.path.relpath(self.directory / self.SOCKET)
        deadline = self.child.spawned + 60.0
        while monotime() < deadline:
            if self.child.process.poll() is not None:
                _fail(f"daemon exited {self.child.process.returncode} before answering", 1)
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
                return monotime()
            except OSError:
                pass
            finally:
                probe.close()
            time.sleep(0.005)
        self.child.kill()
        _fail("daemon did not answer within 60 s", 1)

    def stop(self) -> dict:
        """Drain the daemon; returns what ``serve_launch.py`` recorded."""
        self.child.process.send_signal(signal.SIGTERM)
        code = self.child.reap()
        self.log.close()
        if code != 0:
            _fail(f"daemon drained with exit code {code}", 1)
        return json.loads(self.record.read_text())


def serve_request(daemon: Daemon, index: int, names: list[str], seed: int,
                  wrapped_out: Path | None) -> dict:
    """One closed-loop request: spawn a client, read its stream, reap it."""
    infer = ["infer", "--connect", Daemon.SOCKET, "--seed", str(seed), "--request-id", f"r{index}"]
    for name in names:
        infer += ["--benchmark", name]
    if wrapped_out is None:
        argv = [sys.executable, "-m", "repro", *infer]
    else:
        argv = [sys.executable, str(BENCH_DIR / "serve_launch.py"),
                "client", str(wrapped_out), *infer]
    child = Child(argv, daemon.directory)
    records, first_result, done_at = [], None, None
    try:
        for line in child.process.stdout:
            now = monotime()
            record = json.loads(line)
            records.append(record)
            if record["type"] == "result" and first_result is None:
                first_result = now
            elif record["type"] == "done":
                done_at = now
        code = child.reap()
    finally:
        child.kill()
    done = records[-1] if records else {}
    problems = []
    if code != 0 or done.get("type") != "done" or done.get("status") != "complete":
        problems.append(f"request r{index} {names}: exit {code}, terminal {done}")
    return {
        "names": names,
        "records": records,
        "latency": child.exited - child.spawned,
        "first_record": (first_result or child.exited) - child.spawned,
        "stream": child.exited - (done_at or child.exited),
        "server": done.get("seconds", 0.0),
        "cpu_s": child.cpu_s,
        "maxrss_mb": child.maxrss_mb,
        "spawned": child.spawned,
        "exited": child.exited,
        "problems": problems,
    }


def check_request(reference: dict, seed: int, request: dict) -> list[str]:
    problems = list(request["problems"])
    for name in request["names"]:
        records = [r for r in request["records"] if r.get("benchmark") == name]
        problem = check_served(reference, seed, name, records)
        if problem is not None:
            problems.append(problem)
    return problems


def serve_loop(scratch: Path, seed: int, plan: list[list[str]], wrapped: bool) -> dict:
    """Setup starts, then one daemon serving the whole plan."""
    setups = []
    for start in range(DAEMON_STARTS - 1):
        daemon = Daemon(scratch / f"setup-{start}")
        setups.append(daemon.ready_s)
        daemon.stop()
    daemon = Daemon(scratch / "loop", traced=wrapped)
    setups.append(daemon.ready_s)
    served = []
    try:
        daemon_cpu = _proc_cpu_s(daemon.child.process.pid)
        for index, names in enumerate(plan):
            client_out = scratch / f"client-{index}.json" if wrapped else None
            request = serve_request(daemon, index, names, seed, client_out)
            if client_out is not None:
                request["client"] = json.loads(client_out.read_text())
            served.append(request)
        daemon_cpu = _proc_cpu_s(daemon.child.process.pid) - daemon_cpu
        hwm = _proc_hwm_mb(daemon.child.process.pid)
    finally:
        recorded = daemon.stop()
    return {
        "setups": setups,
        "requests": served,
        "daemon_cpu_s": daemon_cpu,
        "daemon_hwm_mb": hwm,
        "wall_s": served[-1]["exited"] - served[0]["spawned"],
        "daemon": recorded,
    }


def serve_metrics(loop: dict) -> dict:
    requests = loop["requests"]
    latencies = [r["latency"] for r in requests]
    per_job = loop["daemon"]["job_seconds"]
    cpu = loop["daemon_cpu_s"] + sum(r["cpu_s"] for r in requests)
    return {
        "setup_s": statistics.median(loop["setups"]),
        "sweep_s": loop["wall_s"],
        "sweep_cpu_s": cpu,
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail(per_job),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail(latencies),
        "first_record_p50_s": statistics.median(r["first_record"] for r in requests),
        "request_cpu_s": cpu / len(requests),
        "peak_rss_mb": max([loop["daemon_hwm_mb"]] + [r["maxrss_mb"] for r in requests]),
    }


def serve_layer_metrics(loop: dict) -> dict:
    requests = loop["requests"]
    daemon = loop["daemon"]
    metrics = {}
    for layer, (self_ns, calls) in daemon["layers"].items():
        metrics[f"{layer}_s"] = self_ns / 1e9
        metrics[f"{layer}_calls"] = calls
    metrics.update(work_metrics(daemon["counts"]))
    metrics.update({
        "cli.import_s": statistics.median(
            r["client"]["imported"] / 1e9 - r["spawned"] for r in requests
        ),
        "serve.client_start_s": statistics.median(
            r["client"]["submit"] / 1e9 - r["spawned"] for r in requests
        ),
        "serve.server_s": statistics.median(r["server"] for r in requests),
        "serve.queue_wait_s": statistics.median(daemon["queue_waits"]),
        "serve.stream_s": statistics.median(r["stream"] for r in requests),
    })
    return metrics


def serve_workload(arguments, scratch: Path) -> tuple[dict, int, int]:
    seed = reference_seed(arguments.seed)
    plan = serve_requests(arguments.seed, arguments.rounds)
    reference = load_reference()
    if not arguments.trace:
        loop = serve_loop(scratch, seed, plan, wrapped=False)
        metrics = serve_metrics(loop)
        loops = [loop]
    else:
        plain = serve_loop(scratch / "plain", seed, plan, wrapped=False)
        loop = serve_loop(scratch / "wrapped", seed, plan, wrapped=True)
        metrics = serve_layer_metrics(loop)
        metrics["trace_overhead_ratio"] = loop["wall_s"] / plain["wall_s"]
        loops = [plain, loop]
    attempted = failed = 0
    for each in loops:
        for request in each["requests"]:
            attempted += 1
            problems = check_request(reference, seed, request)
            failed += bool(problems)
            for problem in problems:
                print(f"repobench: mismatch: {problem}", file=sys.stderr)
    if not arguments.trace:
        metrics["ok_share"] = (attempted - failed) / attempted
    return metrics, attempted, failed


# ------------------------------------------------------------------ main --

WORKLOADS = ("sweep-seq", "sweep-par", "sweep-telemetry", "serve-connect")

#: End-to-end metrics and their units.
UNITS = {
    "setup_s": "s", "sweep_s": "s", "sweep_cpu_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "request_p50_s": "s", "request_tail_s": "s", "first_record_p50_s": "s",
    "request_cpu_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
}

#: Per-layer metrics, reported on every workload (0 where a layer is idle).
PER_LAYER = (
    *(f"{layer}_{suffix}" for layer in LAYER_NAMES for suffix in ("s", "calls")),
    "unattributed_s", "workers_x_wall_s",
    "core.engine.busy_s", "core.engine.overhead_s", "core.engine.straggler_s",
    "cache.disk_hit_share",
    "cli.import_s", "serve.client_start_s", "serve.server_s", "serve.queue_wait_s",
    "serve.stream_s",
    "telemetry.spans", "telemetry.trace_bytes", "telemetry.overhead_ratio",
    "work.candidates_generated", "work.candidates_checked", "work.prefilter_share",
    "work.skeletons_solved", "work.env_stream_reuses", "work.pure_variant_evals",
    "work.kernel_groups", "work.iso_classes",
    "trace_overhead_ratio",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def render(metrics: dict, traced: bool) -> dict:
    """The result's ``metrics`` object; tails are also described on stderr."""
    rendered = {}
    names = PER_LAYER if traced else tuple(UNITS)
    for name in names:
        value = metrics.get(name, 0) if traced else metrics[name]
        if isinstance(value, tuple):
            value, percentile, samples = value
            print(f"repobench: {name} is p{percentile} of {samples} samples", file=sys.stderr)
        unit = layer_unit(name) if traced else UNITS[name]
        rendered[name] = {"value": value, "unit": unit}
    return rendered


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; sets the number of rounds, not a deadline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    arguments.rounds = max(1, int(arguments.seconds // ROUND_SECONDS[arguments.workload]))

    scratch = ROOT / ".repobench_tmp" / f"{arguments.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if arguments.workload == "serve-connect":
            metrics, attempted, failed = serve_workload(arguments, scratch)
        else:
            jobs = (os.cpu_count() or 2) if arguments.workload == "sweep-par" else 1
            metrics, attempted, failed = sweep_workload(
                arguments, jobs, arguments.workload == "sweep-telemetry", scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": render(metrics, bool(arguments.trace)),
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
