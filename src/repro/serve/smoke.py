"""End-to-end serve smoke drill: ``python -m repro.serve.smoke``.

The drill behind ``make serve-smoke`` and the CI ``serve-smoke`` job.  It
exercises the daemon the way an operator would -- real subprocesses, real
Unix sockets, real signals -- and asserts the resilience contract:

1. **Incremental streaming.**  ``repro infer --connect`` against a live
   daemon; the first ``result`` record must arrive while the client
   process is still running (streamed, not batched), and the record
   stream must be bit-identical to an in-process run of the same request.
   The client runs under ``-X importtime`` and must import no ``repro``
   module outside :data:`CLIENT_MODULES`; a ``stats`` request must then
   show the daemon counted the request.
2. **Graceful drain.**  A second request is submitted while the first is
   in flight, then the daemon gets SIGTERM.  It must finish the in-flight
   request, checkpoint the queued one, and exit 0.
3. **Crash-safe resume.**  A restarted daemon (same journal) must re-run
   the checkpointed request into ``<journal>.recovered.ndjson``,
   bit-identical to what a fresh run produces, then drain cleanly again.

Exit status 0 means every check passed.  On failure the work directory
(daemon logs, journal, trace) is kept and its path printed, so CI can
upload it as an artifact.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro.serve.client import fetch_stats, run_local
from repro.serve.protocol import ServeRequest, encode
from repro.telemetry import monotime

#: Benchmarks of the drill's first (streamed) request: a fast job first
#: (its records land early) followed by slower DLL jobs, so the first
#: record arrives well before the client exits.
STREAM_BENCHMARKS = ("sll/insertFront", "dll/concat", "dll/midDelStar")

#: The request left queued at SIGTERM and resumed by the restarted daemon.
RESUME_BENCHMARKS = ("sll/reverse", "dll/append")

#: Generous bound on any single wait in the drill.
WAIT_SECONDS = 60.0

#: The only ``repro`` modules a ``--connect`` client that reaches a live
#: daemon may import (the import rule in :mod:`repro.cli`).
CLIENT_MODULES = frozenset(
    ("repro", "repro.cli", "repro.serve", "repro.serve.client", "repro.serve.protocol")
)


class SmokeFailure(AssertionError):
    """One drill check failed (the message says which)."""


def _subprocess_env() -> dict:
    """Child env with this checkout's ``src`` on PYTHONPATH, cwd-independent."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _wait_for(predicate, what: str, timeout: float = WAIT_SECONDS) -> None:
    deadline = monotime() + timeout
    while monotime() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise SmokeFailure(f"timed out after {timeout:.0f}s waiting for {what}")


def _payload_lines(lines) -> list[str]:
    """Just the ``result``/``job`` records -- the bit-comparable payload."""
    keep = []
    for line in lines:
        try:
            kind = json.loads(line).get("type")
        except json.JSONDecodeError:
            continue
        if kind in ("result", "job"):
            keep.append(line)
    return keep


def _expected_stream(request: ServeRequest) -> list[str]:
    """The reference record stream: the same request computed in-process."""
    sink = io.StringIO()
    run_local(request, sink, jobs=1)
    return _payload_lines(sink.getvalue().splitlines())


def _start_daemon(python: str, socket_path: str, journal: str, log_path: str, trace: str):
    process = subprocess.Popen(
        [
            python,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--journal",
            journal,
            "--trace-out",
            trace,
        ],
        stdout=open(log_path, "a"),
        stderr=subprocess.STDOUT,
        env=_subprocess_env(),
    )

    def answering() -> bool:
        if process.poll() is not None:
            raise SmokeFailure(
                f"daemon exited with {process.returncode} before answering "
                f"(log: {log_path})"
            )
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(socket_path)
            return True
        except OSError:
            return False
        finally:
            probe.close()

    _wait_for(answering, f"daemon socket {socket_path}")
    return process


def _imported_modules(importtime_log: str) -> list[str]:
    """Module names, in import order, from a ``-X importtime`` stderr log."""
    modules = []
    with open(importtime_log, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("import time:") and "|" in line:
                name = line.rsplit("|", 1)[1].strip()
                if name != "imported package":
                    modules.append(name)
    return modules


def _check_streaming(
    python: str, workdir: str, socket_path: str, request: ServeRequest
) -> None:
    """Drill step 1: --connect streams incrementally, bit-identically and import-light."""
    stderr_path = os.path.join(workdir, "client.stderr")
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        client = subprocess.Popen(
            [python, "-X", "importtime", "-m", "repro", "infer", "--connect", socket_path]
            + [arg for name in request.benchmarks for arg in ("--benchmark", name)]
            + ["--seed", str(request.seed), "--request-id", request.id],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=_subprocess_env(),
            text=True,
        )
    lines = []
    first_result_while_running = False
    for line in client.stdout:
        line = line.rstrip("\n")
        if not line:
            continue
        if '"type":"result"' in line and not any('"type":"result"' in l for l in lines):
            first_result_while_running = client.poll() is None
        lines.append(line)
    client.wait(timeout=WAIT_SECONDS)
    if client.returncode != 0:
        raise SmokeFailure(f"infer --connect exited {client.returncode}")
    if not first_result_while_running:
        raise SmokeFailure(
            "no result record arrived while the client was still running "
            "(stream was batched, not incremental)"
        )
    served = _payload_lines(lines)
    expected = _expected_stream(request)
    if served != expected:
        raise SmokeFailure(
            "daemon-served stream differs from the in-process reference "
            f"({len(served)} vs {len(expected)} payload records)"
        )
    done = json.loads(lines[-1])
    if done["type"] != "done" or done["status"] != "complete":
        raise SmokeFailure(f"unexpected terminal record: {lines[-1]}")
    imported = _imported_modules(stderr_path)
    if "repro.serve.client" not in imported:
        # An unparsed log would pass the check below vacuously.
        raise SmokeFailure(f"no -X importtime record of repro.serve.client in {stderr_path}")
    heavy = [
        name
        for name in imported
        if (name == "repro" or name.startswith("repro.")) and name not in CLIENT_MODULES
    ]
    if heavy:
        raise SmokeFailure(
            f"the --connect client imported {', '.join(heavy)} "
            f"(allowed: {', '.join(sorted(CLIENT_MODULES))}; log: {stderr_path})"
        )
    stats = fetch_stats(socket_path, request_id="smoke-stats")
    if stats["type"] != "stats" or stats["counters"]["serve_requests"] < 1:
        raise SmokeFailure(f"stats record does not count the request: {stats}")


def _submit_raw(socket_path: str, request: ServeRequest) -> socket.socket:
    """Submit a request and wait for 'accepted', keeping the socket open."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.connect(socket_path)
    conn.sendall((encode(request.as_dict()) + "\n").encode("utf-8"))
    reader = conn.makefile("r", encoding="utf-8")
    line = reader.readline()
    record = json.loads(line)
    if record.get("type") != "accepted":
        raise SmokeFailure(f"expected an accepted record, got: {line.strip()}")
    return conn


def _check_drain_and_resume(
    python: str, workdir: str, socket_path: str, journal: str
) -> None:
    """Drill steps 2+3: SIGTERM drain, then restart-and-resume."""
    log_path = os.path.join(workdir, "daemon.log")
    trace = os.path.join(workdir, "trace.ndjson")
    daemon = _start_daemon(python, socket_path, journal, log_path, trace)

    in_flight = ServeRequest(id="drain-inflight", benchmarks=STREAM_BENCHMARKS)
    queued = ServeRequest(id="drain-queued", benchmarks=RESUME_BENCHMARKS)
    conn_a = _submit_raw(socket_path, in_flight)
    conn_b = _submit_raw(socket_path, queued)
    daemon.send_signal(signal.SIGTERM)
    try:
        daemon.wait(timeout=WAIT_SECONDS)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise SmokeFailure("daemon did not drain within the wait budget")
    finally:
        conn_a.close()
        conn_b.close()
    if daemon.returncode != 0:
        raise SmokeFailure(
            f"drain exited {daemon.returncode}, not 0 (log: {log_path})"
        )
    if not os.path.exists(journal):
        raise SmokeFailure("drain left no journal behind")

    # Restart on the same journal: the queued request must be resumed into
    # the recovered stream, bit-identical to a fresh in-process run.
    recovered_path = journal + ".recovered.ndjson"
    expected = _expected_stream(queued)
    daemon = _start_daemon(python, socket_path, journal, log_path, trace)

    def recovered() -> bool:
        if not os.path.exists(recovered_path):
            return False
        with open(recovered_path, encoding="utf-8") as handle:
            return len(_payload_lines(handle.read().splitlines())) >= len(expected)

    try:
        _wait_for(recovered, f"resumed stream in {recovered_path}")
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=WAIT_SECONDS)
    if daemon.returncode != 0:
        raise SmokeFailure(f"post-resume drain exited {daemon.returncode}")
    with open(recovered_path, encoding="utf-8") as handle:
        resumed = _payload_lines(handle.read().splitlines())
    if resumed != expected:
        raise SmokeFailure(
            "resumed stream differs from the in-process reference "
            f"({len(resumed)} vs {len(expected)} payload records)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="working directory (kept on failure; default: a temp dir)",
    )
    parser.add_argument("--keep", action="store_true", help="keep the workdir even on success")
    arguments = parser.parse_args(argv)

    python = sys.executable
    workdir = arguments.workdir or tempfile.mkdtemp(prefix="repro-serve-smoke-")
    os.makedirs(workdir, exist_ok=True)
    socket_path = os.path.join(workdir, "repro.sock")
    journal = os.path.join(workdir, "repro.journal")
    failed = False
    try:
        print(f"# serve smoke: workdir {workdir}", file=sys.stderr)
        daemon = _start_daemon(
            python,
            socket_path,
            journal,
            os.path.join(workdir, "daemon.log"),
            os.path.join(workdir, "trace.ndjson"),
        )
        try:
            request = ServeRequest(id="smoke-stream", benchmarks=STREAM_BENCHMARKS)
            _check_streaming(python, workdir, socket_path, request)
            print(
                "# serve smoke: incremental, import-light streaming OK", file=sys.stderr
            )
        finally:
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=WAIT_SECONDS)
        if daemon.returncode != 0:
            raise SmokeFailure(f"idle drain exited {daemon.returncode}")
        print("# serve smoke: idle SIGTERM drain OK (exit 0)", file=sys.stderr)
        _check_drain_and_resume(python, workdir, socket_path, journal)
        print("# serve smoke: mid-request drain + resume OK", file=sys.stderr)
    except SmokeFailure as failure:
        failed = True
        print(f"serve smoke FAILED: {failure}", file=sys.stderr)
        print(f"artifacts kept in {workdir}", file=sys.stderr)
        return 1
    finally:
        if not failed and not arguments.keep and arguments.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    print("serve smoke: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
