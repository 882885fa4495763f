"""Chaos scenarios for the serving layer: the daemon under abuse.

Three scenarios, shaped like the engine scenarios of
:mod:`repro.faults.chaos` and dispatched through the same ``repro chaos``
CLI and ``make chaos-smoke`` target:

``queue_overflow``
    Fill a one-slot admission queue while a request is in flight and
    submit one more: it must be rejected immediately (``queue full``),
    the ``serve_rejections`` counter must increment, and everything that
    *was* admitted must still complete.
``deadline_expiry``
    Submit a multi-benchmark request with a deadline shorter than the
    work: the stream must end ``deadline_expired`` carrying whatever
    partial results finished in time, and ``serve_deadline_expiries``
    must increment.
``client_disconnect``
    Hang up mid-stream: the daemon must detect the vanished reader,
    cancel the in-flight request and count it in
    ``serve_client_disconnects`` -- never run a sweep nobody is reading.

Every scenario runs a real daemon (on a background thread, with real Unix
sockets) and ends the same way: the daemon must still be alive and a
follow-up request must stream results **bit-identical** to an in-process
reference run -- abuse may cost the abused request, never the next one.
"""

from __future__ import annotations

import io
import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import asdict

from repro.faults.chaos import JobRow, ScenarioReport
from repro.serve.client import run_local
from repro.serve.client import submit as client_submit
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import ServeRequest, encode
from repro.telemetry import monotime

#: The long request the scenarios keep in flight: DLL benchmarks are the
#: slowest of the list suites (50-200ms each), so there is always a window
#: to overflow the queue or hang up within.
WORKLOAD = ("dll/concat", "dll/midDelMid", "dll/midDelStar", "dll/insertBack", "dll/append")

#: The follow-up request proving the daemon survived unharmed.
FOLLOWUP = ("sll/insertFront", "sll/append")

_WAIT = 30.0


class _ServeDrill:
    """One scenario's daemon plus the bookkeeping the checks need."""

    def __init__(self, queue_limit: int = 16):
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        self.socket_path = os.path.join(self._tmp.name, "serve.sock")
        self.daemon = ServeDaemon(self.socket_path, jobs=1, queue_limit=queue_limit)
        self.exit_code: int | None = None

        def host():
            self.exit_code = self.daemon.serve(install_signals=False)

        self._thread = threading.Thread(target=host, daemon=True)
        self._thread.start()
        deadline = monotime() + _WAIT
        while not os.path.exists(self.socket_path):
            if monotime() > deadline:
                raise RuntimeError("serve chaos daemon never bound its socket")
            time.sleep(0.02)

    def counters(self) -> dict:
        with self.daemon._stats_lock:
            return asdict(self.daemon.serve_stats)

    def close(self, failures: list[str]) -> None:
        try:
            self.daemon.stop()
            self._thread.join(timeout=_WAIT)
            if self._thread.is_alive():
                failures.append("daemon did not drain after stop()")
            elif self.exit_code != 0:
                failures.append(f"daemon drain exited {self.exit_code}, not 0")
        finally:
            self._tmp.cleanup()


def _connect(socket_path: str) -> tuple[socket.socket, io.TextIOBase]:
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(_WAIT)
    conn.connect(socket_path)
    return conn, conn.makefile("r", encoding="utf-8")


def _send(conn: socket.socket, request: ServeRequest) -> None:
    conn.sendall((encode(request.as_dict()) + "\n").encode("utf-8"))


def _read_until(reader, *types: str) -> list[dict]:
    """Read records until one of ``types`` arrives (inclusive)."""
    records = []
    for line in reader:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        records.append(record)
        if record.get("type") in types:
            return records
    raise RuntimeError(f"stream ended before any of {types} arrived")


def _payload_lines(stream_text: str) -> list[str]:
    return [
        line
        for line in stream_text.splitlines()
        if '"type":"result"' in line or '"type":"job"' in line
    ]


def _followup_rows(drill: _ServeDrill, failures: list[str]) -> list[JobRow]:
    """Submit the follow-up request; its stream must match run_local's."""
    request = ServeRequest(id="followup", benchmarks=FOLLOWUP)
    served_out = io.StringIO()
    terminal = client_submit(drill.socket_path, request, served_out)
    if terminal.get("type") != "done" or terminal.get("status") != "complete":
        failures.append(f"follow-up request did not complete: {terminal}")
    reference_out = io.StringIO()
    run_local(request, reference_out, jobs=1)
    identical = _payload_lines(served_out.getvalue()) == _payload_lines(
        reference_out.getvalue()
    )
    if not identical:
        failures.append("follow-up stream diverged from the in-process reference")
    return [
        JobRow(benchmark=name, ok=True, error=None, identical=identical, counters={})
        for name in request.benchmarks
    ]


def _scenario_queue_overflow(drill: _ServeDrill, failures: list[str]) -> None:
    in_flight = ServeRequest(id="overflow-inflight", benchmarks=WORKLOAD)
    conn_a, reader_a = _connect(drill.socket_path)
    _send(conn_a, in_flight)
    # Wait for the first result: the executor is now busy with this request,
    # so the next admission sits in the (one-slot) queue deterministically.
    _read_until(reader_a, "result")
    conn_b, reader_b = _connect(drill.socket_path)
    _send(conn_b, ServeRequest(id="overflow-queued", benchmarks=FOLLOWUP[:1]))
    accepted = _read_until(reader_b, "accepted", "rejected")[-1]
    if accepted["type"] != "accepted":
        failures.append(f"queued request was not admitted: {accepted}")
    conn_c, reader_c = _connect(drill.socket_path)
    _send(conn_c, ServeRequest(id="overflow-extra", benchmarks=FOLLOWUP[:1]))
    verdict = _read_until(reader_c, "accepted", "rejected")[-1]
    if verdict["type"] != "rejected" or verdict.get("reason") != "queue full":
        failures.append(f"overflow submission was not rejected with 'queue full': {verdict}")
    conn_c.close()
    # Both admitted requests must still run to completion.
    for reader, conn, request_id in (
        (reader_a, conn_a, "overflow-inflight"),
        (reader_b, conn_b, "overflow-queued"),
    ):
        done = _read_until(reader, "done")[-1]
        if done.get("status") != "complete":
            failures.append(f"request {request_id} ended {done.get('status')!r}")
        conn.close()
    counters = drill.counters()
    if counters["serve_rejections"] < 1:
        failures.append("serve_rejections did not increment")
    if counters["serve_queue_high_water"] < 1:
        failures.append("serve_queue_high_water stayed 0 despite a queued request")


def _scenario_deadline_expiry(drill: _ServeDrill, failures: list[str]) -> None:
    request = ServeRequest(id="deadline", benchmarks=WORKLOAD, deadline=0.05)
    conn, reader = _connect(drill.socket_path)
    _send(conn, request)
    records = _read_until(reader, "done")
    conn.close()
    done = records[-1]
    if done.get("status") != "deadline_expired":
        failures.append(f"expected done.status deadline_expired, got {done.get('status')!r}")
    job_records = [record for record in records if record.get("type") == "job"]
    expired = [
        record
        for record in job_records
        if not record.get("ok")
        and str(record.get("error", "")).startswith(("cancelled: deadline", "timeout"))
    ]
    if not expired:
        failures.append("no job was cut off by the deadline (it never bound anything)")
    if drill.counters()["serve_deadline_expiries"] < 1:
        failures.append("serve_deadline_expiries did not increment")


def _scenario_client_disconnect(drill: _ServeDrill, failures: list[str]) -> None:
    request = ServeRequest(id="vanisher", benchmarks=WORKLOAD)
    conn, reader = _connect(drill.socket_path)
    _send(conn, request)
    _read_until(reader, "result")
    # Hang up mid-stream, ungracefully.  shutdown() actually sends the FIN;
    # close() alone would keep the fd alive through the makefile() reader.
    conn.shutdown(socket.SHUT_RDWR)
    reader.close()
    conn.close()
    deadline = monotime() + _WAIT
    while drill.counters()["serve_client_disconnects"] < 1:
        if monotime() > deadline:
            failures.append("serve_client_disconnects never incremented after hangup")
            return
        time.sleep(0.05)


SERVE_SCENARIOS = {
    "queue_overflow": (
        "overflow a one-slot admission queue; the extra submission must be "
        "rejected immediately and everything admitted must still complete",
        _scenario_queue_overflow,
        1,  # queue limit
    ),
    "deadline_expiry": (
        "give a multi-benchmark request a too-short deadline; the stream "
        "must end deadline_expired with the partial results that made it",
        _scenario_deadline_expiry,
        16,
    ),
    "client_disconnect": (
        "hang up mid-stream; the daemon must cancel the abandoned request "
        "and keep serving",
        _scenario_client_disconnect,
        16,
    ),
}


def run_serve_scenario(name: str, seed: int = 0, telemetry=None) -> ScenarioReport:
    """Run one serving-layer scenario; returns an engine-style verdict.

    ``seed``/``telemetry`` are accepted for CLI symmetry with the engine
    scenarios; the drills are seed-free (the daemon's determinism contract
    is per-request) and trace their daemons internally.
    """
    entry = SERVE_SCENARIOS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown serve chaos scenario {name!r} (known: {sorted(SERVE_SCENARIOS)})"
        )
    _, drill_fn, queue_limit = entry
    failures: list[str] = []
    rows: list[JobRow] = []
    counters: dict = {}
    drill = _ServeDrill(queue_limit=queue_limit)
    try:
        try:
            drill_fn(drill, failures)
            rows = _followup_rows(drill, failures)
        except Exception as exc:  # noqa: BLE001 -- a crash is a verdict, not an abort
            failures.append(f"scenario crashed: {type(exc).__name__}: {exc}")
        counters = drill.counters()
    finally:
        drill.close(failures)
    return ScenarioReport(
        scenario=name,
        target=drill.socket_path,
        passed=not failures,
        failures=failures,
        rows=rows,
        totals=counters,
    )
