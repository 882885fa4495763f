"""Daemon equivalence suite: served results are bit-identical, always.

The serving layer must never change *what* is computed -- only where and
when.  These tests pin that three ways: a daemon-served stream against the
in-process fallback, a pooled daemon against an inline one, and a
kill-and-resume restart against a fresh run.  A subprocess test closes the
loop against the one-shot CLI (``repro infer --json``).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.client import run_local, submit
from repro.serve.daemon import ServeDaemon
from repro.serve.journal import RequestJournal
from repro.serve.protocol import ServeRequest

#: Small smoke workload (one fast SLL job, one slower DLL job).
WORKLOAD = ("sll/insertFront", "dll/append")

_WAIT = 30.0


class _DaemonHost:
    """A thread-hosted daemon for tests; also its exit-code witness."""

    def __init__(self, tmp_path, **kwargs):
        self.socket_path = str(tmp_path / "serve.sock")
        self.daemon = ServeDaemon(self.socket_path, **kwargs)
        self.exit_code = None

        def host():
            self.exit_code = self.daemon.serve(install_signals=False)

        self.thread = threading.Thread(target=host, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + _WAIT
        while not os.path.exists(self.socket_path):
            assert time.monotonic() < deadline, "daemon never bound its socket"
            time.sleep(0.02)

    def stop(self) -> None:
        self.daemon.stop()
        self.thread.join(timeout=_WAIT)
        assert not self.thread.is_alive(), "daemon did not drain"
        assert self.exit_code == 0


def _payload(lines) -> list[str]:
    return [
        line for line in lines if '"type":"result"' in line or '"type":"job"' in line
    ]


def _by_benchmark(lines) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for line in _payload(lines):
        grouped.setdefault(json.loads(line)["benchmark"], []).append(line)
    return grouped


def _reference(request: ServeRequest) -> list[str]:
    out = io.StringIO()
    run_local(request, out, jobs=1)
    return _payload(out.getvalue().splitlines())


class TestServedEquivalence:
    def test_daemon_stream_matches_in_process_run(self, tmp_path):
        host = _DaemonHost(tmp_path, jobs=1)
        try:
            request = ServeRequest(id="eq", benchmarks=WORKLOAD, seed=0)
            out = io.StringIO()
            terminal = submit(host.socket_path, request, out)
            assert terminal["type"] == "done"
            assert terminal["status"] == "complete"
            assert terminal["counters"]["serve_requests"] == 1
            assert _payload(out.getvalue().splitlines()) == _reference(request)
        finally:
            host.stop()

    def test_pool_daemon_matches_inline_per_benchmark(self, tmp_path):
        """--jobs 2 may reorder job completion, never change any job's records."""
        host = _DaemonHost(tmp_path, jobs=2)
        try:
            request = ServeRequest(
                id="pool", benchmarks=WORKLOAD + ("sll/reverse", "dll/concat"), seed=0
            )
            out = io.StringIO()
            terminal = submit(host.socket_path, request, out)
            assert terminal["status"] == "complete"
            assert _by_benchmark(out.getvalue().splitlines()) == _by_benchmark(
                _reference(request)
            )
        finally:
            host.stop()

    def test_request_isolation_keeps_streams_identical(self, tmp_path):
        """A warm daemon serves the same request identically every time."""
        host = _DaemonHost(tmp_path, jobs=1)
        try:
            request = ServeRequest(id="warm", benchmarks=WORKLOAD)
            streams = []
            for _ in range(2):
                out = io.StringIO()
                submit(host.socket_path, request, out)
                streams.append(_payload(out.getvalue().splitlines()))
            assert streams[0] == streams[1] == _reference(request)
        finally:
            host.stop()


class TestKillAndResume:
    def test_restart_resumes_journaled_requests_bit_identically(self, tmp_path):
        journal_path = str(tmp_path / "crashed.journal")
        requests = [
            ServeRequest(id="lost-1", benchmarks=WORKLOAD[:1], seed=0),
            ServeRequest(id="lost-2", benchmarks=WORKLOAD[1:], seed=0),
        ]
        # A daemon that crashed mid-flight: requests journaled as accepted,
        # never marked done (the journal is exactly what survives a kill -9).
        journal = RequestJournal(journal_path)
        for request in requests:
            journal.record_accepted(request)
        journal.close()

        host = _DaemonHost(tmp_path, jobs=1, journal_path=journal_path)
        try:
            recovered_path = journal_path + ".recovered.ndjson"
            expected = [line for request in requests for line in _reference(request)]
            deadline = time.monotonic() + _WAIT
            while True:
                if os.path.exists(recovered_path):
                    lines = _payload(
                        open(recovered_path, encoding="utf-8").read().splitlines()
                    )
                    if len(lines) >= len(expected):
                        break
                assert time.monotonic() < deadline, "resume never completed"
                time.sleep(0.05)
            assert lines == expected
            with host.daemon._stats_lock:
                assert host.daemon.serve_stats.serve_requests_resumed == 2
        finally:
            host.stop()
        # After the resumed runs were journaled done, nothing is pending.
        reopened = RequestJournal(journal_path)
        assert reopened.unfinished() == []
        reopened.close()


class _RecordingSink:
    """A stand-in connection for direct _admit calls; collects records."""

    def __init__(self):
        self.records = []

    def write(self, record, fault_plan=None, request_id=""):
        self.records.append(record)


class TestSocketExclusivity:
    def test_second_daemon_leaves_live_socket_intact(self, tmp_path):
        """A refused rival must not unlink the running daemon's socket."""
        host = _DaemonHost(tmp_path, jobs=1)
        try:
            rival = ServeDaemon(
                host.socket_path, journal_path=str(tmp_path / "rival.journal")
            )
            with pytest.raises(RuntimeError, match="live daemon"):
                rival.serve(install_signals=False)
            assert os.path.exists(host.socket_path)
            out = io.StringIO()
            terminal = submit(
                host.socket_path,
                ServeRequest(id="still-up", benchmarks=WORKLOAD[:1]),
                out,
            )
            assert terminal["status"] == "complete"
        finally:
            host.stop()


class TestAdmissionJournal:
    def test_overflow_rejection_never_resumes(self, tmp_path):
        """A queue-full rejection leaves no unfinished journal entry."""
        daemon = ServeDaemon(str(tmp_path / "serve.sock"), queue_limit=1)
        sink = _RecordingSink()
        try:
            admitted = daemon._admit(
                sink, json.dumps({"id": "kept", "benchmarks": list(WORKLOAD[:1])})
            )
            assert admitted is not None
            rejected = daemon._admit(
                sink, json.dumps({"id": "spilt", "benchmarks": list(WORKLOAD[:1])})
            )
            assert rejected is None
            assert [record["type"] for record in sink.records] == [
                "accepted",
                "rejected",
            ]
            assert daemon.serve_stats.serve_rejections == 1
        finally:
            daemon.journal.close()
        journal = RequestJournal(daemon.journal_path)
        assert [request.id for request in journal.unfinished()] == ["kept"]
        journal.close()


class TestOneShotCliEquivalence:
    @pytest.fixture(scope="class")
    def cli_env(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        return env

    def test_served_invariants_match_one_shot_cli(self, tmp_path, cli_env):
        """Daemon-served records carry the invariants the batch CLI prints."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "infer", "--json"]
            + [arg for name in WORKLOAD for arg in ("--benchmark", name)],
            env=cli_env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        cli_invariants = {
            (entry["benchmark"], inv["location"], inv["formula"], inv["spurious"])
            for entry in json.loads(completed.stdout)
            for inv in entry["invariants"]
        }

        host = _DaemonHost(tmp_path, jobs=1)
        try:
            out = io.StringIO()
            submit(host.socket_path, ServeRequest(id="cli", benchmarks=WORKLOAD), out)
        finally:
            host.stop()
        served_invariants = {
            (record["benchmark"], record["location"], inv["formula"], inv["spurious"])
            for line in out.getvalue().splitlines()
            if '"type":"result"' in line
            for record in [json.loads(line)]
            for inv in record["invariants"]
        }
        assert served_invariants == cli_invariants
