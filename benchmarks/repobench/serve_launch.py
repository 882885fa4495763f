"""Launcher of the ``repro serve`` daemon and the traced ``--connect`` client.

The ``serve-connect`` workload starts its daemons through this launcher
instead of ``python -m repro``; the arguments after the mode and output
file go to ``repro.cli.main`` unchanged::

    python3 serve_launch.py daemon OUT.json serve --socket d.sock ...
    python3 serve_launch.py daemon-traced OUT.json serve --socket d.sock ...
    python3 serve_launch.py client OUT.json infer --connect d.sock ...

``daemon`` wraps ``ServeDaemon._execute`` to keep what the program itself
measured -- each job's ``EngineReport.seconds`` and work counts -- and each
request's queue wait, and writes them to OUT.json when the daemon exits.
``daemon-traced`` also installs the layer wrappers of :mod:`layers` and
writes their totals.  ``client`` (traced runs only) records when the client
path finished importing and when ``submit`` was entered
(``repro.telemetry.monotime`` readings) and writes them when it exits.
"""

from __future__ import annotations

import json
import sys

import repro.cli
from repro.telemetry import monotime

from benchstats import to_ns
from layers import WORK_COUNTS, Layers


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def run_daemon(out: str, argv: list[str], traced: bool) -> None:
    from repro.serve.daemon import ServeDaemon

    layers = Layers().install() if traced else None
    job_seconds: list[float] = []
    queue_waits: list[float] = []
    counts = dict.fromkeys(WORK_COUNTS, 0)
    execute = ServeDaemon._execute

    def recorded_execute(daemon, pending, started):
        queue_waits.append(started - pending.enqueued_at)
        status, reports = execute(daemon, pending, started)
        for report in reports:
            job_seconds.append(report.seconds)
            for name in WORK_COUNTS:
                counts[name] += getattr(report.cache, name)
        return status, reports

    ServeDaemon._execute = recorded_execute
    try:
        repro.cli.main(argv)
    finally:
        record = {"job_seconds": job_seconds, "queue_waits": queue_waits, "counts": counts}
        if layers is not None:
            record["layers"] = {layer: list(entry) for layer, entry in layers.totals.items()}
        _write(out, record)


def run_client(out: str, argv: list[str]) -> None:
    from repro.serve import client

    marks = {"imported": monotime()}
    submit = client.submit

    def timed_submit(*args, **kwargs):
        marks["submit"] = monotime()
        return submit(*args, **kwargs)

    client.submit = timed_submit
    try:
        repro.cli.main(argv)
    finally:
        _write(out, {name: to_ns(mark) for name, mark in marks.items()})


if __name__ == "__main__":
    mode, out_path, *rest = sys.argv[1:]
    if mode == "client":
        run_client(out_path, rest)
    else:
        run_daemon(out_path, rest, traced=mode == "daemon-traced")
