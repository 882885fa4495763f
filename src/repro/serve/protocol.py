"""The NDJSON wire protocol of the inference service.

One request per line in, one record per line out -- the same pipeline
idiom as ``jn``-style NDJSON tools, so ``repro infer --connect`` composes
in a shell pipeline.  The protocol is shared verbatim between the daemon
(:mod:`repro.serve.daemon`) and the in-process client fallback
(:mod:`repro.serve.client`): both sides render their streams through
:func:`records_for_report`, which is what makes daemon-served and locally
computed results bit-identical by construction.

Request (client -> daemon), one JSON object per line::

    {"id": "r1", "benchmarks": ["sll/insertFront"], "seed": 0,
     "deadline": 5.0}

``id`` names the request in every response record; ``deadline`` (optional,
seconds from admission) bounds the request's wall clock.  A stats request,
``{"id": "s1", "stats": true}``, asks for the daemon's lifetime counters
instead; it is answered at once with one ``stats`` record and is never
journaled or queued.  Response records (daemon -> client), one JSON object
per line, all carrying the request ``id``:

``accepted``
    The request passed admission control and was journaled.
``rejected``
    Admission control refused it (``reason``: ``queue full``, ``draining``
    or a parse error); nothing was run and nothing stays journaled (a
    queue-full rejection is journaled before the offer and immediately
    compensated, so a restart never resumes it).
``result``
    One per (function, location) as it resolves: the invariants inferred
    at that location.
``job``
    One per benchmark as its job finalizes: ok/error and validation.
``done``
    Terminal record of this request only: ``status`` (``complete``,
    ``deadline_expired`` or ``cancelled``), ``jobs`` and ``seconds``.
``stats``
    The answer to a stats request: ``counters``, a snapshot of the
    daemon-lifetime :class:`ServeStats`.

Records are rendered with sorted keys and no run-dependent field outside
``done.seconds``, so two streams for the same request are byte-comparable
after dropping ``done`` (the equivalence suite pins exactly that).  See
``docs/serving.md`` for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Version stamped into every ``accepted``/``rejected``/``done``/``stats``
#: record.  Bump on any change a client could misinterpret.
SERVE_PROTOCOL_VERSION = 2

#: Response record types: an inference request's, in lifecycle order, then
#: the answer to a stats request.
SERVE_RECORD_TYPES = ("accepted", "rejected", "result", "job", "done", "stats")

#: Terminal ``done.status`` values.
DONE_STATUSES = ("complete", "deadline_expired", "cancelled")


class ProtocolError(ValueError):
    """A request line violates the schema (rejected, never crashes)."""


@dataclass
class ServeStats:
    """The daemon's own counters, accumulated over its lifetime.

    Requests admitted, the deepest the bounded job queue ever got, requests
    rejected by admission control, requests whose deadline expired with
    partial results, requests cancelled because their client vanished, and
    journaled requests re-run after a restart.  Job work counters are not
    here: they stay on each job's ``EngineReport.cache``.  A stats request
    reads ``dataclasses.asdict`` of this struct as ``stats.counters``.
    """

    serve_requests: int = 0
    serve_queue_high_water: int = 0
    serve_rejections: int = 0
    serve_deadline_expiries: int = 0
    serve_client_disconnects: int = 0
    serve_requests_resumed: int = 0


@dataclass(frozen=True)
class ServeRequest:
    """One parsed inference request."""

    id: str
    benchmarks: tuple[str, ...]
    seed: int = 0
    deadline: float | None = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "benchmarks": list(self.benchmarks),
            "seed": self.seed,
            "deadline": self.deadline,
        }


@dataclass(frozen=True)
class StatsRequest:
    """A parsed stats request: answered with one ``stats`` record."""

    id: str

    def as_dict(self) -> dict:
        return {"id": self.id, "stats": True}


def parse_request(line: str) -> ServeRequest | StatsRequest:
    """Parse one request line, raising :class:`ProtocolError` on any flaw."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"expected a JSON object, got {type(data).__name__}")
    request_id = data.get("id")
    if not isinstance(request_id, str) or not request_id or "\n" in request_id:
        raise ProtocolError("'id' must be a non-empty string")
    if "stats" in data:
        if data["stats"] is not True:
            raise ProtocolError("'stats' must be true")
        if set(data) != {"id", "stats"}:
            raise ProtocolError("a stats request takes only 'id' and 'stats'")
        return StatsRequest(id=request_id)
    benchmarks = data.get("benchmarks")
    if (
        not isinstance(benchmarks, list)
        or not benchmarks
        or not all(isinstance(name, str) and name for name in benchmarks)
    ):
        raise ProtocolError("'benchmarks' must be a non-empty list of names")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("'seed' must be an integer")
    deadline = data.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise ProtocolError("'deadline' must be a number of seconds")
        if deadline <= 0:
            raise ProtocolError("'deadline' must be positive")
        deadline = float(deadline)
    unknown = set(data) - {"id", "benchmarks", "seed", "deadline"}
    if unknown:
        raise ProtocolError(f"unknown field(s): {sorted(unknown)}")
    return ServeRequest(
        id=request_id, benchmarks=tuple(benchmarks), seed=seed, deadline=deadline
    )


def encode(record: dict) -> str:
    """One record as its canonical wire line (sorted keys, no whitespace)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def accepted_record(request_id: str) -> dict:
    return {"type": "accepted", "id": request_id, "version": SERVE_PROTOCOL_VERSION}


def rejected_record(request_id: str | None, reason: str) -> dict:
    return {
        "type": "rejected",
        "id": request_id,
        "reason": reason,
        "version": SERVE_PROTOCOL_VERSION,
    }


def done_record(request_id: str, status: str, jobs: int, seconds: float) -> dict:
    if status not in DONE_STATUSES:
        raise ValueError(f"unknown done status {status!r} (expected one of {DONE_STATUSES})")
    return {
        "type": "done",
        "id": request_id,
        "status": status,
        "jobs": jobs,
        "seconds": round(seconds, 4),
        "version": SERVE_PROTOCOL_VERSION,
    }


def stats_record(request_id: str, counters: dict) -> dict:
    return {
        "type": "stats",
        "id": request_id,
        "counters": counters,
        "version": SERVE_PROTOCOL_VERSION,
    }


def records_for_report(request_id: str, report) -> list[dict]:
    """The response records of one finalized :class:`EngineReport`.

    One ``result`` record per (function, location) -- entry first, then the
    return locations, then the loop heads, each in specification order --
    followed by the benchmark's ``job`` record.  Every field is a pure
    function of the inference result (no timing, pids or paths), which is
    what makes the daemon's stream and the in-process fallback's stream
    bit-identical for a deterministic workload.
    """
    if not report.ok:
        return [
            {
                "type": "job",
                "id": request_id,
                "benchmark": report.job.benchmark,
                "ok": False,
                "error": report.error,
            }
        ]
    payload = report.payload
    specification = payload.specification

    def result(location: str, invariants) -> dict:
        return {
            "type": "result",
            "id": request_id,
            "benchmark": payload.benchmark,
            "function": payload.function,
            "location": location,
            "invariants": [
                {"formula": invariant.pretty(), "spurious": bool(invariant.spurious)}
                for invariant in invariants
            ],
        }

    records = [result("entry", specification.preconditions)]
    for location, invariants in specification.postconditions.items():
        records.append(result(location, invariants))
    for location, invariants in specification.loop_invariants.items():
        records.append(result(location, invariants))
    records.append(
        {
            "type": "job",
            "id": request_id,
            "benchmark": payload.benchmark,
            "ok": True,
            "validated": specification.validated,
            "unreached": list(specification.unreached_locations),
        }
    )
    return records
