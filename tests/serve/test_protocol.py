"""Wire-protocol unit tests: parsing, canonical encoding, record streams."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import EngineJob, InferenceEngine
from repro.serve.protocol import (
    DONE_STATUSES,
    ProtocolError,
    ServeRequest,
    StatsRequest,
    done_record,
    encode,
    parse_request,
    records_for_report,
    stats_record,
)


class TestParseRequest:
    def test_minimal_request(self):
        request = parse_request('{"id": "r1", "benchmarks": ["sll/append"]}')
        assert request == ServeRequest(id="r1", benchmarks=("sll/append",))
        assert request.seed == 0
        assert request.deadline is None

    def test_full_request(self):
        request = parse_request(
            '{"id": "r2", "benchmarks": ["a", "b"], "seed": 7, "deadline": 2.5}'
        )
        assert request.benchmarks == ("a", "b")
        assert request.seed == 7
        assert request.deadline == 2.5

    def test_stats_request(self):
        request = parse_request('{"id": "s1", "stats": true}')
        assert request == StatsRequest(id="s1")
        assert parse_request(encode(request.as_dict())) == request

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "s", "stats": false}',
            '{"id": "s", "stats": 1}',
            '{"stats": true}',
            '{"id": "s", "stats": true, "benchmarks": ["a"]}',
        ],
    )
    def test_rejects_malformed_stats_requests(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_round_trips_through_as_dict(self):
        request = ServeRequest(id="r3", benchmarks=("x",), seed=3, deadline=1.0)
        assert parse_request(encode(request.as_dict())) == request

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"benchmarks": ["a"]}',  # no id
            '{"id": "", "benchmarks": ["a"]}',
            '{"id": "r", "benchmarks": []}',
            '{"id": "r", "benchmarks": "a"}',
            '{"id": "r", "benchmarks": [""]}',
            '{"id": "r", "benchmarks": ["a"], "seed": "0"}',
            '{"id": "r", "benchmarks": ["a"], "seed": true}',
            '{"id": "r", "benchmarks": ["a"], "deadline": 0}',
            '{"id": "r", "benchmarks": ["a"], "deadline": -1}',
            '{"id": "r", "benchmarks": ["a"], "deadline": "fast"}',
            '{"id": "r", "benchmarks": ["a"], "surprise": 1}',
        ],
    )
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)


class TestRecords:
    def test_encode_is_canonical(self):
        # Same dict, any insertion order -> the same wire line.
        assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})
        assert "\n" not in encode({"a": "x"})

    def test_done_record_validates_status(self):
        for status in DONE_STATUSES:
            record = done_record("r", status, jobs=1, seconds=0.5)
            assert record["status"] == status
            assert "counters" not in record
        with pytest.raises(ValueError):
            done_record("r", "exploded", jobs=1, seconds=0.5)

    def test_stats_record_carries_the_counters(self):
        record = stats_record("s", {"serve_requests": 3})
        assert record["type"] == "stats"
        assert record["counters"] == {"serve_requests": 3}

    def test_failed_report_yields_single_job_record(self):
        engine = InferenceEngine(jobs=1)
        [report] = engine.run([EngineJob(kind="spec", benchmark="no/such")])
        assert not report.ok
        records = records_for_report("r9", report)
        assert len(records) == 1
        assert records[0]["type"] == "job"
        assert records[0]["ok"] is False
        assert records[0]["error"] == report.error

    def test_ok_report_streams_results_then_job(self):
        engine = InferenceEngine(jobs=1)
        [report] = engine.run([EngineJob(kind="spec", benchmark="sll/insertFront")])
        assert report.ok
        records = records_for_report("r1", report)
        kinds = [record["type"] for record in records]
        assert kinds[-1] == "job"
        assert set(kinds[:-1]) == {"result"}
        assert records[0]["location"] == "entry"
        # Every record is pure data: encodable, id-stamped, no timing.
        for record in records:
            assert record["id"] == "r1"
            assert "seconds" not in record
            json.loads(encode(record))
        assert records[-1]["ok"] is True
        assert isinstance(records[-1]["validated"], bool)
