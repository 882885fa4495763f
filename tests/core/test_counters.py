"""The declared counter set: generic merge/export and the Table 1 payload.

``CacheStats`` (the job-wide counters, extending the checker's
``ScreeningStats`` and the disk tier's ``DiskStats``) is declared once;
merging, exporting and the Table 1 ``--json`` rows all iterate its fields.
These tests pin the generic machinery against its definition and check
that counters the engine stamps after a job ran (retries) reach the
Table 1 row.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

from hypothesis import given, strategies as st

from repro.core.engine import CacheStats, EngineJob, InferenceEngine
from repro.core.sling import SlingConfig
from repro.faults import FaultPlan, FaultRule

NAMES = tuple(spec.name for spec in fields(CacheStats))
PEAKS = {spec.name for spec in fields(CacheStats) if spec.metadata.get("merge") is max}

counter_sets = st.builds(
    CacheStats, **{name: st.integers(min_value=0, max_value=10**9) for name in NAMES}
)


def test_peak_counters_are_exactly_the_depths_and_sizes():
    assert PEAKS == {"max_trail_depth", "cache_file_bytes"}


@given(counter_sets, counter_sets)
def test_merge_is_a_fieldwise_sum_or_max(left, right):
    merged = replace(left)
    merged.merge(right)
    for name in NAMES:
        combine = max if name in PEAKS else int.__add__
        assert getattr(merged, name) == combine(getattr(left, name), getattr(right, name)), name


@given(counter_sets)
def test_as_dict_is_the_declared_fields_plus_the_rates(stats):
    data = stats.as_dict()
    assert list(data) == [*NAMES, *CacheStats.RATES]
    for name in NAMES:
        assert data[name] == getattr(stats, name)


@given(counter_sets)
def test_pickle_round_trip(stats):
    assert pickle.loads(pickle.dumps(stats)) == stats


def _table1_retried(jobs: int, action: str):
    """The report of a table1 job whose first attempt fails transiently."""
    plan = FaultPlan(
        rules=(FaultRule("job_exec", action, match="sll/insertFront", attempt=0),), seed=3
    )
    config = SlingConfig(discard_crashed_runs=True, fault_plan=plan)
    engine = InferenceEngine(jobs=jobs, max_retries=2, backoff_base=0.0)
    report, _ = engine.run(
        [
            EngineJob(kind="table1", benchmark=name, config=config)
            for name in ("sll/insertFront", "sll/reverse")
        ]
    )
    assert report.ok, report.error
    # One struct, shared by the report and its payload (also across the
    # pool's pickling), so nothing needs copying back.
    assert report.payload.cache is report.cache
    return report


def test_inline_retry_reaches_the_table1_row():
    row = _table1_retried(jobs=1, action="raise").payload.as_dict()
    assert row["jobs_retried"] >= 1


def test_pool_retry_reaches_the_table1_row():
    # A killed worker: the parent counts the retry after the worker that
    # finally ran the job built its payload.
    report = _table1_retried(jobs=2, action="exit")
    row = report.payload.as_dict()
    assert row["jobs_retried"] >= 1
    for name in NAMES:
        if name in row:  # the four renamed fields aside
            assert row[name] == getattr(report.cache, name), name
