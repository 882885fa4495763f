"""Chaos suite: the Table 1 smoke workload under injected faults.

Each scenario runs the fault-free inline reference first and then the
faulted sweep, asserting the resilience contract end to end: jobs that
succeed are bit-identical to the reference, healing counters account for
what happened, and failures land on exactly the jobs that earned them.
These are the slowest tests of the suite (they spawn real worker pools and
run real inference); the workloads are the smallest ones that still
exercise the machinery.
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    EngineJob,
    InferenceEngine,
    PermanentFault,
    PoisonedJob,
    TransientFault,
    classify_failure,
)
from repro.core.sling import SlingConfig
from repro.faults import FaultPlan, FaultRule
from repro.faults.chaos import run_scenario

#: Same shape as the acceptance workload: 2 SLL + 2 DLL programs, 4 jobs.
_BENCHMARKS = ("sll/insertFront", "sll/reverse", "dll/append", "dll/concat")


def _run(benchmarks, config, **engine_kwargs):
    engine = InferenceEngine(**engine_kwargs)
    return engine.run(
        [EngineJob(kind="table1", benchmark=name, config=config) for name in benchmarks]
    )


class TestChaosScenarios:
    """The five named scenarios, each with its own verdict function."""

    @pytest.mark.parametrize(
        "name", ("worker_kill", "job_hang", "cache_corrupt", "disk_full", "poison")
    )
    def test_scenario_passes(self, name):
        report = run_scenario(name)
        assert report.passed, f"{name} failed:\n{report.summary()}"

    def test_worker_kill_acceptance_details(self):
        """The acceptance criterion, spelled out: kill 1 of 4 workers with
        max_retries=2; every job ok, the killed job respawned and retried,
        nothing reported 'worker lost', results bit-identical."""
        report = run_scenario("worker_kill")
        assert all(row.ok for row in report.rows)
        assert all(row.identical for row in report.rows)
        assert report.totals["workers_respawned"] >= 1
        assert report.totals["degraded_sequential"] == 0
        assert not any("worker lost" in (row.error or "") for row in report.rows)
        target = next(row for row in report.rows if row.benchmark == report.target)
        assert target.counters["jobs_retried"] >= 1


class TestWorkerLossAttribution:
    """Satellite: a broken pool fails only the job that was actually
    running on the dead worker (the old pool marked the whole in-flight
    batch 'worker lost')."""

    def test_only_the_running_job_is_blamed_without_retries(self):
        plan = FaultPlan(
            rules=(FaultRule("job_exec", "exit", match="sll/reverse"),), seed=11
        )
        reports = _run(
            _BENCHMARKS,
            SlingConfig(fault_plan=plan),
            jobs=4,
            max_retries=0,
        )
        by_name = {report.job.benchmark: report for report in reports}
        assert not by_name["sll/reverse"].ok
        assert "worker lost" in by_name["sll/reverse"].error
        for name in _BENCHMARKS:
            if name != "sll/reverse":
                assert by_name[name].ok, (
                    f"{name} was collateral damage of another job's worker: "
                    f"{by_name[name].error}"
                )


class TestPromptHealing:
    def test_death_is_healed_while_the_other_worker_keeps_reporting(self):
        """A worker lost while the other keeps sending results is reaped as it
        exits, not once the result queue falls quiet: the pool is rebuilt
        while jobs remain, so the dead worker is respawned."""
        fast = ("queue/init", "priority/del", "queue/rmHd", "sll/insertFront") * 6
        plan = FaultPlan(
            rules=(FaultRule("job_exec", "exit", match="dll/concat", attempt=0),), seed=5
        )
        reports = _run(("dll/concat",) + fast, SlingConfig(fault_plan=plan), jobs=2)
        assert all(report.ok for report in reports)
        assert reports[0].cache.jobs_retried == 1
        assert reports[0].cache.workers_respawned >= 1


class TestFailureTaxonomy:
    def test_classification_of_report_errors(self):
        def fake(error, timed_out=False, ok=False):
            class Report:
                pass

            report = Report()
            report.ok = ok
            report.error = error
            report.timed_out = timed_out
            return report

        assert classify_failure(fake(None, ok=True)) is None
        assert classify_failure(fake("poisoned: killed 2 workers")) is PoisonedJob
        assert classify_failure(fake("worker lost: exited 137")) is TransientFault
        assert classify_failure(fake("timed out", timed_out=True)) is PermanentFault
        assert (
            classify_failure(fake("timed out", timed_out=True), retry_timeouts=True)
            is TransientFault
        )
        assert (
            classify_failure(fake("InjectedFault: injected raise at job_exec [transient]"))
            is TransientFault
        )
        assert classify_failure(fake("ZeroDivisionError: boom")) is PermanentFault

    def test_permanent_failures_are_not_retried(self):
        # raise_permanent injects a non-transient fault on every attempt
        # budgeted; with times=0 the rule would fire forever, so a retrying
        # engine must classify it permanent and not spend its budget.
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "job_exec", "raise_permanent", match="sll/insertFront", times=0
                ),
            ),
            seed=5,
        )
        reports = _run(
            ("sll/insertFront",),
            SlingConfig(fault_plan=plan),
            jobs=1,
            max_retries=3,
        )
        assert not reports[0].ok
        assert reports[0].cache.jobs_retried == 0
        assert reports[0].cache.faults_injected == 1


class TestInertness:
    """fault_plan=None must be a provable no-op (the default path)."""

    def test_no_plan_means_zero_resilience_counters(self):
        reports = _run(("sll/insertFront",), SlingConfig(), jobs=1)
        assert reports[0].ok
        cache = reports[0].cache
        for counter in (
            "jobs_retried",
            "workers_respawned",
            "jobs_poisoned",
            "pool_rebuilds",
            "degraded_sequential",
            "faults_injected",
        ):
            assert getattr(cache, counter) == 0, f"{counter} nonzero without a plan"

    def test_config_default_is_none(self):
        assert SlingConfig().fault_plan is None
