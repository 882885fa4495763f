"""Mid-sweep degradation of the persistent cache tier.

The contract (``docs/resilience.md``): a persistent-cache failure *during*
a run -- an exception escaping a load or a flush, injected or real -- must
disable the disk tier for the rest of the run, warn once, and count into
``disk_load_errors``.  It must never raise out of a checker call: a broken
cache degrades to a cold run, not to a failed inference.
"""

from __future__ import annotations

import logging

from repro.benchsuite.registry import get_benchmark
from repro.core.sling import Sling, SlingConfig
from repro.faults import FaultPlan, FaultRule, reset_injector
from repro.sl.stdpreds import standard_predicates


def _fresh_cache(tmp_path, name="tier.sqlite"):
    from repro.cache import PersistentCache

    return PersistentCache(str(tmp_path / name), standard_predicates())


class TestTierDisablesItself:
    def test_load_failure_disables_tier_and_counts(self, tmp_path, caplog):
        cache = _fresh_cache(tmp_path)
        cache.store.get = _boom  # an exception the store did not absorb
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert cache.load_stream(("k",)) is None
        assert cache._disabled
        assert cache.counters().disk_load_errors >= 1
        assert any("disabling the disk tier" in rec.message for rec in caplog.records)
        # Disabled means inert: no further store calls, misses forever.
        assert cache.load_stream(("k2",)) is None
        cache.close()

    def test_flush_failure_returns_empty_counts(self, tmp_path):
        cache = _fresh_cache(tmp_path)
        cache.store.put_many = _boom
        benchmark = get_benchmark("sll/insertFront")
        sling = Sling(benchmark.program, benchmark.predicates, SlingConfig())
        written = cache.flush(sling.checker)
        assert set(written.values()) == {0}
        assert cache._disabled
        assert cache.counters().disk_load_errors >= 1
        cache.close()

    def test_warns_exactly_once(self, tmp_path, caplog):
        cache = _fresh_cache(tmp_path)
        cache.store.get = _boom
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            cache.load_stream(("a",))
            cache.load_stream(("b",))
            cache.load_stream(("c",))
        warnings = [r for r in caplog.records if "disabling the disk tier" in r.message]
        assert len(warnings) == 1
        cache.close()


def _boom(*args, **kwargs):
    raise RuntimeError("cache backend vanished mid-sweep")


class TestInjectedFaultsMidRun:
    """End to end: a faulted cache never fails the inference using it."""

    def _infer(self, tmp_path, plan):
        if plan is not None:
            reset_injector(plan)
        benchmark = get_benchmark("sll/insertFront")
        config = SlingConfig(
            persistent_cache=str(tmp_path / "run.sqlite"), fault_plan=plan
        )
        sling = Sling(benchmark.program, benchmark.predicates, config)
        spec = sling.infer_function(benchmark.function, benchmark.test_cases(0))
        return sling, [inv.pretty() for inv in spec.all_invariants()]

    def test_read_corruption_mid_sweep_degrades_to_cold_run(self, tmp_path):
        reference_sling, reference = self._infer(tmp_path, None)
        plan = FaultPlan(rules=(FaultRule("cache_read", "corrupt", at=2),), seed=9)
        sling, invariants = self._infer(tmp_path, plan)
        assert invariants == reference
        assert sling.cache_stats()["disk_load_errors"] >= 1

    def test_disk_full_on_flush_keeps_results(self, tmp_path):
        reference_sling, reference = self._infer(tmp_path, None)
        plan = FaultPlan(rules=(FaultRule("cache_write", "disk_full"),), seed=9)
        sling, invariants = self._infer(tmp_path, plan)
        assert invariants == reference
        assert sling.cache_stats()["disk_load_errors"] >= 1
