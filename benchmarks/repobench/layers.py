"""Outside-in layer timing: wrappers around each layer's public functions.

:meth:`Layers.install` replaces the functions listed in :data:`TARGETS` -- where
their callers look them up -- with wrappers that keep a per-thread span
stack.  Each wrapper adds its call's *self* time (its duration minus the
time of the wrapped calls it made) to its layer, in integer nanoseconds,
so that self times from all layers never double count.

``execute_job`` is the outermost wrapper of every engine job.  Besides its
own self time it stamps the job's report with the layer totals the job
accrued (``report.layer_ns``) and with ``(pid, start_ns, end_ns)``
(``report.job_span``); the attributes travel with the pickled report, so a
forked pool worker carries its totals back to the parent.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import defaultdict

from benchstats import to_ns
from repro.telemetry import monotime

#: (layer, module, attribute path) of every wrapped function.  Free
#: functions are patched in the module that calls them.  A layer reports as
#: ``<layer>_s`` (self time) and ``<layer>_calls``.
TARGETS = (
    ("lang.collect", "repro.core.sling", "collect_models"),
    ("core.boundary.split", "repro.core.sling", "split_heap"),
    ("core.infer_atom.self", "repro.core.sling", "infer_atoms"),
    ("core.infer_pure.self", "repro.core.sling", "infer_pure_equalities"),
    ("core.validate.self", "repro.core.sling", "validate_specification"),
    ("core.sling.driver_self", "repro.core.sling", "Sling.infer_function"),
    ("sl.checker.check_self", "repro.sl.checker", "ModelChecker.check"),
    ("sl.checker.check_batch_self", "repro.sl.checker", "ModelChecker.check_batch"),
    ("sl.checker.ensure_self", "repro.sl.checker", "EnvStream.ensure"),
    ("sl.checker.materialize_self", "repro.sl.checker", "EnvStream.materialize"),
    ("sl.kernels.decide_group_self", "repro.sl.kernels", "decide_group"),
    ("evaluation.table1.self", "repro.evaluation.table1", "evaluate_program"),
    ("cache.load_stream", "repro.cache.tier", "PersistentCache.load_stream"),
    ("cache.flush", "repro.cache.tier", "PersistentCache.flush"),
)

#: The engine's job entry point, wrapped by :meth:`Layers.install`.
JOB_LAYER = "core.engine.execute_job_self"

#: Every layer name, in report order.
LAYER_NAMES = tuple(layer for layer, _, _ in TARGETS) + (JOB_LAYER,)

#: ``EngineReport.cache`` counters reported as exact work counts.
WORK_COUNTS = (
    "candidates_generated",
    "candidates_prefiltered",
    "candidates_checked",
    "skeletons_solved",
    "env_stream_reuses",
    "pure_variant_evals",
    "kernel_groups",
    "iso_classes",
    "disk_hits",
    "disk_misses",
)


def _clock_ns() -> int:
    return to_ns(monotime())


class Layers:
    """Self-time totals of the wrapped layers in this process."""

    def __init__(self):
        #: layer -> [self_ns, calls]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> int:
        self._stack().append(0)
        return _clock_ns()

    def _exit(self, layer: str, start: int) -> None:
        elapsed = _clock_ns() - start
        stack = self._stack()
        children = stack.pop()
        entry = self.totals[layer]
        entry[0] += elapsed - children
        entry[1] += 1
        if stack:
            stack[-1] += elapsed

    def wrap(self, layer: str, function):
        """``function`` with its self time and calls added to ``layer``."""

        @functools.wraps(function)
        def timed(*args, **kwargs):
            start = self._enter()
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(layer, start)

        return timed

    def wrap_job(self, function):
        """``execute_job``, stamping each report with the job's layer totals."""

        @functools.wraps(function)
        def timed_job(job):
            before = self.snapshot()
            start = self._enter()
            try:
                report = function(job)
            finally:
                self._exit(JOB_LAYER, start)
            end = _clock_ns()
            report.layer_ns = self.delta(before)
            report.job_span = (os.getpid(), start, end)
            return report

        return timed_job

    def snapshot(self) -> dict[str, tuple[int, int]]:
        return {layer: (entry[0], entry[1]) for layer, entry in self.totals.items()}

    def delta(self, before: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
        """Totals accrued since ``before`` (layers with no calls omitted)."""
        changed = {}
        for layer, (self_ns, calls) in self.snapshot().items():
            old_ns, old_calls = before.get(layer, (0, 0))
            if calls != old_calls:
                changed[layer] = (self_ns - old_ns, calls - old_calls)
        return changed

    def install(self) -> "Layers":
        """Patch every target; call once per process, before any job runs."""
        for layer, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attribute, self.wrap(layer, getattr(owner, attribute)))
        engine = importlib.import_module("repro.core.engine")
        engine.execute_job = self.wrap_job(engine.execute_job)
        return self


def sum_job_layers(reports) -> dict[str, list[int]]:
    """Layer totals over the reports of wrapped jobs: layer -> [self_ns, calls]."""
    totals: dict[str, list[int]] = {layer: [0, 0] for layer in LAYER_NAMES}
    for report in reports:
        for layer, (self_ns, calls) in getattr(report, "layer_ns", {}).items():
            totals[layer][0] += self_ns
            totals[layer][1] += calls
    return totals
