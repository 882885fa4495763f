"""Reproduction of SLING (PLDI 2019): dynamic inference of separation-logic invariants.

The package is organised as follows:

* :mod:`repro.sl` -- separation-logic formulae, inductive predicates,
  stack-heap models and the symbolic-heap model checker.
* :mod:`repro.lang` -- *heaplang*, a small C-like heap-manipulating language
  with an interpreter and a tracing debugger.  It stands in for the C
  benchmark programs and the LLDB debugger used by the paper.
* :mod:`repro.datagen` -- random data-structure generators used to build
  test inputs inside the interpreter heap.
* :mod:`repro.core` -- the SLING inference algorithm itself (heap
  partitioning, atomic-predicate inference, pure inference, frame-rule
  validation) and the parallel batch-inference engine
  (:mod:`repro.core.engine`) that fans inference jobs out over a worker
  pool with per-job timeouts and cache accounting.
* :mod:`repro.baselines` -- a simplified static bi-abduction analyser used
  as the S2 comparison point of Table 2.
* :mod:`repro.benchsuite` -- heaplang re-implementations of the paper's
  benchmark categories together with their documented invariants.
* :mod:`repro.evaluation` -- harnesses regenerating Table 1 and Table 2 on
  top of the engine (``jobs=N`` parallel sweeps).
* :mod:`repro.cli` -- the ``repro`` command line (``python -m repro
  infer|table1|table2|bench|docs``).

The hot path is memoized at two levels: the symbolic-heap model checker
caches reductions per (alpha-normalized formula, model) and the inductive
predicates cache their case unfoldings per argument shape; both expose
hit/miss counters that the engine reports per job.

Importing the package root imports nothing else: the names below resolve
on first access (PEP 562), so ``repro infer --connect`` -- a short-lived
client that needs neither the engine nor the checker -- does not pay for
loading them.
"""

import importlib

#: Public name -> the module that defines it.
_EXPORTS = {
    "Sling": "repro.core.sling",
    "SlingConfig": "repro.core.sling",
    "infer_invariants": "repro.core.sling",
    "infer_specification": "repro.core.sling",
    "EngineJob": "repro.core.engine",
    "EngineReport": "repro.core.engine",
    "InferenceEngine": "repro.core.engine",
}

__all__ = list(_EXPORTS)

__version__ = "0.2.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
