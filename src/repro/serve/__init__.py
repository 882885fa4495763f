"""The resilient inference service: ``repro serve`` and its client.

* :mod:`repro.serve.protocol` -- the NDJSON request/response schema shared
  by daemon and client (one record constructor set, hence bit-identical
  streams).
* :mod:`repro.serve.journal` -- the crash-safe journal of accepted-but-
  unfinished requests behind resume.
* :mod:`repro.serve.daemon` -- the daemon: bounded admission, deadlines,
  graceful drain, client-disconnect cancellation.
* :mod:`repro.serve.client` -- ``repro infer --connect`` and the
  in-process fallback that emits the identical record stream.
* :mod:`repro.serve.smoke` -- the end-to-end smoke drill behind
  ``make serve-smoke`` and the CI ``serve-smoke`` job.

See ``docs/serving.md`` for the protocol and lifecycle contract.
"""

import importlib

#: Public name -> the module that defines it.  Resolved on first access
#: (PEP 562): the ``--connect`` client imports this package on its way to
#: :mod:`repro.serve.client` and must not load the daemon (and through it
#: the engine) to do so.
_EXPORTS = {
    "DONE_STATUSES": "repro.serve.protocol",
    "SERVE_PROTOCOL_VERSION": "repro.serve.protocol",
    "SERVE_RECORD_TYPES": "repro.serve.protocol",
    "AdmissionQueue": "repro.serve.daemon",
    "ProtocolError": "repro.serve.protocol",
    "RequestJournal": "repro.serve.journal",
    "ServeDaemon": "repro.serve.daemon",
    "ServeRequest": "repro.serve.protocol",
    "StatsRequest": "repro.serve.protocol",
    "parse_request": "repro.serve.protocol",
    "records_for_report": "repro.serve.protocol",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
