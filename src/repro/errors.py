"""Exceptions shared across layers, in a module that imports nothing.

:class:`EngineError` is raised by the batch engine
(:mod:`repro.core.engine`, which re-exports it) and caught by the CLI.
Defining it here lets :func:`repro.cli.main` name it without importing the
engine.
"""


class EngineError(RuntimeError):
    """A batch run failed in a way the caller did not ask to tolerate."""
