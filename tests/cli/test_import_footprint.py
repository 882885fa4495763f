"""The ``repro infer --connect`` client stays import-light.

One ``--connect`` process runs per question to a daemon, so its start-up
is on every served round trip.  The client path may load the package
roots, the CLI module and the serve client and protocol -- nothing else of
``repro`` (the engine, checker and Sling stay unloaded).  ``make
serve-smoke`` checks the same rule on the real ``python -m repro`` entry
point against a live daemon.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Written out here, not imported from the drill's ``CLIENT_MODULES``: widening
#: the allowance must take an edit to this test.
CLIENT_MODULES = [
    "repro",
    "repro.cli",
    "repro.serve",
    "repro.serve.client",
    "repro.serve.protocol",
]

_PROBE = """
import json, sys
import repro.cli, repro.serve.client
loaded = sorted(name for name in sys.modules if name == "repro" or name.startswith("repro."))
import repro, repro.serve
unresolved = [
    f"{package.__name__}.{name}"
    for package in (repro, repro.serve)
    for name in package.__all__
    if getattr(package, name, None) is None
]
print(json.dumps({"loaded": loaded, "unresolved": unresolved}))
"""


def _probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


def test_connect_client_imports_only_the_client_path():
    result = _probe()
    assert result["loaded"] == sorted(CLIENT_MODULES)
    assert result["unresolved"] == []


def test_lazy_package_roots_keep_their_public_names():
    import repro
    import repro.serve
    from repro import InferenceEngine, Sling, SlingConfig
    from repro.core.engine import InferenceEngine as engine_class
    from repro.serve import ServeDaemon, parse_request
    from repro.serve.daemon import ServeDaemon as daemon_class

    assert InferenceEngine is engine_class
    assert ServeDaemon is daemon_class
    assert Sling.__name__ == "Sling" and SlingConfig.__name__ == "SlingConfig"
    assert parse_request('{"id": "r", "benchmarks": ["a"]}').benchmarks == ("a",)
    for package in (repro, repro.serve):
        for name in package.__all__:
            assert getattr(package, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_name
