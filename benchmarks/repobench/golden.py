"""Committed reference outputs and the checks every benchmark run makes.

``reference.json`` holds, for each reference input seed and each registry
program:

* ``t1`` -- a digest of the Table 1 classification and the pretty-printed
  invariants (location, formula, spurious flag) of a ``table1`` job;
* ``doc`` -- how many of the program's hand-written ``DocumentedProperty``
  checks that Table 1 specification covers (an anchor that does not depend
  on the checker: a changed digest with an unchanged count is a rewording,
  a lower count is a lost invariant);
* ``spec`` -- a digest of the ``result``/``job`` records the serve protocol
  renders for a ``spec`` job, which is what ``repro infer --connect``
  prints.

Workload seeds map onto reference seeds with :func:`reference_seed`.
Regenerate the file with ``regenerate.py`` only when a change is meant to
change outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Input seeds with committed reference outputs.
REFERENCE_SEEDS = (0, 1, 2)


def reference_seed(seed: int, offset: int = 0) -> int:
    """The reference input seed a workload seed (plus an offset) maps onto."""
    return REFERENCE_SEEDS[(seed + offset) % len(REFERENCE_SEEDS)]


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def table1_digest(result) -> str:
    """Digest of a Table 1 ``ProgramResult``: classification and invariants."""
    invariants = []
    if result.specification is not None:
        invariants = [
            [inv.location, inv.pretty(), bool(inv.spurious)]
            for inv in result.specification.all_invariants()
        ]
    return _digest([result.classification, invariants])


def documented_coverage(benchmark, specification) -> int:
    """How many of the program's documented properties the specification covers."""
    if specification is None:
        return 0
    return sum(1 for prop in benchmark.documented if prop.check(specification))


def spec_digest(records) -> str:
    """Digest of one benchmark's served ``result`` and ``job`` records.

    The request ``id`` is dropped, so the digest depends only on the
    inference result.
    """
    payload = [
        {key: value for key, value in record.items() if key != "id"}
        for record in records
        if record.get("type") in ("result", "job")
    ]
    return _digest(payload)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """The committed reference, keyed ``[str(seed)][program]``."""
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    missing = [seed for seed in REFERENCE_SEEDS if str(seed) not in reference["seeds"]]
    if missing:
        raise ValueError(f"reference has no outputs for input seed(s) {missing}")
    return reference["seeds"]


def check_table1(reference: dict, seed: int, benchmark, result) -> str | None:
    """``None`` when a Table 1 row matches its reference, else the mismatch."""
    expected = reference[str(seed)].get(benchmark.name)
    if expected is None:
        return f"{benchmark.name} seed {seed}: no reference"
    digest = table1_digest(result)
    if digest != expected["t1"]:
        return f"{benchmark.name} seed {seed}: table1 digest {digest} != reference {expected['t1']}"
    coverage = documented_coverage(benchmark, result.specification)
    if coverage != expected["doc"]:
        return (
            f"{benchmark.name} seed {seed}: documented coverage {coverage}"
            f" != reference {expected['doc']}"
        )
    return None


def check_served(reference: dict, seed: int, name: str, records) -> str | None:
    """``None`` when one benchmark's served records match the reference."""
    expected = reference[str(seed)].get(name)
    if expected is None:
        return f"{name} seed {seed}: no reference"
    digest = spec_digest(records)
    if digest != expected["spec"]:
        return f"{name} seed {seed}: served digest {digest} != reference {expected['spec']}"
    return None
