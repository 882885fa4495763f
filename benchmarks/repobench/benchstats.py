"""Statistics and time accounting shared by the repository benchmark.

Three rules, each with its own tests (``test_benchstats.py``):

* :func:`tail` -- the tail percentile: the highest whole percentile that
  still has at least :data:`TAIL_BEYOND` samples strictly beyond its rank
  (nearest-rank definition).  Too few samples is an error, never a guess.
* :func:`summary` -- median with first and third quartiles, as
  :func:`statistics.quantiles` gives them.
* :func:`unattributed_ns` / :func:`close_accounting` -- layer self times in
  integer nanoseconds, so that ``sum(self) + unattributed == workers * wall``
  holds exactly, not to within float rounding.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond the tail percentile's rank.
TAIL_BEYOND = 10


class TooFewSamples(ValueError):
    """The tail rule needs more samples than were given."""


def tail(values) -> tuple[float, int, int]:
    """The tail of ``values`` as ``(value, percentile, samples)``.

    Nearest rank: percentile ``p`` of ``n`` sorted samples is the sample at
    rank ``ceil(p * n / 100)`` (1-based), and ``n - rank`` samples lie
    beyond it.  The result is the highest whole ``p`` below 100 that leaves
    at least :data:`TAIL_BEYOND` samples beyond.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise TooFewSamples(
            f"tail needs more than {TAIL_BEYOND} samples, got {count}"
        )
    percentile = min(99, (100 * (count - TAIL_BEYOND)) // count)
    rank = math.ceil(percentile * count / 100)
    while percentile > 0 and count - rank < TAIL_BEYOND:
        percentile -= 1
        rank = math.ceil(percentile * count / 100)
    return ordered[max(rank, 1) - 1], percentile, count


def summary(values) -> dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    values = list(values)
    if not values:
        raise TooFewSamples("summary of no samples")
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    stats = summary(values)
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def to_ns(seconds: float) -> int:
    """A clock reading in seconds as whole nanoseconds."""
    return round(seconds * 1_000_000_000)


def unattributed_ns(workers: int, wall_ns: int, self_ns) -> int:
    """Time no layer claimed: ``workers * wall - sum(self)``, in nanoseconds."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers * wall_ns - sum(self_ns)


def close_accounting(workers: int, wall_ns: int, self_ns: dict[str, int]) -> dict[str, int]:
    """``self_ns`` plus its ``unattributed`` remainder, checked to close.

    The returned mapping sums to exactly ``workers * wall_ns``; a layer
    name ``unattributed`` in the input is refused rather than overwritten.
    """
    if "unattributed" in self_ns:
        raise ValueError("'unattributed' is the remainder, not a layer")
    closed = dict(self_ns)
    closed["unattributed"] = unattributed_ns(workers, wall_ns, self_ns.values())
    if sum(closed.values()) != workers * wall_ns:
        raise ArithmeticError("layer accounting does not close")
    return closed
