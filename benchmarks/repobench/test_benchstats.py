"""Tests of the benchmark's statistics and time-accounting helpers."""

import random
import statistics

import pytest

from benchstats import (
    TAIL_BEYOND,
    TooFewSamples,
    close_accounting,
    spread,
    summary,
    tail,
    to_ns,
    unattributed_ns,
)


class TestTail:
    def test_refuses_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            tail(range(TAIL_BEYOND))

    def test_smallest_accepted_sample_is_the_minimum_rank(self):
        value, percentile, count = tail(range(11))
        assert count == 11
        assert percentile == 9
        assert value == 0

    @pytest.mark.parametrize("count", [11, 12, 19, 20, 60, 99, 100, 101, 150, 600, 1000, 5000])
    def test_highest_percentile_with_ten_beyond(self, count):
        values = list(range(count))
        random.Random(count).shuffle(values)
        value, percentile, samples = tail(values)
        assert samples == count
        beyond = sum(1 for other in values if other > value)
        assert beyond >= TAIL_BEYOND
        if percentile < 99:
            # One percentile higher would leave fewer than ten beyond.
            rank = -(-(percentile + 1) * count // 100)
            assert count - rank < TAIL_BEYOND

    def test_sixty_requests_read_the_fiftieth(self):
        value, percentile, _ = tail(range(1, 61))
        assert (value, percentile) == (50, 83)

    def test_capped_at_p99(self):
        _, percentile, _ = tail(range(100_000))
        assert percentile == 99


class TestSummary:
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert summary(values) == {"median": median, "q1": q1, "q3": q3, "n": 7}

    def test_single_sample(self):
        assert summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}

    def test_empty_is_refused(self):
        with pytest.raises(TooFewSamples):
            summary([])

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert spread(values) == (q3 - q1) / median


class TestAccounting:
    def test_to_ns_rounds(self):
        assert to_ns(1.5) == 1_500_000_000
        assert to_ns(0.1 + 0.2) == 300_000_000

    def test_unattributed_is_the_remainder(self):
        assert unattributed_ns(2, 1000, [300, 400, 500]) == 800

    def test_overlap_shows_as_negative_remainder(self):
        assert unattributed_ns(1, 100, [80, 40]) == -20

    def test_refuses_zero_workers(self):
        with pytest.raises(ValueError):
            unattributed_ns(0, 1000, [])

    def test_closes_exactly_on_awkward_values(self):
        rng = random.Random(7)
        for _ in range(200):
            workers = rng.randint(1, 4)
            wall = rng.randint(1, 10**10)
            layers = {f"layer{i}": rng.randint(0, wall) for i in range(rng.randint(0, 12))}
            closed = close_accounting(workers, wall, layers)
            assert sum(closed.values()) == workers * wall
            assert {k: v for k, v in closed.items() if k != "unattributed"} == layers

    def test_refuses_a_layer_named_unattributed(self):
        with pytest.raises(ValueError):
            close_accounting(1, 10, {"unattributed": 1})
