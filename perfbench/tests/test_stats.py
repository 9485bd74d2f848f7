"""Percentile rules: nearest rank, failures last, tail with ten beyond."""

import math

import pytest

from stats import median, percentile, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_at_least_ten_samples_beyond_it():
    for n in range(20, 3000, 7):
        pct = tail_percentile(n)
        values = list(range(n))
        beyond = sum(value > percentile(values, pct) for value in values)
        assert beyond >= 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 90.0) == 90.0
    assert percentile(values, 100.0) == 100.0


def test_failed_requests_count_as_infinitely_late():
    values = [1.0] * 95 + [math.inf] * 5
    assert percentile(values, 95.0) == 1.0
    assert percentile(values, 99.0) == math.inf


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
