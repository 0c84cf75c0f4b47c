import statistics

import pytest

import stats


@pytest.mark.parametrize("count, expected", [(1, None), (39, None), (40, 30), (60, 45)])
def test_tail_needs_ten_samples_beyond_p75(count, expected):
    assert stats.tail(list(range(count, 0, -1))) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert stats.percentile(values, 75.0) == 30
    assert stats.percentile(values, 50.0) == 20
    assert stats.percentile(values[::-1], 100.0) == 40


def test_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.spread([2.0]) == 0.0

