"""The percentile rule: a tail is reported only with ten samples beyond it."""

import pytest

from stats import latency_summary, percentile, spread, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (1, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (50_000, 99.0),
])
def test_tail_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_latency_summary_states_count_and_percentile():
    summary = latency_summary([float(i) for i in range(1, 1001)])
    assert summary == {"p50": 500.0, "tail": 990.0, "tail_p": 99.0,
                       "count": 1000}
    short = latency_summary([float(i) for i in range(1, 201)])
    assert (short["tail_p"], short["tail"]) == (90.0, 180.0)
    assert latency_summary([])["count"] == 0


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert percentile([5.0, 1.0, 3.0], 100.0) == 5.0
    assert percentile([7.0], 99.0) == 7.0


def test_spread_is_quartile_distance_over_median():
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert spread(values) == pytest.approx(1.0)
    assert spread([4.2]) == 0.0
