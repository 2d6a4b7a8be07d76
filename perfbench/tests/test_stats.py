import numpy as np
import pytest

import stats


@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    xs = np.random.default_rng(7).exponential(size=37)
    assert stats.percentile(list(xs), q) == pytest.approx(
        np.percentile(xs, q), rel=1e-12)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, q, beyond, ok", [
    (100, 90, 10, True),     # empty_road: 100 ticks, p90 just reportable
    (99, 90, 9, False),
    (300, 90, 30, True),     # overtake: 300 ticks
    (12, 50, 6, False),      # planner instances: p50 only, never a tail
    (20, 50, 10, True),
    (1000, 99, 10, True),
    (999, 99, 9, False),
])
def test_tail_needs_ten_samples_beyond(n, q, beyond, ok):
    assert stats.samples_beyond(n, q) == beyond
    assert stats.tail_reportable(n, q) is ok


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    # statistics.quantiles (exclusive method) gives 1.5 and 4.5
    assert stats.spread(values) == pytest.approx((4.5 - 1.5) / 3.0)
