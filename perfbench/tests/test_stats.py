import numpy as np
import pytest

from ffbench.stats import min_samples_for, percentile, samples_beyond, tail_percentile


@pytest.mark.parametrize("q", [0.0, 10.0, 50.0, 75.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy(q):
    xs = list(np.random.default_rng(4).exponential(size=37))
    assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), rel=1e-12)


@pytest.mark.parametrize("count, expected", [
    (10, 0.0),      # the median has only 4 samples beyond it
    (19, 0.0),
    (20, 50.0),
    (24, 50.0),     # one serial verify-suite run
    (38, 75.0),
    (48, 75.0),     # both verify-suite runs
    (91, 75.0),
    (92, 90.0),
    (901, 90.0),
    (902, 99.0),
    (9001, 99.0),
    (9002, 99.9),
])
def test_tail_rule_needs_ten_samples_beyond(count, expected):
    q = tail_percentile(count)
    assert q == expected
    if q:
        assert samples_beyond(count, q) >= 10


def test_min_samples_is_the_first_count_that_qualifies():
    for q in (50.0, 75.0, 90.0, 99.0):
        n = min_samples_for(q)
        assert samples_beyond(n, q) >= 10
        assert samples_beyond(n - 1, q) < 10
