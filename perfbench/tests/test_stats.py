"""Percentile and error arithmetic."""

import math

import pytest

from perfbench.stats import (
    ErrorAccumulator,
    host_fingerprint,
    median,
    nearest_rank,
    tail_percentile,
)


def test_nearest_rank_picks_the_ceiling_rank():
    ordered = [10.0, 20.0, 30.0, 40.0]
    assert nearest_rank(ordered, 25) == 10.0
    assert nearest_rank(ordered, 26) == 20.0
    assert nearest_rank(ordered, 50) == 20.0
    assert nearest_rank(ordered, 100) == 40.0
    assert nearest_rank([7.0], 1) == 7.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_median_is_the_lower_middle_on_even_counts():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert median([5.0, 1.0, 3.0]) == 3.0


@pytest.mark.parametrize(
    "count, percentile",
    [(11, 9), (20, 50), (100, 90), (200, 95), (1000, 99), (10_000, 99)],
)
def test_tail_is_the_highest_percentile_with_ten_beyond(count, percentile):
    values = [float(v) for v in range(count, 0, -1)]  # unsorted input
    q, value, beyond = tail_percentile(values)
    assert q == percentile
    rank = math.ceil(q * count / 100)
    assert value == float(rank)
    assert beyond == count - rank >= 10
    # One percentile higher would leave fewer than ten beyond it.
    if q < 99:
        assert count - math.ceil((q + 1) * count / 100) < 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)
    assert tail_percentile([1.0] * 11)[2] == 10


def test_nrmse_averages_per_target_rmse_over_scale():
    errors = ErrorAccumulator()
    errors.add(("d", "a"), 2.0, [1.0, -1.0])  # rmse 1 / sd 2
    errors.add(("d", "b"), 1.0, [3.0])  # rmse 3 / sd 1
    errors.add(("d", "b"), 1.0, [-3.0])
    assert errors.nrmse() == pytest.approx((0.5 + 3.0) / 2)


def test_nrmse_without_estimates_raises():
    with pytest.raises(ValueError):
        ErrorAccumulator().nrmse()
    with pytest.raises(ValueError):
        ErrorAccumulator().add(("d", "a"), 0.0, [1.0])


def test_host_fingerprint_names_the_host():
    host = host_fingerprint()
    assert set(host) == {"nproc", "cpu_model", "python", "numpy"}
    assert host["nproc"] >= 1
