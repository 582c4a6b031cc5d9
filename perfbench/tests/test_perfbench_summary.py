"""The op_tail_s percentile rule."""

import pytest

from perfbench.summary import TAIL_BEYOND, tail


@pytest.mark.parametrize("n", [0, 1, 5, 10, 11, 15, 20])
def test_tail_omitted_without_a_percentile_above_the_median(n):
    # n <= 10: no sample has ten beyond it; 11..20: the one that does sits
    # at or below the median
    assert tail([float(i) for i in range(n)]) is None


def test_tail_just_above_the_median():
    values = [float(i) for i in range(21)]
    percentile, value, beyond = tail(values[::-1])  # order does not matter
    assert percentile == pytest.approx(100 * 11 / 21)
    assert value == 10.0
    assert beyond == TAIL_BEYOND


def test_tail_of_a_hundred_samples_is_p90():
    percentile, value, beyond = tail([float(i) for i in range(1, 101)])
    assert (percentile, value, beyond) == (90.0, 90.0, 10)
