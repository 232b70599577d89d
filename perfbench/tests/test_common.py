"""The percentile rule: nearest rank, and at least ten samples beyond."""

import pytest

from perfbench.common import (
    MIN_BEYOND,
    canonical,
    digest,
    min_samples,
    percentile,
    samples_beyond,
    supported,
)


def test_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, q, beyond", [
    (200, 95, 10), (199, 95, 9), (100, 95, 5), (20, 50, 10), (19, 50, 9),
    (1, 95, 0), (0, 95, 0),
])
def test_samples_beyond(n, q, beyond):
    assert samples_beyond(n, q) == beyond
    assert supported(n, q) == (beyond >= MIN_BEYOND)


def test_smallest_supporting_sample():
    assert MIN_BEYOND == 10
    assert min_samples(95) == 200
    assert min_samples(50) == 20
    assert min_samples(99) == 1000
    for q in (50, 90, 95, 99):
        n = min_samples(q)
        assert supported(n, q) and not supported(n - 1, q)


def test_digest_keeps_every_float_bit():
    assert digest({"a": 0.1 + 0.2}) != digest({"a": 0.3})
    assert digest({"b": 1, "a": 2}) == digest({"a": 2, "b": 1})
    assert canonical((1.5, "x")) == ["1.5", "x"]
