"""``random_suite`` draws its integers in plain Python, call for call as
``numpy.random.default_rng(seed).integers`` draws them."""

import numpy as np
import pytest

import lincat
from lincat.errors import LincatError
from lincat.suites import _Draws, random_suite

# a range whose Lemire rejection threshold is 2^32 mod 3e9, about 30% of
# all 32-bit draws, so most streams below go through the rejection loop
BIG = 3_000_000_019

# 2^32 + 5 and 2^70 + 3 hash two and three 32-bit words of entropy; 2^200 + 11
# hashes seven, more than SeedSequence's pool of four
SEEDS = [*range(200), 2**32 + 5, 2**70 + 3, 2**200 + 11]


def _ranges():
    """(low, high) for every range of 1..100 values, each from 0 and from a
    shifted low, and the big range between them: the 32-bit draws are buffered
    in halves, so the interleaving matters."""
    for n in range(1, 101):
        yield 0, n
        yield 7, 7 + n
        yield -3, BIG - 3


class _Counting(_Draws):
    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def _next32(self):
        self.draws += 1
        return super()._next32()


def test_draws_equal_numpy_default_rng():
    calls = list(_ranges())
    for seed in SEEDS:
        want = np.random.default_rng(seed)
        got = _Draws(seed)
        drawn = [got.integers(low, high) for low, high in calls]
        assert drawn == [int(want.integers(low, high)) for low, high in calls], seed
        assert all(type(v) is int for v in drawn)


def test_a_range_of_one_value_consumes_no_draw():
    draws = _Counting(3)
    assert [draws.integers(5, 6) for _ in range(4)] == [5] * 4
    assert draws.draws == 0


def test_the_big_range_goes_through_the_rejection_loop():
    draws = _Counting(0)
    for _ in range(100):
        draws.integers(0, BIG)
    assert draws.draws > 100


@pytest.mark.parametrize("low, high", [(0, 0), (3, 1), (0, 2**32 + 1)])
def test_a_range_outside_the_32_bit_draws_is_refused(low, high):
    with pytest.raises(ValueError, match="cannot draw"):
        _Draws(0).integers(low, high)


def test_negative_seed_is_refused():
    with pytest.raises(LincatError, match="seed must be non-negative, got -1"):
        random_suite(-1)


def test_numpy_integer_seed_is_the_int_seed():
    a, b = random_suite(np.int64(3)), random_suite(3)
    assert type(a.seed) is int and a.seed == 3
    assert [lincat.serialize(x) for x in a.spans + a.spanmaps] == [
        lincat.serialize(x) for x in b.spans + b.spanmaps]
