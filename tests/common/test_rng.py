"""Deterministic named RNG streams."""

import numpy as np
import pytest

import repro.common.rng as rng_module
from repro.common.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(seed=42).stream("x").random(8)
        b = RngStreams(seed=42).stream("x").random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x").random(8)
        b = RngStreams(seed=2).stream("x").random(8)
        assert not np.array_equal(a, b)

    def test_different_stream_names_independent(self):
        streams = RngStreams(seed=7)
        a = streams.stream("alpha").random(8)
        b = streams.stream("beta").random(8)
        assert not np.array_equal(a, b)

    def test_stream_identity_is_creation_order_independent(self):
        one = RngStreams(seed=5)
        one.stream("first")
        value_one = one.stream("second").random()
        two = RngStreams(seed=5)
        value_two = two.stream("second").random()
        assert value_one == value_two

    def test_stream_is_cached(self):
        streams = RngStreams(seed=0)
        assert streams.stream("x") is streams.stream("x")

    def test_exponential_mean(self):
        streams = RngStreams(seed=3)
        samples = [streams.exponential("arrivals", 100.0) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.1)

    def test_exponential_positive(self):
        streams = RngStreams(seed=3)
        assert all(streams.exponential("a", 5.0) > 0 for _ in range(100))

    def test_uniform_bounds(self):
        streams = RngStreams(seed=3)
        for _ in range(200):
            value = streams.uniform("u", 2.0, 9.0)
            assert 2.0 <= value < 9.0

    def test_choice_index_range(self):
        streams = RngStreams(seed=3)
        indices = {streams.choice_index("c", 4) for _ in range(200)}
        assert indices <= {0, 1, 2, 3}
        assert len(indices) == 4  # all values reachable

    def test_seed_property(self):
        assert RngStreams(seed=11).seed == 11


def _scalar_times(rng, name, mean, start, end):
    now, times = start, []
    while True:
        now += rng.exponential(name, mean)
        if now >= end:
            return times
        times.append(now)


class TestExponentialTimes:
    """The batched draw is the scalar ``now += gap`` loop, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "mean,start,end",
        [(1e4, 0.0, 5e6), (3.3e5, 100.0, 1e8), (7.0, 12345.678, 32345.678), (1e6, 0.0, 5e5)],
    )
    def test_equals_scalar_loop_and_leaves_the_same_state(self, seed, mean, start, end):
        scalar, batched = RngStreams(seed), RngStreams(seed)
        expected = _scalar_times(scalar, "arrivals", mean, start, end)
        assert batched.exponential_times("arrivals", mean, start, end) == expected
        assert (
            batched.stream("arrivals").bit_generator.state
            == scalar.stream("arrivals").bit_generator.state
        )

    def test_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(rng_module, "EXPONENTIAL_CHUNK", 7)
        for seed in range(4):
            scalar, batched = RngStreams(seed), RngStreams(seed)
            expected = _scalar_times(scalar, "x", 10.0, 50.0, 1000.0)
            assert len(expected) > 7 * 5
            assert batched.exponential_times("x", 10.0, 50.0, 1000.0) == expected
            assert batched.exponential("x", 1.0) == scalar.exponential("x", 1.0)

    def test_start_at_or_past_end_draws_once(self):
        scalar, batched = RngStreams(3), RngStreams(3)
        assert batched.exponential_times("x", 5.0, 10.0, 10.0) == []
        scalar.exponential("x", 5.0)
        assert batched.exponential("x", 1.0) == scalar.exponential("x", 1.0)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(0).exponential_times("x", 0.0, 0.0, 1.0)
