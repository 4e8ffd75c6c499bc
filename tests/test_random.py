"""Unit tests for the seeded random stream factory."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.grid.random import DEFAULT_SEED, RandomStreams


class TestStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=7)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.get("a").random(100)
        b = streams.get("b").random(100)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_draws(self):
        x1 = RandomStreams(seed=3).get("host.n1").random(10)
        x2 = RandomStreams(seed=3).get("host.n1").random(10)
        assert np.array_equal(x1, x2)

    def test_new_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(seed=3)
        s1.get("other")  # create an unrelated stream first
        with_other = s1.get("target").random(10)
        s2 = RandomStreams(seed=3)
        without_other = s2.get("target").random(10)
        assert np.array_equal(with_other, without_other)

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 20030623

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random(20)
        b = RandomStreams(seed=2).get("x").random(20)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (1.5, TypeError), ("7", TypeError)]
    )
    def test_a_bad_seed_is_refused_at_reseed(self, seed, error):
        with pytest.raises(error):
            RandomStreams(seed=seed)
        streams = RandomStreams(seed=3)
        with pytest.raises(error):
            streams.reseed(seed)
        assert streams.seed == 3

    def test_reseed_equals_a_fresh_factory(self):
        streams = RandomStreams(seed=3)
        streams.get("x").random(5)
        streams.reseed(4)
        assert np.array_equal(
            streams.get("x").random(10), RandomStreams(seed=4).get("x").random(10)
        )


class TestDistributions:
    def test_ttf_mean_approximates_mttf(self):
        streams = RandomStreams(seed=11)
        draws = [streams.ttf("h", 50.0) for _ in range(5000)]
        assert 47.0 < float(np.mean(draws)) < 53.0

    def test_ttf_infinite_mttf_is_inf(self):
        streams = RandomStreams()
        assert streams.ttf("h", math.inf) == math.inf

    def test_ttf_invalid_mttf(self):
        with pytest.raises(ValueError):
            RandomStreams().ttf("h", 0.0)

    def test_downtime_zero_mean_is_zero(self):
        assert RandomStreams().downtime("h", 0.0) == 0.0

    def test_downtime_mean(self):
        streams = RandomStreams(seed=12)
        draws = [streams.downtime("h", 10.0) for _ in range(5000)]
        assert 9.3 < float(np.mean(draws)) < 10.7

    def test_downtime_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams().downtime("h", -1.0)

    def test_bernoulli_extremes_consume_no_randomness(self):
        streams = RandomStreams(seed=13)
        assert streams.bernoulli("b", 0.0) is False
        assert streams.bernoulli("b", 1.0) is True
        # The stream was never created by the extreme draws.
        before = streams.get("b").bit_generator.state
        assert streams.bernoulli("b", 0.0) is False
        assert streams.get("b").bit_generator.state == before

    def test_bernoulli_probability(self):
        streams = RandomStreams(seed=14)
        hits = sum(streams.bernoulli("b", 0.3) for _ in range(10000))
        assert 2800 < hits < 3200

    def test_bernoulli_invalid_p(self):
        with pytest.raises(ValueError):
            RandomStreams().bernoulli("b", 1.5)
