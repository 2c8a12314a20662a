"""Tests for repro.analysis.stats — bootstrap statistics."""

import numpy as np
import pytest

from repro.analysis.stats import (
    bootstrap_ci,
    latency_cis,
    nearest_rank_quantile,
    probability_a_beats_b,
)


class TestNearestRankQuantile:
    def test_picks_an_observed_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert nearest_rank_quantile(values, 0.5) == 3.0
        assert nearest_rank_quantile(values, 0.0) == 1.0
        assert nearest_rank_quantile(values, 1.0) == 5.0
        # rank round(0.6 * 4) = 2 -> no interpolation between samples
        assert nearest_rank_quantile([0.0, 10.0, 20.0, 30.0, 40.0],
                                     0.6) == 20.0

    def test_empty_input_is_zero(self):
        assert nearest_rank_quantile([], 0.99) == 0.0


class TestBootstrapCI:
    def test_interval_brackets_the_estimate(self, rng):
        samples = rng.normal(10.0, 2.0, size=200)
        ci = bootstrap_ci(samples)
        assert ci.low <= ci.estimate <= ci.high

    def test_covers_the_true_mean(self, rng):
        samples = rng.normal(5.0, 1.0, size=500)
        ci = bootstrap_ci(samples, confidence=0.99)
        assert ci.contains(5.0)

    def test_width_shrinks_with_sample_size(self, rng):
        small = bootstrap_ci(rng.normal(0, 1, size=20), seed=1)
        large = bootstrap_ci(rng.normal(0, 1, size=2000), seed=1)
        assert large.width < small.width

    def test_deterministic_given_seed(self, rng):
        samples = rng.normal(0, 1, size=50)
        a = bootstrap_ci(samples, seed=7)
        b = bootstrap_ci(samples, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], resamples=5)

    def test_latency_cis_keys(self, rng):
        cis = latency_cis(rng.exponential(0.01, size=300))
        assert set(cis) == {"mean", "p95"}
        assert cis["p95"].estimate > cis["mean"].estimate


class TestABComparison:
    def test_clear_winner(self, rng):
        fast = rng.normal(1.0, 0.1, size=100)
        slow = rng.normal(2.0, 0.1, size=100)
        assert probability_a_beats_b(fast, slow) > 0.99
        assert probability_a_beats_b(slow, fast) < 0.01

    def test_identical_distributions_are_a_tossup(self, rng):
        a = rng.normal(1.0, 0.2, size=400)
        b = rng.normal(1.0, 0.2, size=400)
        p = probability_a_beats_b(a, b)
        assert 0.2 < p < 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            probability_a_beats_b([1.0], [1.0, 2.0])
