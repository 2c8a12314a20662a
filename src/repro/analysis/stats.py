"""Statistical utilities for benchmark results.

Measurement hygiene for the harness: bootstrap confidence intervals on
latency/throughput summaries, and a rank-based A/B comparison so
ablations can claim "X beats Y" with an error probability instead of a
single-run delta.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def nearest_rank_quantile(values, frac: float) -> float:
    """Exact nearest-rank quantile of raw samples (0.0 when empty).

    Returns the sorted sample at index ``round(frac * (n - 1))``: always
    an observed value, never an interpolation between two.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       round(frac * (len(ordered) - 1)))]


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A bootstrap interval for one statistic."""

    statistic: str
    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        """Interval width (high - low)."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether the interval covers ``value``."""
        return self.low <= value <= self.high


def bootstrap_ci(samples, statistic=np.mean, confidence: float = 0.95,
                 resamples: int = 2000, seed: int = 0,
                 name: str = "mean") -> ConfidenceInterval:
    """Percentile-bootstrap CI of ``statistic`` over ``samples``."""
    samples = np.asarray(list(samples), dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 10:
        raise ValueError("resamples must be >= 10")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, samples.size, size=(resamples, samples.size))
    stats = statistic(samples[indices], axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return ConfidenceInterval(
        statistic=name,
        estimate=float(statistic(samples)),
        low=float(low),
        high=float(high),
        confidence=confidence,
    )


def latency_cis(latencies, confidence: float = 0.95,
                seed: int = 0) -> dict[str, ConfidenceInterval]:
    """Bootstrap CIs for the summary statistics the harness reports."""
    latencies = np.asarray(list(latencies), dtype=float)
    return {
        "mean": bootstrap_ci(latencies, np.mean, confidence, seed=seed,
                             name="mean"),
        "p95": bootstrap_ci(
            latencies, lambda a, axis=None: np.percentile(a, 95,
                                                          axis=axis),
            confidence, seed=seed, name="p95"),
    }


def probability_a_beats_b(a, b, resamples: int = 2000,
                          seed: int = 0) -> float:
    """Bootstrap P(mean(A) < mean(B)) — for "A is faster" claims.

    Values are latencies, so *lower is better*; returns the probability
    that A's mean latency is below B's under resampling.
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two samples per group")
    rng = np.random.default_rng(seed)
    a_means = a[rng.integers(0, a.size, size=(resamples, a.size))].mean(
        axis=1)
    b_means = b[rng.integers(0, b.size, size=(resamples, b.size))].mean(
        axis=1)
    return float(np.mean(a_means < b_means))
