"""Size and duplication distributions."""

import math
import random

import pytest

from repro.workload.distributions import (
    BoundedZipf,
    lognormal_size,
    machine_file_count,
    poisson_count,
)


def _exact_mean(zipf):
    """The bounded distribution's exact mean: the oracle for its sampler."""
    support = range(zipf.lo, zipf.hi + 1)
    weights = [k**-zipf.alpha for k in support]
    return sum(k * w for k, w in zip(support, weights)) / sum(weights)


class TestLognormalSize:
    def test_clamped_to_bounds(self):
        rng = random.Random(1)
        for _ in range(500):
            size = lognormal_size(rng, median=4096, sigma=3.0, min_size=1, max_size=10_000)
            assert 1 <= size <= 10_000

    def test_median_approximately_respected(self):
        rng = random.Random(2)
        samples = sorted(
            lognormal_size(rng, median=4096, sigma=2.0) for _ in range(4000)
        )
        measured_median = samples[len(samples) // 2]
        assert 2500 < measured_median < 6500

    def test_mean_follows_lognormal_formula(self):
        rng = random.Random(3)
        sigma = 1.0
        samples = [lognormal_size(rng, 1000, sigma) for _ in range(20_000)]
        expected_mean = 1000 * math.exp(sigma**2 / 2)
        assert sum(samples) / len(samples) == pytest.approx(expected_mean, rel=0.1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            lognormal_size(random.Random(4), median=0, sigma=1)


class TestBoundedZipf:
    def test_bounds_respected(self):
        zipf = BoundedZipf(2, 50, 2.0)
        rng = random.Random(5)
        samples = [zipf.sample(rng) for _ in range(2000)]
        assert min(samples) >= 2 and max(samples) <= 50

    def test_skew_toward_low_values(self):
        zipf = BoundedZipf(2, 100, 2.0)
        rng = random.Random(6)
        samples = [zipf.sample(rng) for _ in range(5000)]
        assert sum(1 for s in samples if s <= 4) > len(samples) / 2

    def test_empirical_mean_matches_exact(self):
        zipf = BoundedZipf(2, 200, 2.2)
        rng = random.Random(7)
        samples = [zipf.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(_exact_mean(zipf), rel=0.1)

    def test_heavier_tail_with_smaller_alpha(self):
        assert _exact_mean(BoundedZipf(2, 500, 1.5)) > _exact_mean(BoundedZipf(2, 500, 2.5))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BoundedZipf(0, 10, 2.0)
        with pytest.raises(ValueError):
            BoundedZipf(2, 1, 2.0)
        with pytest.raises(ValueError):
            BoundedZipf(2, 10, 0)


class TestMachineFileCount:
    def test_positive(self):
        rng = random.Random(8)
        assert all(machine_file_count(rng, 30) >= 1 for _ in range(100))

    def test_mean_preserved(self):
        rng = random.Random(9)
        counts = [machine_file_count(rng, 100, spread_sigma=0.5) for _ in range(5000)]
        assert sum(counts) / len(counts) == pytest.approx(100, rel=0.1)

    def test_spread_creates_variation(self):
        rng = random.Random(10)
        counts = {machine_file_count(rng, 100, spread_sigma=0.5) for _ in range(100)}
        assert len(counts) > 20

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            machine_file_count(random.Random(11), 0)


class TestPoissonCount:
    def test_zero_rate_is_zero(self):
        assert poisson_count(random.Random(1), 0.0) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_count(random.Random(1), -1.0)

    def test_mean_and_variance_match_rate(self):
        rng = random.Random(2)
        draws = [poisson_count(rng, 12.0) for _ in range(5000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / len(draws)
        assert mean == pytest.approx(12.0, rel=0.05)
        assert var == pytest.approx(12.0, rel=0.15)  # Poisson: var == mean

    def test_large_rate_survives_exp_underflow(self):
        # exp(-rate) underflows to 0.0 past ~745; the additive split keeps
        # Knuth's method usable (Poisson(a+b) = Poisson(a) + Poisson(b)).
        rng = random.Random(3)
        draws = [poisson_count(rng, 2000.0) for _ in range(200)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(2000.0, rel=0.05)

    def test_deterministic_per_seed(self):
        a = [poisson_count(random.Random(7), 5.0) for _ in range(20)]
        b = [poisson_count(random.Random(7), 5.0) for _ in range(20)]
        assert a == b
