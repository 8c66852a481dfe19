"""CDFs and the coefficient of variation."""

import pytest

from repro.sim.metrics import (
    Cdf,
    coefficient_of_variation,
    mean,
)


class TestCov:
    def test_constant_series_zero(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_known_value(self):
        # values 1,3: mean 2, population sigma 1 -> CoV 0.5
        assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert coefficient_of_variation([]) == 0.0

    def test_scale_invariant(self):
        xs = [1, 2, 3, 10]
        assert coefficient_of_variation(xs) == pytest.approx(
            coefficient_of_variation([10 * x for x in xs])
        )


class TestCdf:
    def test_points_monotone_to_one(self):
        samples = [3, 1, 2, 2]
        cdf = Cdf.from_samples(samples)
        freqs = [cdf.at(v) for v in sorted(samples)]
        assert freqs[-1] == 1.0
        assert freqs == sorted(freqs)

    def test_duplicate_values_merge(self):
        cdf = Cdf.from_samples([2, 2, 2])
        assert (cdf.at(1.9), cdf.at(2)) == (0.0, 1.0)

    def test_at(self):
        cdf = Cdf.from_samples([1, 2, 3, 4])
        assert cdf.at(0) == 0.0
        assert cdf.at(2) == 0.5
        assert cdf.at(100) == 1.0

    def test_quantile(self):
        cdf = Cdf.from_samples(list(range(1, 101)))
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 100
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_mean_and_cov(self):
        cdf = Cdf.from_samples([1, 3])
        assert mean(cdf.samples) == 2
        assert cdf.cov == pytest.approx(0.5)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            Cdf.from_samples([]).quantile(0.5)


class TestMean:
    def test_empty(self):
        assert mean([]) == 0.0

    def test_values(self):
        assert mean([1, 2, 3]) == 2.0
