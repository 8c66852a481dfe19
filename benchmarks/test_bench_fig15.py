"""Fig. 15: CDF of machines by leaf table size at two system sizes.

Shape claims checked (paper section 5):
- Lambda = 1.5 shows a visible fraction of nearly empty leaf tables (join
  lossiness); larger Lambda shows fewer;
- tables at the large system size stochastically dominate the small one.
"""

import pytest

from benchmarks.conftest import report
from repro.experiments import fig15_leaftable_cdf
from repro.experiments.scales import PAPER_LAMBDAS
from repro.sim.metrics import mean


@pytest.mark.figure
def test_bench_fig15(benchmark, bench_scale, bench_seed, shared_growth):
    result = benchmark.pedantic(
        fig15_leaftable_cdf.run,
        args=(bench_scale, PAPER_LAMBDAS),
        kwargs={"seed": bench_seed, "growth": shared_growth},
        rounds=1,
        iterations=1,
    )
    report("Fig. 15: CDFs of machines by leaf table size", result.render())

    # Lossiness ordering: Lambda = 1.5 has at least as many nearly empty
    # tables as Lambda = 2.5 (paper: "significant (if small) fraction").
    assert result.nearly_empty_fraction(1.5) >= result.nearly_empty_fraction(2.5)

    # Larger systems have larger tables at every quartile.
    for lam in result.lambdas:
        small, large = result.cdfs_small[lam], result.cdfs_large[lam]
        assert large.quantile(0.5) >= small.quantile(0.5) * 0.9
        assert mean(large.samples) >= mean(small.samples) * 0.9
