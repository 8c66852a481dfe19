"""Fig. 15: CDF of machines by leaf table size, at two system sizes.

Paper findings to reproduce:

- at Lambda = 1.5 a small but significant fraction of machines have nearly
  empty leaf tables (join lossiness);
- for larger Lambda the curves are tight (close agreement about L);
- at Lambda = 2.5, L = 10,000, lg(L/Lambda) sits near an integer, so leaves'
  slightly different estimates of L straddle the Eq. 6 step and the
  distribution goes bimodal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.reporting import render_table
from repro.experiments.growth import GrowthResult, run_growth_suite
from repro.experiments.scales import PAPER_LAMBDAS, ExperimentScale
from repro.sim.metrics import Cdf


@dataclass
class Fig15Result:
    small_size: int
    large_size: int
    lambdas: Tuple[float, ...]
    cdfs_small: Dict[float, Cdf]
    cdfs_large: Dict[float, Cdf]

    def nearly_empty_fraction(self, lam: float, which: str = "small", below: int = 5) -> float:
        cdf = (self.cdfs_small if which == "small" else self.cdfs_large)[lam]
        return cdf.at(below)

    def _render_one(self, title: str, cdfs: Dict[float, Cdf]) -> str:
        quantiles = [i / 10 for i in range(1, 11)]
        series = {
            f"Lambda={lam}": [cdf.quantile(q) for q in quantiles]
            for lam, cdf in cdfs.items()
        }
        return render_table(
            title,
            "cum.freq",
            quantiles,
            series,
            x_formatter=lambda q: f"{q:.1f}",
            value_formatter=lambda v: f"{v:,.0f}",
        )

    def render(self) -> str:
        a = self._render_one(
            f"Fig. 15a: CDF of machines by leaf table size (L={self.small_size})",
            self.cdfs_small,
        )
        b = self._render_one(
            f"Fig. 15b: CDF of machines by leaf table size (L={self.large_size})",
            self.cdfs_large,
        )
        empty = ", ".join(
            f"Lambda={lam}: {self.nearly_empty_fraction(lam):.1%}"
            for lam in self.lambdas
        )
        return f"{a}\n\n{b}\nnearly-empty tables at L={self.small_size}: {empty}"


def run(
    scale: ExperimentScale,
    lambdas: Sequence[float] = PAPER_LAMBDAS,
    seed: int = 0,
    growth: Dict[float, GrowthResult] = None,
) -> Fig15Result:
    small, large = scale.fig15_small, scale.fig15_large
    if growth is None:
        growth = run_growth_suite(
            lambdas, large, sample_sizes=[small, large], seed=seed
        )
    cdfs_small: Dict[float, Cdf] = {}
    cdfs_large: Dict[float, Cdf] = {}
    for lam in lambdas:
        result = growth[lam]
        cdfs_small[lam] = Cdf.from_samples(result.snapshot_at(small).leaf_table_sizes)
        cdfs_large[lam] = Cdf.from_samples(result.snapshot_at(large).leaf_table_sizes)
    return Fig15Result(
        small_size=small,
        large_size=large,
        lambdas=tuple(lambdas),
        cdfs_small=cdfs_small,
        cdfs_large=cdfs_large,
    )
