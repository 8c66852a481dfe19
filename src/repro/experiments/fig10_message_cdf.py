"""Fig. 10: CDF of machines by message count (no minimum file size).

Paper findings to reproduce: smooth curves with coefficients of variation
CoV(1.5) = 0.64, CoV(2.0) = 0.39, CoV(2.5) = 0.39 -- "machines share the
communication load relatively evenly, especially as Lambda is increased".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.reporting import render_table
from repro.experiments.scales import ExperimentScale
from repro.experiments.threshold_sweep import ThresholdSweepResult, run_threshold_sweep
from repro.sim.metrics import Cdf

#: The paper's measured coefficients of variation.
PAPER_COV = {1.5: 0.64, 2.0: 0.39, 2.5: 0.39}


@dataclass
class Fig10Result:
    cdfs: Dict[str, Cdf]
    cov: Dict[float, float]

    def render(self) -> str:
        quantiles = [i / 10 for i in range(1, 11)]
        series = {}
        for label, cdf in self.cdfs.items():
            series[label] = [cdf.quantile(q) for q in quantiles]
        table = render_table(
            "Fig. 10: CDF of machines by message count (rows are quantiles)",
            "cum.freq",
            quantiles,
            series,
            x_formatter=lambda q: f"{q:.1f}",
            value_formatter=lambda v: f"{v:,.0f}",
        )
        cov = ", ".join(
            f"CoV({lam})={val:.2f} (paper {PAPER_COV.get(lam, float('nan')):.2f})"
            for lam, val in self.cov.items()
        )
        return f"{table}\n{cov}"


def run(
    scale: ExperimentScale,
    seed: int = 0,
    sweep: ThresholdSweepResult = None,
) -> Fig10Result:
    if sweep is None:
        sweep = run_threshold_sweep(scale, seed=seed)
    by_lambda = {lam: Cdf.from_samples(sweep.message_totals[lam]) for lam in sweep.lambdas}
    cdfs = {f"Lambda={lam}": cdf for lam, cdf in by_lambda.items()}
    cov = {lam: cdf.cov for lam, cdf in by_lambda.items()}
    return Fig10Result(cdfs=cdfs, cov=cov)
