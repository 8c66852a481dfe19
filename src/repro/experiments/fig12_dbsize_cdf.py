"""Fig. 12: CDF of machines by database size (no minimum file size).

Paper findings to reproduce: small coefficients of variation but *bimodal*
distributions -- machines disagree slightly about the system size L, and the
step discontinuity of Eq. 6 turns that into two distinct cell-ID widths,
hence two distinct storage loads ("the differences in storage load among
machines is due primarily to slight variations in machines' estimates of L,
filtered through the step discontinuity in the calculation of W").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.reporting import render_table
from repro.experiments.scales import ExperimentScale
from repro.experiments.threshold_sweep import ThresholdSweepResult, run_threshold_sweep
from repro.sim.metrics import Cdf

#: The paper's measured coefficients of variation.
PAPER_COV = {1.5: 0.28, 2.0: 0.31, 2.5: 2.4e-5}


@dataclass
class Fig12Result:
    cdfs: Dict[str, Cdf]
    cov: Dict[float, float]

    def render(self) -> str:
        quantiles = [i / 10 for i in range(1, 11)]
        series = {
            label: [cdf.quantile(q) for q in quantiles]
            for label, cdf in self.cdfs.items()
        }
        table = render_table(
            "Fig. 12: CDF of machines by database size (rows are quantiles)",
            "cum.freq",
            quantiles,
            series,
            x_formatter=lambda q: f"{q:.1f}",
            value_formatter=lambda v: f"{v:,.0f}",
        )
        cov = ", ".join(f"CoV({lam})={val:.3f}" for lam, val in self.cov.items())
        return f"{table}\n{cov} (paper: 0.28, 0.31, ~0)"


def run(
    scale: ExperimentScale,
    seed: int = 0,
    sweep: ThresholdSweepResult = None,
) -> Fig12Result:
    if sweep is None:
        sweep = run_threshold_sweep(scale, seed=seed)
    by_lambda = {lam: Cdf.from_samples(sweep.database_sizes[lam]) for lam in sweep.lambdas}
    cdfs = {f"Lambda={lam}": cdf for lam, cdf in by_lambda.items()}
    cov = {lam: cdf.cov for lam, cdf in by_lambda.items()}
    return Fig12Result(cdfs=cdfs, cov=cov)
