"""Fig. 9: mean messages per machine vs. minimum file size for coalescing.

Paper finding to reproduce: "By setting this threshold to 4 Kbytes, the mean
message count is cut in half without measurably reducing the effectiveness
of the system (cf. Fig. 7)" -- most files are small, so excluding them
removes most record traffic but few duplicate bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_bytes, render_table
from repro.experiments.scales import ExperimentScale
from repro.experiments.threshold_sweep import ThresholdSweepResult, run_threshold_sweep


@dataclass
class Fig09Result:
    sweep: ThresholdSweepResult

    def render(self) -> str:
        return render_table(
            "Fig. 9: mean messages per machine vs. minimum file size",
            "min size",
            self.sweep.thresholds,
            self.sweep.message_series(),
            x_formatter=lambda v: format_bytes(v),
            value_formatter=lambda v: f"{v:,.0f}",
        )


def run(
    scale: ExperimentScale,
    seed: int = 0,
    sweep: ThresholdSweepResult = None,
) -> Fig09Result:
    if sweep is None:
        sweep = run_threshold_sweep(scale, seed=seed)
    return Fig09Result(sweep=sweep)
