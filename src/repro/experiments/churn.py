"""Churn experiment: DFC effectiveness under continuous join/leave churn.

The paper evaluates static failure snapshots (Fig. 8); desktop fleets churn
*continuously* ("desktop machines are not always on", section 1).  This
extension drives Poisson crash/recovery churn while records are being
inserted, sweeping the per-machine failure rate, and measures how much
duplicate space the DFC still discovers -- the dynamic counterpart of
Fig. 8, exercising the section 4.5 maintenance machinery (refresh,
timeouts, re-introduction) along the way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.reporting import render_table
from repro.experiments.dfc_run import DfcConfig, DfcRun
from repro.experiments.scales import ExperimentScale
from repro.salad.maintenance import RefreshDriver
from repro.salad.salad import RunSettings
from repro.sim.failure import ChurnSchedule
from repro.workload.corpus import Corpus
from repro.workload.generator import generate_corpus


@dataclass
class ChurnResult:
    rates: Tuple[float, ...]  # failures per machine per time unit
    reclaimed_fraction: Dict[float, float]
    ideal_fraction: float
    entries_flushed: Dict[float, int]

    def render(self) -> str:
        series = {
            "reclaimed %": [
                round(100 * self.reclaimed_fraction[r], 1) for r in self.rates
            ],
            "entries flushed": [self.entries_flushed[r] for r in self.rates],
        }
        table = render_table(
            "Churn: reclaimed space vs. failure rate (with recovery)",
            "fail rate",
            self.rates,
            series,
            x_formatter=lambda r: f"{r:.3f}",
            value_formatter=lambda v: f"{v:,.1f}" if isinstance(v, float) else f"{v:,}",
        )
        return f"{table}\nideal: {100 * self.ideal_fraction:.1f}%"


def run(
    scale: ExperimentScale,
    rates: Sequence[float] = (0.0, 0.005, 0.02, 0.05),
    downtime: float = 30.0,
    horizon: float = 200.0,
    seed: int = 0,
    corpus: Corpus = None,
    settings: RunSettings = RunSettings(),
) -> ChurnResult:
    """Sweep Poisson failure rates; machines recover after *downtime*.

    Records are inserted in batches spread across the horizon, so machines
    fail and recover *during* dissemination; a refresh driver keeps leaf
    tables honest throughout.
    """
    if corpus is None:
        spec = scale.corpus_spec()
        corpus = generate_corpus(spec, seed=seed)
    ideal = corpus.summary().duplicate_byte_fraction

    reclaimed: Dict[float, float] = {}
    flushed: Dict[float, int] = {}
    for index, rate in enumerate(rates):
        # Same seed for every rate: identical corpus, SALAD, and routing, so
        # the sweep isolates the effect of churn alone.
        run_ = DfcRun(
            corpus, DfcConfig(target_redundancy=2.5, seed=seed, settings=settings)
        )
        run_.build()
        scheduler = run_.salad.network.scheduler
        rng = random.Random(seed + 100 + index)

        if rate > 0:
            churn = ChurnSchedule(scheduler)
            churn.poisson_failures(
                list(run_.salad.leaves.values()),
                rate=rate,
                horizon=horizon,
                rng=rng,
                recover_after=downtime,
            )
        driver = RefreshDriver(run_.salad, period=20.0, timeout=50.0)
        driver.start()

        # Spread the record batches across the churn horizon.
        machines = list(corpus.machines)
        batches = 10
        per_batch = (len(machines) + batches - 1) // batches
        start_time = scheduler.now
        for b in range(batches):
            batch_machines = machines[b * per_batch : (b + 1) * per_batch]
            target_time = start_time + (b + 1) * horizon / batches
            scheduler.run(until=target_time)
            payload = {
                run_.leaf_of_machine[m.machine_index]: run_.records_for_machine(
                    m.machine_index
                )
                for m in batch_machines
            }
            run_.salad.insert_records(payload, settle=False)
        scheduler.run(until=start_time + horizon + 3 * downtime)
        driver.stop()
        run_.salad.network.run()

        reclaimed[rate] = run_.reclaimed_fraction()
        flushed[rate] = driver.stats.entries_flushed
        run_.close()

    return ChurnResult(
        rates=tuple(rates),
        reclaimed_fraction=reclaimed,
        ideal_fraction=ideal,
        entries_flushed=flushed,
    )
