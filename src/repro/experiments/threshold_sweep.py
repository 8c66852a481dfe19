"""The minimum-file-size threshold sweep shared by Figs. 7, 9, 10, 11, 12.

One DFC run per Lambda: build a SALAD of all machines, then insert file
records in descending size buckets, snapshotting after each bucket.  The
snapshot after inserting all files of size >= t equals an independent run
with minimum-coalescing-size t, so a single pass yields every threshold
point of Figs. 7 (consumed space), 9 (mean messages), and 11 (mean database
size); the final state (threshold 1, i.e. no threshold) provides the CDFs of
Figs. 10 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.dfc_run import DfcConfig, DfcRun, SweepPoint
from repro.experiments.scales import PAPER_LAMBDAS, PAPER_THRESHOLDS, ExperimentScale
from repro.experiments.pool import parallel_map
from repro.obs.registry import MetricsRegistry
from repro.salad.salad import RunSettings
from repro.workload.corpus import Corpus, CorpusSummary
from repro.workload.generator import generate_corpus


@dataclass
class ThresholdSweepResult:
    """Everything Figs. 7 and 9-12 need, for one corpus across Lambdas."""

    corpus_summary: CorpusSummary
    thresholds: Tuple[int, ...]
    lambdas: Tuple[float, ...]
    #: per-Lambda sweep points, ascending threshold order.
    points: Dict[float, List[SweepPoint]]
    #: per-Lambda, per-machine total message counts at no threshold.
    message_totals: Dict[float, List[int]]
    #: per-Lambda, per-machine database sizes at no threshold.
    database_sizes: Dict[float, List[int]]
    #: per-Lambda telemetry registry dump (repro.obs), harvested just before
    #: each run's engine shut down.  Merge into a session registry with
    #: ``MetricsRegistry.merge_dict``.  Tagged telemetry: contains
    #: wall-clock histograms, so the runner keeps it out of --json output.
    metrics: Dict[float, dict] = field(
        default_factory=dict, metadata={"telemetry": True}
    )
    #: Sampled causal-trace events of every run, in Lambda order (empty
    #: unless the settings trace); telemetry like ``metrics``.
    trace_events: List[dict] = field(
        default_factory=list, metadata={"telemetry": True}
    )

    @property
    def ideal_consumed(self) -> List[int]:
        """The "ideal" series of Fig. 7 (same for every Lambda)."""
        any_lambda = self.lambdas[0]
        return [p.ideal_consumed_bytes for p in self.points[any_lambda]]

    def consumed_series(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {"ideal": self.ideal_consumed}
        for lam in self.lambdas:
            out[f"Lambda={lam}"] = [p.consumed_bytes for p in self.points[lam]]
        return out

    def message_series(self) -> Dict[str, List[float]]:
        return {
            f"Lambda={lam}": [p.mean_messages for p in self.points[lam]]
            for lam in self.lambdas
        }

    def database_series(self) -> Dict[str, List[float]]:
        return {
            f"Lambda={lam}": [p.mean_database_records for p in self.points[lam]]
            for lam in self.lambdas
        }


def _sweep_one_lambda(task):
    """One Lambda's full DFC run (module-level so process pools can pickle it)."""
    corpus, lam, thresholds, seed, settings = task
    run = DfcRun(corpus, DfcConfig(target_redundancy=lam, seed=seed, settings=settings))
    try:
        run.build()
        points = run.insert_sweep(list(thresholds))
        # Harvest telemetry before close(): a shut-down engine reports nothing.
        registry = MetricsRegistry()
        run.collect_metrics(registry)
        return (
            lam, points, run.message_totals(), run.database_sizes(),
            registry.to_dict(), run.salad.take_trace_events(),
        )
    finally:
        run.close()


def run_threshold_sweep(
    scale: ExperimentScale,
    lambdas: Sequence[float] = PAPER_LAMBDAS,
    thresholds: Sequence[int] = PAPER_THRESHOLDS,
    seed: int = 0,
    corpus: Corpus = None,
    workers: int = 1,
    settings: RunSettings = RunSettings(),
) -> ThresholdSweepResult:
    """Run the sweep at the given scale (shared by Figs. 7, 9, 10, 11, 12).

    The per-Lambda runs are independent simulations (each builds its own
    SALAD from the shared corpus), so ``workers > 1`` fans them out across a
    process pool; results are identical to the serial loop.  *settings*
    reach every run's engine, in a pool process too.
    """
    if corpus is None:
        corpus = generate_corpus(scale.corpus_spec(), seed=seed)
    tasks = [(corpus, lam, tuple(thresholds), seed, settings) for lam in lambdas]
    results = parallel_map(_sweep_one_lambda, tasks, workers)
    points: Dict[float, List[SweepPoint]] = {}
    message_totals: Dict[float, List[int]] = {}
    database_sizes: Dict[float, List[int]] = {}
    metrics: Dict[float, dict] = {}
    trace_events: List[dict] = []
    for lam, pts, totals, sizes, registry_dump, events in results:
        points[lam] = pts
        message_totals[lam] = totals
        database_sizes[lam] = sizes
        metrics[lam] = registry_dump
        trace_events.extend(events)
    return ThresholdSweepResult(
        corpus_summary=corpus.summary(),
        thresholds=tuple(sorted(set(thresholds))),
        lambdas=tuple(lambdas),
        points=points,
        message_totals=message_totals,
        database_sizes=database_sizes,
        metrics=metrics,
        trace_events=trace_events,
    )
