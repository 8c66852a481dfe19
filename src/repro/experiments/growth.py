"""SALAD growth engine shared by Figs. 14 and 15.

Starts from a singleton SALAD and incrementally adds leaves (section 4.4
joins), snapshotting the distribution of leaf-table sizes at requested
system sizes.  Fig. 14 plots the mean against L; Fig. 15 plots the CDFs at
two particular values of L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.pool import parallel_map
from repro.obs.registry import MetricsRegistry
from repro.salad.salad import RunSettings, Salad


@dataclass
class GrowthSnapshot:
    system_size: int
    leaf_table_sizes: List[int]

    @property
    def mean(self) -> float:
        if not self.leaf_table_sizes:
            return 0.0
        return sum(self.leaf_table_sizes) / len(self.leaf_table_sizes)


@dataclass
class GrowthResult:
    target_redundancy: float
    dimensions: int
    snapshots: List[GrowthSnapshot]
    #: Telemetry registry dump (repro.obs), harvested just before the run's
    #: engine shut down; merge with ``MetricsRegistry.merge_dict``.  Tagged
    #: telemetry: contains wall-clock histograms, so the runner keeps it
    #: out of --json output.
    metrics: Optional[dict] = field(default=None, metadata={"telemetry": True})
    #: Sampled causal-trace events (empty unless the settings trace).
    trace_events: List[dict] = field(
        default_factory=list, metadata={"telemetry": True}
    )

    def snapshot_at(self, system_size: int) -> GrowthSnapshot:
        for snap in self.snapshots:
            if snap.system_size == system_size:
                return snap
        raise KeyError(f"no snapshot at system size {system_size}")


def growth_sample_points(max_leaves: int, points: int = 24) -> List[int]:
    """Evenly spaced sample sizes from ~max/points up to max."""
    step = max(1, max_leaves // points)
    sizes = list(range(step, max_leaves + 1, step))
    if sizes[-1] != max_leaves:
        sizes.append(max_leaves)
    return sizes


def run_growth(
    target_redundancy: float,
    max_leaves: int,
    sample_sizes: Sequence[int] = None,
    dimensions: int = 2,
    seed: int = 0,
    settings: RunSettings = RunSettings(),
) -> GrowthResult:
    """Grow one SALAD to *max_leaves*, snapshotting leaf-table sizes."""
    if sample_sizes is None:
        sample_sizes = growth_sample_points(max_leaves)
    wanted = sorted(set(s for s in sample_sizes if s <= max_leaves))
    salad = Salad(
        settings.config(
            target_redundancy=target_redundancy, dimensions=dimensions, seed=seed
        )
    )
    try:
        snapshots: List[GrowthSnapshot] = []
        for size in wanted:
            salad.build(size)
            snapshots.append(
                GrowthSnapshot(
                    system_size=size, leaf_table_sizes=salad.leaf_table_sizes()
                )
            )
        # Harvest telemetry before shutdown: a dead engine reports nothing.
        registry = MetricsRegistry()
        salad.collect_metrics(registry)
        metrics = registry.to_dict()
        trace_events = salad.take_trace_events()
    finally:
        salad.shutdown()
    return GrowthResult(
        target_redundancy=target_redundancy,
        dimensions=dimensions,
        snapshots=snapshots,
        metrics=metrics,
        trace_events=trace_events,
    )


def _growth_one(task):
    """One Lambda's growth run (module-level so process pools can pickle it)."""
    lam, max_leaves, sample_sizes, dimensions, seed, settings = task
    return run_growth(lam, max_leaves, sample_sizes, dimensions, seed, settings)


def run_growth_suite(
    lambdas: Sequence[float],
    max_leaves: int,
    sample_sizes: Sequence[int] = None,
    dimensions: int = 2,
    seed: int = 0,
    workers: int = 1,
    settings: RunSettings = RunSettings(),
) -> Dict[float, GrowthResult]:
    """Per-Lambda growth runs; independent, so ``workers > 1`` fans them out."""
    sizes = tuple(sample_sizes) if sample_sizes is not None else None
    tasks = [(lam, max_leaves, sizes, dimensions, seed, settings) for lam in lambdas]
    results = parallel_map(_growth_one, tasks, workers)
    return dict(zip(lambdas, results))
