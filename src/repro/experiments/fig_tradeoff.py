"""fig_tradeoff: the replication x dedup durability/space frontier.

The paper reclaims space by co-locating replicas of identical files so the
per-host Single-Instance Store can coalesce them (problems 3-4).  Farsite
simultaneously replicates every file R times for availability.  Those two
goals fight: co-locating a duplicate group concentrates *all* of its files
onto one canonical R-host set, so a correlated outage of just R machines
destroys the whole group, where the un-coalesced layout loses only the
files that happened to live there.

This experiment charts that tension.  For each R in the sweep (default
1..4) it runs the byte-materializing DFC pipeline twice -- dedup off
(placement only) and dedup on (SALAD discovery + relocation + SIS
coalescing) -- and measures:

- **reclaimed fraction** -- physically coalesced bytes / total bytes;
- **min / mean file availability** -- over the *final* replica hosts,
  using the per-host uptime model (dedup relocations change these);
- **blast radius** -- crash every host of the biggest duplicate group's
  post-relocation replica set (mid-churn: new leaves join during the
  outage), count files with zero surviving replicas, and cross-check the
  measured loss against the analytic at-risk prediction and the outage's
  probability under the availability model;
- **record recovery** -- the crashed leaves rejoin through the
  CrashRecoveryHarness, whose recovered-record fraction must meet the
  store's own durability prediction.

The rendered table is the durability-versus-reclaimed-space frontier the
``tradeoff`` bench section regression-gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.dfc_run import DfcConfig
from repro.experiments.scales import ExperimentScale
from repro.farsite.dfc_pipeline import DfcPipeline
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import span
from repro.salad.telemetry import harvest_tradeoff_metrics
from repro.sim.failure import CrashRecoveryHarness, measure_replica_loss
from repro.workload.generator import CorpusSpec, generate_corpus

#: Default replication sweep (Farsite's deployments use small R).
DEFAULT_SWEEP = (1, 2, 3, 4)

#: Leaves that join mid-outage, exercising "churn while the set is down".
CHURN_JOINS = 2


@dataclass
class TradeoffPoint:
    """One (replication factor, dedup on/off) arm of the sweep."""

    replication: int
    dedup: bool
    total_bytes: int
    reclaimed_bytes: int
    reclaimed_fraction: float
    min_availability: float
    mean_availability: float
    moved_replicas: int
    copies: int
    shortfall: int
    #: The correlated outage: every host of the kill target crashed at once.
    killed_hosts: int
    #: Files in the targeted duplicate group (the blast-radius denominator).
    group_files: int
    files_at_risk: int  # analytic: replica set within the dead hosts
    files_lost: int  # measured: zero live replicas
    lost_fraction: float
    #: P(this outage) under the per-host availability model.
    loss_event_probability: float
    #: Crashed-store recovery, predicted (durable records) vs measured.
    predicted_recovery: float
    recovered_fraction: float

    @property
    def loss_matches_prediction(self) -> bool:
        return self.files_lost == self.files_at_risk

    @property
    def recovery_meets_prediction(self) -> bool:
        return self.recovered_fraction >= self.predicted_recovery - 1e-12


@dataclass
class FigTradeoffResult:
    machines: int
    files: int
    sweep: Tuple[int, ...]
    points: List[TradeoffPoint]
    metrics: Optional[dict] = field(default=None, metadata={"telemetry": True})

    def point(self, replication: int, dedup: bool) -> TradeoffPoint:
        for p in self.points:
            if p.replication == replication and p.dedup == dedup:
                return p
        raise KeyError(f"no point for R={replication} dedup={dedup}")

    def render(self) -> str:
        lines = [
            "fig_tradeoff: durability vs reclaimed space, replication x dedup",
            f"  machines={self.machines} files={self.files} "
            f"sweep R in {list(self.sweep)}",
            f"  {'R':>2} {'dedup':>5} {'reclaimed':>9} {'minAvail':>8} "
            f"{'meanAvail':>9} {'moved':>5} {'copies':>6} {'lost':>9} "
            f"{'P(outage)':>9} {'recovery':>8}",
        ]
        for p in self.points:
            lines.append(
                f"  {p.replication:>2} {'on' if p.dedup else 'off':>5} "
                f"{p.reclaimed_fraction:>8.1%} {p.min_availability:>8.3f} "
                f"{p.mean_availability:>9.3f} {p.moved_replicas:>5} "
                f"{p.copies:>6} {p.files_lost:>4}/{p.group_files:<4} "
                f"{p.loss_event_probability:>9.2e} {p.recovered_fraction:>7.1%}"
            )
        lines.append(
            "  (lost = files destroyed by crashing the biggest duplicate "
            "group's replica hosts; dedup concentrates the blast radius)"
        )
        return "\n".join(lines)


def _tradeoff_spec(scale: ExperimentScale) -> CorpusSpec:
    """A byte-materializing corpus sized for the pipeline, from *scale*.

    The statistics-only experiments never materialize content; this one
    stores real blobs on every host, so it caps machine/file counts and
    file sizes (results enter the frontier only as fractions).
    """
    return CorpusSpec(
        machines=min(scale.machines, 24),
        mean_files_per_machine=min(scale.mean_files_per_machine, 8.0),
        max_file_size=64 * 1024,
        system_contents=3,
    )


def _biggest_group(pipeline: DfcPipeline) -> Tuple[List[str], List[int]]:
    """The largest duplicate group's files and its top-R replica hosts.

    Groups files by fingerprint over the pipeline's *current* replica map
    (post-relocation when dedup ran); the kill target is the R hosts
    covering the most of the group's replicas -- the same rule the planner
    uses to choose canonical hosts, so with dedup on this is exactly the
    canonical set.
    """
    by_fingerprint: Dict[object, List[str]] = {}
    for file_id, (fingerprint, _) in pipeline.replicas.items():
        by_fingerprint.setdefault(fingerprint, []).append(file_id)
    groups = [files for files in by_fingerprint.values() if len(files) > 1]
    if not groups:
        return [], []
    files = max(groups, key=len)
    coverage: Dict[int, int] = {}
    for file_id in files:
        for host in pipeline.replicas[file_id][1]:
            coverage[host] = coverage.get(host, 0) + 1
    ranked = sorted(coverage, key=lambda h: (-coverage[h], h))
    return files, ranked[: pipeline.config.replication_factor]


def _run_point(
    corpus,
    seed: int,
    replication: int,
    dedup: bool,
    registry: Optional[MetricsRegistry],
) -> TradeoffPoint:
    config = DfcConfig(
        target_redundancy=2.5, seed=seed, replication_factor=replication
    )
    pipeline = DfcPipeline(corpus, config)
    # One span per arm: every load_hosts opens a ``place_replicas`` span, and
    # a RunReport rejects two phases of one name at one level.
    try:
        with span(f"r{replication}-{'dedup' if dedup else 'plain'}"):
            pipeline.load_hosts()
            plan = None
            if dedup:
                pipeline.discover()
                plan = pipeline.relocate()
            report = pipeline.report(plan)

            # Blast radius: crash every host of the biggest duplicate group's
            # replica set, with churn (new leaves joining) during the outage.
            group_files, kill_hosts = _biggest_group(pipeline)
            harness = CrashRecoveryHarness()
            salad = pipeline.run.salad
            loss = None
            recovery = None
            if kill_hosts:
                harness.crash_replica_sets(salad.leaves, [kill_hosts])
                replica_map = {
                    fid: hosts
                    for fid, (_, hosts) in pipeline.replicas.items()
                    if fid in set(group_files)
                }
                loss = measure_replica_loss(
                    replica_map, kill_hosts, pipeline.availability
                )
                for _ in range(CHURN_JOINS):  # churn while the set is down
                    salad.add_leaf()
                recovery = harness.rejoin()
            if registry is not None:
                pipeline.collect_metrics(registry)
                harness.collect_metrics(registry)

            return TradeoffPoint(
                replication=replication,
                dedup=dedup,
                total_bytes=report.total_bytes,
                reclaimed_bytes=report.physically_reclaimed,
                reclaimed_fraction=report.reclaimed_fraction,
                min_availability=report.min_availability,
                mean_availability=report.mean_availability,
                moved_replicas=report.migrations,
                copies=report.copies,
                shortfall=report.shortfall,
                killed_hosts=len(kill_hosts),
                group_files=len(group_files),
                files_at_risk=loss.files_at_risk if loss else 0,
                files_lost=loss.files_lost if loss else 0,
                lost_fraction=loss.lost_fraction if loss else 0.0,
                loss_event_probability=(
                    loss.loss_event_probability if loss else 0.0
                ),
                predicted_recovery=recovery.predicted_fraction if recovery else 1.0,
                recovered_fraction=recovery.recovered_fraction if recovery else 1.0,
            )
    finally:
        pipeline.close_stores()


def run(
    scale: ExperimentScale,
    seed: int = 0,
    replication: Optional[int] = None,
    sweep: Optional[Sequence[int]] = None,
) -> FigTradeoffResult:
    """Run the tradeoff sweep at *scale*.

    *replication* restricts the sweep to one R (the CLI's
    ``--replication-factor``); *sweep* overrides the default 1..4 list.
    """
    if replication is not None:
        factors: Tuple[int, ...] = (replication,)
    elif sweep is not None:
        factors = tuple(sweep)
    else:
        factors = DEFAULT_SWEEP
    for r in factors:
        if r < 1:
            raise ValueError(f"replication factor must be >= 1: {r}")

    spec = _tradeoff_spec(scale)
    corpus = generate_corpus(spec, seed=seed)
    registry = MetricsRegistry()
    points: List[TradeoffPoint] = []
    for r in factors:
        for dedup in (False, True):
            points.append(_run_point(corpus, seed, r, dedup, registry))
    harvest_tradeoff_metrics(registry, points)
    return FigTradeoffResult(
        machines=spec.machines,
        files=sum(len(m.files) for m in corpus.machines),
        sweep=factors,
        points=points,
        metrics=registry.to_dict(),
    )
