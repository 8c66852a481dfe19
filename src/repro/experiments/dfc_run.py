"""The shared DFC experiment pipeline (paper section 5).

Reproduces the paper's experimental procedure: "We ran a two-dimensional DFC
system on 585 simulated machines, each of which held content from one of the
scanned desktop file systems.  The SALAD was initialized with a single leaf,
and the remaining 584 machines were each added to the SALAD by the procedure
outlined in Subsection 4.4."  Records are then inserted per Fig. 4, match
notifications collected, and consumed space computed from the discovered
duplicate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.space import SpaceAccounting
from repro.salad.records import SaladRecord
from repro.salad.salad import RunSettings, Salad, SaladConfig
from repro.sim.metrics import mean
from repro.workload.corpus import Corpus


@dataclass(frozen=True)
class DfcConfig:
    """Configuration of one DFC experiment run."""

    target_redundancy: float = 2.0
    dimensions: int = 2
    damping: float = 0.1
    database_capacity: Optional[int] = None
    #: Capped match notifications (see SaladLeaf.notify_limit); experiments
    #: default to the scalable policy.
    notify_limit: Optional[int] = 4
    seed: int = 0
    #: Replicas per logical file (Farsite's R).  1 keeps the seed's
    #: single-copy pipeline bit-identical; >= 2 places each file on R
    #: distinct hosts via the availability-driven hill-climbing placement
    #: (repro.farsite.placement) before SALAD discovery, so the relocation
    #: planner co-locates whole replica *sets* and the fig-tradeoff
    #: experiment can chart durability against reclaimed space.  Only the
    #: byte-level DfcPipeline materializes replicas; the statistics-only
    #: experiments ignore this knob.
    replication_factor: int = 1
    #: The run's record-store backend, store directory and tracing switches
    #: (see RunSettings).  The backends are contract-identical, so reported
    #: numbers never change; the durable ones keep the 10M-record
    #: full-scale corpus out of RAM and survive crashes.
    settings: RunSettings = RunSettings()

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError(
                f"replication factor must be >= 1: {self.replication_factor}"
            )

    def salad_config(self) -> SaladConfig:
        return self.settings.config(
            target_redundancy=self.target_redundancy,
            dimensions=self.dimensions,
            damping=self.damping,
            database_capacity=self.database_capacity,
            notify_limit=self.notify_limit,
            seed=self.seed,
        )


@dataclass
class SweepPoint:
    """Measurements at one minimum-file-size threshold."""

    min_size: int
    consumed_bytes: int
    ideal_consumed_bytes: int
    mean_messages: float
    mean_database_records: float


class DfcRun:
    """One corpus + one SALAD, driven through build / fail / insert phases."""

    def __init__(self, corpus: Corpus, config: DfcConfig):
        self.corpus = corpus
        self.config = config
        self.salad = Salad(config.salad_config())
        self.accounting = SpaceAccounting(corpus)
        #: corpus machine_index -> SALAD leaf identifier (join order).
        self.leaf_of_machine: Dict[int, int] = {}
        self._built = False

    # -- phase 1: build ------------------------------------------------------

    def build(self) -> None:
        """Grow the SALAD by incremental joins, one leaf per corpus machine."""
        if self._built:
            raise RuntimeError("SALAD already built")
        for machine in self.corpus.machines:
            leaf = self.salad.add_leaf()
            self.leaf_of_machine[machine.machine_index] = leaf.identifier
        self._built = True

    # -- phase 2 (optional): failures (Fig. 8) -------------------------------

    def set_failure_probability(self, probability: float) -> None:
        """Machines "fail" with this probability (section 5, Fig. 8).

        Desktop machines are "not always on" (section 1); the probability is
        a duty cycle: every message is lost with probability p, modeling the
        recipient being down at delivery time.  (A model that permanently
        crashes a p-fraction of machines cannot reproduce Fig. 8: the files
        on dead machines alone would cap reclaim at ~23% of space for
        p = 0.5, far below the paper's 38%.)
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"failure probability must be in [0,1]: {probability}")
        self.salad.set_loss_probability(probability)

    # -- phase 3: record insertion -------------------------------------------

    def records_for_machine(self, machine_index: int, min_size: int = 0) -> List[SaladRecord]:
        leaf_id = self.leaf_of_machine[machine_index]
        scan = self.corpus.machines[machine_index]
        return [
            SaladRecord(fingerprint=f.fingerprint(), location=leaf_id)
            for f in scan.files_at_least(min_size)
        ]

    def insert_all(self, min_size: int = 0) -> int:
        """Insert every eligible file record (Fig. 4); returns count inserted."""
        if not self._built:
            self.build()
        batches = {
            self.leaf_of_machine[m.machine_index]: self.records_for_machine(
                m.machine_index, min_size
            )
            for m in self.corpus.machines
        }
        return self.salad.insert_records(batches)

    def insert_sweep(self, thresholds: Sequence[int]) -> List[SweepPoint]:
        """One pass over all thresholds (Figs. 7, 9, 11).

        Files are inserted in descending size-bucket order; after each bucket
        the cumulative state equals a run restricted to files >= that
        threshold, so a single pass yields the whole sweep.
        """
        if not self._built:
            self.build()
        thresholds = sorted(set(thresholds), reverse=True)
        points: List[SweepPoint] = []
        upper = None  # exclusive upper bound of the current bucket
        for threshold in thresholds:
            batches: Dict[int, List[SaladRecord]] = {}
            for machine in self.corpus.machines:
                leaf_id = self.leaf_of_machine[machine.machine_index]
                records = [
                    SaladRecord(fingerprint=f.fingerprint(), location=leaf_id)
                    for f in machine.files
                    if f.size >= threshold and (upper is None or f.size < upper)
                ]
                if records:
                    batches[leaf_id] = records
            self.salad.insert_records(batches)
            points.append(self._snapshot(threshold))
            upper = threshold
        points.reverse()  # ascending thresholds, like the paper's x-axis
        return points

    def _snapshot(self, min_size: int) -> SweepPoint:
        return SweepPoint(
            min_size=min_size,
            consumed_bytes=self.consumed_bytes(min_size),
            ideal_consumed_bytes=self.accounting.ideal_consumed_bytes(min_size),
            mean_messages=mean(self.salad.message_totals()),
            mean_database_records=mean(self.salad.database_sizes(alive_only=False)),
        )

    # -- results ---------------------------------------------------------------

    def consumed_bytes(self, min_size: int = 0) -> int:
        return self.accounting.consumed_bytes(self.salad.collected_matches(), min_size)

    def reclaimed_fraction(self, min_size: int = 0) -> float:
        return self.accounting.reclaimed_fraction(self.salad.collected_matches(), min_size)

    def message_totals(self) -> List[int]:
        return self.salad.message_totals()

    def database_sizes(self) -> List[int]:
        return self.salad.database_sizes(alive_only=False)

    def collect_metrics(self, registry) -> None:
        """Harvest this run's engine counters into *registry*.

        Harvest before :meth:`close`: a shut-down engine has nothing left to
        report.
        """
        self.salad.collect_metrics(registry)

    def close(self) -> None:
        """Release engine resources (the leaves' record stores)."""
        self.salad.shutdown()
