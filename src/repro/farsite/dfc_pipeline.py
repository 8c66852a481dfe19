"""The complete Duplicate-File-Coalescing pipeline (paper section 1).

Closes the loop across all four of the paper's problems:

1. convergent encryption makes identical files identical ciphertext
   (modeled by deterministic per-content blobs, see
   :mod:`repro.workload.content`);
2. SALAD identifies files with identical content (the :class:`DfcRun`
   phase);
3. the relocation step shared with the deployment co-locates replicas of
   identical files on a common host set (its one publisher is the owner);
4. each host's Single-Instance Store coalesces them -- after comparing
   their bytes -- reclaiming the space.

The pipeline verifies the accounting end to end: the bytes the SIS layer
physically reclaims must be at least the union-find prediction computed from
the SALAD match notifications (the number every figure-7/8/13 experiment
reports), and equals it whenever each content's discoveries form a single
connected component.

Memory note: this pipeline materializes file bytes, so drive it with small
corpora (the statistics-only experiments never materialize content).  Each
host's SIS keeps its blobs in RAM, and the resident content is one copy per
*distinct* content, whatever the replication factor: ``load_hosts`` hands
every replica of a content the same ``bytes`` object and the stores keep
that object.  Nothing
is cached across passes or pipelines: a pass regenerates its distinct bytes
in well under a tenth of a second, and a cache would need a bound (a knob)
and would outlive ``close_stores``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.space import reclaimed_bytes_from_matches
from repro.core.fingerprint import Fingerprint, synthetic_fingerprint
from repro.experiments.dfc_run import DfcConfig, DfcRun
from repro.farsite.file_host import FileHost
from repro.farsite.placement import (
    PlacementProblem,
    file_availability,
    place_replicas,
)
from repro.farsite.relocation import (
    Migration,
    RelocationPlan,
    RelocationPlanner,
    duplicate_groups,
)
from repro.obs.spans import phase, span
from repro.workload.content import synthetic_content
from repro.workload.corpus import Corpus


@dataclass
class PipelineReport:
    """End-to-end outcome of one DFC pass."""

    total_bytes: int
    predicted_reclaimed: int  # from SALAD matches (union-find)
    physically_reclaimed: int  # measured at the SIS layer after relocation
    migrations: int
    bytes_moved: int
    #: Replicas per logical file the run placed (Farsite's R).
    replication_factor: int = 1
    #: Re-replication copies the planner emitted for under-replicated files.
    copies: int = 0
    #: File-weighted replica slots no migration could fill (short groups).
    shortfall: int = 0
    #: Availability of the worst/mean file over its *final* replica hosts
    #: (after relocation -- co-locating duplicates changes these, which is
    #: the durability cost the fig-tradeoff frontier charts).
    min_availability: float = 1.0
    mean_availability: float = 1.0

    @property
    def reclaimed_fraction(self) -> float:
        return self.physically_reclaimed / self.total_bytes if self.total_bytes else 0.0


class DfcPipeline:
    """Corpus -> hosts -> SALAD -> relocation -> SIS coalescing.

    SALAD matches on the fingerprints the corpus carries; a host's SIS
    coalesces what relocation brings together by comparing the bytes it
    holds, so a pass hashes no blob.
    """

    def __init__(
        self,
        corpus: Corpus,
        config: DfcConfig = DfcConfig(),
        machine_availability: Optional[Dict[int, float]] = None,
    ):
        self.corpus = corpus
        self.config = config
        self.run = DfcRun(corpus, config)
        self.hosts: Dict[int, FileHost] = {}
        #: file_id -> (fingerprint, current replica hosts)
        self.replicas: Dict[str, Tuple[Fingerprint, List[int]]] = {}
        #: file_id -> the owner machine's leaf (the one that publishes the
        #: record into the SALAD, independent of where replicas are placed).
        self.publishers: Dict[str, int] = {}
        #: host id -> uptime fraction, driving replica placement and the
        #: availability telemetry.  Synthesized deterministically from the
        #: seed unless *machine_availability* (keyed by corpus
        #: machine_index) overrides it.
        self.availability: Dict[int, float] = {}
        self._availability_override = (
            dict(machine_availability) if machine_availability else None
        )
        self.planner = RelocationPlanner(
            replication_factor=config.replication_factor
        )
        # Lifetime stage totals, harvested by collect_metrics().
        self._applied: List[Migration] = []
        self._shortfall = 0

    def close_stores(self) -> None:
        """Release the SALAD's leaf stores (the hosts' SIS blobs are in RAM)."""
        self.run.close()

    # -- phase 1: load every machine's files onto its host ---------------------

    def load_hosts(self) -> None:
        """Create one file host per machine and store its (encrypted) files.

        Each file's blob is the deterministic stand-in for its convergently
        encrypted content; identical contents yield identical blobs, which
        is the property SIS coalescing keys on.  A blob is a pure function
        of ``(content_id, size)``, so it and its fingerprint (the same
        ``synthetic_fingerprint`` the SALAD records carry) are produced once
        per distinct pair and every file of that content is handed the same
        ``bytes`` object.  The per-content table is a local: it dies with
        this call, and a blob lives on only in the stores that hold it.
        No host hashes a replica: its SIS coalesces two replicas only after
        comparing their bytes, and for the shared object that comparison is
        an identity check.

        With ``config.replication_factor`` R >= 2 each file's blob lands on
        R distinct hosts chosen by the availability-driven hill-climbing
        placement (the owner machine still publishes the SALAD record); R=1
        keeps the seed's owner-hosted single copy bit-identical.
        """
        self.run.build()
        avail_rng = random.Random((self.config.seed << 8) ^ 0x5AFE)
        tasks: List[Tuple[str, int, Tuple[int, int]]] = []
        for machine in self.corpus.machines:
            host_id = self.run.leaf_of_machine[machine.machine_index]
            self.hosts[host_id] = FileHost(host_id)
            if self._availability_override is not None:
                self.availability[host_id] = self._availability_override[
                    machine.machine_index
                ]
            else:
                # Heterogeneous desktop uptimes (paper section 2): most
                # machines are up most of the time, none are always up.
                self.availability[host_id] = 0.30 + 0.65 * avail_rng.random()
            for index, stat in enumerate(machine.files):
                file_id = f"m{machine.machine_index}-f{index}"
                tasks.append((file_id, host_id, (stat.content_id, stat.size)))
        with span("place_replicas") as place_span:
            assignment = self._place_replicas([t[0] for t in tasks], [t[1] for t in tasks])
            place_span.set_ops(len(assignment))
        # Both names are looked up in this module's globals at call time,
        # where the bench tracer wraps them.
        materialized = {
            (content_id, size): (
                synthetic_content(content_id, size),
                synthetic_fingerprint(size, content_id),
            )
            for content_id, size in dict.fromkeys(task[2] for task in tasks)
        }
        for file_id, owner, content in tasks:
            blob, fingerprint = materialized[content]
            hosts = assignment[file_id]
            for host in hosts:
                self.hosts[host].sis.store(file_id, blob)
            self.replicas[file_id] = (fingerprint, list(hosts))
            self.publishers[file_id] = owner

    def _place_replicas(
        self, file_ids: Sequence[str], owners: Sequence[int]
    ) -> Dict[str, Tuple[int, ...]]:
        """R distinct hosts per file (owner-hosted single copy when R=1)."""
        r = self.config.replication_factor
        if r == 1:
            return {fid: (owner,) for fid, owner in zip(file_ids, owners)}
        machines = len(self.hosts)
        if r > machines:
            raise ValueError(
                f"replication factor {r} exceeds the {machines} available hosts"
            )
        # Uniform capacity with slack: the greedy pass always finds R free
        # distinct hosts, and the hill climb has room to rearrange.
        slots = -(-len(file_ids) * r // machines) + r
        problem = PlacementProblem(
            machine_availability=self.availability,
            machine_capacity={host: slots for host in self.hosts},
            file_ids=list(file_ids),
            replication_factor=r,
        )
        placement = place_replicas(
            problem,
            rng=random.Random(self.config.seed + 17),
            swap_rounds=min(2000, 8 * len(file_ids)),
        )
        return placement.assignment

    # -- phase 2: SALAD discovery -----------------------------------------------

    def discover(self, min_size: int = 0) -> int:
        """Publish fingerprint records and collect match notifications."""
        return self.run.insert_all(min_size=min_size)

    # -- phase 3: relocation -----------------------------------------------------

    def relocate(self) -> RelocationPlan:
        """Plan and execute the migrations that co-locate duplicates; the
        plan returned holds the migrations applied (here, all of them)."""
        groups = duplicate_groups(
            self.run.salad.collected_matches(),
            (
                (file_id, fingerprint, hosts, (self.publishers[file_id],))
                for file_id, (fingerprint, hosts) in self.replicas.items()
            ),
        )
        plan = self.planner.plan(groups)
        replica_hosts = {m.file_id: self.replicas[m.file_id][1] for m in plan.migrations}
        plan = replace(plan, migrations=self.planner.apply(plan, replica_hosts, self._transfer))
        self._applied += plan.migrations
        self._shortfall += plan.total_shortfall({fp: len(f) for fp, f in groups.items()})
        return plan

    def _transfer(self, migration: Migration) -> bool:
        """Move a replica's blob, unverified: it is not hashed into its fingerprint."""
        source = self.hosts[migration.source_host]
        blob = source.sis.read(migration.file_id)
        # Store before delete: a target that fails to store leaves the
        # source's replica in place.
        self.hosts[migration.target_host].sis.store(migration.file_id, blob)
        if not migration.copy:
            source.sis.delete(migration.file_id)
        return True

    # -- phase 4: accounting -------------------------------------------------------

    def report(self, plan: Optional[RelocationPlan] = None) -> PipelineReport:
        """Final accounting; *plan* is None when relocation was skipped
        (the dedup-off arms of the fig-tradeoff sweep)."""
        # One walk per store: stats() is O(links).
        stats = [host.sis.stats() for host in self.hosts.values()]
        total = sum(s.logical_bytes for s in stats)
        physical = sum(s.physical_bytes for s in stats)
        predicted = reclaimed_bytes_from_matches(self.run.salad.collected_matches())
        min_avail, mean_avail = self.availability_stats()
        return PipelineReport(
            total_bytes=total,
            predicted_reclaimed=predicted,
            physically_reclaimed=total - physical,
            migrations=plan.moved_replicas if plan else 0,
            bytes_moved=plan.bytes_moved() if plan else 0,
            replication_factor=self.config.replication_factor,
            copies=plan.copied_replicas if plan else 0,
            shortfall=self._shortfall,
            min_availability=min_avail,
            mean_availability=mean_avail,
        )

    def availability_stats(self) -> Tuple[float, float]:
        """(min, mean) file availability over the *current* replica hosts."""
        if not self.replicas:
            return 1.0, 1.0
        values = [
            file_availability(hosts, self.availability)
            for _, hosts in self.replicas.values()
        ]
        return min(values), sum(values) / len(values)

    def execute(self, min_size: int = 0) -> PipelineReport:
        """Run all four phases (as one span tree) and return the report."""
        with phase("dfc.pipeline"):
            with span("load_hosts") as load_span:
                self.load_hosts()
                load_span.set_ops(len(self.replicas))
            with span("discover") as discover_span:
                discovered = self.discover(min_size=min_size)
                discover_span.set_ops(discovered)
            with span("relocate") as relocate_span:
                plan = self.relocate()
                relocate_span.set_ops(plan.moved_replicas)
            with span("report"):
                return self.report(plan)

    def collect_metrics(self, registry):
        """Harvest pipeline stage totals and the underlying SALAD; returns it."""
        registry.counter("dfc.pipeline.hosts").inc(len(self.hosts))
        registry.counter("dfc.pipeline.files_loaded").inc(len(self.replicas))
        applied = RelocationPlan({}, self._applied)
        registry.counter("dfc.pipeline.migrations").inc(applied.moved_replicas)
        registry.counter("dfc.pipeline.copies").inc(applied.copied_replicas)
        registry.counter("dfc.pipeline.shortfall").inc(self._shortfall)
        registry.counter("dfc.pipeline.bytes_moved").inc(applied.bytes_moved())
        self.run.collect_metrics(registry)
        return registry
