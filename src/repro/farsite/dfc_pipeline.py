"""The complete Duplicate-File-Coalescing pipeline (paper section 1).

Closes the loop across all four of the paper's problems:

1. convergent encryption makes identical files identical ciphertext
   (modeled by deterministic per-content blobs, see
   :mod:`repro.workload.content`);
2. SALAD identifies files with identical content (the :class:`DfcRun`
   phase);
3. the relocation planner co-locates replicas of identical files on a
   common host set;
4. each host's Single-Instance Store coalesces them, reclaiming the bytes.

The pipeline verifies the accounting end to end: the bytes the SIS layer
physically reclaims must be at least the union-find prediction computed from
the SALAD match notifications (the number every figure-7/8/13 experiment
reports), and equals it whenever each content's discoveries form a single
connected component.

Memory note: this pipeline materializes file bytes, so drive it with small
corpora (the statistics-only experiments never materialize content).  With
the in-memory SIS the resident content is one copy per *distinct* content,
whatever the replication factor: ``load_hosts`` hands every replica of a
content the same ``bytes`` object and the stores keep that object.  Nothing
is cached across passes or pipelines: a pass regenerates its distinct bytes
in well under a tenth of a second, and a cache would need a bound (a knob)
and would outlive ``close_stores``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
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
from repro.farsite.relocation import RelocationPlan, RelocationPlanner
from repro.farsite.sis import SingleInstanceStore
from repro.obs.spans import phase, span
from repro.obs.tracing import heartbeat
from repro.perf import parallel_map
from repro.salad.storage import resolve_db_backend, resolve_db_dir
from repro.workload.content import synthetic_content
from repro.workload.corpus import Corpus


def _materialize_file(args: Tuple[int, int]) -> Tuple[bytes, Fingerprint]:
    """Per-content unit of work: produce the (encrypted) blob and its fingerprint.

    The blob stands in for the convergent ciphertext ``c_f``; both it and the
    fingerprint (the same ``synthetic_fingerprint`` the SALAD records carry)
    are pure functions of ``(content_id, size)``, so a pool worker and the
    serial loop produce identical results.
    """
    content_id, size = args
    blob = synthetic_content(content_id, size)
    return blob, synthetic_fingerprint(size, content_id)


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
    def consumed_bytes(self) -> int:
        return self.total_bytes - self.physically_reclaimed

    @property
    def reclaimed_fraction(self) -> float:
        return self.physically_reclaimed / self.total_bytes if self.total_bytes else 0.0


class DfcPipeline:
    """Corpus -> hosts -> SALAD -> relocation -> SIS coalescing."""

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
        self._sis_dir: Optional[os.PathLike] = None
        # Lifetime stage totals, harvested by collect_metrics().
        self._migrations = 0
        self._copies = 0
        self._shortfall = 0
        self._bytes_moved = 0

    def _make_sis(self, host_id: int) -> SingleInstanceStore:
        """One SIS per host; durable (sqlite-blob-backed) when the run's
        record-store backend is durable, so blob bytes leave RAM too."""
        if resolve_db_backend(self.config.db_backend) == "memory":
            return SingleInstanceStore()
        if self._sis_dir is None:
            self._sis_dir = resolve_db_dir(self.config.db_dir) / f"sis-{os.getpid()}"
            self._sis_dir.mkdir(parents=True, exist_ok=True)
        return SingleInstanceStore(db_path=self._sis_dir / f"sis-host-{host_id:040x}.sqlite")

    def close_stores(self) -> None:
        """Flush and release every host's SIS (and the SALAD's leaf stores)."""
        for host in self.hosts.values():
            host.sis.close()
        self.run.salad.close_databases()

    # -- phase 1: load every machine's files onto its host ---------------------

    def load_hosts(self) -> None:
        """Create one file host per machine and store its (encrypted) files.

        Each file's blob is the deterministic stand-in for its convergently
        encrypted content; identical contents yield identical blobs, which
        is the property SIS coalescing keys on.  A blob is a pure function
        of ``(content_id, size)``, so it and its fingerprint are produced
        once per distinct pair (first-seen order, fanned out over
        ``config.workers`` processes) and every file of that content is
        handed the same ``bytes`` object; results are applied in file order,
        so the loaded state is independent of the worker count.  The
        per-content table is a local: it dies with this call, and a blob
        lives on only in the stores that hold it.  Each host still hashes
        every replica it is given -- the pipeline is another party to the
        store, whose coalescing must not rest on a digest it did not compute.

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
            self.hosts[host_id] = FileHost(host_id, sis=self._make_sis(host_id))
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
        contents = list(dict.fromkeys(task[2] for task in tasks))
        materialized = dict(
            zip(
                contents,
                parallel_map(_materialize_file, contents, workers=self.config.workers),
            )
        )
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

    def _duplicate_groups(self) -> Dict[Fingerprint, Dict[str, Sequence[int]]]:
        """Groups of co-coalescible files from the SALAD's discoveries.

        A file joins its fingerprint's group iff its machine appeared in at
        least one match notification for that fingerprint; copies SALAD
        never matched stay where they are (that is the lossiness every
        space figure measures).  All matched copies of one fingerprint form
        a single group -- a relocation pass holding the notifications
        co-locates them all, so the physical reclaim can slightly *exceed*
        the union-find prediction when discovery found two disjoint
        components of the same content.
        """
        from repro.analysis.space import UnionFind

        matched_machines: Dict[Fingerprint, set] = {}
        for machine, payload in self.run.salad.collected_matches():
            members = matched_machines.setdefault(payload.fingerprint, set())
            members.add(machine)
            members.add(payload.other_machine)
        groups: Dict[Fingerprint, Dict[str, Sequence[int]]] = {}
        for file_id, (fingerprint, hosts) in self.replicas.items():
            members = matched_machines.get(fingerprint)
            # Membership keys on the *publishing* machine (the one whose
            # SALAD record could have matched), not on wherever placement
            # happened to put the first replica.
            if members is None or self.publishers[file_id] not in members:
                continue
            groups.setdefault(fingerprint, {})[file_id] = list(hosts)
        return {fp: files for fp, files in groups.items() if len(files) > 1}

    def relocate(self) -> RelocationPlan:
        """Plan and execute the migrations that co-locate duplicates."""
        groups = self._duplicate_groups()
        plan = self.planner.plan(groups)
        group_sizes = {fp: len(files) for fp, files in groups.items()}
        self._migrations += plan.moved_replicas
        self._copies += plan.copied_replicas
        self._shortfall += plan.total_shortfall(group_sizes)
        self._bytes_moved += plan.bytes_moved()
        for migration in plan.migrations:
            source = self.hosts[migration.source_host]
            target = self.hosts[migration.target_host]
            blob = source.sis.read(migration.file_id)
            if not migration.copy:
                source.sis.delete(migration.file_id)
            target.sis.store(migration.file_id, blob)
            fingerprint, hosts = self.replicas[migration.file_id]
            if not migration.copy:
                hosts.remove(migration.source_host)
            if migration.target_host not in hosts:
                hosts.append(migration.target_host)
        return plan

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
            heartbeat("dfc.load_hosts", replicas=len(self.replicas))
            with span("discover") as discover_span:
                discovered = self.discover(min_size=min_size)
                discover_span.set_ops(discovered)
            heartbeat("dfc.discover", matches=discovered)
            with span("relocate") as relocate_span:
                plan = self.relocate()
                relocate_span.set_ops(plan.moved_replicas)
            heartbeat("dfc.relocate", moved_replicas=plan.moved_replicas)
            with span("report"):
                return self.report(plan)

    def collect_metrics(self, registry):
        """Harvest pipeline stage totals and the underlying SALAD; returns it."""
        registry.counter("dfc.pipeline.hosts").inc(len(self.hosts))
        registry.counter("dfc.pipeline.files_loaded").inc(len(self.replicas))
        registry.counter("dfc.pipeline.migrations").inc(self._migrations)
        registry.counter("dfc.pipeline.copies").inc(self._copies)
        registry.counter("dfc.pipeline.shortfall").inc(self._shortfall)
        registry.counter("dfc.pipeline.bytes_moved").inc(self._bytes_moved)
        self.run.collect_metrics(registry)
        return registry
