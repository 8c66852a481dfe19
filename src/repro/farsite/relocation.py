"""Duplicate-file relocation (paper problem 3).

"Relocating the replicas of files with identical content to a common set of
storage machines."  SALAD tells the system *which* files are identical;
this planner decides *where* their replicas should live so the per-host
Single-Instance Store can coalesce them, and computes the migrations to get
there.

Strategy: for each duplicate group, pick the R canonical hosts that already
hold the most replicas of the group's content (minimizing data movement),
then relocate every other replica of the group onto the canonical set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.fingerprint import Fingerprint


@dataclass(frozen=True)
class Migration:
    """Move (or copy) the replica of *file_id* from one host to another.

    A *copy* leaves the source replica in place: it re-replicates a file
    that holds fewer replicas than the canonical set is wide, so the
    unpaired canonical hosts still receive the content.
    """

    file_id: str
    fingerprint: Fingerprint
    source_host: int
    target_host: int
    copy: bool = False


@dataclass
class RelocationPlan:
    """The migrations plus the final replica hosts per duplicate group."""

    canonical_hosts: Dict[Fingerprint, Tuple[int, ...]]
    migrations: List[Migration]
    #: Replica slots per duplicate group that *no* migration can fill: the
    #: group's files collectively span fewer than R distinct hosts, so the
    #: canonical set itself is short.  Keyed by fingerprint, value = missing
    #: slots per file (R - |canonical|).  Empty when every group spans R+.
    shortfalls: Dict[Fingerprint, int] = field(default_factory=dict)

    @property
    def moved_replicas(self) -> int:
        return sum(1 for m in self.migrations if not m.copy)

    @property
    def copied_replicas(self) -> int:
        return sum(1 for m in self.migrations if m.copy)

    def total_shortfall(self, group_sizes: Dict[Fingerprint, int]) -> int:
        """File-weighted missing replica slots across all short groups."""
        return sum(
            missing * group_sizes.get(fp, 1) for fp, missing in self.shortfalls.items()
        )

    def bytes_moved(self) -> int:
        return sum(m.fingerprint.size for m in self.migrations)


def canonical_hosts(
    replica_hosts: Iterable[Sequence[int]], replication_factor: int
) -> Tuple[int, ...]:
    """The canonical set of a duplicate group: its R best-covered hosts.

    *replica_hosts* holds each file's replica hosts.  Hosts rank by how
    many of the group's replicas they hold, ties to the lower identifier,
    so co-locating the group there moves the fewest replicas.
    """
    coverage: Dict[int, int] = {}
    for hosts in replica_hosts:
        for host in hosts:
            coverage[host] = coverage.get(host, 0) + 1
    ranked = sorted(coverage, key=lambda h: (-coverage[h], h))
    return tuple(ranked[:replication_factor])


class RelocationPlanner:
    """Plans co-location of identical files' replicas."""

    def __init__(self, replication_factor: int = 3):
        if replication_factor < 1:
            raise ValueError(f"replication factor must be >= 1: {replication_factor}")
        self.replication_factor = replication_factor

    def plan(
        self,
        groups: Dict[Fingerprint, Dict[str, Sequence[int]]],
    ) -> RelocationPlan:
        """Plan migrations for duplicate groups.

        *groups* maps each duplicate fingerprint to ``{file_id: hosts}`` --
        every logical file with that content and the hosts of its replicas.
        """
        canonical: Dict[Fingerprint, Tuple[int, ...]] = {}
        migrations: List[Migration] = []
        shortfalls: Dict[Fingerprint, int] = {}
        for fingerprint, files in groups.items():
            chosen = canonical_hosts(files.values(), self.replication_factor)
            canonical[fingerprint] = chosen
            if len(chosen) < self.replication_factor:
                shortfalls[fingerprint] = self.replication_factor - len(chosen)

            for file_id, hosts in files.items():
                hosts = list(hosts)
                extra_sources = [h for h in hosts if h not in chosen]
                missing_targets = [h for h in chosen if h not in hosts]
                # Pair off: each missing canonical host receives a replica
                # from a non-canonical host (a move, not a copy).
                paired = list(zip(extra_sources, missing_targets))
                for source, target in paired:
                    migrations.append(
                        Migration(
                            file_id=file_id,
                            fingerprint=fingerprint,
                            source_host=source,
                            target_host=target,
                        )
                    )
                # A file holding fewer replicas than the canonical set is
                # wide leaves canonical hosts unpaired.  Those hosts get
                # *copies* sourced from a replica the file keeps, so the
                # file ends on the full canonical set instead of silently
                # staying under-replicated.
                unpaired = missing_targets[len(paired) :]
                if unpaired:
                    kept = [h for h in hosts if h in chosen]
                    kept += [target for _, target in paired]
                    if kept:
                        for target in unpaired:
                            migrations.append(
                                Migration(
                                    file_id=file_id,
                                    fingerprint=fingerprint,
                                    source_host=kept[0],
                                    target_host=target,
                                    copy=True,
                                )
                            )
        return RelocationPlan(
            canonical_hosts=canonical, migrations=migrations, shortfalls=shortfalls
        )

    def apply(
        self,
        plan: RelocationPlan,
        replica_hosts: Dict[str, List[int]],
    ) -> None:
        """Apply migrations to a mutable ``file_id -> hosts`` map.

        Moves drop the source replica; copies leave it in place (their
        source stays a live replica, so removing it would corrupt the map).
        """
        for migration in plan.migrations:
            hosts = replica_hosts[migration.file_id]
            if not migration.copy:
                hosts.remove(migration.source_host)
            if migration.target_host not in hosts:
                hosts.append(migration.target_host)
