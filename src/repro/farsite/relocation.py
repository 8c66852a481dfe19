"""Duplicate-file relocation (paper problem 3).

"Relocating the replicas of files with identical content to a common set of
storage machines."  SALAD tells the system *which* files are identical;
this planner decides *where* their replicas should live so the per-host
Single-Instance Store can coalesce them, and computes the migrations to get
there.

Strategy: for each duplicate group, pick the R canonical hosts that already
hold the most replicas of the group's content (minimizing data movement),
then relocate every other replica of the group onto the canonical set.
Both DFC drivers run :func:`duplicate_groups` -> :meth:`RelocationPlanner.plan`
-> :meth:`RelocationPlanner.apply`, each supplying only a file's publishers
and how a migration's bytes move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.fingerprint import Fingerprint
from repro.salad.protocol import MatchPayload


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
        return sum(missing * group_sizes.get(fp, 1) for fp, missing in self.shortfalls.items())

    def bytes_moved(self) -> int:
        return sum(m.fingerprint.size for m in self.migrations)


def duplicate_groups(
    matches: Iterable[Tuple[int, MatchPayload]],
    files: Iterable[Tuple[str, Fingerprint, Sequence[int], Iterable[int]]],
) -> Dict[Fingerprint, Dict[str, Sequence[int]]]:
    """``{fingerprint: {file_id: hosts}}`` for the files SALAD matched.

    *matches* holds ``(machine, payload)`` pairs; *files* yields
    ``(file_id, fingerprint, hosts, publishers)``.  A file joins its
    fingerprint's group iff one of its publishers appears in a match for
    that fingerprint, as receiver or ``other_machine``; copies SALAD never
    matched stay put (the lossiness every space figure measures).  One
    group per fingerprint, so the physical reclaim can *exceed* the
    union-find prediction when discovery found two disjoint components.
    Groups of one file are dropped.
    """
    matched: Dict[Fingerprint, set] = {}
    for machine, payload in matches:
        members = matched.setdefault(payload.fingerprint, set())
        members.add(machine)
        members.add(payload.other_machine)
    groups: Dict[Fingerprint, Dict[str, Sequence[int]]] = {}
    for file_id, fingerprint, hosts, publishers in files:
        members = matched.get(fingerprint)
        if members is not None and not members.isdisjoint(publishers):
            groups.setdefault(fingerprint, {})[file_id] = hosts
    return {fp: group for fp, group in groups.items() if len(group) > 1}


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

    def plan(self, groups: Dict[Fingerprint, Dict[str, Sequence[int]]]) -> RelocationPlan:
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
                extra = [h for h in hosts if h not in chosen]
                missing = [h for h in chosen if h not in hosts]
                # Pair off: each missing canonical host receives a replica
                # from a non-canonical host (a move, not a copy).
                paired = list(zip(extra, missing))
                migrations += [Migration(file_id, fingerprint, s, t) for s, t in paired]
                # A file holding fewer replicas than the canonical set is
                # wide leaves canonical hosts unpaired.  Those hosts get
                # *copies* sourced from a replica the file keeps, so the
                # file ends on the full canonical set instead of silently
                # staying under-replicated.
                kept = [h for h in hosts if h in chosen] + [t for _, t in paired]
                if kept:
                    migrations += [
                        Migration(file_id, fingerprint, kept[0], t, copy=True)
                        for t in missing[len(paired) :]
                    ]
        return RelocationPlan(canonical, migrations, shortfalls)

    def apply(
        self,
        plan: RelocationPlan,
        replica_hosts: Dict[str, List[int]],
        transfer: Callable[[Migration], bool],
    ) -> List[Migration]:
        """Carry out *plan*; return the migrations that took effect.

        ``transfer(migration)`` moves the bytes.  Unless it returns False
        (deferred or refused), the file's list in *replica_hosts* drops a
        move's source, then appends the target; a copy keeps its source.
        The order matters: availability is a product in host-list order.
        """
        applied: List[Migration] = []
        for migration in plan.migrations:
            if not transfer(migration):
                continue
            hosts = replica_hosts[migration.file_id]
            if not migration.copy:
                hosts.remove(migration.source_host)
            if migration.target_host not in hosts:
                hosts.append(migration.target_host)
            applied.append(migration)
        return applied
