"""A complete Farsite participant and a whole-system deployment.

Paper section 2: "Every participating machine functions not only as a
client device for its local user but also both as a file host -- storing
replicas of encrypted file content on behalf of the system -- and as a
member of a directory group."

:class:`FarsiteNode` is that machine: a SALAD leaf (section 4) that also
hosts encrypted replicas (via an embedded :class:`FileHost`) and publishes
their fingerprints into the SALAD.  :class:`FarsiteDeployment` assembles a
whole system -- nodes joined into one SALAD over one simulated network,
directory groups of 3f+1 nodes, a partitioned namespace, a user registry --
and drives the full Duplicate-File-Coalescing cycle:

1. clients write convergently encrypted files to replica hosts;
2. every node publishes its replicas' fingerprints (Fig. 4);
3. match notifications identify duplicate groups;
4. relocation co-locates the groups' replicas and updates the namespace;
5. each host's Single-Instance Store coalesces, reclaiming the bytes.

Steps 3-4 are the relocation step the DFC pipeline shares; here every
replica host is a file's publisher, and a move is verified against the
group's fingerprint.  A node's file host lives and dies with the node
(:class:`NodeHost`): a failed node serves no read and takes no replica, and
a migration whose source or target is down waits for a later cycle.

This is the end-to-end system the paper describes; the statistics-scale
experiments in :mod:`repro.experiments` use the lighter abstract pipeline
instead (they never materialize file bytes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from repro.core.convergent import ConvergentCiphertext
from repro.core.fingerprint import Fingerprint
from repro.core.keyring import User, UserDirectory
from repro.farsite.client import FarsiteClient
from repro.farsite.directory_group import DirectoryEntry, DirectoryGroup
from repro.farsite.file_host import FileHost, HostDownError, ReplicaMismatchError
from repro.farsite.namespace import Namespace
from repro.farsite.relocation import Migration, RelocationPlanner, duplicate_groups
from repro.salad.leaf import SaladLeaf
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.network import Network

#: Directory-group size for fault tolerance f=1 (3f+1).
GROUP_SIZE = 4


class NodeHost(FileHost):
    """A node's file host: it serves and accepts replicas only while the
    node is up.  A fetch from a down host raises :class:`HostDownError`,
    a ``KeyError`` like a missing replica, so a reader skips to the next."""

    def __init__(self, node: SaladLeaf):
        super().__init__(node.identifier)
        self.node = node

    @property
    def alive(self) -> bool:
        return self.node.alive

    def store_replica(
        self,
        file_id: str,
        ciphertext: ConvergentCiphertext,
        expected: Optional[Fingerprint] = None,
    ) -> bool:
        self._require_up(file_id)
        return super().store_replica(file_id, ciphertext, expected)

    def fetch_replica(self, file_id: str) -> ConvergentCiphertext:
        self._require_up(file_id)
        return super().fetch_replica(file_id)

    def _require_up(self, file_id: str) -> None:
        if not self.node.alive:
            raise HostDownError(
                f"host {self.machine_identifier:#x} is down: no access to {file_id!r}"
            )


class FarsiteNode(SaladLeaf):
    """A machine that is simultaneously a SALAD leaf and a file host."""

    def __init__(self, identifier: int, network: Network, **salad_kwargs):
        super().__init__(identifier, network, **salad_kwargs)
        self.host = NodeHost(self)
        self._published: set = set()

    def publish_fingerprints(self, min_size: int = 0) -> int:
        """Insert a SALAD record for each stored replica (Fig. 4).

        Idempotent: already-published fingerprints are skipped, so the DFC
        cycle can run periodically as new files arrive.
        """
        published = 0
        for fingerprint in self.host.fingerprints():
            if fingerprint.size < min_size or fingerprint in self._published:
                continue
            self._published.add(fingerprint)
            self.insert_record(
                SaladRecord(fingerprint=fingerprint, location=self.identifier)
            )
            published += 1
        return published


@dataclass
class DfcCycleReport:
    """Outcome of one deployment-wide DFC cycle."""

    records_published: int
    duplicate_groups: int
    migrations: int
    bytes_moved: int
    logical_bytes: int
    physical_bytes: int

    @property
    def reclaimed_bytes(self) -> int:
        return self.logical_bytes - self.physical_bytes


class FarsiteDeployment:
    """A whole Farsite system over one simulated network."""

    def __init__(
        self,
        machine_count: int,
        target_redundancy: float = 2.5,
        replication_factor: int = 3,
        seed: int = 0,
    ):
        if machine_count < GROUP_SIZE:
            raise ValueError(
                f"a deployment needs at least {GROUP_SIZE} machines for one "
                f"directory group, got {machine_count}"
            )
        self._rng = random.Random(seed)
        self.replication_factor = replication_factor

        # The SALAD fabric; nodes are FarsiteNodes rather than bare leaves,
        # built by the engine's own factory with their RNG seeds drawn from
        # the deployment's RNG.
        self.salad = Salad(
            SaladConfig(target_redundancy=target_redundancy, seed=seed, notify_limit=4)
        )
        self.salad.leaf_class = FarsiteNode
        self.salad.leaf_seeds = self._rng
        self.salad.build(machine_count)
        self.nodes: Dict[int, FarsiteNode] = {
            identifier: leaf  # type: ignore[misc]
            for identifier, leaf in self.salad.leaves.items()
        }

        # Directory groups: consecutive runs of GROUP_SIZE machines.
        identifiers = sorted(self.nodes)
        self.groups: List[DirectoryGroup] = []
        for start in range(0, len(identifiers) - GROUP_SIZE + 1, GROUP_SIZE):
            members = identifiers[start : start + GROUP_SIZE]
            self.groups.append(DirectoryGroup(members, fault_tolerance=1))
        self.namespace = Namespace(self.groups)
        self.users = UserDirectory()
        self.planner = RelocationPlanner(replication_factor=replication_factor)
        # Migrations whose bytes did not match the group's fingerprint.
        self.relocations_refused = 0
        # Migrations left for a later cycle: their source or target was down.
        self.relocations_deferred = 0

    # -- assembly ---------------------------------------------------------------

    @property
    def hosts(self) -> Dict[int, FileHost]:
        return {identifier: node.host for identifier, node in self.nodes.items()}

    def create_user(self, name: str) -> User:
        return self.users.create_user(name, rng=random.Random(self._rng.getrandbits(64)))

    def client_for(self, user: User) -> FarsiteClient:
        return FarsiteClient(
            user,
            self.users,
            self.namespace,
            self.hosts,
            replication_factor=self.replication_factor,
            rng=random.Random(self._rng.getrandbits(64)),
        )

    # -- the DFC cycle -------------------------------------------------------------

    def _files(self, entries: List[DirectoryEntry]) -> Iterator[tuple]:
        """``(file_id, fingerprint, hosts, publishers)`` per entry: every
        replica host published the file's record."""
        for entry in entries:
            holders = [h for h in entry.replica_hosts if h in self.nodes]
            replica = self.nodes[holders[0]].host.replica_info(entry.file_id) if holders else None
            if replica is not None:
                hosts = entry.replica_hosts
                yield entry.file_id, replica.fingerprint, list(hosts), hosts

    def _transfer(self, migration: Migration) -> bool:
        source = self.nodes[migration.source_host].host
        target = self.nodes[migration.target_host].host
        # A migration with a host down waits for a later cycle, which
        # plans it again: nothing of it is applied now.
        if not (source.alive and target.alive):
            self.relocations_deferred += 1
            return False
        ciphertext = source.fetch_replica(migration.file_id)
        # Store before drop: a target that refuses bytes that are not the
        # group's content leaves the source's replica as it was.
        try:
            target.store_replica(migration.file_id, ciphertext, expected=migration.fingerprint)
        except ReplicaMismatchError:
            self.relocations_refused += 1
            return False
        if not migration.copy:
            source.drop_replica(migration.file_id)
        return True

    def collect_metrics(self, registry):
        """Harvest the deployment's relocation counters and its SALAD."""
        registry.counter("farsite.relocation.refused").inc(self.relocations_refused)
        registry.counter("farsite.relocation.deferred").inc(self.relocations_deferred)
        return self.salad.collect_metrics(registry)

    def run_dfc_cycle(self, min_size: int = 0) -> DfcCycleReport:
        """Publish fingerprints, discover duplicates, relocate, coalesce."""
        published = 0
        for node in self.nodes.values():
            if node.alive:
                published += node.publish_fingerprints(min_size=min_size)
        self.salad.network.run()

        entries = [e for e in map(self.namespace.lookup, self.namespace.all_paths()) if e]
        groups = duplicate_groups(self.salad.collected_matches(), self._files(entries))
        plan = self.planner.plan(groups)
        replica_hosts = {fid: hosts for files in groups.values() for fid, hosts in files.items()}
        applied = replace(plan, migrations=self.planner.apply(plan, replica_hosts, self._transfer))
        paths = {entry.file_id: entry.path for entry in entries}
        for file_id in dict.fromkeys(m.file_id for m in applied.migrations):
            self.namespace.set_replica_hosts(paths[file_id], tuple(replica_hosts[file_id]))

        logical = sum(node.host.logical_bytes for node in self.nodes.values())
        physical = sum(node.host.physical_bytes for node in self.nodes.values())
        return DfcCycleReport(
            records_published=published,
            duplicate_groups=len(groups),
            migrations=applied.moved_replicas,
            bytes_moved=applied.bytes_moved(),
            logical_bytes=logical,
            physical_bytes=physical,
        )
