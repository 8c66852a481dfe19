"""Directory groups as quorum-replicated state machines (paper section 2).

"The machines in each directory group jointly manage a region of the
file-system namespace, and the Byzantine protocol guarantees that the
directory group operates correctly as long as fewer than one third of its
constituent machines fail in any arbitrary or malicious manner."

We implement the quorum semantics Farsite relies on: a group of 3f+1
replicas applies an operation only when at least 2f+1 members vote for the
same result, which tolerates up to f arbitrary (Byzantine) members.  (The
full Castro-Liskov view-change machinery [11] is outside the paper's scope;
the DFC subsystem needs the groups only as a correct metadata service.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


class QuorumFailure(Exception):
    """No result achieved a 2f+1 quorum (too many faulty members)."""


@dataclass
class DirectoryEntry:
    """Metadata for one file in the namespace region."""

    path: str
    file_id: str
    size: int
    replica_hosts: Tuple[int, ...]  # machine identifiers of file hosts
    readers: Tuple[str, ...]


class _Replica:
    """One member of the group: a deterministic state machine over entries.

    A Byzantine member can be simulated by setting ``faulty``; it then
    returns corrupted results, which the quorum outvotes.
    """

    def __init__(self, member_id: int):
        self.member_id = member_id
        self.entries: Dict[str, DirectoryEntry] = {}
        self.faulty = False

    def apply(self, op: str, args: Tuple) -> Any:
        if self.faulty:
            return ("BYZANTINE", self.member_id, op)
        if op == "put":
            (entry,) = args
            displaced = self.entries.get(entry.path)
            self.entries[entry.path] = entry
            return ("ok", entry.path, displaced)
        if op == "get":
            (path,) = args
            entry = self.entries.get(path)
            return ("entry", entry)
        if op == "delete":
            (path,) = args
            existed = self.entries.pop(path, None) is not None
            return ("deleted", existed)
        if op == "list":
            (prefix,) = args
            names = tuple(sorted(p for p in self.entries if p.startswith(prefix)))
            return ("names", names)
        if op == "set_hosts":
            path, hosts = args
            entry = self.entries.get(path)
            if entry is None:
                return ("missing", path)
            self.entries[path] = DirectoryEntry(
                path=entry.path,
                file_id=entry.file_id,
                size=entry.size,
                replica_hosts=tuple(hosts),
                readers=entry.readers,
            )
            return ("ok", path)
        raise ValueError(f"unknown directory operation {op!r}")


class DirectoryGroup:
    """A 3f+1-member group executing operations by 2f+1 quorum vote."""

    def __init__(self, member_ids: List[int], fault_tolerance: int = 1):
        needed = 3 * fault_tolerance + 1
        if len(member_ids) < needed:
            raise ValueError(
                f"tolerating f={fault_tolerance} Byzantine members requires "
                f"{needed} replicas, got {len(member_ids)}"
            )
        self.fault_tolerance = fault_tolerance
        self.replicas = [_Replica(mid) for mid in member_ids]
        self.operations_applied = 0

    @property
    def quorum_size(self) -> int:
        return 2 * self.fault_tolerance + 1

    def corrupt_member(self, member_id: int) -> None:
        """Mark one member Byzantine (for fault-injection tests)."""
        for replica in self.replicas:
            if replica.member_id == member_id:
                replica.faulty = True
                return
        raise KeyError(f"no member {member_id}")

    def _execute(self, op: str, args: Tuple) -> Any:
        votes: Dict[str, Tuple[Any, int]] = {}
        for replica in self.replicas:
            result = replica.apply(op, args)
            key = repr(result)
            prior = votes.get(key)
            votes[key] = (result, (prior[1] if prior else 0) + 1)
        result, count = max(votes.values(), key=lambda rc: rc[1])
        if count < self.quorum_size:
            raise QuorumFailure(
                f"no {self.quorum_size}-quorum for {op}: best agreement {count}"
            )
        self.operations_applied += 1
        return result

    # -- public operations ------------------------------------------------------

    def put(self, entry: DirectoryEntry) -> Optional[DirectoryEntry]:
        """Record *entry*; returns the entry it displaced at that path, if any.

        The displaced entry rides on the same vote, so a writer learns which
        replicas its overwrite orphaned without a second quorum round.
        """
        tag, path, displaced = self._execute("put", (entry,))
        return displaced

    def get(self, path: str) -> Optional[DirectoryEntry]:
        tag, entry = self._execute("get", (path,))
        return entry

    def delete(self, path: str) -> bool:
        tag, existed = self._execute("delete", (path,))
        return existed

    def list(self, prefix: str = "") -> Tuple[str, ...]:
        tag, names = self._execute("list", (prefix,))
        return names

    def set_replica_hosts(self, path: str, hosts: Tuple[int, ...]) -> None:
        tag, _ = self._execute("set_hosts", (path, hosts))
        if tag == "missing":
            raise KeyError(f"no such path: {path}")
