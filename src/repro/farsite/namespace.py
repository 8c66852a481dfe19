"""The hierarchical namespace, partitioned among directory groups.

"Directories are apportioned among groups of machines.  The machines in
each directory group jointly manage a region of the file-system namespace"
(section 2).  Paths are partitioned by the hash of their top-level
directory, so each region is served by one quorum-replicated group.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashing import strong_hash
from repro.farsite.directory_group import DirectoryEntry, DirectoryGroup


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"paths must be absolute: {path!r}")
    while "//" in path:
        path = path.replace("//", "/")
    return path.rstrip("/") or "/"


def _region_of(path: str) -> str:
    """The partition key: the top-level directory name."""
    parts = _normalize(path).split("/")
    return parts[1] if len(parts) > 1 and parts[1] else ""


class Namespace:
    """The global name space over a set of directory groups."""

    def __init__(self, groups: Sequence[DirectoryGroup]):
        if not groups:
            raise ValueError("a namespace needs at least one directory group")
        self.groups = list(groups)

    def group_for(self, path: str) -> DirectoryGroup:
        region = _region_of(path)
        index = int.from_bytes(strong_hash(region.encode())[:4], "big")
        return self.groups[index % len(self.groups)]

    # -- file metadata operations ----------------------------------------------

    def create(
        self,
        path: str,
        file_id: str,
        size: int,
        replica_hosts: Tuple[int, ...],
        readers: Tuple[str, ...],
    ) -> Optional[DirectoryEntry]:
        """Bind *path* to a file; returns the entry it displaced, if any."""
        path = _normalize(path)
        entry = DirectoryEntry(
            path=path,
            file_id=file_id,
            size=size,
            replica_hosts=replica_hosts,
            readers=readers,
        )
        return self.group_for(path).put(entry)

    def lookup(self, path: str) -> Optional[DirectoryEntry]:
        path = _normalize(path)
        return self.group_for(path).get(path)

    def remove(self, path: str) -> bool:
        path = _normalize(path)
        return self.group_for(path).delete(path)

    def set_replica_hosts(self, path: str, hosts: Tuple[int, ...]) -> None:
        path = _normalize(path)
        self.group_for(path).set_replica_hosts(path, hosts)

    def list_region(self, prefix: str) -> Tuple[str, ...]:
        """All paths under *prefix* (prefix must stay within one region)."""
        prefix = _normalize(prefix)
        return tuple(
            p for p in self.group_for(prefix).list(prefix) if p.startswith(prefix)
        )

    def all_paths(self) -> List[str]:
        seen = set()
        for group in self.groups:
            seen.update(group.list(""))
        return sorted(seen)
