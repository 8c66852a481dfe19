"""Corpus data model: file statistics per machine, aggregate statistics.

A corpus describes *what* each machine stores without materializing file
bytes: each file is a ``(content_id, size)`` pair, where equal content_ids
mean byte-identical contents.  Fingerprints derive deterministically from
``(size, content_id)`` via :func:`repro.core.fingerprint.synthetic_fingerprint`,
giving exactly the uniformly distributed 20-byte digests a real scanner
would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.core.fingerprint import Fingerprint, synthetic_fingerprint


@dataclass(frozen=True)
class FileStat:
    """One file on one machine: abstract content identity plus size."""

    content_id: int
    size: int

    def fingerprint(self) -> Fingerprint:
        """The SALAD fingerprint of this file's (encrypted) content."""
        return synthetic_fingerprint(self.size, self.content_id)


@dataclass
class MachineScan:
    """The scanned contents of one machine's file system."""

    machine_index: int
    files: List[FileStat] = field(default_factory=list)

    @property
    def file_count(self) -> int:
        return len(self.files)

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self.files)

    def files_at_least(self, min_size: int) -> List[FileStat]:
        """Files eligible for coalescing under a minimum-size threshold."""
        return [f for f in self.files if f.size >= min_size]


@dataclass(frozen=True)
class CorpusSummary:
    """The aggregate statistics the paper reports for its dataset (section 5).

    Paper values for reference: 585 file systems, 10,514,105 files, 685 GB;
    4,060,748 distinct contents, 368 GB distinct; 46% of consumed space
    reclaimable by coalescing.
    """

    machine_count: int
    total_files: int
    total_bytes: int
    distinct_contents: int
    distinct_bytes: int

    @property
    def duplicate_byte_fraction(self) -> float:
        """Fraction of consumed space reclaimable by ideal coalescing."""
        if self.total_bytes == 0:
            return 0.0
        return 1.0 - self.distinct_bytes / self.total_bytes

    @property
    def duplicate_file_fraction(self) -> float:
        if self.total_files == 0:
            return 0.0
        return 1.0 - self.distinct_contents / self.total_files

    @property
    def mean_file_size(self) -> float:
        return self.total_bytes / self.total_files if self.total_files else 0.0


@dataclass
class Corpus:
    """A set of machine scans: the input to every DFC experiment."""

    machines: List[MachineScan]

    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterator[MachineScan]:
        return iter(self.machines)

    @property
    def total_files(self) -> int:
        return sum(m.file_count for m in self.machines)

    @property
    def total_bytes(self) -> int:
        return sum(m.total_bytes for m in self.machines)

    def content_instances(self) -> Dict[int, Tuple[int, List[int]]]:
        """Map content_id -> (size, list of machine indices holding it)."""
        out: Dict[int, Tuple[int, List[int]]] = {}
        for machine in self.machines:
            for f in machine.files:
                if f.content_id in out:
                    out[f.content_id][1].append(machine.machine_index)
                else:
                    out[f.content_id] = (f.size, [machine.machine_index])
        return out

    def summary(self) -> CorpusSummary:
        contents: Dict[int, int] = {}
        total_files = 0
        total_bytes = 0
        for machine in self.machines:
            for f in machine.files:
                total_files += 1
                total_bytes += f.size
                contents.setdefault(f.content_id, f.size)
        return CorpusSummary(
            machine_count=len(self.machines),
            total_files=total_files,
            total_bytes=total_bytes,
            distinct_contents=len(contents),
            distinct_bytes=sum(contents.values()),
        )

    def ideal_reclaimable_bytes(self, min_size: int = 0) -> int:
        """Bytes an omniscient coalescer reclaims, honoring a size threshold.

        For each content of size >= *min_size* with n instances, n - 1
        copies can be coalesced away.
        """
        reclaimed = 0
        seen: Dict[int, int] = {}
        for machine in self.machines:
            for f in machine.files:
                if f.size < min_size:
                    continue
                if f.content_id in seen:
                    reclaimed += f.size
                else:
                    seen[f.content_id] = f.size
        return reclaimed
