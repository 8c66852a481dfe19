"""Seeded input generators shared by the workloads.

The *structure* of every input -- how many copies each content has, which
sizes occur, how many operations of each class -- is fixed, so the logical
bytes and the ideal reclaim are identical for every seed.  The seed picks
the identities (digests, plaintext bytes) and the placement (which machine
holds which copy, the order of operations).  That keeps the simulated
statistics within a narrow band across seeds, which the benchmark contract
requires, while no two seeds hand the program the same bytes.

Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Tuple

#: File sizes carried by SALAD records, cycled over contents in id order.  The
#: engine never looks at a size; the ladder is kept to a factor of 32 so that
#: reclaimed *bytes* do not hang on the few contents of the top class.
SIZE_LADDER = (2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10)

#: Copy counts run 1..MAX_COPIES with frequency proportional to 1/c (a
#: bounded Zipf, exponent 1), i.e. every copy-count class owns the same
#: number of record slots; the mean is ~3.9 copies per content.
MAX_COPIES = 12


class Digest:
    """Order-sensitive hash of generated inputs or simulated statistics.

    Reported as a 48-bit integer so it survives a JSON float round trip.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *values: object) -> None:
        self._hash.update(repr(values).encode())

    def value(self) -> int:
        return int.from_bytes(self._hash.digest()[:6], "big")


def digest_of(mapping: dict) -> int:
    """Digest of a flat ``name -> value`` mapping, independent of dict order."""
    digest = Digest()
    for name in sorted(mapping):
        digest.add(name, mapping[name])
    return digest.value()


def copy_counts(slots: int, max_copies: int = MAX_COPIES) -> List[int]:
    """Copy counts summing to exactly *slots*.

    Deterministic: the sequence depends only on the arguments, never on a
    seed.  Round k emits one content of c copies for every c <= max_copies
    that divides k, which is the 1/c frequency at any length; a content that
    no longer fits is skipped, so the tail fills with smaller ones.
    """
    counts: List[int] = []
    free = slots
    k = 0
    while free:
        k += 1
        for copies in range(min(max_copies, free), 0, -1):
            if k % copies == 0 and copies <= free:
                counts.append(copies)
                free -= copies
    return counts


#: One planned record: (content id, file size).
PlannedRecord = Tuple[int, int]


def plan_wave(
    rng: random.Random, leaves: int, per_leaf: int, first_content_id: int
) -> List[List[PlannedRecord]]:
    """One insert wave: *per_leaf* records for each of *leaves* machines.

    The wave is *per_leaf* rows; a row visits every leaf once in a seeded
    order and is cut into contents by :func:`copy_counts`, so the copies of
    one content always sit on distinct leaves.  Content ids start at
    *first_content_id* and never repeat across rows, which gives every wave
    its own id range.
    """
    counts = copy_counts(leaves)
    plan: List[List[PlannedRecord]] = [[] for _ in range(leaves)]
    content_id = first_content_id
    order = list(range(leaves))
    for _ in range(per_leaf):
        rng.shuffle(order)
        cursor = 0
        for copies in counts:
            size = SIZE_LADDER[content_id % len(SIZE_LADDER)]
            for leaf in order[cursor : cursor + copies]:
                plan[leaf].append((content_id, size))
            cursor += copies
            content_id += 1
    return plan


def contents_per_wave(leaves: int, per_leaf: int) -> int:
    """How many content ids :func:`plan_wave` consumes."""
    return len(copy_counts(leaves)) * per_leaf


def content_digest(seed: int, content_id: int) -> bytes:
    """The 20-byte hash standing in for a content's (encrypted) bytes."""
    return hashlib.sha1(b"bench:%d:%d" % (seed, content_id)).digest()


def zipf_indices(rng: random.Random, count: int, choices: int) -> List[int]:
    """*count* draws from ``range(choices)`` with weight 1/(rank+1).

    The multiset is fixed (largest-remainder apportionment of the Zipf
    weights); only the order is seeded.
    """
    weights = [1.0 / (rank + 1) for rank in range(choices)]
    scale = count / sum(weights)
    shares = [int(weight * scale) for weight in weights]
    for rank in range(count - sum(shares)):
        shares[rank % choices] += 1
    indices = [rank for rank, share in enumerate(shares) for _ in range(share)]
    rng.shuffle(indices)
    return indices
