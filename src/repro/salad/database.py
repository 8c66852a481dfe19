"""Per-leaf record database with the Fig. 13 size-limit policy.

The database is associative on fingerprints: inserting a record returns all
already-stored records with the same fingerprint (those are the duplicate
matches that trigger notifications in Fig. 4).

Fig. 13's experiment bounds the database size: "When a machine receives a
record that it should store, if its database size limit has been reached, it
discards a record in the database with the lowest fingerprint value
(corresponding to the smallest file) and replaces it with the newly received
record.  If no record in the database has a lower fingerprint value than the
new record, the machine discards the new record."

Each fingerprint maps to a small tuple of its locations, in arrival order:
most fingerprints have one to three, where a ``set`` would cost 216 bytes
for any of them.  Nothing reads that order -- every output sorts -- so a
tuple is invisible outside this class.

Eviction uses a lazy min-heap over fingerprint sort keys, so inserts stay
O(log n) amortized even under heavy eviction churn.  Removals leave stale
entries in the heap; a stale-ratio-triggered compaction rebuilds it from the
live records, so long churn runs keep the heap within a constant factor of
the live record count instead of growing without bound.

This is the in-memory implementation of the
:class:`repro.salad.storage.RecordStore` contract; the WAL store in
:mod:`repro.salad.storage` is observably identical (the shared
contract suite asserts it).  Matches are returned sorted by location and
:meth:`records` iterates in ``(sort_key, location)`` order -- the orderings
the contract fixes so every backend can reproduce them.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.fingerprint import Fingerprint
from repro.salad.records import SaladRecord
from repro.salad.storage import RecordStore


class RecordDatabase(RecordStore):
    """Associative in-memory store of `(fingerprint, location)` records."""

    #: Compact the lazy heap when it exceeds this many times the live record
    #: count (and the floor below, so small databases never bother).
    _HEAP_COMPACT_RATIO = 2
    _HEAP_COMPACT_FLOOR = 64

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive if set: {capacity}")
        self.capacity = capacity
        self._by_fingerprint: Dict[Fingerprint, Tuple[int, ...]] = {}
        self._count = 0
        # Lazy min-heap of (sort_key, fingerprint, location); entries may be
        # stale if the record was already evicted/removed.  Only used when a
        # capacity is set (uncapped databases never evict).
        self._heap: List[Tuple[bytes, bytes, int]] = []
        self._fp_by_encoding: Dict[bytes, Fingerprint] = {}
        self.evictions = 0
        self.rejections = 0
        self.heap_compactions = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._by_fingerprint

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        """Machines known to hold a file with this fingerprint."""
        return set(self._by_fingerprint.get(fingerprint, ()))

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        """Whether this exact record is stored (no set copy; hot-path probe)."""
        locations = self._by_fingerprint.get(fingerprint)
        return locations is not None and location in locations

    def records(self) -> Iterator[SaladRecord]:
        for fingerprint in sorted(self._by_fingerprint, key=Fingerprint.to_bytes):
            for location in sorted(self._by_fingerprint[fingerprint]):
                yield SaladRecord(fingerprint=fingerprint, location=location)

    def _remove(self, fingerprint: Fingerprint, location: int) -> None:
        locations = self._by_fingerprint.get(fingerprint)
        if locations is None or location not in locations:
            return
        self._count -= 1
        if len(locations) == 1:
            del self._by_fingerprint[fingerprint]
            self._fp_by_encoding.pop(fingerprint.to_bytes(), None)
        else:
            index = locations.index(location)
            self._by_fingerprint[fingerprint] = locations[:index] + locations[index + 1 :]
        self._maybe_compact_heap()

    def _maybe_compact_heap(self) -> None:
        """Rebuild the heap from live records once stale entries dominate.

        Every live record of a capacity-bounded database has exactly one
        heap entry, so ``len(_heap) - _count`` is the stale count.  Popping
        (eviction) consumes entries; only removals strand them, so without
        this check a long join/depart churn run grows the heap without
        bound while the live count stays flat.
        """
        heap_len = len(self._heap)
        if heap_len <= self._HEAP_COMPACT_FLOOR:
            return
        if heap_len <= self._HEAP_COMPACT_RATIO * self._count:
            return
        self._heap = [
            (encoding, encoding, location)
            for encoding, fingerprint in self._fp_by_encoding.items()
            for location in self._by_fingerprint.get(fingerprint, ())
        ]
        heapq.heapify(self._heap)
        self.heap_compactions += 1

    def _pop_lowest(self) -> Optional[SaladRecord]:
        """Remove and return the stored record with the lowest fingerprint."""
        while self._heap:
            sort_key, fp_encoding, location = heapq.heappop(self._heap)
            fingerprint = self._fp_by_encoding.get(fp_encoding)
            if fingerprint is None:
                continue  # stale: every record of that fingerprint is gone
            locations = self._by_fingerprint.get(fingerprint)
            if locations is None or location not in locations:
                continue  # stale: this record was removed already
            self._remove(fingerprint, location)
            return SaladRecord(fingerprint=fingerprint, location=location)
        return None

    def _peek_lowest_key(self) -> Optional[bytes]:
        while self._heap:
            sort_key, fp_encoding, location = self._heap[0]
            fingerprint = self._fp_by_encoding.get(fp_encoding)
            if fingerprint is None:
                heapq.heappop(self._heap)
                continue
            locations = self._by_fingerprint.get(fingerprint)
            if locations is None or location not in locations:
                heapq.heappop(self._heap)
                continue
            return sort_key
        return None

    def insert(
        self, record: SaladRecord, limit: Optional[int] = None
    ) -> Tuple[bool, List[SaladRecord]]:
        """Insert a record, applying the capacity policy.

        Returns ``(stored, matches)`` where *matches* are the records already
        present with the same fingerprint (computed before insertion, sorted
        by location, and regardless of whether the new record is stored -- a
        leaf that rejects a record for capacity can still report matches it
        knows about).  With a *limit*, only the first *limit* matches are
        built: a widely shared content keeps dozens of locations in one cell,
        and a leaf notifies at most ``notify_limit`` of them.
        """
        existing = self._by_fingerprint.get(record.fingerprint)
        if existing is None:
            matches: List[SaladRecord] = []
            if self.capacity is None:
                # Uncapped database (the common configuration): no eviction
                # can ever occur, so skip the heap and encoding-index
                # bookkeeping that exists only to serve the Fig. 13 policy.
                self._by_fingerprint[record.fingerprint] = (record.location,)
                self._count += 1
                return True, matches
        else:
            if limit is None or limit >= len(existing):
                chosen = sorted(existing)
            else:
                chosen = heapq.nsmallest(limit, existing)
            fingerprint = record.fingerprint
            matches = [SaladRecord(fingerprint, location) for location in chosen]
            if record.location in existing:
                return False, matches  # duplicate record; nothing to do
            if self.capacity is None:
                self._by_fingerprint[fingerprint] = existing + (record.location,)
                self._count += 1
                return True, matches

        if self.capacity is not None and self._count >= self.capacity:
            lowest_key = self._peek_lowest_key()
            if lowest_key is None or record.sort_key() <= lowest_key:
                # No stored record is lower than the new one: discard it.
                self.rejections += 1
                return False, matches
            self._pop_lowest()
            self.evictions += 1

        # Re-read: an eviction above may have shrunk or dropped this tuple.
        held = self._by_fingerprint.get(record.fingerprint, ())
        self._by_fingerprint[record.fingerprint] = held + (record.location,)
        self._fp_by_encoding[record.fingerprint.to_bytes()] = record.fingerprint
        self._count += 1
        heapq.heappush(
            self._heap, (record.sort_key(), record.fingerprint.to_bytes(), record.location)
        )
        return True, matches

    def remove_location(self, location: int) -> int:
        """Drop every record pointing at *location* (a departed machine).

        Returns the number of records removed.
        """
        removed = 0
        for fingerprint in list(self._by_fingerprint):
            if location in self._by_fingerprint[fingerprint]:
                self._remove(fingerprint, location)
                removed += 1
        return removed

    @property
    def pending_records(self) -> int:
        """Everything is lost on a crash: memory stores have no durability."""
        return self._count
