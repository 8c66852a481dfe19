"""Record-store backends for the SALAD leaf databases.

The paper's full-scale deployment implies on the order of 10M
``(fingerprint, location)`` records spread across the leaf databases
(section 5).  This module holds the :class:`RecordStore` contract that the
in-memory :class:`repro.salad.database.RecordDatabase` implements, and the
one durable backend, :class:`WalRecordStore` (``wal``): a CRC-framed
append log whose live records stay resident up to a byte budget and are
paged from the log past it.  Every backend is observably identical for
in-memory behavior (``tests/salad/test_record_stores.py`` runs one contract
suite through all of them); ``SaladConfig.db_backend`` / ``db_dir``, filled
in by the CLIs' ``--db-backend memory|wal`` and ``--db-dir``, pick one for
every leaf of an engine.

WAL format (version 1)::

    file   := MAGIC entry*
    MAGIC  := b"SALADWAL1\\n"
    entry  := op(1) payload_len(u32 BE) payload crc32(u32 BE)
    op     := 0x01 INSERT | 0x02 REMOVE_LOCATION
    INSERT payload := fingerprint(28) loc_len(u16 BE) location(loc_len, BE)
    REMOVE payload := loc_len(u16 BE) location(loc_len, BE)

The CRC covers ``op || payload_len || payload``.  Only state-changing
operations are logged (a rejected or duplicate insert changes nothing), so
replaying the log through the same deterministic capacity policy reproduces
the exact live state.
"""

from __future__ import annotations

import abc
import heapq
import os
import struct
import zlib
from array import array
from bisect import insort
from collections import OrderedDict
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.fingerprint import FINGERPRINT_BYTES, Fingerprint
from repro.salad.records import SaladRecord

#: Known backend names, in documentation order.
BACKENDS = ("memory", "wal")
#: Names accepted for a backend besides its own.  "wal-paged" named the
#: paged store before it merged into "wal"; ROADMAP item 1 drops it.
_ALIASES = {"wal-paged": "wal"}

#: Bytes a durable store charges its budget per decoded record it holds
#: (docs/PERFORMANCE.md, "One durable store", for how it was measured).
RECORD_BYTES = 512
#: A durable store's default budget (16,384 resident records).
DEFAULT_BUDGET_BYTES = 8 << 20

WAL_MAGIC = b"SALADWAL1\n"
_OP_INSERT = 0x01
_OP_REMOVE_LOCATION = 0x02
_HEADER = struct.Struct(">BI")  # op, payload length
_CRC = struct.Struct(">I")
_INSERT_HEAD = struct.Struct(f">BI{FINGERPRINT_BYTES}sH")  # op, length, sort key, loc_len
_REMOVE_HEAD = struct.Struct(">BIH")  # op, length, loc_len


class RecordStore(abc.ABC):
    """The associative record-database contract every backend implements.

    Semantics (shared by all backends, pinned by the contract suite):

    - ``insert`` returns ``(stored, matches)`` where *matches* are the
      records already present with the same fingerprint, sorted by
      location, computed before insertion and regardless of whether the new
      record is stored;
    - ``insert(record, limit)`` returns exactly ``insert(record)`` with its
      matches cut to the first *limit* (the *limit* lowest locations), and
      leaves the same stored state; backends build only the matches they
      return, which is what a leaf with a ``notify_limit`` asks for;
    - with a ``capacity``, an insert into a full store evicts the record
      with the lowest ``(sort_key, location)`` -- unless no stored record
      sorts below the new one, in which case the new record is rejected;
    - ``records()`` iterates in ``(sort_key, location)`` order;
    - ``evictions`` / ``rejections`` count capacity-policy outcomes for the
      lifetime of the open store (they are session statistics, not
      persisted state).
    """

    capacity: Optional[int]
    evictions: int
    rejections: int
    #: Backing file, or None for purely in-memory stores.
    path: Optional[Path] = None

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return bool(self.locations(fingerprint))

    @abc.abstractmethod
    def locations(self, fingerprint: Fingerprint) -> Set[int]: ...

    @abc.abstractmethod
    def has_location(self, fingerprint: Fingerprint, location: int) -> bool: ...

    @abc.abstractmethod
    def records(self) -> Iterator[SaladRecord]: ...

    @abc.abstractmethod
    def insert(
        self, record: SaladRecord, limit: Optional[int] = None
    ) -> Tuple[bool, List[SaladRecord]]: ...

    @abc.abstractmethod
    def remove_location(self, location: int) -> int: ...

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        """Insert a batch in order; one ``(record, stored, matches)`` per record.

        The capacity policy is applied record by record, so a batch observes
        exactly the same eviction decisions as a sequence of singles.  The
        whole batch is durable when the call returns.
        """
        results = [(record, *self.insert(record)) for record in records]
        self.flush()
        return results

    def flush(self) -> None:
        """Make all applied operations durable (no-op for memory stores)."""

    def close(self) -> None:
        """Flush and release any backing resources."""
        self.flush()

    def crash(self) -> None:
        """Simulate a process crash: abandon the store *without* flushing.

        Durable backends lose only operations not yet flushed; in-memory
        stores lose everything.  After ``crash`` the store is unusable;
        recovery reopens the backing file through :func:`make_record_store`.
        """
        pass

    @property
    @abc.abstractmethod
    def pending_records(self) -> int:
        """Stored records that would be lost if the process crashed now."""


def _location_bytes(location: int) -> bytes:
    return location.to_bytes(max(1, (location.bit_length() + 7) // 8), "big")


def _insert_frame(sort_key: bytes, location: int) -> bytes:
    """A whole INSERT frame in one pack and one CRC."""
    loc = _location_bytes(location)
    body = _INSERT_HEAD.pack(
        _OP_INSERT, FINGERPRINT_BYTES + 2 + len(loc), sort_key, len(loc)
    ) + loc
    return body + _CRC.pack(zlib.crc32(body))


def _remove_frame(location: int) -> bytes:
    """A whole REMOVE_LOCATION frame."""
    loc = _location_bytes(location)
    body = _REMOVE_HEAD.pack(_OP_REMOVE_LOCATION, 2 + len(loc), len(loc)) + loc
    return body + _CRC.pack(zlib.crc32(body))


def _decode_insert(buf, offset: int) -> SaladRecord:
    """The record of the INSERT frame the store wrote at *offset* of *buf*."""
    start = offset + _HEADER.size + FINGERPRINT_BYTES
    end = offset + _HEADER.size + _HEADER.unpack_from(buf, offset)[1]
    return SaladRecord(
        Fingerprint.from_bytes(bytes(buf[start - FINGERPRINT_BYTES : start])),
        int.from_bytes(buf[start + 2 : end], "big"),
    )


#: Low bits of every index slot's value word that hold the record's location
#: tag; the log offset sits above them, so offsets stay below 2^44 (16 TiB).
_TAG_BITS = 20
_TAG_MASK = (1 << _TAG_BITS) - 1
_OFFSET_LIMIT = 1 << (64 - _TAG_BITS)
#: Fibonacci-hashing multiplier, 2^64 / golden ratio.  The home slot is the
#: *high* bits of ``key * _MIX mod 2^64``, which every key bit reaches.
_MIX = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1
#: Value-word sentinels; every real word is at least ``len(WAL_MAGIC) << 20``.
_EMPTY = 0
_TOMBSTONE = 1


class _OffsetIndex:
    """Flat open-addressed hash multimap: 64-bit key -> tagged log offsets.

    The paged layout's only per-record memory: one ``array('Q')`` of
    ``[key, word]`` slot pairs (16 bytes each), linear probing, power-of-two
    sizing.  ``word`` is ``offset << 20 | tag``, the record's log offset
    above 20 low bits of its location; offsets are ``>= len(WAL_MAGIC)``, so
    0 (EMPTY) and 1 (TOMBSTONE) are free as sentinels.  Keys are a 64-bit
    slice of the sort key, so distinct fingerprints may share one and the
    store reads candidates back; no slot with a key and tag means no such
    record, with nothing read.  The home slot mixes the whole key, never
    ``key & mask``: on one leaf every key's low bits are the cell-ID
    (Eq. 7).  DESIGN.md, "Record-store backends", has the full layout.
    """

    __slots__ = ("_shift", "_wrap", "_table", "_used", "_live")

    def __init__(self, slots: int = 16):
        self._allocate(slots)

    def _allocate(self, slots: int) -> None:
        self._shift = 64 - (slots.bit_length() - 1)
        self._wrap = 2 * slots - 1  # table positions are even: (j + 2) & wrap
        self._table = array("Q", bytes(16 * slots))
        self._used = 0  # non-EMPTY slots (live + tombstones)
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def add(self, key: int, offset: int, tag: int) -> None:
        if not (0 < offset < _OFFSET_LIMIT and 0 <= tag <= _TAG_MASK):
            raise OverflowError(f"offset {offset} / tag {tag} do not fit a slot")
        if 3 * (self._used + 1) >= len(self._table):
            self._rebuild()
        self._place(key, offset << _TAG_BITS | tag)

    def _place(self, key: int, word: int) -> None:
        table, wrap = self._table, self._wrap
        j = ((key * _MIX & _M64) >> self._shift) << 1
        while True:
            value = table[j + 1]
            if value <= _TOMBSTONE:
                table[j] = key
                table[j + 1] = word
                if value == _EMPTY:
                    self._used += 1
                self._live += 1
                return
            j = (j + 2) & wrap

    def lookup(self, key: int, tag: Optional[int] = None) -> List[int]:
        """The offsets filed under *key* (hash collisions included); with a
        *tag*, only those whose slot carries it."""
        table, wrap = self._table, self._wrap
        j = ((key * _MIX & _M64) >> self._shift) << 1
        out: List[int] = []
        while True:
            value = table[j + 1]
            if value == _EMPTY:
                return out
            # A tombstone keeps its key and reads as tag 1: exclude it.
            if (
                table[j] == key
                and value != _TOMBSTONE
                and (tag is None or value & _TAG_MASK == tag)
            ):
                out.append(value >> _TAG_BITS)
            j = (j + 2) & wrap

    def remove(self, key: int, offset: int) -> bool:
        table, wrap = self._table, self._wrap
        j = ((key * _MIX & _M64) >> self._shift) << 1
        while True:
            value = table[j + 1]
            if value == _EMPTY:
                return False
            if table[j] == key and value >> _TAG_BITS == offset:
                table[j + 1] = _TOMBSTONE
                self._live -= 1
                return True
            j = (j + 2) & wrap

    def items(self) -> Iterator[Tuple[int, int, int]]:
        """All live ``(key, offset, tag)`` triples, in slot order."""
        table = self._table
        for j in range(0, len(table), 2):
            value = table[j + 1]
            if value > _TOMBSTONE:
                yield table[j], value >> _TAG_BITS, value & _TAG_MASK

    def _rebuild(self) -> None:
        # Double when live entries are genuinely dense; otherwise rebuild at
        # the same size, dropping the tombstones that tripped the load check.
        old = self._table
        slots = len(old) // 2
        if 3 * (self._live + 1) >= 2 * slots:
            slots *= 2
        self._allocate(slots)
        for j in range(0, len(old), 2):
            value = old[j + 1]
            if value > _TOMBSTONE:
                self._place(old[j], value)


def _key64(sort_key: bytes) -> int:
    # The sort key ends in the hash digest: uniform bytes, except on one leaf
    # the cell-ID in their low bits, which the index's home-slot mix spreads.
    return int.from_bytes(sort_key[-8:], "big")


_by_location = attrgetter("location")


class WalRecordStore(RecordStore):
    """A CRC-framed append log whose live records stay resident up to a budget.

    Only state-changing operations are logged; evictions need no entry, as
    replaying the stored inserts through the same capacity policy
    re-derives them.  Appends buffer in memory and reach the file every
    ``sync_every`` operations, at batch boundaries (:meth:`insert_many`) and
    on :meth:`flush` / :meth:`close`, so a crash loses at most the buffered
    tail.  No file descriptor is held between write-outs: an engine opens one
    store per leaf.

    While the live records fit ``budget_bytes`` (each charged
    :data:`RECORD_BYTES`) the store is *resident*: a full
    :class:`~repro.salad.database.RecordDatabase` mirror serves every read
    and the capacity policy, and an insert is one mirror update plus one
    frame append.  Once they exceed it the store *pages* for the rest of the
    open: one pass over the log and its buffer builds an :class:`_OffsetIndex`
    and drops the mirror; record bodies are read back through an LRU of
    decoded records bounded by the same budget.  A paged ``has_location``
    answers "absent" from the index's location tag with nothing read, and
    confirms a tagged slot by reading that one record back
    (:attr:`tag_rejects` counts refused hints).  With a ``capacity``, a
    sorted list of live ``(sort_key, location)`` pairs serves the Fig. 13
    lowest-record probe.  The switch writes nothing, so a crash loses the
    same tail on either side of it.

    Reopening replays the log, resident until the replayed live records
    exceed the budget.  A CRC failure or a truncated frame (the torn tail of
    a crash) ends the log there: the file is trimmed, never treated as fatal
    (:attr:`torn_bytes_dropped`).  When the log holds more than
    ``_COMPACT_RATIO`` entries per live record (past a floor), it is rewritten
    as a live snapshot in ``(sort_key, location)`` order via an atomic
    temp-file replace.
    """

    _COMPACT_FLOOR = 1024
    _COMPACT_RATIO = 4.0

    def __init__(
        self,
        path: os.PathLike,
        capacity: Optional[int] = None,
        sync_every: int = 64,
        budget_bytes: Optional[int] = None,
    ):
        from repro.salad.database import RecordDatabase

        if budget_bytes is None:
            budget_bytes = DEFAULT_BUDGET_BYTES
        if budget_bytes < 0:
            raise ValueError(f"budget_bytes must not be negative: {budget_bytes}")
        if sync_every < 1:
            raise ValueError(f"sync_every must be positive: {sync_every}")
        self.path = Path(path)
        self.capacity = capacity
        self.budget_bytes = budget_bytes
        #: Decoded records the budget holds: the mirror's ceiling, then the LRU's.
        self._resident_limit = budget_bytes // RECORD_BYTES
        self._sync_every = sync_every
        #: The resident layout; None once the store pages.
        self._mem: Optional[RecordDatabase] = RecordDatabase(capacity=capacity)
        #: The paged layout, made by _start_paging.
        self._index: Optional[_OffsetIndex] = None
        self._sorted: Optional[List[Tuple[bytes, int]]] = None  # capacity stores only
        self._cache: "OrderedDict[int, SaladRecord]" = OrderedDict()
        self._evictions = self._rejections = 0  # paged; the mirror counts its own
        self._buffer = bytearray()
        self._buffered_ops = 0
        self._file_end = len(WAL_MAGIC)  # logical offsets >= this are buffered
        self._log_ops = 0  # entries in the on-disk log plus the buffer
        self.torn_bytes_dropped = 0
        # Telemetry (harvested by repro.salad.telemetry).
        self.compactions = self.sync_writes = self.page_outs = 0
        self.page_hits = self.page_misses = self.tag_rejects = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._replay()
            # Replay re-runs the capacity policy; its eviction/rejection
            # outcomes belong to the previous session, not this one.
            self._evictions = self._rejections = 0
            if self._mem is not None:
                self._mem.evictions = self._mem.rejections = 0
        else:
            self.path.write_bytes(WAL_MAGIC)
        self.recovered_records = len(self)

    evictions = property(lambda s: s._evictions if s._mem is None else s._mem.evictions)
    rejections = property(lambda s: s._rejections if s._mem is None else s._mem.rejections)

    @property
    def resident_bytes(self) -> int:
        """Budget charged by the decoded records held: the mirror or the LRU."""
        mem = self._mem
        return RECORD_BYTES * (len(self._cache) if mem is None else len(mem))

    def __len__(self) -> int:
        mem = self._mem
        return len(self._index) if mem is None else len(mem)

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        mem = self._mem
        if mem is not None:
            return mem.locations(fingerprint)
        sort_key = fingerprint.to_bytes()
        return {r.location for r in self._matches(sort_key, _key64(sort_key))}

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        mem = self._mem
        if mem is not None:
            return mem.has_location(fingerprint, location)
        sort_key = fingerprint.to_bytes()
        return self._find(sort_key, _key64(sort_key), location) is not None

    def records(self) -> Iterator[SaladRecord]:
        mem = self._mem
        if mem is not None:
            return mem.records()
        live = [self._record_at(offset, cache=False) for _, offset, _ in self._index.items()]
        live.sort(key=lambda r: (r.sort_key(), r.location))
        return iter(live)

    def _record_at(self, offset: int, cache: bool = True) -> SaladRecord:
        """The record whose INSERT frame starts at logical *offset*."""
        record = self._cache.get(offset)
        if record is not None:
            self._cache.move_to_end(offset)
            self.page_hits += 1
            return record
        self.page_misses += 1
        if offset >= self._file_end:
            record = _decode_insert(self._buffer, offset - self._file_end)
        else:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                head = fh.read(_HEADER.size)
                record = _decode_insert(head + fh.read(_HEADER.unpack(head)[1]), 0)
        if cache:
            self._cache_put(offset, record)
        return record

    def _cache_put(self, offset: int, record: SaladRecord) -> None:
        cache = self._cache
        cache[offset] = record  # always a new offset: a miss, or a new frame
        if len(cache) > self._resident_limit:
            cache.popitem(last=False)

    def _matches(self, sort_key: bytes, key: int) -> List[SaladRecord]:
        """Live records with *sort_key*: every candidate under the 64-bit
        *key* is read back and verified, in slot order."""
        return [
            record
            for offset in self._index.lookup(key)
            if (record := self._record_at(offset)).sort_key() == sort_key
        ]

    def _find(self, sort_key: bytes, key: int, location: int) -> Optional[int]:
        """Offset of the live record ``(sort_key, location)``; None if absent.
        Only slots tagged with the location's low bits are read back."""
        for offset in self._index.lookup(key, location & _TAG_MASK):
            record = self._record_at(offset)
            if record.location == location and record.sort_key() == sort_key:
                return offset
            self.tag_rejects += 1
        return None

    def insert(
        self, record: SaladRecord, limit: Optional[int] = None
    ) -> Tuple[bool, List[SaladRecord]]:
        mem = self._mem
        if mem is None:
            return self._insert_paged(record, limit)
        stored, matches = mem.insert(record, limit)
        if stored:
            self._append(_insert_frame(record.sort_key(), record.location))
            if len(mem) > self._resident_limit:
                self._page_out()
            self._maybe_compact()
        return stored, matches

    def _insert_paged(
        self, record: SaladRecord, limit: Optional[int]
    ) -> Tuple[bool, List[SaladRecord]]:
        sort_key = record.sort_key()
        key = _key64(sort_key)
        location = record.location
        # Every candidate is read back either way (a 20-bit tag cannot order
        # full locations); only the sort is cut to the matches returned.
        same = self._matches(sort_key, key)
        matches = heapq.nsmallest(
            len(same) if limit is None else limit, same, key=_by_location
        )
        if any(match.location == location for match in same):
            return False, matches
        offset = self._file_end + len(self._buffer)
        if not self._admit(sort_key, key, location, offset):
            return False, matches
        self._append(_insert_frame(sort_key, location))
        self._cache_put(offset, record)
        self._maybe_compact()
        return True, matches

    def remove_location(self, location: int) -> int:
        mem = self._mem
        removed = (
            self._drop_location(location) if mem is None else mem.remove_location(location)
        )
        if removed:
            self._append(_remove_frame(location))
            self._maybe_compact()
        return removed

    def _admit(self, sort_key: bytes, key: int, location: int, offset: int) -> bool:
        """Index a new record framed at *offset*, under the capacity policy;
        False means rejected."""
        ordered = self._sorted  # a list exactly when there is a capacity
        if ordered is not None and len(self._index) >= self.capacity:
            lowest_sort_key, lowest_location = ordered[0]
            if sort_key <= lowest_sort_key:
                self._rejections += 1
                return False
            lowest_key = _key64(lowest_sort_key)
            evicted = self._find(lowest_sort_key, lowest_key, lowest_location)
            if evicted is None:
                raise AssertionError("eviction target vanished from the index")
            self._index.remove(lowest_key, evicted)
            self._cache.pop(evicted, None)
            del ordered[0]
            self._evictions += 1
        self._index.add(key, offset, location & _TAG_MASK)
        if ordered is not None:
            insort(ordered, (sort_key, location))
        return True

    def _drop_location(self, location: int) -> int:
        """Paged removal: an index scan that reads back only the slots tagged
        with the location's low bits (departures are rare)."""
        tag = location & _TAG_MASK
        victims = [
            (key, offset, record)
            for key, offset, slot_tag in self._index.items()
            if slot_tag == tag
            and (record := self._record_at(offset, cache=False)).location == location
        ]
        for key, offset, record in victims:
            self._index.remove(key, offset)
            self._cache.pop(offset, None)
            if self._sorted is not None:
                self._sorted.remove((record.sort_key(), location))
        return len(victims)

    def _append(self, frame: bytes) -> None:
        self._buffer += frame
        self._buffered_ops += 1
        self._log_ops += 1
        if self._buffered_ops >= self._sync_every:
            self._write_out()

    def _write_out(self) -> None:
        if self._buffer:
            with open(self.path, "ab") as fh:
                fh.write(self._buffer)
            self._file_end += len(self._buffer)
            self._buffer.clear()
            self.sync_writes += 1
        self._buffered_ops = 0

    def _start_paging(self) -> None:
        self._mem = None
        self._index = _OffsetIndex()
        self._sorted = [] if self.capacity is not None else None
        self.page_outs += 1

    def _page_out(self) -> None:
        """Leave the resident layout: index the log and its buffer in one pass."""
        counts = self.evictions, self.rejections
        self._start_paging()
        self._load(self.path.read_bytes() + self._buffer)
        # The pass re-runs the capacity policy over outcomes already counted.
        self._evictions, self._rejections = counts

    def _replay(self) -> None:
        data = self.path.read_bytes()
        if not data.startswith(WAL_MAGIC):
            # Foreign or garbage file: treat the whole thing as a torn tail.
            self.torn_bytes_dropped = len(data)
            self.path.write_bytes(WAL_MAGIC)
            return
        self._file_end = len(data)  # paged read-backs find every frame on disk
        self._file_end = valid_end = self._load(data)
        self.torn_bytes_dropped = len(data) - valid_end
        if self.torn_bytes_dropped:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)

    def _load(self, data: bytes) -> int:
        """Apply every valid frame of *data* to the live state; the valid end.
        A resident pass whose live records outgrow the budget starts over
        paged."""
        offset = valid_end = len(WAL_MAGIC)
        ops = 0
        while offset + _HEADER.size <= len(data):
            op, length = _HEADER.unpack_from(data, offset)
            body_end = offset + _HEADER.size + length
            if body_end + _CRC.size > len(data):
                break  # truncated payload/CRC
            (crc,) = _CRC.unpack_from(data, body_end)
            if crc != zlib.crc32(data[offset:body_end]):
                break  # corrupt entry: drop it and everything after
            if not self._apply(op, data[offset + _HEADER.size : body_end], offset):
                break  # unparseable payload: same treatment as a bad CRC
            offset = valid_end = body_end + _CRC.size
            ops += 1
            if self._mem is not None and len(self._mem) > self._resident_limit:
                self._start_paging()
                return self._load(data)
        self._log_ops = ops
        return valid_end

    def _apply(self, op: int, payload: bytes, offset: int) -> bool:
        """Replay the frame at *offset* through the live-state policy."""
        try:
            if op == _OP_INSERT:
                sort_key = payload[:FINGERPRINT_BYTES]
                (loc_len,) = struct.unpack_from(">H", payload, FINGERPRINT_BYTES)
                if len(payload) != FINGERPRINT_BYTES + 2 + loc_len:
                    return False
                location = int.from_bytes(payload[FINGERPRINT_BYTES + 2 :], "big")
                if self._mem is not None:
                    self._mem.insert(SaladRecord(Fingerprint.from_bytes(sort_key), location))
                else:
                    key = _key64(sort_key)
                    if self._find(sort_key, key, location) is None:  # odd logs repeat
                        self._admit(sort_key, key, location, offset)
            elif op == _OP_REMOVE_LOCATION:
                (loc_len,) = struct.unpack_from(">H", payload, 0)
                if len(payload) != 2 + loc_len:
                    return False
                location = int.from_bytes(payload[2:], "big")
                if self._mem is not None:
                    self._mem.remove_location(location)
                else:
                    self._drop_location(location)
            else:
                return False
        except (ValueError, struct.error, IndexError):
            return False
        return True

    @property
    def log_ops(self) -> int:
        """Entries currently in the log (disk plus buffer)."""
        return self._log_ops

    def _maybe_compact(self) -> None:
        ops = self._log_ops
        if ops > self._COMPACT_FLOOR and ops > self._COMPACT_RATIO * max(1, len(self)):
            self.compact()

    def compact(self) -> None:
        """Rewrite the log as a live snapshot (atomic); remap a paged index."""
        live = list(self.records())
        rebuilt = None if self._mem is not None else _OffsetIndex()
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "wb") as fh:
            fh.write(WAL_MAGIC)
            position = len(WAL_MAGIC)
            for record in live:
                sort_key = record.sort_key()
                frame = _insert_frame(sort_key, record.location)
                fh.write(frame)
                if rebuilt is not None:
                    rebuilt.add(_key64(sort_key), position, record.location & _TAG_MASK)
                position += len(frame)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        if rebuilt is not None:
            self._index = rebuilt
            self._cache.clear()  # offset-keyed: every key just moved
        self._buffer.clear()
        self._buffered_ops = 0
        self._file_end = position
        self._log_ops = len(live)
        self.compactions += 1

    def flush(self) -> None:
        self._write_out()

    def crash(self) -> None:
        # Abandon the buffered tail: those operations never reached the file.
        self._buffer.clear()
        self._buffered_ops = 0

    @property
    def pending_records(self) -> int:
        return min(self._buffered_ops, len(self))


#: The paged store's old class name, which the benchmark's tracer still
#: wraps; ROADMAP item 1 drops it together with the "wal-paged" alias.
PagedWalRecordStore = WalRecordStore


def check_backend(backend: str) -> str:
    """The backend *backend* names: one of :data:`BACKENDS`, or an alias of one."""
    name = _ALIASES.get(backend, backend)
    if name not in BACKENDS:
        raise ValueError(f"unknown db backend {backend!r}; choose from {BACKENDS}")
    return name


def make_record_store(
    backend: str = "memory",
    capacity: Optional[int] = None,
    db_dir: Optional[os.PathLike] = None,
    name: str = "records",
) -> RecordStore:
    """Create (or reopen) a record store of the requested backend.

    *name* identifies the store within *db_dir*, which the durable backend
    needs; reusing an existing name reopens that store and recovers its
    records, which is exactly what the crash-recovery harness does.
    """
    if check_backend(backend) == "memory":
        from repro.salad.database import RecordDatabase

        return RecordDatabase(capacity=capacity)
    if db_dir is None:
        raise ValueError(f"the {backend!r} backend needs a db_dir")
    directory = Path(db_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return WalRecordStore(directory / f"{name}.wal", capacity=capacity)
