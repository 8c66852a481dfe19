"""Pluggable record-store backends for the SALAD leaf databases.

The paper's full-scale deployment implies on the order of 10M
``(fingerprint, location)`` records spread across the leaf databases
(section 5); holding them all in RAM is what blocks a laptop-scale
full-corpus run.  This module extracts the :class:`RecordStore` contract
that :class:`repro.salad.database.RecordDatabase` (the in-memory store)
already implements and adds three durable backends:

- :class:`SqliteRecordStore` -- records live in a single-file sqlite3
  database whose ``WITHOUT ROWID`` primary key ``(sort_key, location)`` *is*
  the covering index over the fingerprint sort order, so the Fig. 13
  lowest-fingerprint eviction probe stays one O(log n) B-tree descent and
  lookups by fingerprint are a prefix range scan of the same tree;
- :class:`WalRecordStore` -- an append-only write-ahead log of state-changing
  operations with per-entry CRC32 framing.  Replay rebuilds the in-memory
  index; a truncated or corrupt tail (a torn write from a crash) is detected
  by the CRC and *dropped*, never fatal.  A stale-ratio-triggered compaction
  rewrites the log as a snapshot of the live records;
- :class:`PagedWalRecordStore` (``wal-paged``) -- the same log format, but the
  records themselves stay on disk: memory holds only a flat open-addressed
  key->offset index (16 bytes per slot: a 64-bit key, and a 44-bit log offset
  above a 20-bit location tag) plus a small LRU record cache, and record
  bodies are read back from the log on demand.  This is the backend
  that bounds a flagship-scale run's RSS: the plain WAL store keeps a full
  :class:`~repro.salad.database.RecordDatabase` in memory and therefore
  *tracks* the memory backend's footprint, it never beats it.

All backends are observably identical for in-memory behavior: the
shared contract suite (``tests/salad/test_record_stores.py``) runs them
through the same associative-insert / capacity-eviction / iteration
semantics and asserts bit-identical results.  The contract fixes two
orderings the original in-memory store left to Python set iteration:
duplicate matches are returned sorted by location, and :meth:`records`
iterates in ``(sort_key, location)`` order.

Backend selection threads through :class:`repro.salad.salad.SaladConfig`
(``db_backend`` / ``db_dir``) and the experiment CLIs (``--db-backend
memory|sqlite|wal|wal-paged``, ``--db-dir``); :func:`set_default_db_backend` sets the
process-wide default the same way ``repro.perf.set_default_workers`` does
for parallelism.

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
import os
import sqlite3
import struct
import tempfile
import time
import zlib
from array import array
from bisect import insort
from collections import OrderedDict
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.fingerprint import FINGERPRINT_BYTES, Fingerprint
from repro.obs.registry import Histogram
from repro.salad.records import SaladRecord

#: Known backend names, in documentation order.
BACKENDS = ("memory", "sqlite", "wal", "wal-paged")

#: Fixed-width big-endian location encoding for sqlite: lexicographic blob
#: order equals numeric order, so ``ORDER BY location`` is the numeric sort
#: the match-order contract requires.  32 bytes covers 160-bit machine ids.
_LOCATION_BYTES = 32

WAL_MAGIC = b"SALADWAL1\n"
_OP_INSERT = 0x01
_OP_REMOVE_LOCATION = 0x02
_HEADER = struct.Struct(">BI")  # op, payload length
_CRC = struct.Struct(">I")


class RecordStore(abc.ABC):
    """The associative record-database contract every backend implements.

    Semantics (shared by all backends, pinned by the contract suite):

    - ``insert`` returns ``(stored, matches)`` where *matches* are the
      records already present with the same fingerprint, sorted by
      location, computed before insertion and regardless of whether the new
      record is stored;
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

    @abc.abstractmethod
    def __contains__(self, fingerprint: Fingerprint) -> bool: ...

    @abc.abstractmethod
    def locations(self, fingerprint: Fingerprint) -> Set[int]: ...

    @abc.abstractmethod
    def has_location(self, fingerprint: Fingerprint, location: int) -> bool: ...

    @abc.abstractmethod
    def records(self) -> Iterator[SaladRecord]: ...

    @abc.abstractmethod
    def insert(self, record: SaladRecord) -> Tuple[bool, List[SaladRecord]]: ...

    @abc.abstractmethod
    def remove_location(self, location: int) -> int: ...

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        """Insert a batch in order; one ``(record, stored, matches)`` per record.

        The capacity policy is applied record by record, so a batch observes
        exactly the same eviction decisions as a sequence of singles.
        """
        return [(record, *self.insert(record)) for record in records]

    # -- durability ------------------------------------------------------------

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
    def pending_records(self) -> int:
        """Stored records that would be lost if the process crashed now."""
        return len(self)


def _encode_location(location: int) -> bytes:
    return location.to_bytes(_LOCATION_BYTES, "big")


def _decode_location(blob: bytes) -> int:
    return int.from_bytes(blob, "big")


class SqliteRecordStore(RecordStore):
    """Records in a single-file sqlite3 database (stdlib, no extra deps).

    Schema::

        CREATE TABLE records (
            sort_key BLOB NOT NULL,    -- fingerprint.to_bytes(): size || hash
            location BLOB NOT NULL,    -- 32-byte big-endian machine id
            PRIMARY KEY (sort_key, location)
        ) WITHOUT ROWID

    The primary key doubles as the covering index over the fingerprint sort
    order: the Fig. 13 eviction probe (``ORDER BY sort_key, location LIMIT
    1``) and fingerprint lookups (prefix range scans) both resolve inside
    one B-tree, so inserts stay O(log n) under heavy eviction churn.  A
    secondary index on ``location`` keeps machine departures
    (:meth:`remove_location`) from scanning the whole table.

    Writes batch into transactions committed every ``commit_every``
    operations (and on :meth:`flush` / :meth:`close`); a crash loses at most
    the uncommitted tail, which :attr:`pending_records` reports.
    """

    def __init__(
        self,
        path: os.PathLike,
        capacity: Optional[int] = None,
        commit_every: int = 256,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive if set: {capacity}")
        if commit_every < 1:
            raise ValueError(f"commit_every must be positive: {commit_every}")
        self.capacity = capacity
        self.path = Path(path)
        self.evictions = 0
        self.rejections = 0
        self._commit_every = commit_every
        self._uncommitted = 0
        self._pending = 0  # net stored-record delta not yet committed
        # Telemetry (harvested by repro.salad.telemetry): commits are rare
        # (every commit_every mutations), so timing them is off-hot-path.
        self.flushes = 0
        self.flush_seconds = Histogram()
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS records ("
            " sort_key BLOB NOT NULL,"
            " location BLOB NOT NULL,"
            " PRIMARY KEY (sort_key, location)"
            ") WITHOUT ROWID"
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS records_by_location ON records(location)"
        )
        self._conn.commit()
        self._count = self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def __len__(self) -> int:
        return self._count

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM records WHERE sort_key = ? LIMIT 1",
            (fingerprint.to_bytes(),),
        ).fetchone()
        return row is not None

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        rows = self._conn.execute(
            "SELECT location FROM records WHERE sort_key = ?",
            (fingerprint.to_bytes(),),
        )
        return {_decode_location(row[0]) for row in rows}

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM records WHERE sort_key = ? AND location = ?",
            (fingerprint.to_bytes(), _encode_location(location)),
        ).fetchone()
        return row is not None

    def records(self) -> Iterator[SaladRecord]:
        rows = self._conn.execute(
            "SELECT sort_key, location FROM records ORDER BY sort_key, location"
        )
        for sort_key, location in rows:
            yield SaladRecord(
                fingerprint=Fingerprint.from_bytes(sort_key),
                location=_decode_location(location),
            )

    def _matches(self, record: SaladRecord) -> List[SaladRecord]:
        rows = self._conn.execute(
            "SELECT location FROM records WHERE sort_key = ? ORDER BY location",
            (record.sort_key(),),
        )
        return [
            SaladRecord(fingerprint=record.fingerprint, location=_decode_location(row[0]))
            for row in rows
        ]

    def insert(self, record: SaladRecord) -> Tuple[bool, List[SaladRecord]]:
        matches = self._matches(record)
        if any(m.location == record.location for m in matches):
            return False, matches
        key = record.sort_key()
        if self.capacity is not None and self._count >= self.capacity:
            lowest = self._conn.execute(
                "SELECT sort_key, location FROM records"
                " ORDER BY sort_key, location LIMIT 1"
            ).fetchone()
            if lowest is None or key <= lowest[0]:
                self.rejections += 1
                return False, matches
            self._conn.execute(
                "DELETE FROM records WHERE sort_key = ? AND location = ?", lowest
            )
            self._count -= 1
            self.evictions += 1
            self._mutated()
        self._conn.execute(
            "INSERT INTO records (sort_key, location) VALUES (?, ?)",
            (key, _encode_location(record.location)),
        )
        self._count += 1
        self._pending += 1
        self._mutated()
        return True, matches

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        results = [(record, *self.insert(record)) for record in records]
        self.flush()  # batch boundary: commit the whole batch
        return results

    def remove_location(self, location: int) -> int:
        cursor = self._conn.execute(
            "DELETE FROM records WHERE location = ?", (_encode_location(location),)
        )
        removed = cursor.rowcount
        if removed:
            self._count -= removed
            self._mutated()
        return removed

    def _mutated(self) -> None:
        self._uncommitted += 1
        if self._uncommitted >= self._commit_every:
            self.flush()

    def flush(self) -> None:
        start = time.perf_counter()
        self._conn.commit()
        self.flush_seconds.observe(time.perf_counter() - start)
        self.flushes += 1
        self._uncommitted = 0
        self._pending = 0

    def close(self) -> None:
        self.flush()
        self._conn.close()

    def crash(self) -> None:
        # Roll back the open transaction: exactly what a process crash does
        # to uncommitted sqlite writes.
        self._conn.rollback()
        self._conn.close()

    @property
    def pending_records(self) -> int:
        return min(self._pending, self._count)


class WalRecordStore(RecordStore):
    """An append-log (write-ahead) store with crash recovery and compaction.

    Live state is an in-memory :class:`~repro.salad.database.RecordDatabase`
    (so every read and the capacity policy are exactly the memory backend);
    every *state-changing* operation is additionally framed and appended to
    the log.  Reopening an existing log replays it to rebuild the state;
    entries whose CRC fails or that are truncated mid-frame -- the torn tail
    of a crash -- are dropped and the file is trimmed to the last valid
    entry, never treated as fatal (:attr:`torn_bytes_dropped` reports how
    much was discarded, :attr:`recovered_records` how many live records the
    replay restored).

    Appends buffer in memory and reach the file every ``sync_every`` logged
    operations, at every batch boundary (:meth:`insert_many`), and on
    :meth:`flush` / :meth:`close`; a crash loses at most the buffered tail.

    Compaction: removals and evictions strand stale entries in the log.
    When the log holds more than ``compact_ratio`` entries per live record
    (checked after each logged operation, with a floor to leave small logs
    alone), the log is rewritten as a snapshot -- one INSERT per live record
    in ``(sort_key, location)`` order -- via an atomic temp-file replace.
    """

    _COMPACT_FLOOR = 1024

    def __init__(
        self,
        path: os.PathLike,
        capacity: Optional[int] = None,
        sync_every: int = 64,
        compact_ratio: float = 4.0,
    ):
        if sync_every < 1:
            raise ValueError(f"sync_every must be positive: {sync_every}")
        if compact_ratio < 1.0:
            raise ValueError(f"compact_ratio must be at least 1: {compact_ratio}")
        from repro.salad.database import RecordDatabase

        self.path = Path(path)
        self._mem = RecordDatabase(capacity=capacity)
        self._sync_every = sync_every
        self._compact_ratio = compact_ratio
        self._buffer = bytearray()
        self._buffered_ops = 0
        self._log_ops = 0  # entries in the on-disk log plus the buffer
        self.recovered_records = 0
        self.torn_bytes_dropped = 0
        # Telemetry (harvested by repro.salad.telemetry).
        self.compactions = 0
        self.sync_writes = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._replay()
            # Replay re-runs the capacity policy; its eviction/rejection
            # outcomes belong to the previous session, not this one.
            self._mem.evictions = 0
            self._mem.rejections = 0
        else:
            self.path.write_bytes(WAL_MAGIC)
        self._fh = open(self.path, "ab", buffering=0)  # unbuffered appends
        self.recovered_records = len(self._mem)

    # -- delegated reads (the memory store is the live state) -----------------

    capacity = property(lambda self: self._mem.capacity)
    evictions = property(lambda self: self._mem.evictions)
    rejections = property(lambda self: self._mem.rejections)

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint in self._mem

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        return self._mem.locations(fingerprint)

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        return self._mem.has_location(fingerprint, location)

    def records(self) -> Iterator[SaladRecord]:
        return self._mem.records()

    # -- log framing -----------------------------------------------------------

    @staticmethod
    def _frame(op: int, payload: bytes) -> bytes:
        head = _HEADER.pack(op, len(payload))
        return head + payload + _CRC.pack(zlib.crc32(head + payload))

    @staticmethod
    def _insert_payload(record: SaladRecord) -> bytes:
        loc = record.location.to_bytes(
            max(1, (record.location.bit_length() + 7) // 8), "big"
        )
        return record.sort_key() + struct.pack(">H", len(loc)) + loc

    @staticmethod
    def _remove_payload(location: int) -> bytes:
        loc = location.to_bytes(max(1, (location.bit_length() + 7) // 8), "big")
        return struct.pack(">H", len(loc)) + loc

    def _append(self, op: int, payload: bytes) -> None:
        self._buffer += self._frame(op, payload)
        self._buffered_ops += 1
        self._log_ops += 1
        if self._buffered_ops >= self._sync_every:
            self._write_out()
        self._maybe_compact()

    def _write_out(self) -> None:
        if self._buffer:
            self._fh.write(bytes(self._buffer))
            self._buffer.clear()
            self.sync_writes += 1
        self._buffered_ops = 0

    # -- mutations -------------------------------------------------------------

    def insert(self, record: SaladRecord) -> Tuple[bool, List[SaladRecord]]:
        stored, matches = self._mem.insert(record)
        if stored:
            # Evictions need no log entry of their own: replaying the stored
            # inserts through the same capacity policy re-derives them.
            self._append(_OP_INSERT, self._insert_payload(record))
        return stored, matches

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        results = [(record, *self.insert(record)) for record in records]
        self._write_out()  # batch boundary: make the whole batch durable
        return results

    def remove_location(self, location: int) -> int:
        removed = self._mem.remove_location(location)
        if removed:
            self._append(_OP_REMOVE_LOCATION, self._remove_payload(location))
        return removed

    # -- replay & recovery -----------------------------------------------------

    def _replay(self) -> None:
        data = self.path.read_bytes()
        if not data.startswith(WAL_MAGIC):
            # Foreign or garbage file: treat the whole thing as a torn tail.
            self.torn_bytes_dropped = len(data)
            self.path.write_bytes(WAL_MAGIC)
            return
        offset = len(WAL_MAGIC)
        valid_end = offset
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                break  # truncated header
            op, length = _HEADER.unpack_from(data, offset)
            frame_end = offset + _HEADER.size + length + _CRC.size
            if frame_end > len(data):
                break  # truncated payload/CRC
            payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
            (crc,) = _CRC.unpack_from(data, offset + _HEADER.size + length)
            if crc != zlib.crc32(data[offset : offset + _HEADER.size + length]):
                break  # corrupt entry: drop it and everything after
            if not self._apply(op, payload):
                break  # unparseable payload: same treatment as a bad CRC
            offset = frame_end
            valid_end = frame_end
            self._log_ops += 1
        self.torn_bytes_dropped = len(data) - valid_end
        if self.torn_bytes_dropped:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)

    def _apply(self, op: int, payload: bytes) -> bool:
        try:
            if op == _OP_INSERT:
                key = payload[:FINGERPRINT_BYTES]
                (loc_len,) = struct.unpack_from(">H", payload, FINGERPRINT_BYTES)
                loc_bytes = payload[FINGERPRINT_BYTES + 2 :]
                if len(key) != FINGERPRINT_BYTES or len(loc_bytes) != loc_len:
                    return False
                self._mem.insert(
                    SaladRecord(
                        fingerprint=Fingerprint.from_bytes(key),
                        location=int.from_bytes(loc_bytes, "big"),
                    )
                )
            elif op == _OP_REMOVE_LOCATION:
                (loc_len,) = struct.unpack_from(">H", payload, 0)
                loc_bytes = payload[2:]
                if len(loc_bytes) != loc_len:
                    return False
                self._mem.remove_location(int.from_bytes(loc_bytes, "big"))
            else:
                return False
        except (ValueError, struct.error):
            return False
        return True

    # -- compaction ------------------------------------------------------------

    @property
    def log_ops(self) -> int:
        """Entries currently in the log (disk plus buffer)."""
        return self._log_ops

    def _maybe_compact(self) -> None:
        if self._log_ops <= self._COMPACT_FLOOR:
            return
        if self._log_ops <= self._compact_ratio * max(1, len(self._mem)):
            return
        self.compact()

    def compact(self) -> None:
        """Rewrite the log as a snapshot of the live records (atomic)."""
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "wb") as fh:
            fh.write(WAL_MAGIC)
            count = 0
            for record in self._mem.records():
                fh.write(self._frame(_OP_INSERT, self._insert_payload(record)))
                count += 1
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab", buffering=0)
        self._buffer.clear()
        self._buffered_ops = 0
        self._log_ops = count
        self.compactions += 1

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        self._write_out()

    def close(self) -> None:
        self._write_out()
        self._fh.close()

    def crash(self) -> None:
        # Abandon the buffered tail: those operations never reached the file.
        self._buffer.clear()
        self._buffered_ops = 0
        self._fh.close()

    @property
    def pending_records(self) -> int:
        return min(self._buffered_ops, len(self._mem))


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

    The paged store's only per-record memory: one ``array('Q')`` holding
    interleaved ``[key, word]`` slot pairs (16 bytes each), linear probing,
    power-of-two sizing.  ``word`` is ``offset << 20 | tag``: the record's log
    offset above a 20-bit tag the caller derives from the record's location.
    Offsets are always ``>= len(WAL_MAGIC)``, so every real word exceeds
    2^20, freeing 0 (EMPTY) and 1 (TOMBSTONE) as sentinels.

    Keys are a 64-bit digest slice of the record's sort key, so distinct
    fingerprints may collide -- the store disambiguates by reading the
    records back, which is why this is a multimap (lookup returns every
    offset filed under the key, probing past tombstones until EMPTY).  The
    tag lets the store ask for one ``(key, location)`` instead: no slot with
    that key and tag means no such record, without reading anything.

    The home slot is a multiplicative mix of the key, never ``key & mask``:
    a SALAD leaf stores only records of its own cell, and the cell-ID *is*
    the low W bits of the content hash (Eq. 7) -- the key's low bits -- so
    on any one leaf they are all equal and would pile every key onto
    ``slots / 2^W`` home positions.
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

    def lookup(self, key: int) -> List[int]:
        """Every offset filed under *key* (hash collisions included)."""
        table, wrap = self._table, self._wrap
        j = ((key * _MIX & _M64) >> self._shift) << 1
        out: List[int] = []
        while True:
            value = table[j + 1]
            if value == _EMPTY:
                return out
            if table[j] == key and value != _TOMBSTONE:
                out.append(value >> _TAG_BITS)
            j = (j + 2) & wrap

    def lookup_tagged(self, key: int, tag: int) -> List[int]:
        """The offsets filed under *key* whose slot carries *tag*."""
        table, wrap = self._table, self._wrap
        j = ((key * _MIX & _M64) >> self._shift) << 1
        out: List[int] = []
        while True:
            value = table[j + 1]
            if value == _EMPTY:
                return out
            # A tombstone keeps its key and reads as tag 1: exclude it.
            if table[j] == key and value & _TAG_MASK == tag and value != _TOMBSTONE:
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
        # the same size, which drops the tombstones that tripped the load
        # check.
        old = self._table
        slots = len(old) // 2
        if 3 * (self._live + 1) >= 2 * slots:
            slots *= 2
        self._allocate(slots)
        for j in range(0, len(old), 2):
            value = old[j + 1]
            if value > _TOMBSTONE:
                self._place(old[j], value)


_INSERT_HEAD = struct.Struct(f">BI{FINGERPRINT_BYTES}sH")  # op, length, sort key, loc_len


def _insert_frame(sort_key: bytes, location: int) -> bytes:
    """A whole INSERT frame in one pack and one CRC.

    Byte-identical to ``WalRecordStore._frame(_OP_INSERT,
    WalRecordStore._insert_payload(record))``, which stays the reference.
    """
    loc = location.to_bytes(max(1, (location.bit_length() + 7) // 8), "big")
    body = _INSERT_HEAD.pack(
        _OP_INSERT, FINGERPRINT_BYTES + 2 + len(loc), sort_key, len(loc)
    ) + loc
    return body + _CRC.pack(zlib.crc32(body))


def _key64(sort_key: bytes) -> int:
    # The sort key ends in the fingerprint's hash digest, so its last 8 bytes
    # are uniform -- except, on any one leaf, the cell-ID in their low bits,
    # which the index's home-slot mix spreads.
    return int.from_bytes(sort_key[-8:], "big")


_by_location = attrgetter("location")


class PagedWalRecordStore(RecordStore):
    """The WAL with paging: records live in the log, not in memory.

    Same on-disk format as :class:`WalRecordStore` (the two classes open
    each other's files), but instead of mirroring the log into a full
    in-memory :class:`~repro.salad.database.RecordDatabase`, memory holds:

    - a :class:`_OffsetIndex` mapping a 64-bit slice of each record's sort
      key to the offset of its INSERT frame, tagged with the low 20 bits of
      the record's location (~24-48 bytes per record at the index's load
      factor, vs hundreds for dict-of-set mirrors);
    - a bounded LRU cache of decoded records keyed by offset
      (``cache_records`` entries; :attr:`page_hits` / :attr:`page_misses`
      count its effectiveness);
    - only when a ``capacity`` is set: a bisect-sorted list of live
      ``(sort_key, location)`` pairs serving the Fig. 13 lowest-record
      probe (bounded by the capacity itself, so it never grows with the
      log).

    "Is this ``(fingerprint, location)`` already here?" -- what a leaf asks
    for every arriving record, two times in three about a redelivery -- is
    answered from the index: every live record's slot carries its own key
    and tag, so no slot with both means *absent*, exactly, with nothing
    read; a slot with both is only a hint (2^-20 tags and 2^-64 keys
    collide), so that one record is read back and its full sort key and
    location confirmed.  :attr:`tag_rejects` counts hints the read-back
    refused.  Only the matches an ``insert`` must return read every record
    filed under the key.

    Cache misses read the frame back from the log: a short ``seek + read``
    against the backing file, or a parse out of the append buffer for
    offsets not yet written out.  No file descriptor is held between
    operations -- a flagship-scale run opens one store per leaf (10^5 of
    them), which would exhaust the fd table if each pinned one.

    Compaction rewrites the log as a live snapshot exactly like the plain
    WAL, then *remaps* every index entry to its new offset and drops the
    (offset-keyed) cache.  Recovery semantics are identical: CRC-framed
    replay, torn tails trimmed, capacity policy re-run.
    """

    _COMPACT_FLOOR = 1024

    def __init__(
        self,
        path: os.PathLike,
        capacity: Optional[int] = None,
        sync_every: int = 64,
        compact_ratio: float = 4.0,
        cache_records: int = 512,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive if set: {capacity}")
        if sync_every < 1:
            raise ValueError(f"sync_every must be positive: {sync_every}")
        if compact_ratio < 1.0:
            raise ValueError(f"compact_ratio must be at least 1: {compact_ratio}")
        if cache_records < 1:
            raise ValueError(f"cache_records must be positive: {cache_records}")
        self.path = Path(path)
        self.capacity = capacity
        self.evictions = 0
        self.rejections = 0
        self._sync_every = sync_every
        self._compact_ratio = compact_ratio
        self._cache_limit = cache_records
        self._index = _OffsetIndex()
        #: Live (sort_key, location) pairs, sorted; capacity stores only.
        self._sorted: Optional[List[Tuple[bytes, int]]] = (
            [] if capacity is not None else None
        )
        self._cache: "OrderedDict[int, SaladRecord]" = OrderedDict()
        self._buffer = bytearray()
        self._buffered_ops = 0
        self._file_end = len(WAL_MAGIC)  # logical offsets >= this are buffered
        self._log_ops = 0
        # Replay-time window into the whole file, so recovery reads need no
        # per-record file opens; None outside __init__.
        self._replay_data: Optional[bytes] = None
        self.recovered_records = 0
        self.torn_bytes_dropped = 0
        # Telemetry (harvested by repro.salad.telemetry).
        self.compactions = 0
        self.sync_writes = 0
        self.page_hits = 0
        self.page_misses = 0
        self.tag_rejects = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            self._replay()
            # Replay re-runs the capacity policy; its eviction/rejection
            # outcomes belong to the previous session, not this one.
            self.evictions = 0
            self.rejections = 0
        else:
            self.path.write_bytes(WAL_MAGIC)
        self.recovered_records = len(self._index)

    # -- reads -----------------------------------------------------------------

    def _record_at(self, offset: int, cache: bool = True) -> SaladRecord:
        """The record whose INSERT frame starts at logical *offset*."""
        if self._replay_data is not None:
            return self._parse_insert(self._replay_data, offset)
        record = self._cache.get(offset)
        if record is not None:
            self._cache.move_to_end(offset)
            self.page_hits += 1
            return record
        self.page_misses += 1
        if offset >= self._file_end:
            record = self._parse_insert(self._buffer, offset - self._file_end)
        else:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                op, length = _HEADER.unpack(fh.read(_HEADER.size))
                record = self._decode_insert(fh.read(length))
        if cache:
            self._cache_put(offset, record)
        return record

    @classmethod
    def _parse_insert(cls, buf, offset: int) -> SaladRecord:
        op, length = _HEADER.unpack_from(buf, offset)
        start = offset + _HEADER.size
        return cls._decode_insert(bytes(buf[start : start + length]))

    @staticmethod
    def _decode_insert(payload: bytes) -> SaladRecord:
        key = payload[:FINGERPRINT_BYTES]
        loc_bytes = payload[FINGERPRINT_BYTES + 2 :]
        return SaladRecord(
            fingerprint=Fingerprint.from_bytes(key),
            location=int.from_bytes(loc_bytes, "big"),
        )

    def _cache_put(self, offset: int, record: SaladRecord) -> None:
        cache = self._cache
        cache[offset] = record
        cache.move_to_end(offset)
        if len(cache) > self._cache_limit:
            cache.popitem(last=False)

    def _matches(self, sort_key: bytes, key: int) -> List[SaladRecord]:
        """Live records whose sort key equals *sort_key*, sorted by location.

        The index key is only a 64-bit slice, so every candidate offset is
        read back and verified against the full sort key.
        """
        out = [
            record
            for offset in self._index.lookup(key)
            if (record := self._record_at(offset)).sort_key() == sort_key
        ]
        if len(out) > 1:
            out.sort(key=_by_location)
        return out

    def _find(self, sort_key: bytes, key: int, location: int) -> Optional[int]:
        """Offset of the live record ``(sort_key, location)``; None if absent.

        No slot under *key* tagged with the location's low bits: absent,
        nothing read.  A tagged slot is read back and confirmed in full.
        """
        for offset in self._index.lookup_tagged(key, location & _TAG_MASK):
            record = self._record_at(offset)
            if record.location == location and record.sort_key() == sort_key:
                return offset
            self.tag_rejects += 1
        return None

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        sort_key = fingerprint.to_bytes()
        return bool(self._matches(sort_key, _key64(sort_key)))

    def locations(self, fingerprint: Fingerprint) -> Set[int]:
        sort_key = fingerprint.to_bytes()
        return {r.location for r in self._matches(sort_key, _key64(sort_key))}

    def has_location(self, fingerprint: Fingerprint, location: int) -> bool:
        sort_key = fingerprint.to_bytes()
        key = _key64(sort_key)
        return self._find(sort_key, key, location) is not None

    def records(self) -> Iterator[SaladRecord]:
        everything = [
            self._record_at(offset, cache=False)
            for _, offset, _ in self._index.items()
        ]
        everything.sort(key=lambda r: (r.sort_key(), r.location))
        return iter(everything)

    # -- mutations -------------------------------------------------------------

    def insert(self, record: SaladRecord) -> Tuple[bool, List[SaladRecord]]:
        sort_key = record.sort_key()
        key = _key64(sort_key)
        location = record.location
        matches = self._matches(sort_key, key)
        for match in matches:
            if match.location == location:
                return False, matches
        if not self._make_room(sort_key):
            return False, matches
        offset = self._file_end + len(self._buffer)
        self._append(_insert_frame(sort_key, location))
        self._index.add(key, offset, location & _TAG_MASK)
        if self._sorted is not None:
            insort(self._sorted, (sort_key, location))
        self._cache_put(offset, record)
        self._maybe_compact()
        return True, matches

    def insert_many(
        self, records: Iterable[SaladRecord]
    ) -> List[Tuple[SaladRecord, bool, List[SaladRecord]]]:
        results = [(record, *self.insert(record)) for record in records]
        self._write_out()  # batch boundary: make the whole batch durable
        return results

    def _make_room(self, sort_key: bytes) -> bool:
        """Apply the capacity policy for a new record; False means rejected.

        Evictions write no log entry: replaying the logged inserts through
        the same capacity policy re-derives them, exactly as in the plain
        WAL store.
        """
        if self.capacity is None or len(self._index) < self.capacity:
            return True
        lowest = self._sorted[0] if self._sorted else None
        if lowest is None or sort_key <= lowest[0]:
            self.rejections += 1
            return False
        lowest_key = _key64(lowest[0])
        offset = self._find(lowest[0], lowest_key, lowest[1])
        if offset is None:
            raise AssertionError("eviction target vanished from the index")
        self._index.remove(lowest_key, offset)
        self._cache.pop(offset, None)
        del self._sorted[0]
        self.evictions += 1
        return True

    def remove_location(self, location: int) -> int:
        """Drop every record pointing at *location* (a departed machine).

        A full index scan -- the paged store keeps no per-location index in
        memory -- that reads back only the slots tagged with the location's
        low bits.  Departures are rare (once per machine death) and per-leaf
        logs are small, so the scan is the right trade against carrying
        another always-on in-memory index.
        """
        removed = self._drop_location(location)
        if removed:
            self._append(self._frame(_OP_REMOVE_LOCATION, self._remove_payload(location)))
            self._maybe_compact()
        return removed

    def _drop_location(self, location: int) -> int:
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

    # -- log append (shared framing with WalRecordStore) -----------------------

    _frame = staticmethod(WalRecordStore._frame)
    _remove_payload = staticmethod(WalRecordStore._remove_payload)

    def _append(self, frame: bytes) -> None:
        self._buffer += frame
        self._buffered_ops += 1
        self._log_ops += 1
        if self._buffered_ops >= self._sync_every:
            self._write_out()

    def _write_out(self) -> None:
        if self._buffer:
            with open(self.path, "ab") as fh:
                fh.write(bytes(self._buffer))
            self._file_end += len(self._buffer)
            self._buffer.clear()
            self.sync_writes += 1
        self._buffered_ops = 0

    # -- replay & recovery -----------------------------------------------------

    def _replay(self) -> None:
        data = self.path.read_bytes()
        if not data.startswith(WAL_MAGIC):
            self.torn_bytes_dropped = len(data)
            self.path.write_bytes(WAL_MAGIC)
            return
        self._replay_data = data
        try:
            offset = len(WAL_MAGIC)
            valid_end = offset
            while offset < len(data):
                if offset + _HEADER.size > len(data):
                    break  # truncated header
                op, length = _HEADER.unpack_from(data, offset)
                frame_end = offset + _HEADER.size + length + _CRC.size
                if frame_end > len(data):
                    break  # truncated payload/CRC
                payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
                (crc,) = _CRC.unpack_from(data, offset + _HEADER.size + length)
                if crc != zlib.crc32(data[offset : offset + _HEADER.size + length]):
                    break  # corrupt entry: drop it and everything after
                if not self._apply(op, payload, offset):
                    break  # unparseable payload: same treatment as a bad CRC
                offset = frame_end
                valid_end = frame_end
                self._log_ops += 1
        finally:
            self._replay_data = None
        self.torn_bytes_dropped = len(data) - valid_end
        if self.torn_bytes_dropped:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
        self._file_end = valid_end

    def _apply(self, op: int, payload: bytes, offset: int) -> bool:
        """Replay one frame at *offset* through the live-state policy."""
        try:
            if op == _OP_INSERT:
                sort_key = payload[:FINGERPRINT_BYTES]
                (loc_len,) = struct.unpack_from(">H", payload, FINGERPRINT_BYTES)
                loc_bytes = payload[FINGERPRINT_BYTES + 2 :]
                if len(sort_key) != FINGERPRINT_BYTES or len(loc_bytes) != loc_len:
                    return False
                location = int.from_bytes(loc_bytes, "big")
                key = _key64(sort_key)
                if self._find(sort_key, key, location) is not None:
                    return True  # idempotent replay of an odd log
                if self._make_room(sort_key):
                    self._index.add(key, offset, location & _TAG_MASK)
                    if self._sorted is not None:
                        insort(self._sorted, (sort_key, location))
            elif op == _OP_REMOVE_LOCATION:
                (loc_len,) = struct.unpack_from(">H", payload, 0)
                loc_bytes = payload[2:]
                if len(loc_bytes) != loc_len:
                    return False
                self._drop_location(int.from_bytes(loc_bytes, "big"))
            else:
                return False
        except (ValueError, struct.error, IndexError):
            return False
        return True

    # -- compaction ------------------------------------------------------------

    @property
    def log_ops(self) -> int:
        """Entries currently in the log (disk plus buffer)."""
        return self._log_ops

    def _maybe_compact(self) -> None:
        if self._log_ops <= self._COMPACT_FLOOR:
            return
        if self._log_ops <= self._compact_ratio * max(1, len(self._index)):
            return
        self.compact()

    def compact(self) -> None:
        """Rewrite the log as a live snapshot and remap every index offset."""
        live = [
            self._record_at(offset, cache=False)
            for _, offset, _ in self._index.items()
        ]
        live.sort(key=lambda r: (r.sort_key(), r.location))
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        rebuilt = _OffsetIndex()
        with open(tmp, "wb") as fh:
            fh.write(WAL_MAGIC)
            position = len(WAL_MAGIC)
            for record in live:
                sort_key = record.sort_key()
                frame = _insert_frame(sort_key, record.location)
                fh.write(frame)
                rebuilt.add(_key64(sort_key), position, record.location & _TAG_MASK)
                position += len(frame)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._index = rebuilt
        self._cache.clear()  # offset-keyed: every key just moved
        self._buffer.clear()
        self._buffered_ops = 0
        self._file_end = position
        self._log_ops = len(live)
        self.compactions += 1

    # -- durability ------------------------------------------------------------

    def flush(self) -> None:
        self._write_out()

    def close(self) -> None:
        self._write_out()

    def crash(self) -> None:
        # Abandon the buffered tail: those operations never reached the file.
        self._buffer.clear()
        self._buffered_ops = 0

    @property
    def pending_records(self) -> int:
        return min(self._buffered_ops, len(self._index))


# ----------------------------------------------------------------------------
# factory & session defaults
# ----------------------------------------------------------------------------

_default_backend: str = "memory"
_default_db_dir: Optional[Path] = None
_process_tmp_dir: Optional[Path] = None


def set_default_db_backend(backend: str, db_dir: Optional[os.PathLike] = None) -> None:
    """Set the process-wide backend default (the CLI ``--db-backend`` hook).

    Mirrors :func:`repro.perf.set_default_workers`: configs whose
    ``db_backend`` is ``None`` resolve to this value, so one CLI flag steers
    every Salad an experiment builds (including those built inside worker
    processes, which re-apply the flag on startup).
    """
    global _default_backend, _default_db_dir
    if backend not in BACKENDS:
        raise ValueError(f"unknown db backend {backend!r}; choose from {BACKENDS}")
    _default_backend = backend
    _default_db_dir = Path(db_dir) if db_dir is not None else None


def resolve_db_backend(backend: Optional[str]) -> str:
    """``None`` means the session default; anything else must be known."""
    if backend is None:
        return _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown db backend {backend!r}; choose from {BACKENDS}")
    return backend


def resolve_db_dir(db_dir: Optional[os.PathLike]) -> Path:
    """The directory durable stores live in; a per-process tempdir by default."""
    global _process_tmp_dir
    if db_dir is not None:
        path = Path(db_dir)
    elif _default_db_dir is not None:
        path = _default_db_dir
    else:
        if _process_tmp_dir is None:
            _process_tmp_dir = Path(tempfile.mkdtemp(prefix="salad-db-"))
        path = _process_tmp_dir
    path.mkdir(parents=True, exist_ok=True)
    return path


def make_record_store(
    backend: Optional[str] = None,
    capacity: Optional[int] = None,
    db_dir: Optional[os.PathLike] = None,
    name: str = "records",
) -> RecordStore:
    """Create (or reopen) a record store of the requested backend.

    *name* identifies the store within *db_dir*; reusing an existing name
    with a durable backend reopens that store and recovers its records,
    which is exactly what the crash-recovery harness does.
    """
    backend = resolve_db_backend(backend)
    if backend == "memory":
        from repro.salad.database import RecordDatabase

        return RecordDatabase(capacity=capacity)
    directory = resolve_db_dir(db_dir)
    if backend == "sqlite":
        return SqliteRecordStore(directory / f"{name}.sqlite", capacity=capacity)
    if backend == "wal-paged":
        # Same file format and extension as "wal": a log written by either
        # class reopens under the other.
        return PagedWalRecordStore(directory / f"{name}.wal", capacity=capacity)
    return WalRecordStore(directory / f"{name}.wal", capacity=capacity)
