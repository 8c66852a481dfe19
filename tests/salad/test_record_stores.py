"""Shared contract suite for the record-store backends.

Every backend -- the in-memory :class:`RecordDatabase`, the sqlite store,
and the append-log (WAL) store -- must be observably identical for
in-memory behavior: same associative-insert semantics, same duplicate-match
return order, same capacity-eviction policy, same iteration order.  The
durable backends additionally pin reopen-after-close, crash (unflushed tail
lost, flushed records kept), and WAL torn-tail recovery.
"""

import random
import struct
import zlib

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.obs.registry import MetricsRegistry
from repro.salad.database import RecordDatabase
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.salad.storage import (
    _OP_INSERT,
    _TAG_BITS,
    BACKENDS,
    WAL_MAGIC,
    PagedWalRecordStore,
    SqliteRecordStore,
    WalRecordStore,
    _insert_frame,
    make_record_store,
)

DURABLE = tuple(b for b in BACKENDS if b != "memory")


def rec(size: int, content: int = 0, location: int = 1) -> SaladRecord:
    return SaladRecord(
        fingerprint=synthetic_fingerprint(size, content), location=location
    )


def make(backend, tmp_path, capacity=None, name="store"):
    return make_record_store(backend, capacity=capacity, db_dir=tmp_path, name=name)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestContract:
    def test_insert_lookup_roundtrip(self, backend, tmp_path):
        store = make(backend, tmp_path)
        r = rec(100, content=5, location=42)
        stored, matches = store.insert(r)
        assert stored and matches == []
        assert len(store) == 1
        assert r.fingerprint in store
        assert store.locations(r.fingerprint) == {42}
        assert store.has_location(r.fingerprint, 42)
        assert not store.has_location(r.fingerprint, 43)
        store.close()

    def test_duplicate_insert_is_a_noop(self, backend, tmp_path):
        store = make(backend, tmp_path)
        r = rec(100, location=42)
        store.insert(r)
        stored, matches = store.insert(r)
        assert not stored
        assert matches == [r]
        assert len(store) == 1
        store.close()

    def test_matches_are_pre_insert_and_sorted_by_location(self, backend, tmp_path):
        store = make(backend, tmp_path)
        for location in (9, 3, 7):
            store.insert(rec(100, location=location))
        stored, matches = store.insert(rec(100, location=5))
        assert stored
        assert [m.location for m in matches] == [3, 7, 9]  # 5 not among them
        assert all(m.fingerprint == rec(100).fingerprint for m in matches)
        store.close()

    def test_records_iterate_in_sort_key_then_location_order(self, backend, tmp_path):
        store = make(backend, tmp_path)
        inserted = [rec(300, location=2), rec(100, location=9), rec(100, location=4)]
        for r in inserted:
            store.insert(r)
        out = list(store.records())
        assert out == sorted(inserted, key=lambda r: (r.sort_key(), r.location))
        store.close()

    def test_capacity_evicts_lowest_fingerprint(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=3)
        for size in (10, 20, 30):
            store.insert(rec(size))
        stored, _ = store.insert(rec(40))
        assert stored
        assert len(store) == 3
        assert store.evictions == 1
        assert [r.fingerprint.size for r in store.records()] == [20, 30, 40]
        store.close()

    def test_capacity_rejects_record_below_all_stored(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=3)
        for size in (10, 20, 30):
            store.insert(rec(size))
        stored, _ = store.insert(rec(5))
        assert not stored
        assert store.rejections == 1
        assert [r.fingerprint.size for r in store.records()] == [10, 20, 30]
        store.close()

    def test_eviction_ties_break_by_location(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=2)
        store.insert(rec(10, location=8))
        store.insert(rec(10, location=3))
        store.insert(rec(20, location=1))
        assert [(r.fingerprint.size, r.location) for r in store.records()] == [
            (10, 8),
            (20, 1),
        ]
        store.close()

    def test_remove_location_drops_all_of_a_machine(self, backend, tmp_path):
        store = make(backend, tmp_path)
        store.insert(rec(10, location=1))
        store.insert(rec(20, location=1))
        store.insert(rec(20, location=2))
        assert store.remove_location(1) == 2
        assert store.remove_location(1) == 0
        assert [(r.fingerprint.size, r.location) for r in store.records()] == [(20, 2)]
        store.close()

    def test_insert_many_matches_singles(self, backend, tmp_path):
        records = [rec(10 + i % 4, content=i % 3, location=i % 5) for i in range(40)]
        singles = make(backend, tmp_path, capacity=6, name="singles")
        batched = make(backend, tmp_path, capacity=6, name="batched")
        one_by_one = [(r, *singles.insert(r)) for r in records]
        assert batched.insert_many(records) == one_by_one
        assert list(singles.records()) == list(batched.records())
        singles.close()
        batched.close()


#: Two locations that agree in every bit the paged store's index keeps of a
#: location, and a third that does too but is never stored.
TWIN_A = 5
TWIN_B = 5 + (1 << _TAG_BITS)
TWIN_ABSENT = 5 + (2 << _TAG_BITS)


class TestSameTagLocations:
    """Presence answers stay exact when locations collide in their low bits.

    ``wal-paged`` answers "absent" from a 20-bit location tag; a tag that
    matches is only a hint.  Every backend must give the same verdicts, at
    every point of a store's life.
    """

    def _fill(self, store):
        for location in (TWIN_B, TWIN_A):
            assert store.insert(rec(100, location=location))[0]
        assert store.insert(rec(200, location=TWIN_A))[0]  # another fingerprint

    def _check(self, store, stored=(TWIN_A, TWIN_B)):
        fingerprint = rec(100).fingerprint
        for location in (TWIN_A, TWIN_B, TWIN_ABSENT):
            assert store.has_location(fingerprint, location) == (location in stored)
        assert store.locations(fingerprint) == set(stored)
        again, matches = store.insert(rec(100, location=stored[0]))
        assert not again
        assert [m.location for m in matches] == sorted(stored)

    def test_verdicts_are_exact(self, backend, tmp_path):
        store = make(backend, tmp_path)
        self._fill(store)
        self._check(store)
        stored, matches = store.insert(rec(100, location=TWIN_ABSENT))
        assert stored and [m.location for m in matches] == [TWIN_A, TWIN_B]
        self._check(store, stored=(TWIN_A, TWIN_B, TWIN_ABSENT))
        store.close()

    def test_still_exact_after_remove_location(self, backend, tmp_path):
        store = make(backend, tmp_path)
        self._fill(store)
        assert store.remove_location(TWIN_A) == 2
        self._check(store, stored=(TWIN_B,))
        store.close()

    @pytest.mark.parametrize("backend", ("wal", "wal-paged"))
    def test_still_exact_after_compaction(self, backend, tmp_path):
        store = make(backend, tmp_path)
        self._fill(store)
        store.compact()
        self._check(store)
        store.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_still_exact_after_crash_and_reopen(self, backend, tmp_path):
        store = make(backend, tmp_path)
        self._fill(store)
        store.flush()
        store.insert(rec(100, location=TWIN_ABSENT))  # never reaches the file
        store.crash()
        reopened = make(backend, tmp_path)
        self._check(reopened)
        reopened.close()

    @pytest.mark.parametrize(
        "writer, reader", [("wal", "wal-paged"), ("wal-paged", "wal")]
    )
    def test_still_exact_across_a_cross_class_reopen(self, writer, reader, tmp_path):
        store = make(writer, tmp_path)
        self._fill(store)
        store.close()
        reopened = make(reader, tmp_path)
        self._check(reopened)
        reopened.close()


class TestBackendEquivalence:
    def test_random_op_stream_is_bit_identical(self, tmp_path):
        rng = random.Random(7)
        ops = []
        for _ in range(400):
            if rng.random() < 0.85:
                ops.append(
                    ("insert", rec(rng.randrange(1, 30), rng.randrange(3), rng.randrange(6)))
                )
            else:
                ops.append(("remove", rng.randrange(6)))
        outcomes = {}
        for backend in BACKENDS:
            store = make(backend, tmp_path, capacity=10, name=backend)
            trace = []
            for op, arg in ops:
                if op == "insert":
                    trace.append(store.insert(arg))
                else:
                    trace.append(store.remove_location(arg))
            outcomes[backend] = (
                trace,
                list(store.records()),
                store.evictions,
                store.rejections,
            )
            store.close()
        assert (
            outcomes["memory"]
            == outcomes["sqlite"]
            == outcomes["wal"]
            == outcomes["wal-paged"]
        )


class TestDurability:
    @pytest.mark.parametrize("backend", DURABLE)
    def test_reopen_after_close_recovers_everything(self, backend, tmp_path):
        store = make(backend, tmp_path, capacity=8)
        records = [rec(10 + i, location=i) for i in range(12)]  # 4 evictions
        for r in records:
            store.insert(r)
        expected = list(store.records())
        store.close()
        reopened = make(backend, tmp_path, capacity=8)
        assert list(reopened.records()) == expected
        # Eviction/rejection counters are session statistics, not state.
        assert reopened.evictions == 0 and reopened.rejections == 0
        reopened.close()

    @pytest.mark.parametrize("backend", DURABLE)
    def test_crash_loses_only_the_unflushed_tail(self, backend, tmp_path):
        store = make(backend, tmp_path)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        store.flush()
        for i in range(5):
            store.insert(rec(100 + i, location=1))
        assert store.pending_records == 5
        store.crash()
        reopened = make(backend, tmp_path)
        assert [r.fingerprint.size for r in reopened.records()] == list(range(10, 20))
        reopened.close()

    def test_memory_crash_loses_everything(self, tmp_path):
        store = make("memory", tmp_path)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        assert store.pending_records == 10  # nothing is ever durable
        store.crash()
        assert len(make("memory", tmp_path)) == 0


class TestWalRecovery:
    def _populate(self, tmp_path, n=10):
        store = WalRecordStore(tmp_path / "t.wal")
        for i in range(n):
            store.insert(rec(10 + i, location=1))
        store.close()
        return tmp_path / "t.wal"

    def test_torn_final_record_is_dropped_not_fatal(self, tmp_path):
        path = self._populate(tmp_path)
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            # A truncated frame: valid header promising more payload than
            # exists -- what a crash mid-append leaves behind.
            fh.write(struct.pack(">BI", 0x01, 500) + b"\x00" * 12)
        store = WalRecordStore(path)
        assert len(store) == 10
        assert store.recovered_records == 10
        assert store.torn_bytes_dropped == 17
        assert path.stat().st_size == intact  # tail trimmed off the file
        store.close()

    def test_corrupt_crc_drops_entry_and_everything_after(self, tmp_path):
        path = self._populate(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a CRC byte of the final entry
        path.write_bytes(data)
        store = WalRecordStore(path)
        assert len(store) == 9
        assert store.torn_bytes_dropped > 0
        store.close()

    def test_garbage_file_is_reset_not_fatal(self, tmp_path):
        path = tmp_path / "t.wal"
        path.write_bytes(b"not a wal at all")
        store = WalRecordStore(path)
        assert len(store) == 0
        assert store.torn_bytes_dropped == 16
        store.insert(rec(10, location=1))
        store.close()
        assert path.read_bytes().startswith(WAL_MAGIC)

    def test_replay_reruns_the_capacity_policy(self, tmp_path):
        path = tmp_path / "t.wal"
        store = WalRecordStore(path, capacity=4)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        expected = list(store.records())
        store.close()
        reopened = WalRecordStore(path, capacity=4)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_compaction_rewrites_log_as_live_snapshot(self, tmp_path):
        path = tmp_path / "t.wal"
        store = WalRecordStore(path)
        store._COMPACT_FLOOR = 16  # shrink the floor so a small test triggers it
        for round_ in range(20):
            for i in range(8):
                store.insert(rec(10 + i, content=round_, location=1))
            store.remove_location(1)
        assert store.log_ops <= store._compact_ratio * max(1, len(store)) + 8
        expected = list(store.records())
        store.close()
        reopened = WalRecordStore(path)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_crash_discards_buffered_appends(self, tmp_path):
        path = tmp_path / "t.wal"
        store = WalRecordStore(path, sync_every=1000)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        assert store.pending_records == 10
        store.crash()
        reopened = WalRecordStore(path)
        assert len(reopened) == 0
        reopened.close()


class TestPagedWalRecovery:
    """The paged store shares the WAL's recovery guarantees and adds paging.

    Same torn-tail / corrupt-CRC / garbage-file matrix as TestWalRecovery
    (same log format), plus the paged-specific contracts: cache misses read
    the record back from the log byte-identically, the LRU stays bounded,
    and compaction remaps every index entry to its post-rewrite offset.
    """

    def _populate(self, tmp_path, n=10, **kwargs):
        store = PagedWalRecordStore(tmp_path / "t.wal", **kwargs)
        for i in range(n):
            store.insert(rec(10 + i, location=1))
        store.close()
        return tmp_path / "t.wal"

    def test_torn_final_record_is_dropped_not_fatal(self, tmp_path):
        path = self._populate(tmp_path)
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(struct.pack(">BI", 0x01, 500) + b"\x00" * 12)
        store = PagedWalRecordStore(path)
        assert len(store) == 10
        assert store.recovered_records == 10
        assert store.torn_bytes_dropped == 17
        assert path.stat().st_size == intact  # tail trimmed off the file
        # The trimmed file must still page records back correctly.
        assert [r.fingerprint.size for r in store.records()] == list(range(10, 20))
        store.close()

    def test_corrupt_crc_drops_entry_and_everything_after(self, tmp_path):
        path = self._populate(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a CRC byte of the final entry
        path.write_bytes(data)
        store = PagedWalRecordStore(path)
        assert len(store) == 9
        assert store.torn_bytes_dropped > 0
        store.close()

    def test_garbage_file_is_reset_not_fatal(self, tmp_path):
        path = tmp_path / "t.wal"
        path.write_bytes(b"not a wal at all")
        store = PagedWalRecordStore(path)
        assert len(store) == 0
        assert store.torn_bytes_dropped == 16
        store.insert(rec(10, location=1))
        store.close()
        assert path.read_bytes().startswith(WAL_MAGIC)

    def test_replay_reruns_the_capacity_policy(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, capacity=4)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        expected = list(store.records())
        store.close()
        reopened = PagedWalRecordStore(path, capacity=4)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_wal_and_paged_open_each_others_files(self, tmp_path):
        # Same format, same extension: a log written by one class must
        # recover identically under the other.
        store = WalRecordStore(tmp_path / "t.wal", capacity=6)
        for i in range(9):
            store.insert(rec(10 + i, location=i))
        expected = list(store.records())
        store.close()
        paged = PagedWalRecordStore(tmp_path / "t.wal", capacity=6)
        assert list(paged.records()) == expected
        paged.insert(rec(99, location=99))
        expected = list(paged.records())
        paged.close()
        plain = WalRecordStore(tmp_path / "t.wal", capacity=6)
        assert list(plain.records()) == expected
        plain.close()

    def test_cache_miss_reads_record_back_from_log(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "t.wal", cache_records=2)
        inserted = [rec(10 + i, content=i, location=i) for i in range(8)]
        for r in inserted:
            store.insert(r)
        store.flush()
        before = store.page_misses
        # Only 2 of 8 records can be cached; looking every record up again
        # must page the rest in from the file, byte-identically.
        for r in inserted:
            assert store.locations(r.fingerprint) == {r.location}
        assert store.page_misses > before
        assert list(store.records()) == sorted(
            inserted, key=lambda r: (r.sort_key(), r.location)
        )
        store.close()

    def test_cache_stays_bounded(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "t.wal", cache_records=4)
        for i in range(100):
            store.insert(rec(10 + i, location=i))
        assert len(store._cache) <= 4
        assert len(store) == 100
        store.close()

    def test_unflushed_records_are_served_from_the_buffer(self, tmp_path):
        store = PagedWalRecordStore(
            tmp_path / "t.wal", sync_every=1000, cache_records=1
        )
        inserted = [rec(10 + i, location=i) for i in range(6)]
        for r in inserted:
            store.insert(r)
        # Nothing written out yet; a cache miss must parse the append buffer.
        assert store.sync_writes == 0
        for r in inserted:
            assert store.has_location(r.fingerprint, r.location)
        store.close()

    def test_compaction_remaps_offsets_and_preserves_reads(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, cache_records=2)
        store._COMPACT_FLOOR = 16  # shrink the floor so a small test triggers it
        for round_ in range(20):
            for i in range(8):
                store.insert(rec(10 + i, content=round_, location=1))
            store.remove_location(1)
        assert store.compactions > 0
        assert store.log_ops <= store._compact_ratio * max(1, len(store)) + 8
        expected = list(store.records())
        # Every index entry must point at a valid post-compaction offset:
        # page everything back in through the remapped index.
        for r in expected:
            assert store.has_location(r.fingerprint, r.location)
        store.close()
        reopened = PagedWalRecordStore(path)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_crash_discards_buffered_appends(self, tmp_path):
        path = tmp_path / "t.wal"
        store = PagedWalRecordStore(path, sync_every=1000)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        assert store.pending_records == 10
        store.crash()
        reopened = PagedWalRecordStore(path)
        assert len(reopened) == 0
        reopened.close()

    def test_tag_hit_is_confirmed_by_read_back_and_counted(self, tmp_path):
        store = PagedWalRecordStore(tmp_path / "t.wal")
        for location in (TWIN_A, TWIN_B):
            store.insert(rec(100, location=location))
        fingerprint = rec(100).fingerprint
        assert store.has_location(fingerprint, TWIN_A)
        assert store.has_location(fingerprint, TWIN_B)
        reads = store.page_hits + store.page_misses
        rejects = store.tag_rejects  # a twin met on the way to its twin counts
        # A different tag: answered from the index, nothing read back.
        assert not store.has_location(fingerprint, TWIN_A + 1)
        assert not store.has_location(rec(101).fingerprint, TWIN_A)
        assert store.page_hits + store.page_misses == reads
        assert store.tag_rejects == rejects
        # The same tag, another location: both hints read back and refused.
        assert not store.has_location(fingerprint, TWIN_ABSENT)
        assert store.page_hits + store.page_misses == reads + 2
        assert store.tag_rejects == rejects + 2
        store.close()

    @pytest.mark.parametrize("location", [0, 1, 255, 256, TWIN_B, (1 << 160) - 1])
    def test_fused_insert_frame_is_byte_identical(self, location, tmp_path):
        record = rec(123, content=4, location=location)
        reference = WalRecordStore._frame(
            _OP_INSERT, WalRecordStore._insert_payload(record)
        )
        assert _insert_frame(record.sort_key(), location) == reference
        store = PagedWalRecordStore(tmp_path / "t.wal")
        store.insert(record)
        store.close()
        assert (tmp_path / "t.wal").read_bytes() == WAL_MAGIC + reference

    def test_index_survives_heavy_churn(self, tmp_path):
        # Exercises tombstone reuse and same-size index rebuilds: many
        # insert/remove rounds over a small live set.
        store = PagedWalRecordStore(tmp_path / "t.wal")
        store._COMPACT_FLOOR = 10**9  # keep compaction out of this test
        rng = random.Random(3)
        live = {}
        for step in range(600):
            if live and rng.random() < 0.45:
                location = rng.choice(sorted({r.location for r in live.values()}))
                removed = store.remove_location(location)
                expected_removed = [k for k, r in live.items() if r.location == location]
                assert removed == len(expected_removed)
                for k in expected_removed:
                    del live[k]
            else:
                r = rec(10 + step % 40, content=step % 7, location=step % 9)
                stored, _ = store.insert(r)
                key = (r.sort_key(), r.location)
                assert stored == (key not in live)
                live[key] = r
        assert list(store.records()) == [live[k] for k in sorted(live)]
        store.close()


class TestSqliteIndexing:
    def test_eviction_probe_uses_the_primary_key(self, tmp_path):
        store = SqliteRecordStore(tmp_path / "t.sqlite", capacity=4)
        (plan,) = {
            row[3]
            for row in store._conn.execute(
                "EXPLAIN QUERY PLAN SELECT sort_key, location FROM records"
                " ORDER BY sort_key, location LIMIT 1"
            )
        }
        # WITHOUT ROWID: the PK *is* the table's B-tree, so the probe must
        # scan it directly -- no sort step, no temp B-tree.
        assert "USING INDEX" not in plan.upper() or "PRIMARY KEY" in plan.upper()
        assert "USE TEMP B-TREE" not in plan.upper()
        store.close()

    def test_remove_location_uses_the_location_index(self, tmp_path):
        store = SqliteRecordStore(tmp_path / "t.sqlite")
        plans = [
            row[3]
            for row in store._conn.execute(
                "EXPLAIN QUERY PLAN DELETE FROM records WHERE location = x'00'"
            )
        ]
        assert any("records_by_location" in p for p in plans)
        store.close()


class TestLeafCallSequence:
    """The benchmark's tracer wraps ``has_location`` and ``insert`` on these
    two classes and counts a wrapped method that is never called as a failed
    check.  ``SaladLeaf._store_record`` must keep calling both.
    """

    @pytest.mark.parametrize(
        "backend, owner",
        [("memory", RecordDatabase), ("wal-paged", PagedWalRecordStore)],
    )
    def test_an_insert_wave_probes_then_inserts(
        self, backend, owner, tmp_path, monkeypatch
    ):
        calls = {"has_location": 0, "insert": 0}

        def counted(name):
            original = getattr(owner, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(owner, name, counted(name))
        salad = Salad(
            SaladConfig(
                dimensions=2,
                target_redundancy=2.0,
                seed=1,
                db_backend=backend,
                db_dir=str(tmp_path),
            )
        )
        salad.build(16)
        wave = {
            identifier: [rec(100 + n, content=n % 3, location=identifier)]
            for n, identifier in enumerate(salad.alive_identifiers())
        }
        assert salad.insert_records(wave) == 16
        salad.shutdown()
        assert calls["insert"] >= 16
        assert calls["has_location"] >= calls["insert"]

    def test_tag_rejects_are_harvested(self, tmp_path):
        salad = Salad(
            SaladConfig(seed=1, db_backend="wal-paged", db_dir=str(tmp_path))
        )
        salad.build(4)
        wave = {
            identifier: [rec(100, location=identifier)]
            for identifier in salad.alive_identifiers()
        }
        salad.insert_records(wave)
        rejects = 0
        for leaf in salad.leaves.values():
            for record in leaf.database.records():
                twin = record.location + (1 << _TAG_BITS)
                assert not leaf.database.has_location(record.fingerprint, twin)
                rejects += 1
        registry = MetricsRegistry()
        salad.collect_metrics(registry)
        salad.shutdown()
        assert rejects > 0
        totals = registry.counter_totals()
        assert totals["salad.storage.wal.tag_rejects"] == rejects
