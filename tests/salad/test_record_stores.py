"""Shared contract suite for the record-store backends.

Every store -- the in-memory :class:`RecordDatabase` and the durable
:class:`WalRecordStore` in each of its modes (``tests/store_modes.py``:
resident at its default budget, paged from its first record, and crossing
from one layout to the other midway) -- must be observably identical for
in-memory behavior: same associative-insert semantics, same duplicate-match
return order, same capacity-eviction policy, same iteration order.  The
durable modes additionally pin reopen-after-close, crash (unflushed tail
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
    RECORD_BYTES,
    WAL_MAGIC,
    PagedWalRecordStore,
    WalRecordStore,
    _insert_frame,
    check_backend,
    make_record_store,
)
from tests.store_modes import DURABLE, MODES, engine_budget, open_store


def rec(size: int, content: int = 0, location: int = 1) -> SaladRecord:
    return SaladRecord(
        fingerprint=synthetic_fingerprint(size, content), location=location
    )


def make(mode, tmp_path, capacity=None, name="store"):
    return open_store(mode, tmp_path, capacity=capacity, name=name)


@pytest.fixture(params=MODES)
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

    def test_limited_matches_are_the_lowest_locations(self, backend, tmp_path):
        store = make(backend, tmp_path)
        for location in (9, 3, 7):
            store.insert(rec(100, location=location))
        stored, matches = store.insert(rec(100, location=5), 2)
        assert stored and [m.location for m in matches] == [3, 7]
        # A duplicate whose location lies past the limit is still a no-op.
        again, matches = store.insert(rec(100, location=9), 1)
        assert not again and [m.location for m in matches] == [3]
        assert len(store) == 4
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


#: Two locations that agree in every bit the paged layout's index keeps of a
#: location, and a third that does too but is never stored.
TWIN_A = 5
TWIN_B = 5 + (1 << _TAG_BITS)
TWIN_ABSENT = 5 + (2 << _TAG_BITS)


class TestSameTagLocations:
    """Presence answers stay exact when locations collide in their low bits.

    The paged layout answers "absent" from a 20-bit location tag; a tag that
    matches is only a hint.  Every mode must give the same verdicts, at
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

    @pytest.mark.parametrize("backend", DURABLE)
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

    @pytest.mark.parametrize("writer, reader", [("wal", "wal-paged"), ("wal-paged", "wal")])
    def test_still_exact_across_budgets(self, writer, reader, tmp_path):
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
        for backend in MODES:
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
        assert all(outcome == outcomes["memory"] for outcome in outcomes.values())


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
    """Torn-tail, corrupt-CRC and garbage-file recovery, resident."""

    #: The store's byte budget in this class; None is the default.
    BUDGET = None

    def _open(self, path, **kwargs):
        return WalRecordStore(path, budget_bytes=self.BUDGET, **kwargs)

    def _populate(self, tmp_path, n=10):
        store = self._open(tmp_path / "t.wal")
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
        store = self._open(path)
        assert len(store) == 10
        assert store.recovered_records == 10
        assert store.torn_bytes_dropped == 17
        assert path.stat().st_size == intact  # tail trimmed off the file
        # The trimmed file must still read every record back.
        assert [r.fingerprint.size for r in store.records()] == list(range(10, 20))
        store.close()

    def test_corrupt_crc_drops_entry_and_everything_after(self, tmp_path):
        path = self._populate(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a CRC byte of the final entry
        path.write_bytes(data)
        store = self._open(path)
        assert len(store) == 9
        assert store.torn_bytes_dropped > 0
        store.close()

    def test_garbage_file_is_reset_not_fatal(self, tmp_path):
        path = tmp_path / "t.wal"
        path.write_bytes(b"not a wal at all")
        store = self._open(path)
        assert len(store) == 0
        assert store.torn_bytes_dropped == 16
        store.insert(rec(10, location=1))
        store.close()
        assert path.read_bytes().startswith(WAL_MAGIC)

    def test_replay_reruns_the_capacity_policy(self, tmp_path):
        path = tmp_path / "t.wal"
        store = self._open(path, capacity=4)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        expected = list(store.records())
        store.close()
        reopened = self._open(path, capacity=4)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_compaction_rewrites_log_as_live_snapshot(self, tmp_path):
        path = tmp_path / "t.wal"
        store = self._open(path)
        store._COMPACT_FLOOR = 16  # shrink the floor so a small test triggers it
        for round_ in range(20):
            for i in range(8):
                store.insert(rec(10 + i, content=round_, location=1))
            store.remove_location(1)
        assert store.compactions > 0
        assert store.log_ops <= store._COMPACT_RATIO * max(1, len(store)) + 8
        expected = list(store.records())
        store.close()
        reopened = self._open(path)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_crash_discards_buffered_appends(self, tmp_path):
        path = tmp_path / "t.wal"
        store = self._open(path, sync_every=1000)
        for i in range(10):
            store.insert(rec(10 + i, location=1))
        assert store.pending_records == 10
        store.crash()
        reopened = self._open(path)
        assert len(reopened) == 0
        reopened.close()


class TestPagedWalRecovery(TestWalRecovery):
    """The same recovery cases paged from the first record, plus paging's own.

    Cache misses read the record back from the log byte-identically, the
    LRU stays inside the budget, and compaction remaps every index entry to
    its post-rewrite offset.
    """

    BUDGET = 0

    def test_wal_and_paged_open_each_others_files(self, tmp_path):
        # One file format: a log written resident must recover identically
        # paged, and the other way round.
        store = WalRecordStore(tmp_path / "t.wal", capacity=6)
        for i in range(9):
            store.insert(rec(10 + i, location=i))
        expected = list(store.records())
        store.close()
        paged = self._open(tmp_path / "t.wal", capacity=6)
        assert paged.page_outs == 1
        assert list(paged.records()) == expected
        paged.insert(rec(99, location=99))
        expected = list(paged.records())
        paged.close()
        plain = WalRecordStore(tmp_path / "t.wal", capacity=6)
        assert plain.page_outs == 0
        assert list(plain.records()) == expected
        plain.close()

    def test_cache_miss_reads_record_back_from_log(self, tmp_path):
        store = WalRecordStore(tmp_path / "t.wal", budget_bytes=2 * RECORD_BYTES)
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
        budget = 4 * RECORD_BYTES
        store = WalRecordStore(tmp_path / "t.wal", budget_bytes=budget)
        for i in range(100):
            store.insert(rec(10 + i, location=i))
            assert store.resident_bytes <= budget
        assert len(store._cache) <= 4
        assert len(store) == 100
        store.close()

    def test_unflushed_records_are_served_from_the_buffer(self, tmp_path):
        store = WalRecordStore(tmp_path / "t.wal", sync_every=1000, budget_bytes=RECORD_BYTES)
        inserted = [rec(10 + i, location=i) for i in range(6)]
        for r in inserted:
            store.insert(r)
        # Nothing written out yet; a cache miss must parse the append buffer.
        assert store.sync_writes == 0 and store.page_outs == 1
        for r in inserted:
            assert store.has_location(r.fingerprint, r.location)
        store.close()

    def test_compaction_remaps_offsets_and_preserves_reads(self, tmp_path):
        path = tmp_path / "t.wal"
        store = WalRecordStore(path, budget_bytes=2 * RECORD_BYTES)
        store._COMPACT_FLOOR = 16  # shrink the floor so a small test triggers it
        for round_ in range(20):
            for i in range(8):
                store.insert(rec(10 + i, content=round_, location=1))
            store.remove_location(1)
        assert store.compactions > 0 and store.page_outs == 1
        assert store.log_ops <= store._COMPACT_RATIO * max(1, len(store)) + 8
        expected = list(store.records())
        # Every index entry must point at a valid post-compaction offset:
        # page everything back in through the remapped index.
        for r in expected:
            assert store.has_location(r.fingerprint, r.location)
        store.close()
        reopened = self._open(path)
        assert list(reopened.records()) == expected
        reopened.close()

    def test_tag_hit_is_confirmed_by_read_back_and_counted(self, tmp_path):
        store = self._open(tmp_path / "t.wal")
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
        # The reference spells out the v1 format one field at a time.
        record = rec(123, content=4, location=location)
        loc = location.to_bytes(max(1, (location.bit_length() + 7) // 8), "big")
        payload = record.sort_key() + struct.pack(">H", len(loc)) + loc
        head = struct.pack(">BI", _OP_INSERT, len(payload))
        reference = head + payload + struct.pack(">I", zlib.crc32(head + payload))
        assert _insert_frame(record.sort_key(), location) == reference
        store = self._open(tmp_path / "t.wal")
        store.insert(record)
        store.close()
        assert (tmp_path / "t.wal").read_bytes() == WAL_MAGIC + reference

    def test_index_survives_heavy_churn(self, tmp_path):
        # Exercises tombstone reuse and same-size index rebuilds: many
        # insert/remove rounds over a small live set.
        store = self._open(tmp_path / "t.wal")
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


class TestCrossingWalRecovery(TestWalRecovery):
    """The same recovery cases at a budget the streams cross midway, plus
    the switch itself: once per open, inside the budget, invisible to a
    crash."""

    BUDGET = 4 * RECORD_BYTES

    def test_resident_bytes_stay_within_the_budget_and_the_store_pages_once(
        self, tmp_path
    ):
        store = self._open(tmp_path / "t.wal")
        rng = random.Random(5)
        peak = 0
        for _ in range(300):
            if rng.random() < 0.15:
                store.remove_location(rng.randrange(6))
            else:
                store.insert(rec(rng.randrange(1, 60), rng.randrange(3), rng.randrange(6)))
            peak = max(peak, len(store))
            assert store.resident_bytes <= self.BUDGET
            assert store.page_outs == int(peak * RECORD_BYTES > self.BUDGET)
        assert store.page_outs == 1
        store.close()

    def test_resident_inserts_touch_no_page(self, tmp_path):
        store = self._open(tmp_path / "t.wal")
        for i in range(4):
            store.insert(rec(10 + i, location=i))
            assert store.has_location(rec(10 + i).fingerprint, i)
        assert store.page_outs == store.page_hits == store.page_misses == 0
        store.close()

    def test_reopen_picks_its_layout_from_the_replayed_live_count(self, tmp_path):
        path = self._populate(tmp_path, n=4)
        resident = self._open(path)
        assert resident.page_outs == 0 and len(resident) == 4
        resident.insert(rec(99, location=1))
        resident.close()
        paged = self._open(path)
        assert paged.page_outs == 1 and len(paged) == 5
        paged.close()

    def test_crash_right_after_the_switch_loses_only_the_unflushed_tail(self, tmp_path):
        path = tmp_path / "t.wal"
        store = self._open(path, sync_every=1000)
        settled = [rec(10 + i, location=i) for i in range(3)]
        for r in settled:
            store.insert(r)
        store.flush()
        store.insert(rec(50, location=1))
        store.insert(rec(51, location=2))  # the fifth live record crosses
        assert store.page_outs == 1 and store.pending_records == 2
        store.crash()
        reopened = self._open(path, sync_every=1000)
        assert list(reopened.records()) == settled
        assert reopened.page_outs == 0
        # Cross again in the new open, flush right after, crash: all five
        # come back, and the reopen pages.
        reopened.insert(rec(50, location=1))
        reopened.insert(rec(51, location=2))
        assert reopened.page_outs == 1
        reopened.flush()
        expected = list(reopened.records())
        reopened.crash()
        again = self._open(path)
        assert again.page_outs == 1 and list(again.records()) == expected
        again.close()


class TestFileDescriptors:
    def test_stores_hold_no_descriptor_between_operations(self, tmp_path):
        # An engine opens one store per leaf; a store that pinned its log
        # open would die with EMFILE long before 2,000 leaves.
        resource = pytest.importorskip("resource")
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, hard), hard))
        try:
            names = [f"leaf-{i}" for i in range(2000)]
            stores = [make_record_store("wal", db_dir=tmp_path, name=name) for name in names]
            for i, store in enumerate(stores):
                store.insert(rec(10 + i, location=i))
                store.flush()
            reopened = [make_record_store("wal", db_dir=tmp_path, name=name) for name in names]
            assert [len(store) for store in reopened] == [1] * 2000
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


class TestBackendNames:
    def test_wal_paged_is_an_alias_of_wal_not_a_backend(self, tmp_path):
        assert BACKENDS == ("memory", "wal")
        assert check_backend("wal-paged") == "wal"
        assert PagedWalRecordStore is WalRecordStore
        store = make_record_store("wal-paged", db_dir=tmp_path)
        assert type(store) is WalRecordStore and store.path.suffix == ".wal"
        store.close()
        with pytest.raises(ValueError):
            check_backend("sqlite")


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

    def test_tag_rejects_are_harvested(self, tmp_path, monkeypatch):
        engine_budget(monkeypatch, "wal-paged")
        salad = Salad(SaladConfig(seed=1, db_backend="wal", db_dir=str(tmp_path)))
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
        holding = sum(1 for leaf in salad.leaves.values() if len(leaf.database))
        assert totals["salad.storage.wal.page_outs"] == holding > 0


class TestEngineStoreDirectory:
    """Where an engine's durable stores live, and when they go away."""

    @staticmethod
    def _engine(**store):
        salad = Salad(SaladConfig(seed=1, **store))
        salad.build(8)
        wave = {
            identifier: [rec(100 + n, content=n % 3, location=identifier)]
            for n, identifier in enumerate(salad.alive_identifiers())
        }
        assert salad.insert_records(wave) == 8
        (directory,) = {leaf.database.path.parent for leaf in salad.leaves.values()}
        return salad, directory

    def test_own_tempdir_is_removed_at_shutdown(self):
        salad, directory = self._engine(db_backend="wal")
        assert sorted(path.suffix for path in directory.iterdir()) == [".wal"] * 8
        salad.shutdown()
        assert not directory.exists()

    def test_crash_and_rejoin_before_shutdown_recover_every_settled_record(self):
        from repro.sim.failure import CrashRecoveryHarness

        salad, directory = self._engine(db_backend="wal")
        harness = CrashRecoveryHarness()
        harness.crash(list(salad.leaves.values())[:3])
        report = harness.rejoin()
        assert report.records_before > 0
        assert report.recovered_fraction == 1.0
        salad.shutdown()
        assert not directory.exists()

    def test_named_db_dir_survives_shutdown(self, tmp_path):
        salad, directory = self._engine(db_backend="wal", db_dir=str(tmp_path))
        salad.shutdown()
        assert directory.parent == tmp_path
        assert len(list(directory.glob("leaf-*.wal"))) == 8
