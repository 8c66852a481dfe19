"""SaladLeaf unit behavior: leaf table, index, width recalculation."""

import sys

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad import protocol
from repro.salad.ids import compose_cell_id
from repro.salad.leaf import SaladLeaf
from repro.salad.protocol import MatchPayload
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from tests.reference_engine import ScanWidthLeaf, mismatching_dimensions


def make_leaf(identifier=0b0110, target_redundancy=2.0, dimensions=2, **kwargs):
    network = Network(EventScheduler())
    leaf = SaladLeaf(
        identifier,
        network,
        target_redundancy=target_redundancy,
        dimensions=dimensions,
        **kwargs,
    )
    return leaf, network


def with_coords(c0: int, c1: int, width: int, high: int = 0) -> int:
    return (high << width) | compose_cell_id([c0, c1], width, 2)


class TestConstruction:
    def test_initial_state(self):
        leaf, _ = make_leaf()
        assert leaf.width == 0
        assert leaf.table_size == 0
        assert leaf.estimated_system_size == 1.0

    def test_invalid_parameters(self):
        network = Network(EventScheduler())
        with pytest.raises(ValueError):
            SaladLeaf(1, network, dimensions=0)
        network2 = Network(EventScheduler())
        with pytest.raises(ValueError):
            SaladLeaf(2, network2, target_redundancy=0.5)


class TestLeafTable:
    def test_add_and_remove(self):
        leaf, _ = make_leaf()
        assert leaf.add_leaf(99, recalculate=False)
        assert leaf.knows(99)
        assert leaf.remove_leaf(99, recalculate=False)
        assert not leaf.knows(99)

    def test_add_self_rejected(self):
        leaf, _ = make_leaf(identifier=5)
        assert not leaf.add_leaf(5)

    def test_add_duplicate_rejected(self):
        leaf, _ = make_leaf()
        leaf.add_leaf(99, recalculate=False)
        assert not leaf.add_leaf(99, recalculate=False)

    def test_non_aligned_leaf_rejected(self):
        leaf, _ = make_leaf(identifier=0b0000)
        leaf.width = 4  # force a width where alignment matters
        leaf._rebuild_index()
        # Identifier differing in both coordinates is not vector-aligned.
        stranger = with_coords(0b11, 0b11, 4)
        assert not leaf.add_leaf(stranger, recalculate=False)

    def test_width_grows_with_table(self):
        """Adding many leaves raises the system-size estimate and W."""
        leaf, _ = make_leaf(target_redundancy=2.0)
        for i in range(1, 40):
            leaf.add_leaf(i << 8 | leaf.identifier & 0xFF or i)  # arbitrary ids
        assert leaf.width >= 3
        assert leaf.estimated_system_size > 20

    def test_width_change_count_tracked(self):
        leaf, _ = make_leaf()
        for i in range(1, 30):
            leaf.add_leaf(1000 + i)
        assert leaf.width_changes > 0


class TestVectorIndex:
    def test_cellmates_and_vectors(self):
        leaf, _ = make_leaf(identifier=with_coords(0b10, 0b01, 4))
        leaf.width = 4
        leaf._rebuild_index()
        cellmate = with_coords(0b10, 0b01, 4, high=1)
        same_column = with_coords(0b11, 0b01, 4)
        leaf.add_leaf(cellmate, recalculate=False)
        leaf.add_leaf(same_column, recalculate=False)
        assert cellmate in leaf._cellmates
        assert same_column in leaf._vector_members(0, 0b11)
        # Cellmates appear in vector queries for the leaf's own coordinate.
        assert cellmate in leaf._vector_members(0, 0b10)
        assert cellmate in leaf._axis_members(0)
        assert same_column in leaf._axis_members(0)
        assert same_column not in leaf._axis_members(1)


class TestIndexBytes:
    """The vector index costs bytes per entry, not an object per group."""

    def test_vector_index_bytes_per_entry(self):
        salad = Salad(SaladConfig(seed=0))
        salad.build(512)
        entries = held = 0
        for leaf in salad.alive_leaves():
            entries += len(leaf.leaf_table)
            held += sys.getsizeof(leaf._cellmates) + sys.getsizeof(leaf._vectors)
            for groups in leaf._vectors.values():
                held += sys.getsizeof(groups)
                for key, members in groups.items():
                    # The key ints belong to the index; the member ints are
                    # the leaf table's own.
                    held += sys.getsizeof(key) + sys.getsizeof(members)
        salad.shutdown()
        assert entries > 30_000
        assert held / entries <= 48


class TestRefreshAndDeparture:
    def test_flush_stale_entries(self):
        leaf, network = make_leaf()
        leaf.add_leaf(42, recalculate=False)
        network.scheduler.now = 100.0
        assert leaf.flush_stale_entries(timeout=50.0) == 1
        assert not leaf.knows(42)

    def test_fresh_entries_survive_flush(self):
        leaf, network = make_leaf()
        leaf.add_leaf(42, recalculate=False)
        assert leaf.flush_stale_entries(timeout=50.0) == 0
        assert leaf.knows(42)


class TestWidthRecalculationCost:
    """The Fig. 6 growth check must not rescan the table unless it commits."""

    def test_rejected_growth_checks_scan_nothing(self):
        import random

        rng = random.Random(11)
        # The scan oracle scans where the shipped leaf's rebuild drops entries,
        # so its count shows how often a width check reaches a commit.
        leaf = ScanWidthLeaf(
            rng.randrange(1 << 24), Network(EventScheduler()), dimensions=2
        )
        joins = 0
        while joins < 1000:
            if leaf.add_leaf(rng.randrange(1 << 24)):
                joins += 1
        # Every join in the hysteresis zone used to pay a full-table survivor
        # scan; now only committed width increases do, so the scan count is
        # bounded by the number of width changes, not the number of joins.
        assert leaf.width > 0
        assert leaf.width_changes > 0
        assert leaf.survivor_scans <= leaf.width_changes

    def test_survivor_counter_matches_brute_force_after_churn(self):
        import random

        rng = random.Random(3)
        leaf, _ = make_leaf(identifier=0x5A5A5A)
        known = []
        for _ in range(400):
            if known and rng.random() < 0.3:
                leaf.remove_leaf(known.pop(rng.randrange(len(known))))
            else:
                identifier = rng.randrange(1 << 24)
                if leaf.add_leaf(identifier):
                    known.append(identifier)
            known = [k for k in known if leaf.knows(k)]
        expected = sum(
            1
            for other in leaf.leaf_table
            if len(
                mismatching_dimensions(
                    leaf.identifier, other, leaf.width + 1, leaf.dimensions
                )
            )
            <= 1
        )
        assert leaf._next_width_survivors == expected


class TestFailedLeafPublishesNothing:
    """A failed machine cannot publish: initiation is a no-op returning 0."""

    def _salad_with_a_dead_leaf(self):
        salad = Salad(SaladConfig(seed=5))
        salad.build(8)
        dead = salad.alive_leaves()[3]
        dead.fail()
        return salad, dead

    def _own_records(self, leaf, count):
        return [
            SaladRecord(synthetic_fingerprint(2048 + i, i), leaf.identifier)
            for i in range(count)
        ]

    def test_insert_records_on_a_failed_leaf(self):
        salad, dead = self._salad_with_a_dead_leaf()
        sent = salad.network.messages_sent
        assert dead.insert_records(self._own_records(dead, 50)) == 0
        salad.run()
        assert len(dead.database) == 0
        assert salad.network.messages_sent == sent

    def test_insert_record_on_a_failed_leaf(self):
        salad, dead = self._salad_with_a_dead_leaf()
        sent = salad.network.messages_sent
        assert dead.insert_record(self._own_records(dead, 1)[0]) == 0
        salad.run()
        assert len(dead.database) == 0
        assert salad.network.messages_sent == sent

    def test_a_live_leaf_still_publishes(self):
        salad, dead = self._salad_with_a_dead_leaf()
        live = salad.alive_leaves()[0]
        assert live.insert_record(self._own_records(live, 1)[0]) == 1
        assert live.insert_records(self._own_records(live, 5)) == 5


class TestMatchNotifications:
    """The store builds only the notify_limit matches the leaf sends."""

    LOCATIONS = (0x90, 0x30, 0x70, 0x10, 0x50, 0xB0)

    class RecordingNetwork(Network):
        def __init__(self):
            super().__init__(EventScheduler())
            self.sent = []

        def send(self, sender, recipient, kind, payload):
            self.sent.append((sender, recipient, kind, payload))
            super().send(sender, recipient, kind, payload)

    @pytest.mark.parametrize("limit", [1, 2, 4, None])
    @pytest.mark.parametrize("copies", [0, 1, 3, 6])
    def test_two_matches_per_notified_copy(self, limit, copies):
        network = self.RecordingNetwork()
        leaf = SaladLeaf(0x5, network, notify_limit=limit)
        fingerprint = synthetic_fingerprint(4096, 1)
        for location in self.LOCATIONS[:copies]:
            leaf.database.insert(SaladRecord(fingerprint, location))
        limits = []
        insert = leaf.database.insert
        leaf.database.insert = lambda record, limit=None: (
            limits.append(limit) or insert(record, limit)
        )
        newcomer = SaladRecord(fingerprint, 0xF0)
        leaf._store_record(newcomer, 1, {})
        assert limits == [limit]
        # Per-match construction, as the leaf built the payloads before
        # sharing the notice: (new record's machine, other) then the reverse.
        expected = []
        for other in sorted(self.LOCATIONS[:copies])[:limit]:
            to_newcomer = MatchPayload(fingerprint=fingerprint, other_machine=other)
            to_other = MatchPayload(fingerprint=fingerprint, other_machine=0xF0)
            expected += [
                (0x5, 0xF0, protocol.MATCH, to_newcomer),
                (0x5, other, protocol.MATCH, to_other),
            ]
        assert network.sent == expected
        cap = copies if limit is None else min(limit, copies)
        assert len(network.sent) == 2 * cap
