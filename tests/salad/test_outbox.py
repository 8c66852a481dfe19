"""The per-window outbox: one envelope per recipient, kind and window.

While a delivery window drains, a leaf stages its record forwards and MATCH
notices per recipient; once the window has drained it sends each recipient
one RECORD / RECORD_BATCH and one MATCH / MATCH_BATCH.  Sends made outside
a window (a leaf's own ``insert_records``, a direct handler call) stay
eager.  The outbox changes envelopes, never what they carry: the last class
pins the golden-trace workload's stored records and notices to the values
recorded before the outbox existed.
"""

import hashlib
import random

import pytest

from repro.core.fingerprint import Fingerprint, synthetic_fingerprint
from repro.obs.registry import MetricsRegistry
from repro.salad import protocol
from repro.salad.leaf import _LOCAL, SaladLeaf
from repro.salad.protocol import MatchPayload
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine
from repro.sim.network import Message, Network
from repro.sim.topology import parse_topology

SELF = 0xC0FFEE
#: Vector-aligned neighbours that give SELF a non-zero width, so some
#: records are forwarded rather than stored.
TABLE = [SELF ^ bit for bit in (1, 2, 4, 8, 3, 5, 6, 9, 10, 12)]
X, Y = 0xA11CE, 0xB0B


class RecordingNetwork(Network):
    """Logs every send as (sender, recipient, kind, payload) and every
    post-window callback queued."""

    def __init__(self):
        super().__init__(EventScheduler())
        self.sent = []
        self.deferred = []

    def send(self, sender, recipient, kind, payload):
        self.sent.append((sender, recipient, kind, payload))
        super().send(sender, recipient, kind, payload)

    def defer_post_window(self, callback):
        queued = super().defer_post_window(callback)
        if queued:
            self.deferred.append(callback)
        return queued


def record_of(content, location):
    return SaladRecord(synthetic_fingerprint(1000 + content, content), location)


def sent_by(network, sender):
    return [entry[1:] for entry in network.sent if entry[0] == sender]


def deliver(network, *records, hops=1):
    """Hand each record to SELF as one RECORD, all in the same window."""
    for record in records:
        network.send(0xFEED, SELF, protocol.RECORD, (record, hops))
    network.run()


def forwarding_leaf(network):
    leaf = SaladLeaf(SELF, network)
    for identifier in TABLE:
        leaf.add_leaf(identifier)
    assert leaf.width > 0
    network.sent.clear()
    return leaf


def same_cell_records(leaf, count):
    """*count* foreign records sharing one forwardable cell, and its targets."""
    by_cell = {}
    for content in range(5000):
        record = record_of(content, X)
        targets = leaf._compute_next_hop(record._rid)
        if targets is _LOCAL or not targets:
            continue
        group = by_cell.setdefault(record._rid & leaf._cell_mask, [])
        group.append(record)
        if len(group) == count:
            return group, targets
    raise AssertionError("content space too small")


class TestOneEnvelopePerRecipient:
    def test_k_arrivals_for_one_next_hop_leave_as_one_record_batch(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        records, targets = same_cell_records(leaf, 4)
        deliver(network, *records)
        batch = tuple((record, 2) for record in records)
        assert sent_by(network, SELF) == [
            (target, protocol.RECORD_BATCH, batch) for target in targets
        ]
        assert leaf.extra_records_sent == 3 * len(targets)

    def test_a_single_forward_stays_a_record(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        (record,), targets = same_cell_records(leaf, 1)
        deliver(network, record)
        assert sent_by(network, SELF) == [
            (target, protocol.RECORD, (record, 2)) for target in targets
        ]
        assert leaf.extra_records_sent == 0

    def test_notices_for_one_machine_leave_as_one_match_batch(self):
        network = RecordingNetwork()
        leaf = SaladLeaf(SELF, network)  # width 0: every record is stored here
        first, second = record_of(1, X), record_of(2, X)
        leaf.database.insert(first)
        leaf.database.insert(second)
        deliver(network, record_of(1, Y), record_of(2, Y))
        fp1, fp2 = first.fingerprint, second.fingerprint
        assert sent_by(network, SELF) == [
            (Y, protocol.MATCH_BATCH, (MatchPayload(fp1, X), MatchPayload(fp2, X))),
            (X, protocol.MATCH_BATCH, (MatchPayload(fp1, Y), MatchPayload(fp2, Y))),
        ]
        assert leaf.extra_notices_sent == 2

    def test_single_notices_stay_matches(self):
        network = RecordingNetwork()
        leaf = SaladLeaf(SELF, network)
        existing = record_of(1, X)
        leaf.database.insert(existing)
        deliver(network, record_of(1, Y))
        fp = existing.fingerprint
        assert sent_by(network, SELF) == [
            (Y, protocol.MATCH, MatchPayload(fp, X)),
            (X, protocol.MATCH, MatchPayload(fp, Y)),
        ]
        assert leaf.extra_notices_sent == 0


class TestFlushOrder:
    def test_records_before_notices_within_a_leaf(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        (foreign,), targets = same_cell_records(leaf, 1)
        local = next(
            record_of(content, Y)
            for content in range(5000)
            if leaf._compute_next_hop(record_of(content, Y)._rid) is _LOCAL
        )
        leaf.database.insert(SaladRecord(local.fingerprint, X))
        deliver(network, local, foreign)  # the notices are staged first
        kinds = [kind for _, kind, _ in sent_by(network, SELF)]
        assert kinds == [protocol.RECORD] * len(targets) + [protocol.MATCH] * 2

    def test_leaves_flush_in_the_order_their_outboxes_opened(self):
        network = RecordingNetwork()
        early, late = SaladLeaf(0x1, network), SaladLeaf(0x2, network)
        for leaf in (early, late):
            leaf.database.insert(record_of(7, X))
        # Delivered to `late` first, so `late` opens its outbox first.
        network.send(0xFEED, late.identifier, protocol.RECORD, (record_of(7, Y), 1))
        network.send(0xFEED, early.identifier, protocol.RECORD, (record_of(7, Y), 1))
        network.run()
        senders = [sender for sender, *_ in network.sent if sender != 0xFEED]
        assert senders == [late.identifier] * 2 + [early.identifier] * 2


class TestWhenTheOutboxOpens:
    def test_initiation_sends_are_eager(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        records, targets = same_cell_records(leaf, 3)
        leaf.insert_records(records)
        # Sent before any window ran, one RECORD_BATCH per first hop.
        assert sent_by(network, SELF) == [
            (target, protocol.RECORD_BATCH, tuple((r, 1) for r in records))
            for target in targets
        ]
        assert network.deferred == [] and leaf._out_records is None

    def test_a_direct_handler_call_is_eager(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        (record,), targets = same_cell_records(leaf, 1)
        leaf.receive(Message(0xFEED, SELF, protocol.RECORD_BATCH, ((record, 1),)))
        assert len(sent_by(network, SELF)) == len(targets)
        assert network.deferred == []

    def test_exhausted_hop_budget_queues_no_callback(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        records, _ = same_cell_records(leaf, 2)
        deliver(network, *records, hops=2 * leaf.dimensions)
        assert network.deferred == [] and sent_by(network, SELF) == []

    def test_empty_target_tuple_queues_no_callback(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        (stranded,), targets = same_cell_records(leaf, 1)
        for target in targets:  # the cell's vector is now empty; W is kept
            leaf.remove_leaf(target, recalculate=False)
        assert leaf._compute_next_hop(stranded._rid) == ()
        deliver(network, stranded)
        network.send(0xFEED, SELF, protocol.RECORD_BATCH, ((stranded, 1),) * 2)
        network.run()
        assert network.deferred == [] and sent_by(network, SELF) == []

    def test_empty_forwards_queue_no_callback(self):
        network = RecordingNetwork()
        SaladLeaf(SELF, network)  # width 0, empty store: stored, no notice
        deliver(network, record_of(1, X), record_of(2, X))
        network.send(0xFEED, SELF, protocol.RECORD_BATCH, ((record_of(3, X), 1),) * 2)
        network.run()
        assert network.deferred == [] and sent_by(network, SELF) == []

    def test_outbox_holds_nothing_between_windows(self):
        network = RecordingNetwork()
        leaf = forwarding_leaf(network)
        records, _ = same_cell_records(leaf, 3)
        deliver(network, *records)
        assert len(network.deferred) == 1
        assert leaf._out_records is None and leaf._out_notices is None


class TestDrops:
    def test_match_batch_to_a_failed_machine_is_one_dropped_message(self):
        network = RecordingNetwork()
        leaf = SaladLeaf(SELF, network)
        down, up = SaladLeaf(X, network), SaladLeaf(Y, network)
        down.fail()
        first, second = record_of(1, X), record_of(2, X)
        leaf.database.insert(first)
        leaf.database.insert(second)
        deliver(network, record_of(1, Y), record_of(2, Y))
        assert network.messages_dropped == 1
        assert network.traffic[SELF].dropped_to == 1
        assert up.matches == [
            MatchPayload(first.fingerprint, X),
            MatchPayload(second.fingerprint, X),
        ]
        assert up.extra_received == 1 and down.matches == []
        assert network.messages_sent == (
            network.messages_delivered + network.messages_dropped
        )


def wave(salad, seed, per_leaf=4):
    rng = random.Random(seed)
    return {
        leaf.identifier: [
            SaladRecord(synthetic_fingerprint(4096 + c, c), leaf.identifier)
            for c in (rng.randrange(40) for _ in range(per_leaf))
        ]
        for leaf in salad.alive_leaves()
    }


def assert_accounted(network):
    assert network.messages_sent == network.messages_delivered + network.messages_dropped
    assert sum(network.sent_by_kind.values()) == network.messages_sent


class Splitter(SimMachine):
    """Partitions the network off the machines in *island* on a "split"."""

    def __init__(self, identifier, network, island):
        super().__init__(identifier, network)
        self.on("split", lambda message: network.partition({"island": island}))


class TestAccounting:
    """sent = delivered + dropped, whichever way envelopes are lost."""

    def test_under_loss(self):
        salad = Salad(SaladConfig(seed=3, notify_limit=2))
        salad.build(24)
        salad.set_loss_probability(0.3)
        salad.insert_records(wave(salad, 1))
        assert salad.network.messages_dropped > 0
        assert_accounted(salad.network)

    def test_under_a_partition_formed_mid_window(self):
        salad = Salad(SaladConfig(seed=3, notify_limit=2))
        salad.build(24)
        network = salad.network
        identifiers = salad.alive_identifiers()
        Splitter(0x5EED, network, identifiers[::2])
        batches = wave(salad, 1)
        half = len(identifiers) // 2
        salad.insert_records(
            {i: batches[i] for i in identifiers[:half]}, settle=False
        )
        network.send(0x5EED, 0x5EED, "split", None)  # lands mid-window
        salad.insert_records({i: batches[i] for i in identifiers[half:]})
        assert network.messages_dropped > 0
        assert_accounted(network)

    def test_in_topology_mode(self):
        salad = Salad(SaladConfig(seed=3, notify_limit=2, topology=parse_topology("corporate")))
        salad.build(24)
        salad.insert_records(wave(salad, 1))
        network = salad.network
        assert network.sent_by_kind.get(protocol.RECORD_BATCH, 0) > 0
        assert_accounted(network)
        assert sum(network.class_sent.values()) == network.messages_sent
        assert sum(network.class_delivered.values()) == network.messages_delivered

    def test_a_handler_that_raises_leaves_every_outbox_empty(self):
        salad = Salad(SaladConfig(seed=3))
        salad.build(24)
        network = salad.network
        victim = salad.alive_leaves()[-1]
        victim.on(protocol.RECORD_BATCH, lambda message: 1 / 0)
        victim.on(protocol.RECORD, lambda message: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            salad.insert_records(wave(salad, 1))
        assert not network._post_window
        for leaf in salad.leaves.values():
            assert leaf._out_records is None and leaf._out_notices is None
        victim.on(protocol.RECORD_BATCH, victim._on_record_batch)
        victim.on(protocol.RECORD, victim._on_record)
        salad.insert_records(wave(salad, 2))
        assert_accounted(network)


class TestCarriedUnits:
    def test_message_totals_count_items_not_envelopes(self):
        salad = Salad(SaladConfig(seed=3))
        salad.build(24)
        network = salad.network
        salad.insert_records(wave(salad, 1))
        envelopes = sum(t.total for t in network.traffic.values())
        extra = sum(
            leaf.extra_records_sent + leaf.extra_notices_sent + leaf.extra_received
            for leaf in salad.leaves.values()
        )
        assert extra > 0
        assert sum(salad.message_totals()) == envelopes + extra
        registry = salad.collect_metrics(MetricsRegistry())
        carried = registry.counter_value(
            "salad.routing.records_carried"
        ) + registry.counter_value("salad.routing.notices_carried")
        kinds = (protocol.RECORD, protocol.RECORD_BATCH, protocol.MATCH, protocol.MATCH_BATCH)
        item_envelopes = sum(network.sent_by_kind.get(kind, 0) for kind in kinds)
        assert salad.messages_carried() == network.messages_sent - item_envelopes + carried


def golden_workload(churn):
    """The golden-trace workload: 40 leaves, uncapped stores, lossless."""
    config = SaladConfig(dimensions=2, seed=11)
    network = Network(
        scheduler=EventScheduler(), latency=config.latency, rng=random.Random(123)
    )
    salad = Salad(config, network=network)
    salad.build(40)

    def insert(rng, per_leaf):
        by_leaf = {}
        for leaf in salad.alive_leaves():
            records = []
            for _ in range(per_leaf):
                content = rng.randrange(120)
                fingerprint = Fingerprint(
                    size=1024 + content, content_digest=content.to_bytes(20, "big")
                )
                records.append(SaladRecord(fingerprint, leaf.identifier))
            by_leaf[leaf.identifier] = records
        salad.insert_records(by_leaf)

    insert(random.Random(5), 15)
    if churn:
        leaving = sorted(leaf.identifier for leaf in salad.alive_leaves())[::4]
        for identifier in leaving:
            salad.leaves[identifier].depart_cleanly()
        network.run()
        insert(random.Random(17), 1)
    return salad


def digest(salad, rows_of):
    """sha256 over every leaf's sorted rows, leaves in identifier order."""
    h = hashlib.sha256()
    for identifier in sorted(salad.leaves):
        rows = sorted(
            f"{fp.size}:{fp.content_digest.hex()}:{other:x}"
            for fp, other in rows_of(salad.leaves[identifier])
        )
        h.update(f"{identifier:x}|{','.join(rows)};".encode())
    return h.hexdigest()


class TestOrderIndependence:
    """Stored records and notices do not depend on the outbox.

    With uncapped stores and a lossless fabric every record still rides
    exactly one envelope per hop at the same virtual time, so only the
    order within a window moves.  The four values were recorded with
    one message per record hop and per notice.
    """

    RECORDED = {
        False: (
            "8c367328b055ae40ec712619584d78f23f51bc3a693f89d1eef71fc38224eb85",
            "ffe7375a86bc461244390ab81809fa2cb9ab095a2a96fee86043f5828a8e43d5",
            4327,
            6316,
        ),
        True: (
            "f4e089f727471fb38e6cb2d1272d38face85c148216992a8a2160616c288d470",
            "84a887997bc6660f904b27cd627c1c64dbe72be90541c3711e77c874ab05cdb1",
            4519,
            6750,
        ),
    }

    @pytest.mark.parametrize("churn", [False, True])
    def test_golden_workload_matches_the_recorded_outcome(self, churn):
        salad = golden_workload(churn)
        registry = salad.collect_metrics(MetricsRegistry())
        observed = (
            digest(salad, lambda leaf: ((r.fingerprint, r.location) for r in leaf.database.records())),
            digest(salad, lambda leaf: leaf.matches),  # (fingerprint, other) pairs
            registry.counter_value("salad.routing.records_carried"),
            registry.counter_value("salad.routing.notices_carried"),
        )
        assert observed == self.RECORDED[churn]
        sent = salad.network.sent_by_kind
        assert sent[protocol.RECORD_BATCH] > 0 and sent[protocol.MATCH_BATCH] > 0
