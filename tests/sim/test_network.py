"""The message-passing network: delivery, counters, loss, failure drops."""

import random

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad import protocol
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine, UnknownMessageError
from repro.sim.network import Network
from repro.sim.topology import one_site, parse_topology


class Echo(SimMachine):
    """Test machine that logs pings and answers with pongs."""

    def __init__(self, identifier, network):
        super().__init__(identifier, network)
        self.log = []
        self.on("ping", self._ping)
        self.on("pong", lambda msg: self.log.append(("pong", msg.sender)))

    def _ping(self, msg):
        self.log.append(("ping", msg.sender))
        self.send(msg.sender, "pong")


def make_net(loss=0.0):
    return Network(EventScheduler(), latency=1.0, loss_probability=loss, rng=random.Random(1))


class TestDelivery:
    def test_roundtrip(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "ping")
        net.run()
        assert b.log == [("ping", 1)]
        assert a.log == [("pong", 2)]

    def test_traffic_counters(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "ping")
        net.run()
        assert net.traffic[1].sent == 1 and net.traffic[1].received == 1
        assert net.traffic[2].sent == 1 and net.traffic[2].received == 1
        assert net.traffic[1].total == 2
        assert net.sent_by_kind == {"ping": 1, "pong": 1}

    def test_latency_orders_delivery(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "ping")
        assert b.log == []  # not yet delivered
        net.run()
        assert b.log


class TestDrops:
    def test_message_to_unknown_machine_dropped(self):
        net = make_net()
        a = Echo(1, net)
        a.send(99, "ping")
        net.run()
        assert net.messages_dropped == 1
        assert net.traffic[1].dropped_to == 1

    def test_message_to_failed_machine_dropped(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        b.fail()
        a.send(2, "ping")
        net.run()
        assert b.log == []
        assert net.messages_dropped == 1

    def test_failed_machine_sends_nothing(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        a.fail()
        a.send(2, "ping")
        net.run()
        assert b.log == []
        assert net.messages_sent == 0

    def test_recovered_machine_receives_again(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        b.fail()
        b.recover()
        a.send(2, "ping")
        net.run()
        assert b.log == [("ping", 1)]

    def test_departed_machine_deregistered(self):
        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        b.depart()
        a.send(2, "ping")
        net.run()
        assert net.messages_dropped == 1


class TestLoss:
    def test_loss_probability_one_drops_everything(self):
        net = make_net(loss=1.0)
        a, b = Echo(1, net), Echo(2, net)
        for _ in range(20):
            a.send(2, "ping")
        net.run()
        assert b.log == []
        assert net.messages_dropped == 20

    def test_loss_probability_statistics(self):
        net = make_net(loss=0.5)
        a, b = Echo(1, net), Echo(2, net)
        for _ in range(400):
            net.send(1, 2, "ping", None)
        net.run()
        delivered = len(b.log)
        assert 140 < delivered < 260  # ~200 +- 3 sigma

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            Network(EventScheduler(), loss_probability=1.5)


class TestLossSubstream:
    """Loss draws come from a dedicated substream, and both the jitter and
    loss draws happen before any drop decision, so the delivery timestamps
    of surviving messages are pinned: identical across runs that differ
    only in loss probability or partition layout.  (With a shared stream,
    enabling loss shifted every subsequent jitter draw, making lossy and
    lossless traces incomparable.)"""

    @staticmethod
    def _delivery_times(loss=0.0, partition=None):
        net = Network(
            EventScheduler(),
            latency=1.0,
            jitter=0.5,
            loss_probability=loss,
            rng=random.Random(7),
        )
        received = {}

        class Stamp(SimMachine):
            def __init__(self, identifier, network):
                super().__init__(identifier, network)
                self.on(
                    "tag",
                    lambda msg: received.setdefault(msg.payload, net.scheduler.now),
                )

        Stamp(1, net), Stamp(2, net), Stamp(3, net)
        if partition:
            net.partition(partition)
        for i in range(200):
            net.send(1, 2 if i % 2 else 3, "tag", i)
        net.run()
        return received

    def test_loss_pins_surviving_delivery_times(self):
        lossless = self._delivery_times()
        lossy = self._delivery_times(loss=0.4)
        assert 0 < len(lossy) < len(lossless)
        assert all(lossless[tag] == time for tag, time in lossy.items())

    def test_partition_pins_surviving_delivery_times(self):
        connected = self._delivery_times()
        cut = self._delivery_times(partition={"island": [3]})
        assert sorted(cut) == [tag for tag in sorted(connected) if tag % 2]
        assert all(connected[tag] == time for tag, time in cut.items())

    def test_loss_seed_independent_of_jitter_consumption(self):
        # Same main rng seed, jitter on vs. off: the loss pattern (which
        # tags die) must be identical, because loss never reads the main
        # stream after construction.
        def survivors(jitter):
            net = Network(
                EventScheduler(),
                latency=1.0,
                jitter=jitter,
                loss_probability=0.4,
                rng=random.Random(7),
            )
            log = []

            class Sink(SimMachine):
                def __init__(self, identifier, network):
                    super().__init__(identifier, network)
                    self.on("tag", lambda msg: log.append(msg.payload))

            Sink(1, net), Sink(2, net)
            for i in range(200):
                net.send(1, 2, "tag", i)
            net.run()
            return sorted(log)

        assert survivors(0.0) == survivors(0.5)


class TestRegistration:
    def test_duplicate_identifier_rejected(self):
        net = make_net()
        Echo(1, net)
        with pytest.raises(ValueError):
            Echo(1, net)


class TestDeliveryBatching:
    """Messages sharing a timestep are one delivery window, in send order."""

    def test_one_scheduler_event_per_timestep(self):
        net = Network(EventScheduler(), latency=1.0, rng=random.Random(1))
        a, b = Echo(1, net), Echo(2, net)
        for _ in range(10):
            net.send(1, 2, "ping", None)
        # All ten messages share the t=1 delivery timestep: one flush event.
        assert len(net.scheduler) == 1
        net.run()
        assert len(b.log) == 10

    def test_jitter_splits_timesteps(self):
        net = Network(
            EventScheduler(), latency=1.0, jitter=0.5, rng=random.Random(1)
        )
        Echo(1, net)
        b = Echo(2, net)
        for _ in range(5):
            net.send(1, 2, "ping", None)
        net.run()
        assert len(b.log) == 5

    def test_batch_send_order_preserved(self):
        net = Network(EventScheduler(), latency=1.0, rng=random.Random(1))
        received = []

        class Collector(SimMachine):
            def __init__(self, identifier, network):
                super().__init__(identifier, network)
                self.on("tag", lambda msg: received.append(msg.payload))

        Collector(1, net)
        Collector(2, net)
        for i in range(8):
            net.send(1, 2, "tag", i)
        net.run()
        assert received == list(range(8))


class TestHandlerExceptionMidWindow:
    """A handler that raises must not corrupt the delivery window.

    ``_deliver_pending`` has already popped the window's batch when a
    handler raises, so the rest of that batch can never be delivered.  It
    is counted as dropped against its senders (sent = delivered + dropped
    keeps holding, which the benchmark checks on every run), and the
    topology tick of the aborted window must not leak into later sends.
    """

    FABRICS = {"flat": None, "topology": one_site(1.0)}

    @staticmethod
    def _net(topology):
        return Network(
            EventScheduler(), latency=1.0, rng=random.Random(1), topology=topology
        )

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_remainder_of_window_is_dropped_against_senders(self, fabric):
        net = self._net(self.FABRICS[fabric])
        a, b, c = Echo(1, net), Echo(2, net), Echo(3, net)
        a.send(2, "no-such-kind")  # b raises UnknownMessageError
        a.send(2, "ping")
        c.send(2, "ping")
        with pytest.raises(UnknownMessageError):
            net.run()
        assert b.log == []  # nothing after the raising message was delivered
        assert (net.messages_sent, net.messages_delivered, net.messages_dropped) == (3, 1, 2)
        assert net.traffic[1].dropped_to == 1 and net.traffic[3].dropped_to == 1
        assert not net._pending
        if net.topology is not None:
            assert net.class_dropped == {"rack": 2}
            assert sum(net.class_sent.values()) == sum(
                net.class_delivered.values()
            ) + sum(net.class_dropped.values())

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_network_keeps_working_after_the_exception(self, fabric):
        net = self._net(self.FABRICS[fabric])
        a, b = Echo(1, net), Echo(2, net)
        a.send(2, "no-such-kind")
        with pytest.raises(UnknownMessageError):
            net.run()
        assert net._current_tick is None and not net._delivering
        # A stale tick would window this send off t=1 instead of the clock.
        net.scheduler.run(until=5.0)
        a.send(2, "ping")
        net.run()
        assert b.log == [("ping", 1)] and a.log == [("pong", 2)]
        assert net.scheduler.now == 7.0
        assert net.messages_sent == net.messages_delivered + net.messages_dropped

    def test_post_window_callbacks_do_not_outlive_the_window(self):
        # A leaf that stages a record forward or a MATCH notice queues its
        # outbox flush for the end of the window.  A raise after staging
        # must not carry the callback into the next window, nor leave any
        # leaf's outbox open.
        salad = Salad(SaladConfig(seed=3))
        salad.build(16)
        net = salad.network
        kinds = (protocol.RECORD, protocol.RECORD_BATCH)
        handlers = {
            leaf: {kind: leaf._handlers[kind] for kind in kinds}
            for leaf in salad.leaves.values()
        }
        staged = []

        def stage_then_raise(leaf, handler):
            def handle(message):
                handler(message)
                if leaf._out_records is not None:  # its flush is queued
                    staged.append(leaf)
                    raise RuntimeError("handler failed mid-window")

            return handle

        for leaf, by_kind in handlers.items():
            for kind, handler in by_kind.items():
                leaf.on(kind, stage_then_raise(leaf, handler))
        with pytest.raises(RuntimeError):
            salad_wave(salad, 0)
        assert len(staged) == 1
        assert not net._post_window
        for leaf in salad.leaves.values():
            assert leaf._out_records is None and leaf._out_notices is None
        for leaf, by_kind in handlers.items():
            for kind, handler in by_kind.items():
                leaf.on(kind, handler)
        salad_wave(salad, 1)
        assert_accounted(net)


def assert_accounted(net):
    assert net.messages_sent == net.messages_delivered + net.messages_dropped
    assert sum(net.sent_by_kind.values()) == net.messages_sent


def salad_wave(salad, wave, per_leaf=4):
    """Every live leaf publishes *per_leaf* records from a shared content pool."""
    salad.insert_records(
        {
            leaf.identifier: [
                SaladRecord(
                    synthetic_fingerprint(4096 + content, 100 * wave + content),
                    leaf.identifier,
                )
                for content in range(index % 5, index % 5 + per_leaf)
            ]
            for index, leaf in enumerate(salad.alive_leaves())
        }
    )


class TestFeaturesSwitchedOnMidRun:
    """Loss, partitions and cuts take effect on the next send or delivery.

    The fabric skips every feature check while all features are off, so
    each way of turning one on -- or off -- must reach the per-message
    path at once, and the counters must balance in every case.
    """

    def test_plain_fabric_pays_for_no_feature(self):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"feature path touched: {name}")

        net = make_net()
        a, b = Echo(1, net), Echo(2, net)
        net._rng = net._loss_rng = Untouchable()  # no RNG draw
        net._partitioned = Untouchable  # no partition probe (calling it raises)
        a.send(2, "ping")
        net.run()
        assert a.log == [("pong", 2)]
        assert_accounted(net)

    def test_loss_switched_on_and_off_between_waves(self):
        salad = Salad(SaladConfig(seed=3))
        salad.build(16)
        net = salad.network
        salad_wave(salad, 0)
        assert net.messages_dropped == 0
        salad.set_loss_probability(0.3)
        salad_wave(salad, 1)
        dropped = net.messages_dropped
        assert dropped > 0
        assert_accounted(net)
        salad.set_loss_probability(0.0)
        salad_wave(salad, 2)
        assert net.messages_dropped == dropped
        assert_accounted(net)

    def test_partition_from_a_handler_mid_window(self):
        net = make_net()
        a, b, c = Echo(1, net), Echo(2, net), Echo(3, net)
        b.on("split", lambda msg: net.partition({"island": [3]}))
        a.send(2, "split")
        a.send(3, "ping")  # same window, after the split: now cross-partition
        a.send(2, "ping")  # same window, same side: still delivered
        net.run()
        assert c.log == []
        assert b.log == [("ping", 1)] and a.log == [("pong", 2)]
        assert net.messages_dropped == 1 and net.traffic[1].dropped_to == 1
        assert_accounted(net)

    def test_cut_in_topology_mode_between_waves(self):
        topology = parse_topology("corporate")
        salad = Salad(SaladConfig(seed=3, topology=topology))
        salad.build(24)
        net = salad.network
        salad_wave(salad, 0)
        assert net.messages_dropped == 0
        net.cut(*topology.wan_links())
        salad_wave(salad, 1)
        assert net.class_dropped == {"wan": net.messages_dropped} != {"wan": 0}
        for counts in (net.class_sent, net.class_delivered, net.class_dropped):
            assert set(counts) <= {"rack", "lan", "wan"}
        assert sum(net.class_sent.values()) == net.messages_sent
        assert sum(net.class_delivered.values()) == net.messages_delivered
        assert_accounted(net)

    def test_deregister_after_partition_switches_the_feature_off(self):
        net = make_net()
        a, b, c = Echo(1, net), Echo(2, net), Echo(3, net)
        net.partition({"island": [2]})
        a.send(2, "ping")  # dropped at send
        b.depart()  # takes its label along: nothing is partitioned any more
        assert not net._features_on
        a.send(3, "ping")
        returning = Echo(2, net)  # a re-registered id inherits no stale label
        a.send(2, "ping")
        net.run()
        assert c.log == [("ping", 1)] and returning.log == [("ping", 1)]
        assert net.messages_dropped == 1
        assert_accounted(net)
