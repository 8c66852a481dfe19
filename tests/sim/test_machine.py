"""SimMachine dispatch and lifecycle."""

import pytest

from repro.sim.events import EventScheduler
from repro.sim.machine import SimMachine, UnknownMessageError
from repro.sim.network import Network


def make_machine():
    net = Network(EventScheduler())
    return SimMachine(7, net), net


class TestDispatch:
    def test_handler_called_with_message(self):
        machine, net = make_machine()
        seen = []
        machine.on("hello", lambda msg: seen.append(msg.payload))
        other = SimMachine(8, net)
        other.send(7, "hello", {"k": 1})
        net.run()
        assert seen == [{"k": 1}]

    def test_unknown_kind_raises(self):
        machine, net = make_machine()
        other = SimMachine(8, net)
        other.send(7, "mystery")
        with pytest.raises(UnknownMessageError):
            net.run()

    def test_dead_machine_ignores_messages(self):
        machine, net = make_machine()
        seen = []
        machine.on("hello", lambda msg: seen.append(1))
        other = SimMachine(8, net)
        other.send(7, "hello")
        machine.fail()  # fails after send, before delivery
        net.run()
        assert seen == []


class TestLifecycle:
    def test_repr_shows_state(self):
        machine, net = make_machine()
        assert "up" in repr(machine)
        machine.fail()
        assert "down" in repr(machine)
