"""Message-passing network connecting simulated machines.

The network delivers typed messages between machines over the event
scheduler, counting every send and receive per machine (the raw data behind
Figs. 9 and 10).  Failure awareness: messages addressed to a failed machine
are silently dropped, exactly as a crashed desktop would drop them -- that is
the mechanism by which machine failures translate into SALAD lossiness in the
Fig. 8 experiment.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.events import EventScheduler
from repro.sim.topology import Topology

if TYPE_CHECKING:
    from repro.sim.machine import SimMachine


@dataclass(eq=False, slots=True)
class Message:
    """A network message (immutable by convention; never mutated after send).

    ``kind`` is a protocol-level tag (e.g. ``"record"``, ``"join"``);
    ``payload`` is arbitrary protocol data.  Sender/recipient are machine
    identifiers (large integers, per paper section 2).

    A plain slots dataclass rather than a frozen one: one Message is built
    per send on the simulator's hottest path, and the frozen guard turns
    every field assignment in ``__init__`` into an ``object.__setattr__``
    call.  Nothing compares or hashes messages (``eq=False`` keeps default
    identity semantics explicit).
    """

    sender: int
    recipient: int
    kind: str
    payload: Any


@dataclass(slots=True)
class MachineTraffic:
    """Per-machine traffic counters (per-kind counts are network-wide:
    :attr:`Network.sent_by_kind`)."""

    sent: int = 0
    received: int = 0
    dropped_to: int = 0  # messages this machine sent that were dropped

    @property
    def total(self) -> int:
        """Sent plus received -- the paper's "messages sent and received"."""
        return self.sent + self.received


class Network:
    """The simulated network fabric.

    Machines register under their identifier; :meth:`send` schedules delivery
    after a (possibly jittered) latency.  A message to an unknown, failed, or
    departed machine is counted as sent and then dropped.

    With a *topology* (:class:`repro.sim.topology.Topology`), the global
    latency is replaced by the per-pair link-class delay (rack/lan/wan
    ticks of the topology quantum), delivery windows are keyed by integer
    tick, per-class message counters are maintained, and named links can be
    severed with :meth:`cut`/:meth:`heal` in addition to the flat
    ``partition()`` labels.  Without a topology every code path below is
    byte-for-byte the flat fabric, and the degenerate one-site topology
    (``topology.one_site(latency)``) reproduces its traces bit-identically.

    Messages sharing a delivery timestamp form one *delivery window*: they
    are queued on one scheduler event per timestep and delivered in send
    order when that timestep fires.  A machine may defer work to the end of
    the window it is being delivered in (:meth:`defer_post_window`); SALAD
    leaves stage their record forwards and duplicate notices that way and
    send each recipient one envelope per window.

    The fabric pays only for the features that are on.  Topology, jitter,
    loss, partitions and cuts sit behind one flag, ``_features_on``, which
    every send and every delivery reads afresh; with all of them off a send
    makes no topology lookup, no RNG draw and no partition or cut probe, and
    a delivery checks only that its recipient is registered and alive.
    Everything that turns a feature on or off (the ``loss_probability``
    setter, :meth:`partition`, :meth:`cut`, their heals, :meth:`deregister`)
    recomputes the flag, so it takes effect on the very next send or
    delivery, a handler's mid-window call included.  ``topology`` and
    ``jitter`` are fixed at construction.
    """

    def __init__(
        self,
        scheduler: Optional[EventScheduler] = None,
        latency: float = 1.0,
        jitter: float = 0.0,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        topology: Optional[Topology] = None,
    ):
        if topology is not None and jitter:
            # Jitter was flat-fabric noise; with a topology the latency
            # classes carry the heterogeneity, and sub-quantum jitter would
            # break the integer-tick delivery windows that keep batches
            # exact.
            raise ValueError("jitter is not supported with a topology")
        self.scheduler = scheduler or EventScheduler()
        self.latency = latency
        self.jitter = jitter
        self.topology = topology
        self._rng = rng or random.Random(0)
        # Loss draws get their own substream, seeded once from the main rng.
        # Sharing one stream would let turning on loss_probability perturb
        # every subsequent jitter draw (and hence every delivery timestamp),
        # making traces with and without loss incomparable.  The single
        # getrandbits here is the only coupling between the two streams, and
        # it is consumed unconditionally, so the jitter sequence is the same
        # whether or not loss is ever enabled.
        self._loss_rng = random.Random(self._rng.getrandbits(64))
        self._machines: Dict[int, "SimMachine"] = {}
        #: Every identifier that was ever registered; partition() warns on
        #: labels for identifiers outside this set (usually a typo'd id).
        self._ever_registered: Set[int] = set()
        self.traffic: Dict[int, MachineTraffic] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Runs to quiescence that the engine driving this network counted
        #: (repro.salad.salad.Salad advances it after each of its settles).
        #: Nothing sent before a count is in flight after it, so a leaf
        #: keys flood state that only matters in flight by this number.
        #: A bare run() leaves it alone.
        self.settles = 0
        #: Messages sent per protocol kind, network-wide (dropped ones
        #: included, so the values sum to ``messages_sent``).
        self.sent_by_kind: Dict[str, int] = {}
        #: Per-link-class message counters (topology mode only), keyed by
        #: class name ("rack"/"lan"/"wan") -- the raw data behind the
        #: fig_topology per-class load measurements.
        self.class_sent: Dict[str, int] = {}
        self.class_delivered: Dict[str, int] = {}
        self.class_dropped: Dict[str, int] = {}
        #: In-flight messages per delivery window.  Keys are float
        #: timestamps on the flat fabric (seed behavior, kept bit-identical)
        #: and *integer ticks* in topology mode: with heterogeneous per-link
        #: delays, accumulated float timestamps can drift by ulps and split
        #: one logical window into two batches, while tick ids are exact.
        self._pending: Dict[Any, List[Message]] = {}
        #: The integer tick of the batch currently being delivered
        #: (topology mode), so handler re-sends window off an exact integer
        #: instead of re-deriving it from the float clock.
        self._current_tick: Optional[int] = None
        #: Named topology links currently severed (see cut/heal).
        self._severed: Set[str] = set()
        # Post-window work (see defer_post_window): callbacks queued while a
        # delivery batch is draining, run once the whole batch has been
        # delivered.  Only populated by machines that opt into deferral.
        self._delivering = False
        self._post_window: List[Any] = []
        # Partition map: machine id -> partition label.  Messages crossing
        # partition labels are dropped.  Unlabeled machines share the
        # implicit default partition.
        self._partition_of: Dict[int, object] = {}
        self._features_on = False
        self.set_loss_probability(loss_probability)  # validates; sets _features_on

    # -- fabric features -----------------------------------------------------

    def set_loss_probability(self, probability: float) -> None:
        """Lose any one send with this probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0,1]: {probability}")
        self._loss_probability = probability
        self._refresh_features()

    def _refresh_features(self) -> None:
        self._features_on = bool(
            self.topology is not None
            or self.jitter
            or self._loss_probability
            or self._partition_of
            or self._severed
        )

    # -- membership ----------------------------------------------------------

    def register(self, machine: "SimMachine") -> None:
        if machine.identifier in self._machines:
            raise ValueError(f"machine {machine.identifier:#x} already registered")
        self._machines[machine.identifier] = machine
        self._ever_registered.add(machine.identifier)
        self.traffic.setdefault(machine.identifier, MachineTraffic())

    def deregister(self, identifier: int) -> None:
        self._machines.pop(identifier, None)
        # A departed machine leaves the partition map too: keeping its label
        # would let a later re-registration (or a reused identifier) silently
        # inherit a stale partition and drop traffic with no cut in force.
        self._partition_of.pop(identifier, None)
        self._refresh_features()

    # -- partitions ------------------------------------------------------------

    def partition(self, groups: "Dict[object, list]") -> None:
        """Split the network: messages between different groups are dropped.

        *groups* maps a label to the machine identifiers in that partition.
        Machines not listed stay in the default partition together.
        """
        unknown = [
            identifier
            for members in groups.values()
            for identifier in members
            if identifier not in self._ever_registered
        ]
        if unknown:
            warnings.warn(
                f"partition() labels {len(unknown)} machine id(s) that were "
                f"never registered (first: {unknown[0]:#x}); the labels are "
                "inert until such a machine joins",
                RuntimeWarning,
                stacklevel=2,
            )
        self._partition_of = {}
        for label, members in groups.items():
            for identifier in members:
                self._partition_of[identifier] = label
        self._refresh_features()

    def heal_partition(self) -> None:
        """Restore full connectivity (clears labels and topology cuts)."""
        self._partition_of = {}
        self._severed.clear()
        self._refresh_features()

    def _partitioned(self, a: int, b: int) -> bool:
        return self._partition_of.get(a) != self._partition_of.get(b)

    # -- topology cuts -------------------------------------------------------

    def cut(self, *links: str) -> None:
        """Sever named topology links; messages crossing them are dropped.

        Cuts compose: each call adds to the severed set, and :meth:`heal`
        restores links independently -- unlike the flat ``partition()`` map,
        which is replaced wholesale per call.  Like partitions, cuts are
        re-checked at delivery time, so a cut that forms while a message is
        in flight severs it.
        """
        if self.topology is None:
            raise ValueError("cut() requires a Network with a topology")
        self.topology.validate_links(links)
        self._severed.update(links)
        self._refresh_features()

    def heal(self, *links: str) -> None:
        """Heal named links severed by :meth:`cut` (no args: heal all cuts)."""
        if links:
            self._severed.difference_update(links)
        else:
            self._severed.clear()
        self._refresh_features()

    # -- traffic -------------------------------------------------------------

    def _traffic(self, identifier: int) -> MachineTraffic:
        # Hot path: avoid constructing a throwaway MachineTraffic per call
        # (setdefault evaluates its default eagerly).
        traffic = self.traffic.get(identifier)
        if traffic is None:
            traffic = self.traffic[identifier] = MachineTraffic()
        return traffic

    def send(self, sender: int, recipient: int, kind: str, payload: Any) -> None:
        """Send a message; delivery is scheduled on the event loop."""
        traffic = self.traffic.get(sender)
        if traffic is None:
            traffic = self.traffic[sender] = MachineTraffic()
        traffic.sent += 1
        self.messages_sent += 1
        by_kind = self.sent_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if self._features_on:
            window = self._fabric_window(traffic, sender, recipient)
            if window is None:
                return  # dropped (and counted) by the fabric
            key, delay = window
        else:
            delay = self.latency
            key = self.scheduler.now + delay
        # Built only for surviving messages: a dropped send never needs the
        # object, and this runs once per send on the simulator's hottest path.
        # Positional: keyword binding costs measurably more per construction.
        message = Message(sender, recipient, kind, payload)
        # One scheduler event per delivery window: queue the message on its
        # window's batch; the first message of a window schedules the
        # delivery.  FIFO within the batch preserves send order.
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = [message]
            self.scheduler.schedule(delay, lambda: self._deliver_pending(key))
        else:
            pending.append(message)

    def _fabric_window(
        self, traffic: MachineTraffic, sender: int, recipient: int
    ) -> Optional[Tuple[Any, float]]:
        """``(window key, delay)`` of a send with fabric features on.

        None means the send was lost, partitioned or cut; it is counted as
        dropped here.  One jitter draw and one loss draw per send, in a
        fixed order and from independent streams, *before* any drop
        decision: a dropped message consumes exactly the same randomness as
        a delivered one, so the delivery timestamps of the surviving
        messages are identical across runs that differ only in
        loss/partition/cut settings.
        """
        topology = self.topology
        if topology is not None:
            link_name, link_class = topology.link(sender, recipient)
            class_name = link_class.name
            self.class_sent[class_name] = self.class_sent.get(class_name, 0) + 1
        delay = self.latency
        if self.jitter:
            delay += self._rng.random() * self.jitter
        lost = bool(
            self._loss_probability
            and self._loss_rng.random() < self._loss_probability
        )
        if (
            lost
            or (self._partition_of and self._partitioned(sender, recipient))
            or (topology is not None and self._severed and link_name in self._severed)
        ):
            traffic.dropped_to += 1
            self.messages_dropped += 1
            if topology is not None:
                self.class_dropped[class_name] = (
                    self.class_dropped.get(class_name, 0) + 1
                )
            return None
        if topology is None:
            return self.scheduler.now + delay, delay
        # Topology mode: the delivery window is an integer tick and the
        # timestamp a single multiplication off it, so equal nominal delays
        # always share a batch regardless of how many float additions
        # produced "now".
        due = self._now_tick() + link_class.latency_ticks
        return due, due * topology.quantum - self.scheduler.now

    def _now_tick(self) -> int:
        """The current integer tick of the topology quantum clock.

        Exact while a delivery batch is draining (the batch key *is* the
        tick); between batches -- driver sends from quiescence -- the float
        clock is a tick multiple by construction, so rounding recovers the
        integer exactly.
        """
        if self._current_tick is not None:
            return self._current_tick
        return round(self.scheduler.now / self.topology.quantum)

    def defer_post_window(self, callback: Any) -> bool:
        """Queue *callback* to run after the current delivery batch drains.

        Returns True if the callback was queued (a batch is draining right
        now), False otherwise -- in which case the caller must do the work
        eagerly itself.  Each queued callback runs exactly once, in
        first-queued order, at the current timestep; anything it sends joins
        the next delivery window after every handler-originated message of
        this one (the queue drains after the batch, so its sends append to
        the pending batches last).  The queue drains even when a handler
        raised mid-window, so no callback outlives the window that queued
        it.  A callback must not raise.
        """
        if not self._delivering:
            return False
        self._post_window.append(callback)
        return True

    def _deliver_pending(self, key: Any) -> None:
        if self.topology is not None:
            self._current_tick = key  # batch keys are integer ticks
        window = iter(self._pending.pop(key))
        try:
            self._delivering = True
            try:
                self._deliver(window)
            finally:
                self._delivering = False
                # Even after a handler raised: a callback left queued would
                # run at the end of some later window instead of this one.
                if self._post_window:
                    callbacks, self._post_window = self._post_window, []
                    for callback in callbacks:
                        callback()
        finally:
            self._current_tick = None
            # Non-empty only when a handler raised mid-window: the popped
            # remainder can no longer be delivered, so it is dropped against
            # its senders and sent = delivered + dropped still holds when
            # the exception reaches the driver.
            for message in window:
                self._count_dropped(message)

    def _count_dropped(self, message: Message) -> None:
        self._traffic(message.sender).dropped_to += 1
        self.messages_dropped += 1
        if self.topology is not None:
            class_name = self.topology.link(message.sender, message.recipient)[1].name
            self.class_dropped[class_name] = self.class_dropped.get(class_name, 0) + 1

    def _deliver(self, window: Iterable[Message]) -> None:
        """Deliver a window's messages in order: one frame for the window.

        Stops at the first handler exception and leaves the rest of
        *window* unconsumed (the caller counts it as dropped).  Liveness is
        checked per message, as are partitions and cuts when the fabric has
        features on: a machine that crashes, or a partition or cut that
        forms, while a message is in flight -- a handler earlier in this
        same window included -- drops it.  (Send-time checking alone would
        deliver messages across a cut that formed mid-settle.)
        """
        machines = self._machines
        traffic = self.traffic
        for message in window:
            recipient = message.recipient
            machine = machines.get(recipient)
            if (
                machine is None
                or not machine.alive
                or (self._features_on and not self._fabric_delivers(message))
            ):
                self._count_dropped(message)
                continue
            traffic[recipient].received += 1  # registered => has counters
            self.messages_delivered += 1
            machine.receive(message)

    def _fabric_delivers(self, message: Message) -> bool:
        """Partition and cut checks of a delivery; counts its link class."""
        sender, recipient = message.sender, message.recipient
        if self._partition_of and self._partitioned(sender, recipient):
            return False
        topology = self.topology
        if topology is not None:
            link_name, link_class = topology.link(sender, recipient)
            if self._severed and link_name in self._severed:
                return False
            class_name = link_class.name
            self.class_delivered[class_name] = (
                self.class_delivered.get(class_name, 0) + 1
            )
        return True

    def run(self, **kwargs: Any) -> int:
        """Drain the event loop (delegates to the scheduler)."""
        return self.scheduler.run(**kwargs)
