"""Message tracing and protocol-invariant checking.

Wraps a :class:`repro.sim.network.Network` so every send is recorded, then
validates structural invariants of the SALAD protocols over the trace:

- *record hop bound*: no record message exceeds the 2D hop budget;
- *record progress* (uniform-width systems): along any forwarding chain the
  number of coordinates matching the fingerprint never decreases;
- *join suppression*: no leaf processes the same new leaf's join twice
  (checked by at-most-once forwarding per (leaf, new_leaf) pair);
- *traffic conservation*: per-machine counters equal the trace totals.

These checks run in tests to catch protocol regressions that black-box
outcome assertions (loss rates, table sizes) might absorb silently -- and,
since the ``--trace-invariants`` flag, as an opt-in runtime mode: the
engine attaches a tracer at construction and harvests per-check violation
counts into the metrics registry (``sim.invariants.*``) at report time
(:meth:`NetworkTracer.feed_registry`).

The tracer wraps ``network.send`` by *instance-attribute* assignment for
the life of the network.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.network import Network


@dataclass(frozen=True)
class TracedMessage:
    index: int
    time: float
    sender: int
    recipient: int
    kind: str
    payload: Any


class NetworkTracer:
    """Records every message sent through a network."""

    def __init__(self, network: Network):
        self.network = network
        self.messages: List[TracedMessage] = []
        self._original_send = network.send
        network.send = self._traced_send  # type: ignore[assignment]

    def _traced_send(self, sender: int, recipient: int, kind: str, payload: Any) -> None:
        self.messages.append(
            TracedMessage(
                index=len(self.messages),
                time=self.network.scheduler.now,
                sender=sender,
                recipient=recipient,
                kind=kind,
                payload=payload,
            )
        )
        self._original_send(sender, recipient, kind, payload)

    # -- queries -------------------------------------------------------------

    def by_kind(self, kind: str) -> List[TracedMessage]:
        return [m for m in self.messages if m.kind == kind]

    def record_pairs(self) -> List[Tuple[TracedMessage, Any, int]]:
        """Every routed record as ``(message, record, hops)``.

        Expands coalesced ``record_batch`` envelopes, so invariant checks see
        each record exactly once whether or not it shared an envelope.
        """
        out: List[Tuple[TracedMessage, Any, int]] = []
        for message in self.by_kind("record"):
            record, hops = message.payload
            out.append((message, record, hops))
        for message in self.by_kind("record_batch"):
            for record, hops in message.payload:
                out.append((message, record, hops))
        return out

    # -- invariants ------------------------------------------------------------

    def check_record_hop_bound(self, dimensions: int) -> List[str]:
        """No routed record may carry more than 2*D hops."""
        violations = []
        for message, record, hops in self.record_pairs():
            if hops > 2 * dimensions:
                violations.append(
                    f"record msg #{message.index} carries {hops} hops "
                    f"(budget {2 * dimensions})"
                )
        return violations

    def check_record_progress(self, leaves: Dict[int, Any]) -> Optional[List[str]]:
        """With uniform widths, forwarding must increase coordinate matches.

        For each record message, the recipient must match the fingerprint on
        at least as many leading coordinates as the sender (strictly more
        unless the sender generated the record).  Only meaningful when every
        leaf agrees on W: with divergent widths progress is not guaranteed,
        and the check returns None -- it did not run.
        """
        widths = {leaf.width for leaf in leaves.values()}
        if len(widths) != 1:
            return None
        violations = []
        for message, record, hops in self.record_pairs():
            sender = leaves.get(message.sender)
            recipient = leaves.get(message.recipient)
            if sender is None or recipient is None:
                continue
            s = _matching_prefix(sender, record.routing_id)
            r = _matching_prefix(recipient, record.routing_id)
            if r < s:
                violations.append(
                    f"record msg #{message.index}: prefix {s} -> {r} regressed"
                )
        return violations

    def check_join_suppression(self) -> List[str]:
        """A leaf may forward joins for one new leaf at most once.

        Forwarding more than one *batch* (same sender, same new leaf,
        distinct send times) indicates the flood suppression failed.
        """
        first_batch_time: Dict[Tuple[int, int], float] = {}
        violations = []
        for message in self.by_kind("join"):
            payload = message.payload
            key = (message.sender, payload.new_leaf)
            seen = first_batch_time.get(key)
            if seen is None:
                first_batch_time[key] = message.time
            elif message.time != seen:
                violations.append(
                    f"leaf {message.sender:#x} forwarded join for "
                    f"{payload.new_leaf:#x} in two batches"
                )
        return violations

    def check_traffic_conservation(self) -> List[str]:
        """Per-machine sent counters must equal the trace."""
        sent = Counter(m.sender for m in self.messages)
        violations = []
        for identifier, traffic in self.network.traffic.items():
            if traffic.sent != sent.get(identifier, 0):
                violations.append(
                    f"machine {identifier:#x}: counter says {traffic.sent} "
                    f"sent, trace says {sent.get(identifier, 0)}"
                )
        return violations

    def feed_registry(self, registry, leaves: Dict[int, Any], dimensions: int) -> int:
        """Run every invariant check and record violation counts; returns total.

        One labeled ``sim.invariants.violations`` counter per check that ran
        (created even at zero, so a report proves the check ran), one
        ``sim.invariants.skipped`` counter per check that could not run
        (progress, when leaf widths differ), plus the number of messages the
        trace covered.
        """
        checks = {
            "hop_bound": self.check_record_hop_bound(dimensions),
            "progress": self.check_record_progress(leaves),
            "join_suppression": self.check_join_suppression(),
            "traffic_conservation": self.check_traffic_conservation(),
        }
        total = 0
        for name, violations in checks.items():
            if violations is None:
                registry.counter("sim.invariants.skipped", check=name).inc()
                continue
            registry.counter("sim.invariants.violations", check=name).inc(
                len(violations)
            )
            total += len(violations)
        registry.counter("sim.invariants.messages_traced").inc(len(self.messages))
        return total


def _matching_prefix(leaf, routing_id: int) -> int:
    """Number of leading coordinates on which the leaf matches the id."""
    count = 0
    for d in range(leaf.dimensions):
        if leaf.coord(routing_id, d) != leaf.coord(leaf.identifier, d):
            break
        count += 1
    return count
