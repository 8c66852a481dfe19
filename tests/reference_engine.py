"""The seed's reference oracles for the SALAD engine, as test fixtures.

The shipped engine runs one path per procedure: Fig. 4 routing through the
leaf's next-hop cache, Fig. 6 width commits that drop what the index
rebuild at the new width no longer places, and the calendar-queue event
scheduler.  Each is message-for-message identical to the seed's simpler
implementation, which lives on here so the golden-trace, width-golden,
routing-counter and property suites can keep comparing the two:

- :class:`ScanWidthLeaf` re-derives the entries a width increase drops with
  a full leaf-table scan, counted in ``survivor_scans``;
- :class:`ReferenceLeaf` adds the seed's per-axis coordinate scan for
  routing, with no next-hop cache;
- :class:`ReferenceEventScheduler` is the seed's binary-heap scheduler;
- the alignment predicates of Eqs. 11, 12 and 15, which the leaf computes
  with its cached masks, are the oracle of its index.

:class:`ReferenceSalad` and :class:`ScanWidthSalad` build their leaves from
these classes through ``Salad.leaf_class``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.salad.ids import axis_masks, coordinate
from repro.salad.leaf import SaladLeaf
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad
from repro.sim.events import Action, SimulationError
from repro.sim.network import Message


# ----------------------------------------------------------------------
# Alignment predicates (Eqs. 11, 12, 15)
# ----------------------------------------------------------------------
#
# Two identifiers are cell-aligned if their cell-IDs are equal (all D
# coordinates match); d-vector-aligned (Eq. 11) if every coordinate except
# possibly the d-axis matches; vector-aligned (Eq. 12) if d-vector-aligned
# for some d; delta-dimensionally-aligned (Eq. 15) if at most delta
# coordinates mismatch.  Coordinates of axes with zero bit width (W < D)
# always match, so the predicates respect Eq. 16's effective dimensionality.


def mismatching_dimensions(i: int, j: int, width: int, dimensions: int) -> List[int]:
    """The set Delta of axes on which the two identifiers' coordinates differ.

    This is the workhorse: ``len(...)`` is the lowest dimensional alignment
    delta of the pair, and the Fig. 5 join procedure needs the set itself.

    Implemented with per-axis bit masks: coordinate extraction is a pure bit
    permutation, so coordinate d differs iff the XOR of the identifiers has
    a set bit among axis d's interleaved positions.  One XOR plus D ANDs
    replaces 2*D extraction loops.
    """
    diff = (i ^ j) & ((1 << width) - 1)
    if not diff:
        return []
    masks = axis_masks(width, dimensions)
    return [d for d in range(dimensions) if diff & masks[d]]


def cell_aligned(i: int, j: int, width: int) -> bool:
    """Cell-aligned: equal cell-IDs (zero-dimensionally aligned)."""
    mask = (1 << width) - 1
    return (i & mask) == (j & mask)


def d_vector_aligned(i: int, j: int, width: int, dimensions: int, axis: int) -> bool:
    """Eq. 11: all coordinates except possibly *axis* match."""
    if not 0 <= axis < dimensions:
        raise ValueError(f"axis {axis} out of range for D={dimensions}")
    return all(
        coordinate(i, width, dimensions, d) == coordinate(j, width, dimensions, d)
        for d in range(dimensions)
        if d != axis
    )


def vector_aligned(i: int, j: int, width: int, dimensions: int) -> bool:
    """Eq. 12: d-vector-aligned for some d (one-dimensionally aligned)."""
    return len(mismatching_dimensions(i, j, width, dimensions)) <= 1


def delta_dimensionally_aligned(
    i: int, j: int, width: int, dimensions: int, delta: int
) -> bool:
    """Eq. 15: the identifiers share a delta-dimensional hypersquare."""
    if delta < 0:
        raise ValueError(f"delta cannot be negative: {delta}")
    return len(mismatching_dimensions(i, j, width, dimensions)) <= delta


def lowest_alignment(i: int, j: int, width: int, dimensions: int) -> int:
    """The smallest delta for which the pair is delta-dimensionally aligned.

    0 means cell-aligned, 1 vector-aligned, and so on.  This is the delta of
    the Fig. 5 pseudo-code.
    """
    return len(mismatching_dimensions(i, j, width, dimensions))


def survives_next_width(leaf: SaladLeaf, identifier: int) -> bool:
    """Would *identifier* stay vector-aligned with *leaf* at width W+1?

    The full-mask form of the leaf's ``_grow_bit`` / ``_grow_axis`` rule.
    """
    diff = (identifier ^ leaf.identifier) & leaf._next_cell_mask
    if not diff:
        return True
    mismatched = False
    for mask in leaf._next_axis_masks:
        if diff & mask:
            if mismatched:
                return False
            mismatched = True
    return True


class ScanWidthLeaf(SaladLeaf):
    """A leaf whose width increases drop entries found by a full scan.

    The scan runs before the shipped rebuild, so that rebuild finds nothing
    left to drop: the two must delete the same entries.
    """

    def _rebuild_index(self) -> None:
        # _cell_mask still holds the width the index was last built for.
        if self.width == self._cell_mask.bit_length() + 1:
            self.survivor_scans += 1
            dropped = [
                identifier
                for identifier in self.leaf_table
                if not survives_next_width(self, identifier)
            ]
            for identifier in dropped:
                del self.leaf_table[identifier]
        super()._rebuild_index()


class ReferenceLeaf(ScanWidthLeaf):
    """Both seed oracles: scan-based width commits and uncached routing.

    Every record, off the wire or initiated, goes through the batch layer
    and :meth:`_route_record_reference`, so the next-hop counters stay 0.
    """

    def _on_record(self, message: Message) -> None:
        record, hops = message.payload
        tracer = self.recorder
        if tracer is not None and tracer.sampled(record._rid):
            tracer.record_hop(record, hops, message.sender, self.identifier)
        self._process_batch([(record, hops)])

    def _route_batch_indexed(
        self, pairs: Iterable[tuple], forwards: Dict[int, List[tuple]]
    ) -> None:
        for record, hops in pairs:
            self._route_record_reference(record, hops, forwards)

    def _route_record_reference(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """The Fig. 4 procedure for record `<f, l>` at leaf I, per axis.

        The seed's implementation: per-axis coordinate extraction on every
        record, no caching, the same 2*D hop budget.
        """
        routing_id = record.routing_id
        for d in range(self.dimensions):
            if self.coord(routing_id, d) != self.coord(self.identifier, d):
                if hops >= 2 * self.dimensions:
                    return  # hop budget exhausted: the record is lost
                # Forward along my d-axis vector to leaves whose d-coordinate
                # matches the fingerprint's, then exit.
                for target in self._vector_members(d, self.coord(routing_id, d)):
                    forwards.setdefault(target, []).append((record, hops + 1))
                return
        self.record_arrivals += 1
        self.record_hops += hops
        self._store(record, hops, forwards)


class ScanWidthSalad(Salad):
    leaf_class = ScanWidthLeaf


class ReferenceSalad(Salad):
    leaf_class = ReferenceLeaf


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    action: Action = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class _ReferenceEventHandle:
    """Handle returned by :meth:`ReferenceEventScheduler.schedule`."""

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class ReferenceEventScheduler:
    """The seed's priority-queue event loop, the oracle engine.

    One ``(time, sequence, action)`` record per event on a single binary
    heap.  Semantically identical to ``EventScheduler``; roughly 2-4x
    slower on message-heavy workloads because every event pays a heap
    push/pop with record comparisons.
    """

    def __init__(self) -> None:
        self._queue: List[_Event] = []
        self._sequence = itertools.count()
        self.now: float = 0.0
        self.events_executed = 0

    def schedule(self, delay: float, action: Action) -> _ReferenceEventHandle:
        """Schedule *action* to run *delay* time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = _Event(time=self.now + delay, sequence=next(self._sequence), action=action)
        heapq.heappush(self._queue, event)
        return _ReferenceEventHandle(event)

    def schedule_at(self, time: float, action: Action) -> _ReferenceEventHandle:
        """Schedule *action* at absolute virtual *time*."""
        return self.schedule(time - self.now, action)

    def __len__(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    def step(self) -> bool:
        """Execute the next pending event; return False if none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.action()
            self.events_executed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until quiescence, virtual time *until*, or *max_events*.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        if until is not None and self.now < until and not self._has_pending_before(until):
            self.now = until
        return executed

    def _peek(self) -> Optional[_Event]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def _has_pending_before(self, time: float) -> bool:
        event = self._peek()
        return event is not None and event.time <= time
