"""The deterministic discrete-event scheduler.

Events are ordered by virtual time with FIFO tie-breaking, so runs are
exactly reproducible.  Actions scheduled at the same timestamp execute in
scheduling order, which is what makes the SALAD protocols (where a leaf may
send several messages "simultaneously") deterministic.

:class:`EventScheduler` is a *calendar queue*: events land in per-timestamp
FIFO buckets and a small heap orders only the distinct timestamps.
Simulated networks produce thousands of events per timestep (every message
sent at time t delivers at t + latency), so the per-event cost collapses to
a dict lookup and a list append instead of a heap push/pop with record
comparisons.  Event records are plain 3-slot lists, not dataclasses,
keeping allocation light on the hot path.  The seed's binary-heap engine
lives on in ``tests/reference_engine.py`` as the oracle the contract suite
and the golden-trace tests compare this one against.
"""

from __future__ import annotations

import gc
import heapq
from typing import Callable, Dict, List, Optional

Action = Callable[[], None]


class SimulationError(Exception):
    """Raised on scheduler misuse (e.g., scheduling into the past)."""


# Calendar-queue event entries are bare lists [time, action, cancelled]:
# index constants instead of attribute lookups on the hot path.
_TIME, _ACTION, _CANCELLED = 0, 1, 2


class EventHandle:
    """Handle returned by :meth:`EventScheduler.schedule`; supports cancel."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[_CANCELLED] = True


class _Bucket:
    """FIFO slot of one timestamp: entries plus a consumption cursor."""

    __slots__ = ("cursor", "entries")

    def __init__(self) -> None:
        self.cursor = 0
        self.entries: List[list] = []


class EventScheduler:
    """Calendar-queue event loop with virtual time.

    Buckets (one per distinct timestamp) are kept in a dict; a heap orders
    the timestamps.  Scheduling into the bucket currently being drained
    (delay 0) appends behind the cursor, preserving FIFO among
    same-timestamp events exactly as a single binary heap would.
    """

    def __init__(self) -> None:
        self._buckets: Dict[float, _Bucket] = {}
        self._times: List[float] = []  # heap of bucket timestamps
        self._active: Optional[_Bucket] = None
        self._active_time: float = 0.0
        self.now: float = 0.0
        self.events_executed = 0

    def schedule(self, delay: float, action: Action) -> EventHandle:
        """Schedule *action* to run *delay* time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[time] = bucket
            heapq.heappush(self._times, time)
        entry = [time, action, False]
        bucket.entries.append(entry)
        return EventHandle(entry)

    def schedule_at(self, time: float, action: Action) -> EventHandle:
        """Schedule *action* at absolute virtual *time*."""
        return self.schedule(time - self.now, action)

    def __len__(self) -> int:
        return sum(
            sum(1 for entry in bucket.entries[bucket.cursor :] if not entry[_CANCELLED])
            for bucket in self._buckets.values()
        )

    def _front(self) -> Optional[_Bucket]:
        """The bucket holding the earliest pending event, or None.

        Advances cursors past cancelled entries and retires drained buckets.
        The active-bucket cache skips the heap on consecutive same-timestamp
        events (the common case: every message sent at time t delivers at
        t + latency); a bucket's heap entry is popped only when the bucket
        drains, so an active bucket is valid exactly while its timestamp is
        still the heap minimum -- an event scheduled at an earlier time
        (possible after a peek that did not advance ``now``) demotes it.
        """
        while True:
            bucket = self._active
            if bucket is not None and self._times and self._times[0] == self._active_time:
                entries = bucket.entries
                cursor = bucket.cursor
                length = len(entries)
                while cursor < length and entries[cursor][_CANCELLED]:
                    cursor += 1
                bucket.cursor = cursor
                if cursor < length:
                    return bucket
                del self._buckets[self._active_time]
                heapq.heappop(self._times)
                self._active = None
            else:
                self._active = None
            if not self._times:
                return None
            time = self._times[0]
            nxt = self._buckets.get(time)
            if nxt is None:  # stale heap entry (bucket re-created then drained)
                heapq.heappop(self._times)
                continue
            self._active = nxt
            self._active_time = time

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until quiescence, virtual time *until*, or *max_events*.

        Returns the number of events executed by this call.

        The drain runs with CPython's cyclic collector paused and restores
        the collector state it found on every exit path.  Handlers allocate
        a message per send, which trips the allocation-count thresholds
        constantly, but the engine builds no reference cycles
        (``tests/salad/test_no_cycles.py`` pins that), so every collection a
        drain triggers traverses the whole live heap and frees nothing.
        Reference counting still reclaims everything a handler drops.  A
        nested ``run`` (or a caller that disabled the collector itself)
        finds it off and leaves it off.
        """
        executed = 0
        front = self._front
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                bucket = front()
                if bucket is None:
                    break
                entry = bucket.entries[bucket.cursor]
                if until is not None and entry[_TIME] > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                bucket.cursor += 1
                self.now = entry[_TIME]
                entry[_ACTION]()
                self.events_executed += 1
                executed += 1
        finally:
            if collecting:
                gc.enable()
        if until is not None and self.now < until and not self._has_pending_before(until):
            self.now = until
        return executed

    def _has_pending_before(self, time: float) -> bool:
        bucket = self._front()
        return bucket is not None and bucket.entries[bucket.cursor][_TIME] <= time
