"""Sampled causal tracing + flight recorder for long runs.

Two complementary instruments, both zero-cost when disabled:

1. **Causal traces.**  A deterministic sampler (a SplitMix64-style hash of
   the record's routing id, no RNG consumed) selects a fraction of inserted
   records; every subsystem a sampled record flows through -- the origin
   leaf, each routing hop, the record store and its flush -- emits a small
   event dict tagged with the record's ``trace_id``.  Events group by
   trace_id into one per-record timeline (:func:`build_timelines`) and
   export as Chrome trace-event JSON loadable in Perfetto
   (:func:`export_chrome_trace`).

   Sampling is a pure predicate on data the record already carries, so a
   traced run and an untraced run execute the *same* message trace; the
   golden tests in ``tests/salad/test_trace_golden.py`` pin that down.

2. **Flight recorder.**  A bounded ring of recent trace events plus
   periodic heartbeat snapshots (insert rate, RSS, counters the caller
   passes) appended as JSONL while a long run executes, so a multi-hour
   flagship run is diagnosable live (``python -m repro.obs tail FILE``)
   and post-mortem after a crash -- the ring survives in the last
   heartbeat's wake.

Neither lives in module state: each engine builds its own
:class:`TraceRecorder`, and a run that wants a flight recorder builds
one and hands it to that recorder.  Like the rest of ``repro.obs`` this
module is dependency-free and imports nothing from the simulation
packages: engines hand it plain ints, floats, and callables.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "FlightRecorder",
    "TraceRecorder",
    "build_timelines",
    "export_chrome_trace",
    "sample_threshold",
    "trace_id_for",
]

_MASK64 = (1 << 64) - 1

#: Domain-separation salts: the sampling decision and the trace id must be
#: independent hashes of the same routing id, or every sampled record would
#: share low trace-id bits.
_SAMPLE_SALT = 0x7472616365730A01  # "traces\n\x01"
_TRACE_ID_SALT = 0x7472616365730A02


def _mix64(value: int) -> int:
    """SplitMix64 finalizer over a (possibly 160-bit) identifier.

    Same construction as ``repro.sim.topology._mix64`` (kept local so obs
    stays import-free): fold the wide id to 64 bits by XOR, then run the
    SplitMix64 avalanche so every input bit diffuses into the output.
    """
    x = (value ^ (value >> 64) ^ (value >> 128)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sample_threshold(rate: float) -> int:
    """The 32-bit acceptance threshold for a sampling rate in [0, 1]."""
    if rate <= 0.0:
        return 0
    if rate >= 1.0:
        return 1 << 32
    return int(rate * (1 << 32))


def trace_id_for(routing_id: int, location: int) -> int:
    """Deterministic 64-bit trace id of one ``(fingerprint, location)`` record.

    Re-derived from data the record already carries, so no id ever needs
    to travel alongside the record itself.
    """
    return _mix64(_mix64(routing_id ^ _TRACE_ID_SALT) ^ _mix64(location))


#: Ordering rank for same-timestamp events so merged timelines read causally.
_KIND_ORDER = {
    "insert": 0,
    "route.hop": 1,
    "store": 2,
    "store.flush": 3,
}


class TraceRecorder:
    """The event sink of one engine.

    The engine builds it (or ``None`` at rate 0) and hands it to every leaf
    it builds; the hot paths read their own reference once per batch and
    skip everything when it is ``None``.  ``flight``, when a caller sets
    it, also receives every event (:class:`FlightRecorder`).
    """

    __slots__ = (
        "sample_rate",
        "events",
        "records_sampled",
        "flight",
        "_threshold",
        "_seq",
        "_now",
        "_link_of",
        "_pending_flush",
    )

    def __init__(
        self,
        sample_rate: float,
        now: Optional[Callable[[], float]] = None,
        link_of: Optional[Callable[[int, int], Tuple[str, str]]] = None,
    ) -> None:
        self.sample_rate = float(sample_rate)
        self.events: List[dict] = []
        self.records_sampled = 0
        self.flight: Optional[FlightRecorder] = None
        self._threshold = sample_threshold(sample_rate)
        self._seq = 0
        self._now = now or (lambda: 0.0)
        self._link_of = link_of
        # machine id -> trace ids stored since that machine's last flush.
        self._pending_flush: Dict[int, List[int]] = {}

    # -- sampling ---------------------------------------------------------

    def sampled(self, routing_id: int) -> bool:
        """Deterministic predicate: no RNG is consumed, so sampling can
        never perturb the simulated message trace."""
        return (_mix64(routing_id ^ _SAMPLE_SALT) >> 32) < self._threshold

    # -- event emission ---------------------------------------------------

    def emit(self, kind: str, trace_id: int, machine: int, **extra) -> None:
        event = {
            "kind": kind,
            "trace_id": f"{trace_id:016x}",
            "t": self._now(),
            "seq": self._seq,
            "machine": f"{machine:x}",
        }
        if extra:
            event.update(extra)
        self._seq += 1
        self.events.append(event)
        flight = self.flight
        if flight is not None:
            flight.note_event(event)

    def record_insert(self, record, machine: int) -> None:
        self.records_sampled += 1
        self.emit(
            "insert",
            trace_id_for(record._rid, record.location),
            machine,
            location=f"{record.location:x}",
            size=record.fingerprint.size,
        )

    def record_hop(self, record, hops: int, sender: int, machine: int) -> None:
        extra = {"hops": hops, "sender": f"{sender:x}"}
        if self._link_of is not None:
            link, link_class = self._link_of(sender, machine)
            extra["link"] = link
            extra["link_class"] = link_class
        self.emit("route.hop", trace_id_for(record._rid, record.location), machine, **extra)

    def record_store(self, record, machine: int, hops: int) -> None:
        tid = trace_id_for(record._rid, record.location)
        self.emit("store", tid, machine, hops=hops)
        self._pending_flush.setdefault(machine, []).append(tid)

    def record_flush(self, machine: int) -> None:
        pending = self._pending_flush.pop(machine, None)
        if not pending:
            return
        for tid in pending:
            self.emit("store.flush", tid, machine)

    # -- draining ---------------------------------------------------------

    def take_events(self) -> List[dict]:
        events, self.events = self.events, []
        return events


# -- timeline merging -----------------------------------------------------


def _event_sort_key(event: dict) -> tuple:
    return (
        event.get("t") or 0.0,
        _KIND_ORDER.get(event.get("kind"), 9),
        event.get("seq", 0),
    )


def build_timelines(events: Iterable[dict]) -> Dict[str, List[dict]]:
    """Group events into per-record timelines.

    Returns ``{trace_id_hex: [events...]}`` with each list sorted by
    (virtual time, causal kind order, emission sequence).
    """
    timelines: Dict[str, List[dict]] = {}
    for event in events:
        timelines.setdefault(event["trace_id"], []).append(event)
    for entries in timelines.values():
        entries.sort(key=_event_sort_key)
    return timelines


# -- Chrome trace-event export (Perfetto) ---------------------------------


def export_chrome_trace(events: Iterable[dict], path) -> Path:
    """Write events as Chrome trace-event JSON, loadable in Perfetto.

    One thread lane per machine (``tid``, densely renumbered -- 160-bit
    identifiers exceed what the format accepts) under a single process
    lane; every event is an instant carrying its trace_id/hops/link in
    ``args``.  Virtual time maps to microseconds (1 simulated time unit =
    1 ms) so delivery windows are legible at Perfetto's default zoom.
    """
    events = list(events)
    scale = 1000.0  # virtual time unit -> µs (1 unit = 1 ms on screen)
    tid_of: Dict[str, int] = {}
    for event in events:
        tid_of.setdefault(event["machine"], len(tid_of) + 1)
    trace_events: List[dict] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid,
            "args": {"name": f"leaf {machine[:12]}"},
        }
        for machine, tid in tid_of.items()
    ]
    for event in events:
        trace_events.append(
            {
                "ph": "i",
                "name": event["kind"],
                "cat": "trace",
                "pid": 0,
                "tid": tid_of[event["machine"]],
                "ts": event["t"] * scale,
                "s": "t",
                "args": {
                    k: v
                    for k, v in event.items()
                    if k not in ("kind", "t", "seq", "machine") and v is not None
                },
            }
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": trace_events}, indent=None))
    return path


# -- flight recorder ------------------------------------------------------


class FlightRecorder:
    """Bounded ring of recent trace events + heartbeat JSONL appender.

    Heartbeats are written (and the ring drained after them) on every
    :meth:`heartbeat` call, each line flushed immediately so the file is
    complete up to the last heartbeat even if the process dies mid-run.
    """

    def __init__(self, path, ring_size: int = 512) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.ring: deque = deque(maxlen=ring_size)
        self.heartbeats = 0
        self._fh = self.path.open("a", encoding="utf-8")

    def note_event(self, event: dict) -> None:
        self.ring.append(event)

    def heartbeat(self, label: str, **stats) -> None:
        line = {"type": "heartbeat", "wall_unix": time.time(), "label": label}
        rss = _rss_mib()
        if rss is not None:
            line["rss_mib"] = rss
        line.update(stats)
        self._fh.write(json.dumps(line) + "\n")
        while self.ring:
            event = dict(self.ring.popleft())
            event["type"] = "event"
            self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()
        self.heartbeats += 1

    def close(self) -> None:
        if self.ring:
            self.heartbeat("close")
        self._fh.close()


def _rss_mib() -> Optional[float]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


# -- flight-recorder tail rendering (python -m repro.obs tail) ------------


def render_flight_tail(path, limit: int = 20) -> List[str]:
    """Human-readable rendering of the last ``limit`` flight-recorder lines."""
    lines: List[str] = []
    try:
        raw = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    for text in raw[-limit:]:
        text = text.strip()
        if not text:
            continue
        try:
            entry = json.loads(text)
        except ValueError:
            lines.append(f"?? {text[:100]}")
            continue
        if entry.get("type") == "heartbeat":
            stats = ", ".join(
                f"{k}={v}"
                for k, v in entry.items()
                if k not in ("type", "wall_unix", "label")
            )
            stamp = time.strftime(
                "%H:%M:%S", time.localtime(entry.get("wall_unix", 0))
            )
            lines.append(f"[{stamp}] {entry.get('label', '?'):<16} {stats}")
        else:
            tid = entry.get("trace_id") or "-"
            extras = ", ".join(
                f"{k}={v}"
                for k, v in entry.items()
                if k not in ("type", "kind", "trace_id", "t", "seq", "machine")
                and v is not None
            )
            lines.append(
                f"    t={entry.get('t', 0):>10.4f} "
                f"{entry.get('kind', '?'):<16} trace={str(tid)[:12]} {extras}"
            )
    return lines
