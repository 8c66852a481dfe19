"""A zero-dependency metrics registry: counters, gauges, log histograms.

Every layer of the reproduction (crypto kernels, SALAD routing, record
stores, the DFC pipeline) reports what it did through one of three
instrument types held in a :class:`MetricsRegistry`:

- :class:`Counter` -- a monotonically increasing integer total;
- :class:`Gauge` -- a last-known scalar (merged across registries by max,
  so configuration gauges like ``salad.config.dimensions`` survive a merge
  unchanged and per-run quantities take the worst case);
- :class:`Histogram` -- log-bucketed by the binary exponent of the value
  (``math.frexp``), tracking per-bucket counts plus global count / total /
  min / max.  Bucket keys are small integers and counts are exact, so
  histogram merges -- like counter sums -- are associative, commutative,
  and bit-identical regardless of merge order.

**Merge semantics** are the contract the experiment runner depends on: it
merges one registry dump per sweep point (some produced in pool processes),
and the totals must not depend on the order the dumps arrive in
(``tests/obs/test_registry.py`` asserts it).  Counters add, gauges take
the max, histograms add bucket-wise; all three operate on exact ints
wherever the instrumented code observes ints.

**Hot-path policy.**  The hot paths themselves do *not* call into this
module.  They keep plain integer attributes on the object that does the
work (``leaf.next_hop_hits``, ``leaf.record_arrivals``) that cost one
integer add, and each engine exposes a ``collect_metrics(registry)`` /
``harvest_*`` function that builds registry entries from those attributes
at report time.  A registry is always one the caller made; there is no
session-wide one.  That keeps the disabled-telemetry overhead at
effectively zero and makes merging trivially exact (a harvest is a
snapshot of one engine, never a double count).

Naming convention: dotted lowercase paths, ``<layer>.<subsystem>.<what>``
(e.g. ``salad.routing.next_hop_hits``).  ``docs/OBSERVABILITY.md`` is the
catalog.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

#: A label set normalized into a registry key: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total.  Merge: sum."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A last-known scalar.  Merge: max (None = never set)."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[float] = None):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge_from(self, other: "Gauge") -> None:
        if other.value is None:
            return
        if self.value is None or other.value > self.value:
            self.value = other.value


def bucket_of(value: float) -> int:
    """The log-bucket key of *value*: its binary exponent.

    Bucket ``e`` covers ``[2**(e-1), 2**e)``; values <= 0 share bucket 0
    (durations and sizes are non-negative, and an exact zero carries no
    magnitude).  Keys are small ints, so bucket maps pickle tightly and
    merge exactly.
    """
    if value <= 0:
        return 0
    return math.frexp(value)[1]


class Histogram:
    """Log-bucketed distribution with exact, order-independent merges."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``n`` identical observations of ``value`` in O(1).

        Lets hot paths keep a plain ``value -> count`` dict and fold it in
        at harvest.
        """
        if n <= 0:
            return
        bucket = bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_from(self, other: "Histogram") -> None:
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max


class MetricsRegistry:
    """Named, labeled instruments with exact merge and stable serialization."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument access (get-or-create) ------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- reads ----------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> int:
        """The counter's total, or 0 if it was never created."""
        instrument = self._counters.get((name, _label_key(labels)))
        return instrument.value if instrument is not None else 0

    def counter_totals(self) -> Dict[str, int]:
        """Every counter's total keyed ``name`` or ``name{k=v,...}``.

        The flattened view the identity tests compare between engines.
        """
        out: Dict[str, int] = {}
        for (name, labels), instrument in self._counters.items():
            out[_render_key(name, labels)] = instrument.value
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- merge ----------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry (in place); returns self.

        Counters sum, gauges max, histograms add bucket-wise -- each
        operation is associative and commutative (ints stay ints), so any
        merge order over any partition of the same observations yields an
        identical registry.
        """
        for key, counter in other._counters.items():
            self.counter(key[0], **dict(key[1])).merge_from(counter)
        for key, gauge in other._gauges.items():
            self.gauge(key[0], **dict(key[1])).merge_from(gauge)
        for key, histogram in other._histograms.items():
            self.histogram(key[0], **dict(key[1])).merge_from(histogram)
        return self

    def merge_dict(self, data: dict) -> "MetricsRegistry":
        """Merge a :meth:`to_dict` payload (e.g. shipped from a worker)."""
        return self.merge(MetricsRegistry.from_dict(data))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """A stable, JSON-ready dump: sorted by (name, labels)."""
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": c.value}
                for (name, labels), c in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": g.value}
                for (name, labels), g in sorted(self._gauges.items())
                if g.value is not None
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": {str(b): n for b, n in sorted(h.buckets.items())},
                }
                for (name, labels), h in sorted(self._histograms.items())
                if h.count
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        for entry in data.get("counters", ()):
            registry.counter(entry["name"], **entry.get("labels", {})).inc(
                entry["value"]
            )
        for entry in data.get("gauges", ()):
            registry.gauge(entry["name"], **entry.get("labels", {})).set(
                entry["value"]
            )
        for entry in data.get("histograms", ()):
            histogram = registry.histogram(entry["name"], **entry.get("labels", {}))
            histogram.count = entry["count"]
            histogram.total = entry["total"]
            histogram.min = entry.get("min")
            histogram.max = entry.get("max")
            histogram.buckets = {
                int(b): n for b, n in entry.get("buckets", {}).items()
            }
        return registry


def _render_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"
