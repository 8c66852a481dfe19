"""What every workload shares: the recorder and small statistics helpers."""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from statistics import median  # noqa: F401  (re-exported to the workloads)
from typing import Dict, Iterator, List, Optional, Sequence

from bench.trace import Tracer


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def lower_quartile(values: Sequence[float]) -> float:
    """The host-time summary behind ``work_per_s``.

    Neighbours on a shared host only ever add time, in bursts of a second or
    so, and a disturbed slice says nothing about the program.  Like slices of
    a run (waves, passes, operations of one class) are therefore summarized
    by their lower quartile, which stays put while up to three quarters of
    them are disturbed; the median moved twice as far in the noise study.
    """
    return percentile(values, 0.25)


def per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Stopwatch:
    """Filled in when the ``with`` block that produced it ends."""

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed = 0.0


class Recorder:
    """Collects what one (workload, mode) run measures.

    ``metrics`` holds end-to-end values, ``layer`` the per-layer values the
    benchmark times itself (stage rates, tail latencies), ``sim`` every
    simulated statistic (hashed into ``bench.sim_digest``) and ``counters``
    the totals harvested from the program's ``collect_metrics``.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.metrics: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.sim: Dict[str, object] = {}
        self.counters: Dict[str, float] = {}
        #: Per-layer metric names whose layer a probe found to be gone.
        self.absent: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Host seconds inside timed regions (the trace-overhead base).
        self.timed_s = 0.0

    @contextmanager
    def region(self, name: str, kind: str = "timed") -> Iterator[Stopwatch]:
        """A top-level phase; ``kind`` is setup or timed."""
        watch = Stopwatch()
        traced = self.tracer.region(name, kind) if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with traced:
                yield watch
        finally:
            watch.elapsed = time.perf_counter() - start
            if kind == "timed":
                self.timed_s += watch.elapsed

    @contextmanager
    def timer(self, name: str, op: object = None) -> Iterator[Stopwatch]:
        """Time one wave / pass / operation; a coarse span when tracing."""
        watch = Stopwatch()
        with self.tracer.span(name, op) if self.tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                yield watch
            finally:
                watch.elapsed = time.perf_counter() - start

    def check(self, passed: int, total: int, what: str) -> None:
        """Count *total* checked outputs of which *passed* were correct."""
        self.attempted += total
        if passed != total:
            self.failed += total - passed
            self.failures.append(f"{what}: {total - passed} of {total} wrong")

    def harvest(self, *collectors) -> None:
        """Fold ``collect_metrics``-style callables into ``counters``.

        Sits outside every timed region; its cost is ``obs.harvest_s``.
        """
        from repro.obs.registry import MetricsRegistry

        start = time.perf_counter()
        registry = MetricsRegistry()
        for collect in collectors:
            collect(registry)
        for name, value in registry.counter_totals().items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.layer["obs.harvest_s"] = (
            self.layer.get("obs.harvest_s", 0.0) + time.perf_counter() - start
        )
