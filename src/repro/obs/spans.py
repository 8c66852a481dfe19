"""Nesting span/phase timers with optional profiler attachment.

A :func:`span` measures one unit of work's wall time; spans opened while
another span is running nest under it, so a run accumulates a *phase tree*:

    with phase("sweep"):
        with span("build"): ...
        with span("insert", ops=inserted): ...

Completed root spans collect in a module buffer that :func:`take_phases`
drains -- the RunReport writer serializes them as the ``phases`` section.
Each span records wall seconds and an optional operation count, from which
the report derives a per-op rate; ``span.note(key, value)`` attaches
arbitrary small annotations.

Optional attachments (both stdlib, both opt-in per span because they cost
real overhead): ``profile=True`` runs :mod:`cProfile` over the span's body
and keeps the top functions by cumulative time; ``trace_memory=True``
brackets the body with :mod:`tracemalloc` and records the allocation delta
and peak.  Attachments never change what the span's body computes.

Spans are deliberately not gated on :func:`repro.obs.registry.enabled`:
they run at phase granularity (a handful per experiment), not per
operation, so their cost is noise even when telemetry is off -- and the
drivers only *open* them when assembling a report anyway.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: How many functions a profiled span keeps from the cProfile stats.
PROFILE_TOP = 12


class Span:
    """One timed unit of work in the phase tree."""

    __slots__ = (
        "name",
        "seconds",
        "start",
        "ops",
        "notes",
        "children",
        "profile_top",
        "memory",
    )

    def __init__(self, name: str, ops: Optional[int] = None):
        self.name = name
        self.seconds = 0.0
        #: perf_counter stamp at open; orders siblings when trees drain or
        #: merge out of close order.  Never serialized (to_dict omits it) --
        #: perf_counter origins differ across processes.
        self.start = 0.0
        self.ops = ops
        self.notes: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.profile_top: Optional[List[dict]] = None
        self.memory: Optional[Dict[str, int]] = None

    def set_ops(self, ops: int) -> None:
        """Set the operation count after the fact (e.g. once it is known)."""
        self.ops = ops

    def note(self, key: str, value: Any) -> None:
        self.notes[key] = value

    @property
    def ops_per_second(self) -> Optional[float]:
        if self.ops is None or self.seconds <= 0:
            return None
        return self.ops / self.seconds

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.ops is not None:
            out["ops"] = self.ops
            rate = self.ops_per_second
            if rate is not None:
                out["ops_per_second"] = rate
        if self.notes:
            out["notes"] = dict(self.notes)
        if self.profile_top is not None:
            out["profile_top"] = self.profile_top
        if self.memory is not None:
            out["memory"] = self.memory
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


#: Currently open spans, innermost last (single simulation thread: the
#: engines are process-parallel, never thread-parallel, so a plain module
#: stack is race-free; worker processes each get their own copy).
_stack: List[Span] = []

#: Completed root spans awaiting collection by take_phases().
_completed_roots: List[Span] = []


@contextmanager
def span(
    name: str,
    ops: Optional[int] = None,
    profile: bool = False,
    trace_memory: bool = False,
) -> Iterator[Span]:
    """Time a block of work as one node of the phase tree."""
    node = Span(name, ops=ops)
    is_root = not _stack
    if _stack:
        _stack[-1].children.append(node)
    _stack.append(node)
    profiler = None
    if profile:
        profiler = cProfile.Profile()
    if trace_memory:
        tracing_before = tracemalloc.is_tracing()
        if not tracing_before:
            tracemalloc.start()
        size_before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
    node.start = start = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            yield node
        finally:
            if profiler is not None:
                profiler.disable()
            node.seconds = time.perf_counter() - start
            if trace_memory:
                size_after, peak = tracemalloc.get_traced_memory()
                node.memory = {
                    "allocated_delta_bytes": size_after - size_before,
                    "peak_bytes": peak,
                }
                if not tracing_before:
                    tracemalloc.stop()
            if profiler is not None:
                node.profile_top = _top_functions(profiler)
    finally:
        # Close by identity, not by position: if an *enclosing* span's
        # context exits first (held context managers closed out of order),
        # popping blindly would detach the wrong node and record a child as
        # a root.  Truncating at this node also sheds any descendants left
        # open by such a close -- they stay linked as children, just no
        # longer "open".
        for index in range(len(_stack) - 1, -1, -1):
            if _stack[index] is node:
                del _stack[index:]
                break
        if is_root:
            _completed_roots.append(node)


def phase(name: str, ops: Optional[int] = None, **kwargs):
    """A top-level named unit of a run; alias of :func:`span` by convention."""
    return span(name, ops=ops, **kwargs)


def current_span() -> Optional[Span]:
    return _stack[-1] if _stack else None


def _sort_tree(nodes: List[Span]) -> List[Span]:
    nodes.sort(key=lambda node: node.start)
    for node in nodes:
        if node.children:
            _sort_tree(node.children)
    return nodes


def take_phases() -> List[Span]:
    """Drain and return the completed root spans (the phase tree).

    Roots -- and, recursively, each node's children -- come back in
    monotonic *start*-time order, which matters when spans close out of
    order (a held context manager exiting late records its completion
    late, but its place in the timeline is where it opened).
    """
    global _completed_roots
    roots, _completed_roots = _completed_roots, []
    return _sort_tree(roots)


def reset_spans() -> None:
    """Discard all span state: the open stack and any completed roots.

    A CLI ``main()`` calls this first, so its report's phase tree covers
    exactly that run even when an earlier in-process run left spans behind.
    """
    _stack.clear()
    _completed_roots.clear()


def _top_functions(profiler: cProfile.Profile) -> List[dict]:
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": f"{filename}:{line}({func})",
                "calls": nc,
                "total_seconds": tt,
                "cumulative_seconds": ct,
            }
        )
    rows.sort(key=lambda r: r["cumulative_seconds"], reverse=True)
    return rows[:PROFILE_TOP]
