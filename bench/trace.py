"""In-memory span recorder for the traced run.

The program under test is not edited.  Instead the traced child replaces a
declared table of class and module attributes (:data:`TARGETS`) with timing
wrappers *before* the engine is constructed and restores them afterwards.

Two kinds of wrapper:

- aggregate wrappers, for callables invoked ~10^5 times per wave (message
  send/deliver, store probes): they keep ``(calls, total, self, extra)`` per
  target and no per-call record;
- coarse wrappers, which additionally append one span
  ``[name, start, end, parent, op]`` per call.

A call's *self* time is its duration minus the time spent in wrapped calls
below it, so the self times of every target plus the unattributed remainder
of the enclosing region add up to the region's duration exactly
(``bench/selftest.py`` checks this).

A target is named by the attribute that callers actually look up.  A
function that a module imported by value (``from x import f``) must be
wrapped in the *importing* module, and a method that ``SaladLeaf`` binds to
an instance attribute at construction must be wrapped before any leaf
exists; a target that ends a traced run with zero calls on a workload that
declares it is reported by :meth:`Installation.never_called` and fails the
run rather than reading as 0 s.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SALAD = ("salad-insert", "salad-durable", "salad-growth")
ALL = SALAD + ("dfc-corpus", "client-rw")
MEMORY_STORE = ("salad-insert", "salad-growth", "dfc-corpus", "client-rw")


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module.owner.attr`` (owner None = module)."""

    module: str
    owner: Optional[str]
    attr: str
    #: Layer accumulator the per-layer metrics read (several targets may share one).
    key: str
    coarse: bool = False
    #: Name of a function in :data:`EXTRAS` adding a per-call quantity.
    extra: Optional[str] = None
    #: Workloads on which a traced run must see at least one call.
    expect: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        owner = f".{self.owner}" if self.owner else ""
        return f"{self.module}{owner}.{self.attr}"


def _store_targets(module: str, owner: str, expect: Tuple[str, ...]) -> List[Target]:
    # locations() is the read phase of the SALAD workloads only.
    looked_up = tuple(workload for workload in expect if workload in SALAD)
    return [
        Target(module, owner, "insert", "salad.storage.insert", expect=expect),
        Target(module, owner, "insert_many", "salad.storage.insert"),
        Target(module, owner, "flush", "salad.storage.flush", expect=expect),
        Target(module, owner, "locations", "salad.storage.lookup", expect=looked_up),
        Target(module, owner, "has_location", "salad.storage.lookup", expect=expect),
    ]


TARGETS: List[Target] = [
    # -- SALAD orchestration ------------------------------------------------
    Target("repro.salad.salad", "Salad", "insert_records", "salad.salad.settle",
           coarse=True, expect=SALAD + ("dfc-corpus",)),
    Target("repro.salad.salad", "Salad", "build", "salad.join.add_leaf",
           coarse=True, expect=SALAD + ("client-rw",)),
    Target("repro.salad.salad", "Salad", "add_leaf", "salad.join.add_leaf", expect=ALL),
    Target("repro.salad.salad", "Salad", "depart_leaf", "salad.join.depart",
           expect=("salad-growth",)),
    Target("repro.salad.salad", "Salad", "crash_fraction", "sim.failure.crash",
           coarse=True, expect=("salad-growth",)),
    Target("repro.salad.maintenance", "RefreshDriver", "run_rounds",
           "salad.maintenance.refresh", coarse=True, expect=("salad-growth",)),
    Target("repro.sim.failure", "CrashRecoveryHarness", "crash", "sim.failure.crash",
           coarse=True, expect=("salad-durable",)),
    Target("repro.sim.failure", "CrashRecoveryHarness", "rejoin", "salad.storage.reopen",
           coarse=True, expect=("salad-durable",)),
    # -- simulator (per message: aggregate only) ----------------------------
    Target("repro.sim.network", "Network", "run", "salad.salad.settle", expect=ALL),
    Target("repro.sim.network", "Network", "send", "sim.network.send", expect=ALL),
    Target("repro.sim.network", "Network", "_deliver", "sim.network.deliver", expect=ALL),
    Target("repro.sim.events", "EventScheduler", "run", "sim.events.run",
           extra="result", expect=ALL),
    Target("repro.sim.machine", "SimMachine", "send", "sim.network.send", expect=ALL),
    Target("repro.sim.machine", "SimMachine", "receive", "salad.leaf.receive",
           extra="records_delivered", expect=ALL),
    Target("repro.salad.leaf", "SaladLeaf", "insert_records", "salad.leaf.initiate",
           expect=SALAD + ("dfc-corpus",)),
    Target("repro.salad.leaf", "SaladLeaf", "insert_record", "salad.leaf.initiate",
           expect=("client-rw",)),
    # -- record stores ------------------------------------------------------
    *_store_targets("repro.salad.database", "RecordDatabase", MEMORY_STORE),
    *_store_targets("repro.salad.storage", "PagedWalRecordStore", ("salad-durable",)),
    # -- DFC pipeline -------------------------------------------------------
    Target("repro.workload.generator", None, "generate_corpus", "workload.generator",
           coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", "DfcPipeline", "load_hosts",
           "farsite.dfc_pipeline.load_hosts", coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", "DfcPipeline", "discover",
           "farsite.dfc_pipeline.discover", coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", "DfcPipeline", "relocate",
           "farsite.dfc_pipeline.relocate", coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", "DfcPipeline", "report",
           "farsite.dfc_pipeline.report", coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", None, "synthetic_content", "workload.content",
           extra="result_bytes", expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", None, "place_replicas", "farsite.placement",
           coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", None, "reclaimed_bytes_from_matches",
           "analysis.space", coarse=True, expect=("dfc-corpus",)),
    Target("repro.farsite.dfc_pipeline", None, "synthetic_fingerprint", "core.fingerprint",
           expect=("dfc-corpus",)),
    Target("repro.workload.corpus", None, "synthetic_fingerprint", "core.fingerprint",
           expect=("dfc-corpus",)),
    Target("repro.farsite.relocation", "RelocationPlanner", "plan",
           "farsite.relocation.plan", coarse=True, expect=("dfc-corpus", "client-rw")),
    Target("repro.farsite.sis", "SingleInstanceStore", "store", "farsite.sis.store",
           extra="truthy", expect=("dfc-corpus", "client-rw")),
    Target("repro.farsite.sis", "SingleInstanceStore", "read", "farsite.sis.read",
           expect=("dfc-corpus", "client-rw")),
    # -- client write/read path ---------------------------------------------
    Target("repro.farsite.node", "FarsiteDeployment", "run_dfc_cycle", "farsite.node.cycle",
           coarse=True, expect=("client-rw",)),
    Target("repro.farsite.client", "FarsiteClient", "write_file", "farsite.client.write",
           expect=("client-rw",)),
    Target("repro.farsite.client", "FarsiteClient", "read_file", "farsite.client.read",
           expect=("client-rw",)),
    Target("repro.farsite.client", None, "convergent_encrypt", "core.convergent.encrypt",
           expect=("client-rw",)),
    Target("repro.farsite.client", None, "convergent_decrypt", "core.convergent.decrypt",
           expect=("client-rw",)),
    Target("repro.core.convergent", None, "bulk_encrypt_ctr", "crypto.modes.ctr",
           extra="result_bytes", expect=("client-rw",)),
    Target("repro.core.convergent", None, "decrypt_ctr", "crypto.modes.ctr",
           extra="result_bytes", expect=("client-rw",)),
    Target("repro.crypto.rsa", "RSAPublicKey", "encrypt", "crypto.rsa", expect=("client-rw",)),
    Target("repro.crypto.rsa", "RSAKeyPair", "decrypt", "crypto.rsa", expect=("client-rw",)),
    Target("repro.farsite.file_host", None, "fingerprint_of", "core.fingerprint",
           expect=("client-rw",)),
    Target("repro.farsite.directory_group", "DirectoryGroup", "put",
           "farsite.directory_group", expect=("client-rw",)),
    Target("repro.farsite.directory_group", "DirectoryGroup", "get",
           "farsite.directory_group", expect=("client-rw",)),
]


def _records_delivered(args: tuple, result: object) -> int:
    """Records carried by one delivered message (0 for non-record kinds)."""
    message = args[1]
    kind = message.kind
    if kind == "record":
        return 1
    if kind == "record_batch":
        return len(message.payload)
    return 0


EXTRAS: Dict[str, Callable[[tuple, object], float]] = {
    "result": lambda args, result: result,
    "result_bytes": lambda args, result: len(result),
    "truthy": lambda args, result: 1 if result else 0,
    "records_delivered": _records_delivered,
}


class TargetStat:
    """Accumulated cost of one wrapped target."""

    __slots__ = ("key", "calls", "total", "self_s", "extra")

    def __init__(self, key: str):
        self.key = key
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.extra = 0.0

    def snapshot(self) -> Tuple[int, float, float, float]:
        return (self.calls, self.total, self.self_s, self.extra)


class Tracer:
    """Span recorder: a call stack of frames plus per-target accumulators.

    A frame is ``[time spent in wrapped children, id of the enclosing coarse
    span]``.  ``stats`` is keyed by target name; :meth:`by_key` folds it per
    layer accumulator.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, TargetStat] = {}
        #: Coarse spans, ``[name, start, end, parent index or -1, op]``.
        self.spans: List[list] = []
        #: Closed regions with their per-key deltas.
        self.regions: List[dict] = []
        self.op: object = None
        self._stack: List[list] = [[0.0, -1]]

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, key: str, coarse: bool = False,
             extra: Optional[Callable[[tuple, object], float]] = None) -> Callable:
        stat = self.stats.setdefault(name, TargetStat(key))
        stack = self._stack
        clock = self.clock
        spans = self.spans
        tracer = self

        if coarse or extra is not None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if coarse:
                    span_id = len(spans)
                    span = [name, 0.0, 0.0, stack[-1][1], tracer.op]
                    spans.append(span)
                else:
                    span_id = stack[-1][1]
                frame = [0.0, span_id]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if extra is not None:
                        stat.extra += extra(args, result)
                    return result
                finally:
                    end = clock()
                    elapsed = end - start
                    stack.pop()
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_s += elapsed - frame[0]
                    stack[-1][0] += elapsed
                    if coarse:
                        span[1] = start
                        span[2] = end

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_s += elapsed - frame[0]
                    stack[-1][0] += elapsed

        return wrapper

    # -- regions and spans recorded by the benchmark itself ---------------------------

    @contextmanager
    def region(self, name: str, kind: str) -> Iterator[None]:
        """A top-level phase of the run (``kind``: setup | timed).

        Records the phase's duration, its unattributed self time, and the
        delta of every accumulator across it.
        """
        before = {target: stat.snapshot() for target, stat in self.stats.items()}
        span_id = len(self.spans)
        span = [f"region:{name}", 0.0, 0.0, -1, None]
        self.spans.append(span)
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            span[1], span[2] = start, end
            deltas: Dict[str, List[float]] = {}
            for target, stat in self.stats.items():
                old = before.get(target, (0, 0.0, 0.0, 0.0))
                new = stat.snapshot()
                if new[0] != old[0]:
                    folded = deltas.setdefault(stat.key, [0, 0.0, 0.0, 0.0])
                    for index in range(4):
                        folded[index] += new[index] - old[index]
            self.regions.append(
                {
                    "name": name,
                    "kind": kind,
                    "duration_s": end - start,
                    "self_s": (end - start) - frame[0],
                    "layers": deltas,
                }
            )

    @contextmanager
    def span(self, name: str, op: object = None) -> Iterator[None]:
        """A coarse span for one wave / pass / operation, tagged with *op*."""
        previous_op = self.op
        self.op = op
        span_id = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1][1], op]
        self.spans.append(span)
        # Transparent to self-time accounting: children charge the enclosing frame.
        self._stack.append([0.0, span_id])
        start = self.clock()
        try:
            yield
        finally:
            span[1], span[2] = start, self.clock()
            frame = self._stack.pop()
            self._stack[-1][0] += frame[0]
            self.op = previous_op

    # -- read-out ----------------------------------------------------------------

    def by_key(self) -> Dict[str, List[float]]:
        """``key -> [calls, total, self, extra]`` summed over every region."""
        folded: Dict[str, List[float]] = {}
        for region in self.regions:
            for key, delta in region["layers"].items():
                into = folded.setdefault(key, [0, 0.0, 0.0, 0.0])
                for index in range(4):
                    into[index] += delta[index]
        return folded

    def calibrate_overhead(self, samples: int = 20000) -> float:
        """Seconds one aggregate wrapper adds to a call (measured now)."""

        def noop() -> None:
            return None

        probe = Tracer(self.clock).wrap(noop, "probe", "probe")
        start = self.clock()
        for _ in range(samples):
            noop()
        bare = self.clock() - start
        start = self.clock()
        for _ in range(samples):
            probe()
        return max(0.0, (self.clock() - start - bare) / samples)

    def to_json(self) -> dict:
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "regions": self.regions,
            "targets": {
                name: {"key": stat.key, "calls": stat.calls, "total_s": stat.total,
                       "self_s": stat.self_s, "extra": stat.extra}
                for name, stat in self.stats.items()
            },
        }


class Installation:
    """The set of attributes currently replaced by wrappers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: Targets whose module, class or attribute no longer exists.
        self.absent: List[Target] = []
        self.installed: List[Target] = []
        self._undo: List[Tuple[object, str, bool, object]] = []

    def install(self, target: Target) -> None:
        try:
            holder = importlib.import_module(target.module)
            if target.owner is not None:
                holder = getattr(holder, target.owner)
            original = getattr(holder, target.attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        defined_here = target.attr in vars(holder)
        saved = vars(holder)[target.attr] if defined_here else None
        extra = EXTRAS[target.extra] if target.extra else None
        wrapper = self.tracer.wrap(original, target.name, target.key, target.coarse, extra)
        setattr(holder, target.attr, wrapper)
        self._undo.append((holder, target.attr, defined_here, saved))
        self.installed.append(target)

    def restore(self) -> None:
        """Put every replaced attribute back exactly as it was found."""
        while self._undo:
            holder, attr, defined_here, saved = self._undo.pop()
            if defined_here:
                setattr(holder, attr, saved)
            else:
                delattr(holder, attr)  # was inherited: uncover the base attribute

    def never_called(self, workload: str) -> List[str]:
        """Installed targets that *workload* declares but that saw no call."""
        return [
            target.name
            for target in self.installed
            if workload in target.expect and self.tracer.stats[target.name].calls == 0
        ]

    def absent_keys(self) -> List[str]:
        """Layer accumulators none of whose targets could be resolved."""
        present = {target.key for target in self.installed}
        return sorted({target.key for target in self.absent} - present)


def install(tracer: Tracer, targets: Optional[List[Target]] = None) -> Installation:
    installation = Installation(tracer)
    for target in TARGETS if targets is None else targets:
        installation.install(target)
    return installation
