"""Whole-SALAD orchestration over the simulated network.

Builds a SALAD the way the paper's experiments do (section 5): "The SALAD
was initialized with a single leaf, and the remaining machines were each
added to the SALAD by the procedure outlined in Subsection 4.4" -- i.e., a
join message to a randomly discovered extant leaf, propagated through the
hypercube, answered by welcomes.

The orchestrator also drives record insertion (Fig. 4) and exposes the
measurements behind every figure: per-machine message counts (Figs. 9-10),
database sizes (Figs. 11-13), leaf-table sizes (Figs. 14-15), and the match
notifications from which reclaimed space is computed (Figs. 7-8).
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import tempfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.tracing import TraceRecorder
from repro.salad.leaf import SaladLeaf
from repro.salad.protocol import MatchPayload
from repro.salad.records import SaladRecord
from repro.salad.storage import check_backend, make_record_store
from repro.sim.events import EventScheduler
from repro.sim.failure import fail_exact_fraction
from repro.sim.network import Network
from repro.sim.topology import Topology

#: Identifier width: 20-byte hashes (section 2).
IDENTIFIER_BITS = 160


def validate_trace_sample_rate(value) -> None:
    """Raise unless *value* is a ``trace_sample_rate`` in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"trace_sample_rate must be a number in [0, 1], got "
            f"{type(value).__name__}: {value!r}"
        )
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"trace_sample_rate must be in [0, 1]: {value}")


def _topology_link_of(topology):
    """A ``(a, b) -> (link_name, class_name)`` annotator for trace events.

    ``None`` on the flat fabric -- the recorder then omits link fields
    rather than inventing a fake class.
    """
    if topology is None:
        return None

    def link_of(a: int, b: int):
        name, link_class = topology.link(a, b)
        return name, link_class.name

    return link_of


@dataclass
class SaladConfig:
    """Configuration of a SALAD deployment."""

    target_redundancy: float = 2.0  # Lambda
    dimensions: int = 2  # D
    damping: float = 0.1  # xi (Eq. 19 hysteresis)
    database_capacity: Optional[int] = None  # Fig. 13 record limit
    #: None = Fig. 4 literal pairwise notification (O(copies^2) per group);
    #: an integer caps match notifications per inserted record (O(copies)).
    notify_limit: Optional[int] = None
    latency: float = 1.0
    #: Network topology (:class:`repro.sim.topology.Topology`) replacing the
    #: flat constant-latency fabric: per-pair rack/lan/wan delays, per-class
    #: message counters, and named-link cuts.  None keeps the flat fabric
    #: (bit-identical to the seed); the degenerate one-site topology is
    #: trace-identical to None.
    topology: Optional["Topology"] = None
    seed: int = 0
    #: Record-database backend per leaf: one of repro.salad.storage.BACKENDS
    #: ("memory" or "wal"; "wal-paged" is still accepted as another name for
    #: "wal").  Both are contract-identical; "wal" adds crash recovery, and
    #: each of its stores pages its records to disk past a byte budget.
    db_backend: str = "memory"
    #: Directory durable backends write under; each Salad makes its own
    #: subdirectory there, so repeated runs never reopen each other's files,
    #: and never deletes it.  None = a tempdir of this engine's own, deleted
    #: at :meth:`Salad.shutdown`.
    db_dir: Optional[str] = None
    #: Trace every message and check protocol invariants at harvest time
    #: (the ``--trace-invariants`` runtime mode; see repro.sim.tracer).
    #: Tracing does not alter the message trace, but it retains every
    #: message in memory -- opt in deliberately on large runs.
    trace_invariants: bool = False
    #: Causal-trace sampling rate in [0, 1] (see :mod:`repro.obs.tracing`):
    #: a deterministic hash of each record's routing id samples this
    #: fraction of inserts, and sampled records emit per-hop/per-store
    #: trace events that export to Perfetto.  Sampling consumes no RNG and
    #: never alters the message trace; 0 disables tracing.
    trace_sample_rate: float = 0.0

    def __post_init__(self) -> None:
        check_backend(self.db_backend)  # fail fast on unknown names
        validate_trace_sample_rate(self.trace_sample_rate)
        if self.topology is not None and not isinstance(self.topology, Topology):
            raise ValueError(
                f"topology must be a repro.sim.topology.Topology or None, "
                f"got {type(self.topology).__name__}"
            )
        if self.dimensions < 1:
            raise ValueError(f"dimensions must be >= 1: {self.dimensions}")
        if self.target_redundancy < 1.0:
            raise ValueError(
                f"target redundancy must be >= 1: {self.target_redundancy}"
            )


@dataclass(frozen=True)
class RunSettings:
    """The :class:`SaladConfig` fields a run sets for every engine it builds.

    An experiment picks the protocol parameters of its engines (Lambda, D,
    seed, limits); a CLI run picks these four once (``--db-backend``,
    ``--db-dir``, ``--trace-invariants``, ``--trace-sample-rate``) and hands
    them to every experiment, which passes them on to each engine it builds
    -- pool tasks included, since the value travels in the task.  Defaults
    and meanings are SaladConfig's.
    """

    db_backend: str = "memory"
    db_dir: Optional[str] = None
    trace_invariants: bool = False
    trace_sample_rate: float = 0.0

    def __post_init__(self) -> None:
        check_backend(self.db_backend)
        validate_trace_sample_rate(self.trace_sample_rate)

    def config(self, **protocol) -> SaladConfig:
        """A SaladConfig with the *protocol* fields and these settings."""
        return SaladConfig(**protocol, **dataclasses.asdict(self))


class CollectedMatches:
    """``(machine, payload)`` pairs over the leaves' ``matches`` lists, uncopied.

    Sized and re-iterable, and equal to any sequence (or view) holding the
    same pairs in the same order.  Each leaf's list length is captured at
    construction; notices are only ever appended, so iterating later yields
    exactly the pairs that had arrived by then.  Iteration allocates one
    pair at a time, never the whole list.
    """

    __slots__ = ("_spans", "_len")
    __hash__ = None  # equality is by content, like the list it replaces

    def __init__(self, leaves: Iterable[SaladLeaf]):
        self._spans = [
            (leaf.identifier, leaf.matches, len(leaf.matches))
            for leaf in leaves
            if leaf.matches
        ]
        self._len = sum(count for _, _, count in self._spans)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Tuple[int, MatchPayload]]:
        for identifier, matches, count in self._spans:
            yield from zip(repeat(identifier, count), matches)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (CollectedMatches, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"<CollectedMatches: {self._len} pairs>"


class Salad:
    """A SALAD instance: a set of leaves over one simulated network."""

    #: The class every leaf is built from.  The golden-trace tests subclass
    #: the engine to build their reference-oracle leaves instead, and the
    #: Farsite deployment sets it on its engine to build FarsiteNodes.
    leaf_class = SaladLeaf

    def __init__(self, config: SaladConfig, network: Optional[Network] = None):
        self.config = config
        self._rng = random.Random(config.seed)
        #: The RNG each new leaf's own RNG seed is drawn from: the engine's,
        #: unless the owner of the engine hands in its own (the Farsite
        #: deployment draws its nodes' seeds from the deployment's RNG).
        self.leaf_seeds = self._rng
        self.network = network or Network(
            scheduler=EventScheduler(),
            latency=config.latency,
            rng=random.Random(self._rng.getrandbits(64)),
            topology=config.topology,
        )
        self.leaves: Dict[int, SaladLeaf] = {}
        self._join_order: List[int] = []
        # Alive-leaf list in creation order, maintained incrementally so the
        # per-join alive scan in add_leaf/build is O(1) amortized instead of
        # O(leaves) -- at flagship scale (1e5 joins) the rescan is O(L^2).
        # Invalidated by machine-liveness flips via on_liveness_change.
        self._alive_cache: Optional[List[SaladLeaf]] = None
        # Opt-in runtime invariant tracing.  Attached after the network is
        # built (and after the network-seed RNG draw above, so traced and
        # untraced runs see identical randomness).
        self.tracer = None
        if config.trace_invariants:
            from repro.sim.tracer import NetworkTracer

            self.tracer = NetworkTracer(self.network)
        # Causal tracing (repro.obs.tracing): this engine's own recorder,
        # handed to every leaf it builds; None at rate 0.
        self.recorder: Optional[TraceRecorder] = None
        if config.trace_sample_rate > 0.0:
            self.recorder = TraceRecorder(
                config.trace_sample_rate,
                now=lambda: self.network.scheduler.now,
                link_of=_topology_link_of(config.topology),
            )
        # Durable-store housing: made lazily so memory-backed SALADs (the
        # default) never touch the filesystem.
        self._db_dir: Optional[Path] = None

    def _database_for(self, identifier: int):
        """The record store a new leaf gets under this SALAD's backend."""
        backend = self.config.db_backend
        if backend == "memory":
            return make_record_store(capacity=self.config.database_capacity)
        if self._db_dir is None:
            parent = self.config.db_dir
            if parent is not None:
                Path(parent).mkdir(parents=True, exist_ok=True)
            self._db_dir = Path(tempfile.mkdtemp(prefix="salad-", dir=parent))
        return make_record_store(
            backend,
            capacity=self.config.database_capacity,
            db_dir=self._db_dir,
            name=f"leaf-{identifier:040x}",
        )

    def close_databases(self) -> None:
        """Flush and close every leaf's record store (durable backends)."""
        for leaf in self.leaves.values():
            leaf.database.close()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _fresh_identifier(self) -> int:
        """A random 160-bit identifier, unique within this SALAD.

        Real machines hash their public keys (section 2, and
        :mod:`repro.farsite.machine_id`); the low bits are uniform either
        way, which is all the cell-ID statistics require.
        """
        while True:
            identifier = self._rng.getrandbits(IDENTIFIER_BITS)
            if identifier not in self.leaves:
                return identifier

    def create_leaf(self, identifier: Optional[int] = None) -> SaladLeaf:
        """Create a leaf machine (not yet joined)."""
        if identifier is None:
            identifier = self._fresh_identifier()
        if identifier in self.leaves:
            raise ValueError(f"leaf {identifier:#x} already exists")
        leaf = self.leaf_class(
            identifier,
            self.network,
            target_redundancy=self.config.target_redundancy,
            dimensions=self.config.dimensions,
            damping=self.config.damping,
            database_capacity=self.config.database_capacity,
            notify_limit=self.config.notify_limit,
            rng=random.Random(self.leaf_seeds.getrandbits(64)),
            database=self._database_for(identifier),
            recorder=self.recorder,
        )
        self.leaves[identifier] = leaf
        leaf.on_liveness_change = self._invalidate_alive_cache
        self._alive_cache = None  # callers may rebuild or patch incrementally
        return leaf

    def add_leaf(
        self,
        identifier: Optional[int] = None,
        settle: bool = True,
    ) -> SaladLeaf:
        """Create a leaf and join it to the SALAD (section 4.4).

        The new leaf discovers one arbitrary extant leaf "by some
        out-of-band means" and sends it a join message.  With
        *settle* (the default), the network runs to quiescence before
        returning, matching the paper's incremental-growth experiments.
        """
        alive = self._alive_leaves_cached()
        leaf = self.create_leaf(identifier)  # invalidates the cache
        if alive:
            bootstrap = [extant.identifier for extant in self._rng.sample(alive, 1)]
            leaf.initiate_join(bootstrap)
        # The pre-join snapshot plus the (alive) newcomer is the new alive
        # list, in creation order -- reinstall it instead of rescanning.
        alive.append(leaf)
        self._alive_cache = alive
        self._join_order.append(leaf.identifier)
        if settle:
            self.run()
        return leaf

    def build(self, count: int, settle_each: bool = True) -> None:
        """Grow the SALAD to *count* live leaves by incremental joins.

        Departed or failed leaves do not count toward the target, so a
        shrunken SALAD can be regrown past its former size.
        """
        while len(self._alive_leaves_cached()) < count:
            self.add_leaf(settle=settle_each)
        if not settle_each:
            self.run()

    def run(self) -> int:
        """Settle the network to quiescence; opens a new join round.

        Every settle the engine drives comes through here.  Once the
        network has drained, no JOIN of an earlier flood can still arrive,
        so advancing ``network.settles`` lets each leaf forget the joins it
        saw (see SaladLeaf._on_join).
        """
        executed = self.network.run()
        self.network.settles += 1
        return executed

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.scheduler.now

    def _invalidate_alive_cache(self) -> None:
        self._alive_cache = None

    def _alive_leaves_cached(self) -> List[SaladLeaf]:
        """Alive leaves in creation order; rebuilt only after liveness flips.

        Returns the cache itself -- callers other than add_leaf must not
        mutate it (add_leaf appends the newcomer and reinstalls).
        """
        cache = self._alive_cache
        if cache is None:
            cache = self._alive_cache = [
                leaf for leaf in self.leaves.values() if leaf.alive
            ]
        return cache

    def alive_leaves(self) -> List[SaladLeaf]:
        return list(self._alive_leaves_cached())

    def alive_count(self) -> int:
        return len(self._alive_leaves_cached())

    def alive_identifiers(self) -> List[int]:
        return [leaf.identifier for leaf in self._alive_leaves_cached()]

    def depart_leaf(self, identifier: int, settle: bool = True) -> None:
        """Cleanly depart one leaf (section 4.5) by identifier."""
        leaf = self.leaves.get(identifier)
        if leaf is None:
            raise KeyError(f"no such leaf: {identifier:#x}")
        leaf.depart_cleanly()
        if settle:
            self.run()

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def set_loss_probability(self, probability: float) -> None:
        """Every message is lost with this probability (Fig. 8 duty cycle)."""
        self.network.set_loss_probability(probability)  # validated by the network

    def crash_fraction(self, fraction: float, rng: random.Random) -> int:
        """Permanently crash an exact fraction of leaves; returns the count."""
        return len(fail_exact_fraction(list(self.leaves.values()), fraction, rng))

    def shutdown(self) -> None:
        """Release resources: flush and close every leaf's record store.

        The stores' directory goes too when this engine made it (a config
        naming no ``db_dir``); a named ``db_dir`` is never deleted.
        """
        self.close_databases()
        if self._db_dir is not None and self.config.db_dir is None:
            shutil.rmtree(self._db_dir, ignore_errors=True)
            self._db_dir = None

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------

    def insert_records(
        self,
        records_by_leaf: Dict[int, Iterable[SaladRecord]],
        settle: bool = True,
    ) -> int:
        """Each leaf inserts its own file records (Fig. 4); returns count inserted.

        Failed leaves insert nothing -- an off machine cannot publish its
        fingerprints, which is how the Fig. 8 failure experiment works.
        """
        inserted = 0
        for leaf_id, records in records_by_leaf.items():
            leaf = self.leaves.get(leaf_id)
            if leaf is None:
                raise KeyError(f"no such leaf: {leaf_id:#x}")
            if not leaf.alive:
                continue
            # Batched initiation: records sharing a first hop leave in one
            # coalesced envelope (see SaladLeaf.insert_records).
            inserted += leaf.insert_records(records)
        if settle:
            self.run()
            # Batch boundary: make the settled round durable, so a crash
            # loses at most the round in flight (no-op for memory stores).
            recorder = self.recorder
            for leaf in self.leaves.values():
                if leaf.alive:
                    leaf.database.flush()
                    if recorder is not None:
                        recorder.record_flush(leaf.identifier)
        return inserted

    def take_trace_events(self) -> List[dict]:
        """Drain this engine's sampled causal-trace events ([] when untraced)."""
        return self.recorder.take_events() if self.recorder is not None else []

    def collected_matches(self) -> "CollectedMatches":
        """All duplicate notifications received, as (machine, payload) pairs.

        A view, not a copy: the pairs are read from the leaves' own
        ``matches`` lists, leaves in creation order and each leaf's notices
        in arrival order.  It holds what had arrived when this was called;
        a notice delivered later is not in it.
        """
        return CollectedMatches(self.leaves.values())

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------

    def leaf_table_sizes(self, alive_only: bool = True) -> List[int]:
        leaves = self.alive_leaves() if alive_only else list(self.leaves.values())
        return [leaf.table_size for leaf in leaves]

    def database_sizes(self, alive_only: bool = True) -> List[int]:
        leaves = self.alive_leaves() if alive_only else list(self.leaves.values())
        return [len(leaf.database) for leaf in leaves]

    def message_totals(self, alive_only: bool = False) -> List[int]:
        """Per-machine messages sent plus received (Figs. 9-10).

        In the paper's unit: a batch envelope counts once per record or
        notice it carries, so the totals do not depend on how a leaf's
        sends were grouped into envelopes.
        """
        leaves = self.alive_leaves() if alive_only else list(self.leaves.values())
        traffic = self.network.traffic
        return [
            traffic[leaf.identifier].total
            + leaf.extra_records_sent
            + leaf.extra_notices_sent
            + leaf.extra_received
            for leaf in leaves
        ]

    def messages_carried(self) -> int:
        """Messages sent network-wide, in the unit of :meth:`message_totals`."""
        return self.network.messages_sent + sum(
            leaf.extra_records_sent + leaf.extra_notices_sent
            for leaf in self.leaves.values()
        )

    def width_distribution(self) -> Dict[int, int]:
        """How many alive leaves currently use each cell-ID width."""
        out: Dict[int, int] = {}
        for leaf in self.alive_leaves():
            out[leaf.width] = out.get(leaf.width, 0) + 1
        return dict(sorted(out.items()))

    def total_stored_records(self) -> int:
        return sum(len(leaf.database) for leaf in self.alive_leaves())

    def stored_records(self) -> Dict[int, List[tuple]]:
        """Per-leaf ``(fingerprint, location)`` dumps in store order."""
        return {
            identifier: [
                (record.fingerprint, record.location)
                for record in leaf.database.records()
            ]
            for identifier, leaf in self.leaves.items()
        }

    def message_counters(self) -> Tuple[int, int, int]:
        """(sent, delivered, dropped) network totals."""
        return (
            self.network.messages_sent,
            self.network.messages_delivered,
            self.network.messages_dropped,
        )

    def collect_metrics(self, registry):
        """Harvest this SALAD's runtime state into *registry*; returns it.

        Builds fresh entries from the leaves' plain attribute counters (see
        repro.salad.telemetry), so harvesting twice into two registries
        double-counts nothing.  When invariant tracing is on, the protocol
        checks run here and their violation counts land under
        ``sim.invariants.*``.
        """
        from repro.salad.telemetry import harvest_salad_metrics, harvest_trace_metrics

        harvest_salad_metrics(
            registry, self.leaves.values(), self.network, self.config.dimensions
        )
        if self.recorder is not None:
            harvest_trace_metrics(registry, self.recorder)
        if self.tracer is not None:
            self.tracer.feed_registry(registry, self.leaves, self.config.dimensions)
        return registry

    def __len__(self) -> int:
        return len(self.leaves)
