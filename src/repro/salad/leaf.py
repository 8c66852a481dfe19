"""The SALAD leaf state machine (paper sections 4.2-4.6).

A leaf is a machine participating in the SALAD.  It maintains:

- a *leaf table* of all leaves it believes to be vector-aligned with it
  (the only leaves it ever communicates with, section 4.3);
- a local *record database* holding the records of its cell (section 4.1);
- an estimate of the system size L, from which it derives its cell-ID width
  W (Fig. 6).

The three protocol procedures are implemented directly from the paper's
pseudo-code:

- record insertion and multi-hop forwarding: Fig. 4;
- join-message handling: Fig. 5;
- cell-ID width recalculation with hysteresis: Fig. 6.

Leaves may disagree about W (their estimates of L differ); the paper notes
this only costs efficiency or lossiness, never correctness, and the
implementation inherits that property because every leaf evaluates alignment
with its *own* W.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import chain
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.tracing import TraceRecorder
from repro.salad import protocol
from repro.salad.database import RecordDatabase
from repro.salad.storage import RecordStore
from repro.salad.ids import (
    axis_masks,
    cell_id,
    coordinate,
    coordinate_width,
    effective_dimensionality,
    spread_coordinate,
)
from repro.salad.protocol import JoinPayload, MatchPayload
from repro.salad.records import SaladRecord
from repro.salad.width import (
    attenuated_redundancy,
    estimate_system_size,
    steady_band,
    target_width,
)
from repro.sim.machine import SimMachine
from repro.sim.network import Message, Network

#: Next-hop cache sentinel: "this record's cell is mine; handle locally".
_LOCAL = object()


class SaladLeaf(SimMachine):
    """One SALAD leaf (machine) with its table, database, and protocols."""

    def __init__(
        self,
        identifier: int,
        network: Network,
        target_redundancy: float = 2.0,
        dimensions: int = 2,
        damping: float = 0.1,
        database_capacity: Optional[int] = None,
        notify_limit: Optional[int] = None,
        rng: Optional[random.Random] = None,
        database: Optional[RecordStore] = None,
        recorder: Optional[TraceRecorder] = None,
    ):
        super().__init__(identifier, network)
        if dimensions < 1:
            raise ValueError(f"dimensionality must be at least 1: {dimensions}")
        if target_redundancy < 1.0:
            raise ValueError(
                f"target redundancy must be at least 1: {target_redundancy}"
            )
        self.target_redundancy = target_redundancy
        self.dimensions = dimensions
        self.damping = damping
        self.width = 0
        # Any repro.salad.storage.RecordStore works here (the memory and WAL
        # backends are contract-identical); callers that don't pass one get
        # the in-memory default.
        self.database = (
            database
            if database is not None
            else RecordDatabase(capacity=database_capacity)
        )
        # Duplicate-notification policy.  None reproduces Fig. 4 literally:
        # notify both machines of *every* matching pair, which costs
        # O(copies^2) messages per duplicate group.  An integer cap notifies
        # each newly inserted record's machine of at most that many existing
        # matches (and vice versa); the transitive chain still identifies the
        # whole group for coalescing, at O(copies) messages -- the only
        # regime in which contents shared by hundreds of machines are
        # simulable (and, judging by its reported message counts, the regime
        # the paper's own simulator ran in).
        self.notify_limit = notify_limit
        self._rng = rng or random.Random(identifier & 0xFFFFFFFF)

        # Leaf table: identifier -> last refresh time (virtual).  Its
        # insertion order is the send order of refreshes, departures,
        # LEAF_RESPONSE and the eff = 1 join fan-out.
        self.leaf_table: Dict[int, float] = {}
        # Index over the table, rebuilt on width changes and updated
        # incrementally on adds/removes:
        #   _cellmates: leaves cell-aligned with me;
        #   _vectors[d][k]: leaves differing from me only on axis d, keyed
        #   by their masked d-axis bits k = j & axis_masks(W, D)[d] (a
        #   bijective image of the d-coordinate that needs no extraction);
        #   a group is deleted when it empties.
        # Every group is an ascending tuple (a 40 B header plus 8 B per
        # member).  Figs. 4 and 5 fix which leaves a record or a JOIN goes
        # to, not in what order; every fan-out over a group goes out in
        # ascending identifier order, the order it is stored in, so the
        # member accessors (_cell_members, _vector_members_key) hand out the
        # stored tuple itself.
        self._cellmates: Tuple[int, ...] = ()
        self._vectors: Dict[int, Dict[int, Tuple[int, ...]]] = {
            d: {} for d in range(dimensions)
        }
        # Routing acceleration state, all derived from the current width:
        # the cell-ID mask, per-axis masks, and a next-hop cache mapping a
        # record's cell-ID to its forwarding targets (or _LOCAL).  The cache
        # is invalidated on every leaf-table or width change; masks are
        # recomputed by _rebuild_index.
        self._cell_mask = 0
        self._axis_masks = axis_masks(0, dimensions)
        # Per axis, the cell-ID bits *not* on it: a leaf is vector-aligned
        # along d iff its xor with me has no bit under the d-th of these.
        self._off_axis_masks = (0,) * dimensions
        # Width-increase lookahead: masks for width W+1 plus an incrementally
        # maintained count of the entries that would stay vector-aligned at
        # W+1, so the Fig. 6 growth check needs no table scan.  A committed
        # increase drops the others in the rebuild pass at the new width,
        # which touches every entry anyway.  `survivor_scans` counts
        # full-table partition scans: this leaf makes none; the test
        # oracle's scan bumps it.
        self._next_cell_mask = 1
        self._next_axis_masks = axis_masks(1, dimensions)
        self._next_width_survivors = 0
        # Incrementing W adds one cell-ID bit, bit W, to one axis, W mod D
        # (Eq. 10 interleaves bits round-robin).  An entry therefore leaves
        # the table at W+1 only if it already differs from me on some other
        # axis and also differs on bit W: one AND and one compare per entry.
        self._grow_bit = 1
        self._grow_axis = 0
        self.survivor_scans = 0
        # Fig. 6's steady band, refreshed with the index: the table sizes
        # (self included) at which the procedure changes nothing
        # (repro.salad.width.steady_band).
        self._steady_lo, self._steady_hi = steady_band(
            0, dimensions, target_redundancy, damping
        )
        self._next_hop_cache: Dict[int, object] = {}
        self.next_hop_hits = 0
        self.next_hop_misses = 0

        # Telemetry: plain attributes bumped on the hot paths, harvested
        # into a MetricsRegistry at report time (repro.salad.telemetry).
        # Identical across engines: every field below is driven purely by
        # the deterministic message trace.  With a causal-trace recorder
        # (the engine's, handed in like the network) the store path goes
        # through the traced wrapper; without one the untraced path pays
        # nothing -- not even an attribute read per stored record.
        self.recorder = recorder
        self._store = (
            self._store_record_traced
            if recorder is not None
            else self._store_record
        )
        # Cell-aligned arrivals (records handed to the store path) and the
        # hops they took; the routing loops count them in locals and add
        # once per batch, like next_hop_hits.
        self.record_arrivals = 0
        self.record_hops = 0
        # Exact size -> RECORD_BATCH-count mapping; the telemetry harvest
        # folds it into the `salad.routing.batch_size` histogram.  A plain
        # dict increment keeps the per-envelope cost to one hash op.
        self.batch_size_counts: Dict[int, int] = {}
        # The paper counts records and notices, the network counts
        # envelopes.  Each RECORD_BATCH / MATCH_BATCH envelope adds the
        # items it carries beyond its first, once per envelope, so that
        # envelopes plus these give the paper's unit (Figs. 9-10).  Always
        # on: they cost one add per batch envelope, never one per item.
        self.extra_records_sent = 0
        self.extra_notices_sent = 0
        self.extra_received = 0

        # Per-window outbox.  While a delivery window drains, record
        # forwards and MATCH notices are staged here per recipient, and
        # _flush_outbox sends each recipient one envelope per kind once
        # the window has drained.  Both are None between windows: the
        # first staged item opens them (see _open_outbox).
        self._out_records: Optional[Dict[int, List[tuple]]] = None
        self._out_notices: Optional[Dict[int, List[MatchPayload]]] = None

        # Duplicate notifications received for this machine's own files.
        self.matches: List[MatchPayload] = []

        # Join-flood suppression: new-leaf identifiers whose join this leaf
        # has already processed.  Leaves with different system-size estimates
        # can disagree about alignment, which without suppression lets a join
        # cycle among leaves indefinitely; processing each join once breaks
        # the cycle and loses nothing (the first arrival already triggered
        # this leaf's forwarding and welcome).  A flood cannot outlive the
        # settle that drained it, so the set holds one join round only: the
        # first JOIN to arrive after the engine's settle count moved on
        # clears it (Network.settles; see _on_join).
        self._seen_joins: Set[int] = set()
        self._seen_round = network.settles
        # JOIN arrivals by cause: first sight of a new leaf (handled per
        # Fig. 5), a repeat the flood suppression drops, or this leaf's own
        # join coming back.  Their sum is the JOIN messages delivered here.
        self.join_fresh = 0
        self.join_duplicates = 0
        self.join_echoes = 0

        self._in_recalculate = False
        self.width_changes = 0
        self.width_recalcs = 0

        self.on(protocol.RECORD, self._on_record)
        self.on(protocol.RECORD_BATCH, self._on_record_batch)
        self.on(protocol.JOIN, self._on_join)
        self.on(protocol.WELCOME, self._on_welcome)
        self.on(protocol.WELCOME_ACK, self._on_welcome_ack)
        self.on(protocol.LEAF_REQUEST, self._on_leaf_request)
        self.on(protocol.LEAF_RESPONSE, self._on_leaf_response)
        self.on(protocol.DEPARTURE, self._on_departure)
        self.on(protocol.REFRESH, self._on_refresh)
        self.on(protocol.MATCH, self._on_match)
        self.on(protocol.MATCH_BATCH, self._on_match_batch)

    # ------------------------------------------------------------------
    # identifiers & coordinates (always under *this leaf's* current width)
    # ------------------------------------------------------------------

    @property
    def effective_dimensions(self) -> int:
        """Eq. 16: the effective dimensionality, min(W, D)."""
        return effective_dimensionality(self.width, self.dimensions)

    def coord(self, identifier: int, axis: int) -> int:
        return coordinate(identifier, self.width, self.dimensions, axis)

    def cell(self, identifier: int) -> int:
        return cell_id(identifier, self.width)

    @property
    def estimated_system_size(self) -> float:
        """L = T / r, with T counting this leaf itself (section 4.6)."""
        return estimate_system_size(
            len(self.leaf_table) + 1, self.width, self.dimensions
        )

    # ------------------------------------------------------------------
    # leaf-table maintenance
    # ------------------------------------------------------------------

    def knows(self, identifier: int) -> bool:
        return identifier in self.leaf_table

    @property
    def table_size(self) -> int:
        return len(self.leaf_table)

    def _index_add(self, identifier: int) -> bool:
        """Place a leaf into the cellmate/vector index.

        Returns False if the leaf is not vector-aligned under the current
        width (in which case it does not belong in the table at all).
        """
        # Inline of the Delta-set scan over the leaf's cached masks: coords
        # on axis d agree iff the xor has no bits under that axis's mask, so
        # a leaf is d-vector-aligned iff it has none off that axis.
        xor = identifier ^ self.identifier
        diff = xor & self._cell_mask
        if not diff:
            members = self._cellmates
            at = bisect(members, identifier)
            self._cellmates = members[:at] + (identifier,) + members[at:]
            survives = True  # only bit W can differ at W+1: one axis at most
        else:
            axis = 0
            for off_axis in self._off_axis_masks:
                if not diff & off_axis:
                    break
                axis += 1
            else:
                return False  # two mismatching axes: not vector-aligned
            groups = self._vectors[axis]
            key = identifier & self._axis_masks[axis]
            members = groups.get(key)
            if members is None:
                groups[key] = (identifier,)
            else:
                at = bisect(members, identifier)
                groups[key] = members[:at] + (identifier,) + members[at:]
            survives = axis == self._grow_axis or not xor & self._grow_bit
        self._next_hop_cache.clear()
        if survives:
            self._next_width_survivors += 1
        return True

    def _index_remove(self, identifier: int) -> None:
        # The masks are those _index_add placed it with (every width change
        # rebuilds the index), so the same arithmetic finds its one group
        # and whether it counted as a survivor.
        xor = identifier ^ self.identifier
        diff = xor & self._cell_mask
        if not diff:
            members = self._cellmates
            at = members.index(identifier)
            self._cellmates = members[:at] + members[at + 1 :]
            survives = True
        else:
            axis = 0
            for off_axis in self._off_axis_masks:
                if not diff & off_axis:
                    break
                axis += 1
            groups = self._vectors[axis]
            key = identifier & self._axis_masks[axis]
            members = groups[key]
            if len(members) == 1:
                del groups[key]
            else:
                at = members.index(identifier)
                groups[key] = members[:at] + members[at + 1 :]
            survives = axis == self._grow_axis or not xor & self._grow_bit
        if survives:
            self._next_width_survivors -= 1
        self._next_hop_cache.clear()

    def _rebuild_index(self) -> None:
        """Re-derive every width-dependent field and re-index the table.

        One pass over the table in ascending order buckets each entry by the
        arithmetic of :meth:`_index_add`, so every group comes out sorted and
        is frozen once.  An entry that is no longer vector-aligned -- after a
        committed width increase, exactly those that did not survive it --
        is deleted from the table; the others keep their table order.
        """
        width, dimensions = self.width, self.dimensions
        self._cell_mask = cell_mask = (1 << width) - 1
        self._axis_masks = masks = axis_masks(width, dimensions)
        self._off_axis_masks = off_axis_masks = tuple(
            cell_mask ^ mask for mask in masks
        )
        self._next_cell_mask = (1 << (width + 1)) - 1
        self._next_axis_masks = axis_masks(width + 1, dimensions)
        self._grow_bit = grow_bit = 1 << width
        self._grow_axis = grow_axis = width % dimensions
        self._steady_lo, self._steady_hi = steady_band(
            width, dimensions, self.target_redundancy, self.damping
        )
        self._next_hop_cache.clear()
        me = self.identifier
        cellmates: List[int] = []
        buckets: List[Dict[int, List[int]]] = [{} for _ in range(dimensions)]
        dropped: List[int] = []
        survivors = 0
        for identifier in sorted(self.leaf_table):
            xor = identifier ^ me
            diff = xor & cell_mask
            if not diff:
                cellmates.append(identifier)
                survivors += 1
                continue
            axis = 0
            for off_axis in off_axis_masks:
                if not diff & off_axis:
                    break
                axis += 1
            else:
                dropped.append(identifier)
                continue
            key = identifier & masks[axis]
            members = buckets[axis].get(key)
            if members is None:
                buckets[axis][key] = [identifier]
            else:
                members.append(identifier)
            if axis == grow_axis or not xor & grow_bit:
                survivors += 1
        for identifier in dropped:
            del self.leaf_table[identifier]
        self._cellmates = tuple(cellmates)
        self._vectors = {
            d: {key: tuple(members) for key, members in buckets[d].items()}
            for d in range(dimensions)
        }
        self._next_width_survivors = survivors

    def add_leaf(self, identifier: int, recalculate: bool = True) -> bool:
        """Add a vector-aligned leaf to the table; returns True if added."""
        if identifier == self.identifier or identifier in self.leaf_table:
            return False
        if not self._index_add(identifier):
            return False
        self.leaf_table[identifier] = self.network.scheduler.now
        if recalculate:
            self._recalculate_width()
        return True

    def remove_leaf(self, identifier: int, recalculate: bool = True) -> bool:
        if identifier not in self.leaf_table:
            return False
        del self.leaf_table[identifier]
        self._index_remove(identifier)
        if recalculate:
            self._recalculate_width()
        return True

    def _cell_members(self) -> Tuple[int, ...]:
        """My cellmates, in send order (ascending identifier)."""
        return self._cellmates

    def _vector_members(self, axis: int, coord_value: int) -> Tuple[int, ...]:
        """Known leaves j with ``a_axis(I, j)`` and ``c_axis(j) == coord``.

        Excludes cellmates automatically when coord differs from mine, which
        is the only way these sets are used for routing.  Takes a coordinate
        *value* (the Eq. 10 extraction); hot paths that already hold an
        identifier use :meth:`_vector_members_key` directly.
        """
        return self._vector_members_key(
            axis, spread_coordinate(coord_value, self.dimensions, axis)
        )

    def _vector_members_key(self, axis: int, key: int) -> Tuple[int, ...]:
        """Same as :meth:`_vector_members`, keyed by masked axis bits.

        *key* is ``j & axis_masks(W, D)[axis]`` for any identifier j whose
        axis-coordinate is wanted -- computable from an identifier with one
        AND, no bit-extraction loop.  Members come in send order: the stored
        group itself.
        """
        if key == self.identifier & self._axis_masks[axis]:
            return self._cellmates  # no vector member shares my key
        return self._vectors[axis].get(key, ())

    def _axis_members(self, axis: int) -> List[int]:
        """All known leaves d-vector-aligned with me along *axis* (plus
        cellmates), in send order: a merge of the axis's ascending groups."""
        return sorted(chain(self._cellmates, *self._vectors[axis].values()))

    # ------------------------------------------------------------------
    # record insertion & forwarding (Fig. 4)
    # ------------------------------------------------------------------
    #
    # Liveness invariant: message handlers, and insert_record(s) past their
    # alive check, send with ``network.send(self.identifier, ...)`` instead
    # of SimMachine.send.  The network hands a message only to a live
    # machine and initiation refuses on a failed one, so SimMachine.send's
    # own alive check is already met on those paths.  Paths the engine or
    # an experiment calls directly (join initiation, departure, refresh,
    # width recalculation) keep SimMachine.send.
    #
    # Outbox rule: inside a delivery window, record forwards and MATCH
    # notices go to the outbox instead of the network, and the window's
    # end sends them (_flush_outbox); outside one (a leaf initiating its
    # own records, a direct handler call) they are sent at once.  The
    # outbox opens only when an item is staged, so the order in which
    # leaves flush is the order in which they first had something to send.

    def insert_record(self, record: SaladRecord) -> int:
        """Locally initiate insertion of a record for one of this machine's files.

        Returns 1, or 0 on a failed machine, which cannot publish: it stores
        nothing and sends nothing.
        """
        if not self.alive:
            return 0
        tracer = self.recorder
        if tracer is not None and tracer.sampled(record._rid):
            tracer.record_insert(record, self.identifier)
        self._process_batch([(record, 0)])
        return 1

    def insert_records(self, records: Iterable[SaladRecord]) -> int:
        """Locally initiate a batch of records in one pass (Fig. 4, batched).

        Records bound for the same next hop coalesce into a single
        RECORD_BATCH envelope per neighbor, so a machine publishing its whole
        file scan pays one message per neighbor per hop instead of one per
        record.  Routing decisions, storage, and match notifications are
        per-record identical to :meth:`insert_record`.  Returns the number
        of records initiated: 0 on a failed machine, as for
        :meth:`insert_record`.
        """
        if not self.alive:
            return 0
        pairs = [(record, 0) for record in records]
        tracer = self.recorder  # one check per batch; None costs nothing more
        if tracer is not None:
            for record, _hops in pairs:
                if tracer.sampled(record._rid):
                    tracer.record_insert(record, self.identifier)
        self._process_batch(pairs)
        return len(pairs)

    def _on_record(self, message: Message) -> None:
        """One record off the wire (most record traffic): routed directly.

        Same decision, counters and send order as handing
        ``[(record, hops)]`` to :meth:`_process_batch` (the routing
        equivalence property test holds the two together), without the
        one-element list and the ``forwards`` dict per arrival: each target
        in the cached next-hop tuple is staged straight into the outbox.
        """
        record, hops = message.payload
        tracer = self.recorder
        if tracer is not None and tracer.sampled(record._rid):
            tracer.record_hop(record, hops, message.sender, self.identifier)
        rid = record._rid  # precomputed routing_id; property skipped
        cell = rid & self._cell_mask
        targets = self._next_hop_cache.get(cell)
        if targets is None:
            targets = self._compute_next_hop(rid)
            self._next_hop_cache[cell] = targets
            self.next_hop_misses += 1
        else:
            self.next_hop_hits += 1
        if targets is _LOCAL:
            self.record_arrivals += 1
            self.record_hops += hops
            # Only a hand-built hops == 0 arrival of my own record makes
            # _store replicate to cellmates; engine forwards carry hops >= 1.
            forwards: Dict[int, List[tuple]] = {}
            self._store(record, hops, forwards)
            if forwards:
                self._stage_forwards(forwards)
            return
        if hops >= 2 * self.dimensions or not targets:
            return  # hop budget exhausted (the record is lost) or no target
        forwarded = (record, hops + 1)
        out = self._out_records
        if out is None:
            if not self._open_outbox():
                send = self.network.send
                me = self.identifier
                for target in targets:
                    send(me, target, protocol.RECORD, forwarded)
                return
            out = self._out_records
        for target in targets:
            bucket = out.get(target)
            if bucket is None:
                out[target] = [forwarded]
            else:
                bucket.append(forwarded)

    def _on_record_batch(self, message: Message) -> None:
        pairs = message.payload
        self.extra_received += len(pairs) - 1
        tracer = self.recorder
        if tracer is not None:
            sender = message.sender
            for record, hops in pairs:
                if tracer.sampled(record._rid):
                    tracer.record_hop(record, hops, sender, self.identifier)
        out = self._out_records
        if out is None:
            self._process_batch(pairs)
        else:
            # The outbox is open: route straight into it.  Same staged lists
            # and recipient order as routing into a fresh dict and merging.
            self._route_batch_indexed(pairs, out)

    def _process_batch(self, pairs: Iterable[tuple]) -> None:
        """Route/store a batch of ``(record, hops)`` pairs, coalescing forwards.

        Each record follows the Fig. 4 procedure independently
        (:meth:`_route_batch_indexed`); the batch layer only merges
        same-destination forwards into one envelope.  A destination owed a
        single record receives a legacy RECORD message, so aggregation never
        *adds* overhead.
        """
        forwards: Dict[int, List[tuple]] = {}
        self._route_batch_indexed(pairs, forwards)
        self._stage_forwards(forwards)

    def _open_outbox(self) -> bool:
        """Open this window's outbox; False outside a delivery window."""
        if not self.network.defer_post_window(self._flush_outbox):
            return False
        self._out_records = {}
        self._out_notices = {}
        return True

    def _stage_forwards(self, forwards: Dict[int, List[tuple]]) -> None:
        """Stage *forwards* in the outbox, or send them outside a window."""
        if not forwards:
            return
        out = self._out_records
        if out is None:
            if self._open_outbox():
                self._out_records = forwards  # nothing staged yet: adopt
            else:
                self._send_forwards(forwards)
            return
        for target, batch in forwards.items():
            bucket = out.get(target)
            if bucket is None:
                out[target] = batch
            else:
                bucket.extend(batch)

    def _flush_outbox(self) -> None:
        """Send what the window staged: records, then notices.

        One envelope per recipient and kind, recipients in first-staged
        order.  Runs for a leaf that failed after staging too: those sends
        were made while it was alive.
        """
        records, notices = self._out_records, self._out_notices
        self._out_records = self._out_notices = None
        self._send_forwards(records)
        send = self.network.send
        me = self.identifier
        for target, batch in notices.items():
            if len(batch) == 1:
                send(me, target, protocol.MATCH, batch[0])
            else:
                send(me, target, protocol.MATCH_BATCH, tuple(batch))
                self.extra_notices_sent += len(batch) - 1

    def _send_forwards(self, forwards: Dict[int, List[tuple]]) -> None:
        send = self.network.send
        me = self.identifier
        for target, batch in forwards.items():
            size = len(batch)
            if size == 1:
                send(me, target, protocol.RECORD, batch[0])
            else:
                send(me, target, protocol.RECORD_BATCH, tuple(batch))
                self.extra_records_sent += size - 1
                counts = self.batch_size_counts
                counts[size] = counts.get(size, 0) + 1

    def _route_batch_indexed(
        self, pairs: Iterable[tuple], forwards: Dict[int, List[tuple]]
    ) -> None:
        """The Fig. 4 procedure for each record `<f, l>` at leaf I.

        A record whose cell is mine is stored (:meth:`_store_record`, which
        also sends the match notifications); otherwise it is forwarded along
        my vector on its first mismatching axis.  Nominal delivery takes at
        most D hops (section 4.3), but leaves with different system-size
        estimates compute different coordinates, which can bounce a record
        between vectors indefinitely.  A hop budget of 2*D forwards every
        nominal path (plus slack for mild disagreement) while converting
        pathological cycles into ordinary lossiness.  Outbound forwards are
        appended to *forwards* (target -> pairs) for the caller to coalesce.

        A next-hop cache memoizes, per record cell-ID, the first mismatching
        axis's forwarding targets (computed once with mask arithmetic), so
        every further record bound for the same cell costs one AND plus one
        dict probe; it is message-for-message identical to the seed's
        per-axis coordinate scan, which the golden-trace tests keep as their
        oracle (``tests/reference_engine.py``).  Invalidation: the cache is
        cleared whenever the leaf table gains or loses an entry or the width
        changes (see :meth:`_index_add` / :meth:`_rebuild_index`), which are
        exactly the events that can alter any cell's next hop.

        The cache/mask/budget lookups are hoisted out of the loop because it
        runs once per record per hop.  The cache dict cannot be invalidated
        mid-batch: routing only stores records and sends messages (sends are
        scheduled, never synchronous), and only leaf-table/width changes
        clear the cache.
        """
        cache = self._next_hop_cache
        mask = self._cell_mask
        hop_budget = 2 * self.dimensions
        store = self._store
        hits = misses = arrivals = hop_sum = 0
        for record, hops in pairs:
            rid = record._rid  # precomputed routing_id; property skipped
            cell = rid & mask
            targets = cache.get(cell)
            if targets is None:
                targets = self._compute_next_hop(rid)
                cache[cell] = targets
                misses += 1
            else:
                hits += 1
            if targets is _LOCAL:
                arrivals += 1
                hop_sum += hops
                store(record, hops, forwards)
                continue
            if hops >= hop_budget:
                continue  # hop budget exhausted: the record is lost
            forwarded = (record, hops + 1)
            for target in targets:
                bucket = forwards.get(target)
                if bucket is None:
                    forwards[target] = [forwarded]
                else:
                    bucket.append(forwarded)
        self.next_hop_hits += hits
        self.next_hop_misses += misses
        self.record_arrivals += arrivals
        self.record_hops += hop_sum

    def _compute_next_hop(self, routing_id: int) -> object:
        """First-mismatching-axis targets for a cell, or _LOCAL if mine.

        The cache holds the vector's group tuple itself, in send order, so
        forwarding order is identical on a cache miss and (because the cache
        is cleared on any membership change) on every hit thereafter.
        """
        diff = (routing_id ^ self.identifier) & self._cell_mask
        if not diff:
            return _LOCAL
        masks = self._axis_masks
        for d in range(self.dimensions):
            if diff & masks[d]:
                return self._vector_members_key(d, routing_id & masks[d])
        return _LOCAL  # unreachable: every cell-ID bit belongs to some axis

    def _store_record_traced(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """The store path of a leaf built with a causal-trace recorder.

        Emits the ``store`` event *before* delegating, so a sampled record's
        timeline orders store ahead of the MATCH sends it triggers.
        """
        tracer = self.recorder
        if tracer.sampled(record._rid):
            tracer.record_store(record, self.identifier, hops)
        self._store_record(record, hops, forwards)

    def _store_record(
        self, record: SaladRecord, hops: int, forwards: Dict[int, List[tuple]]
    ) -> None:
        """Cell-aligned arrival: replicate if self-initiated, store, notify."""
        fingerprint, location = record.fingerprint, record.location
        if location == self.identifier and hops == 0:
            # Special case: this leaf generated the record (hops == 0 marks
            # local initiation; a copy returning over the network must not
            # re-broadcast).  Replicate to the rest of the cell.
            for target in self._cell_members():
                forwards.setdefault(target, []).append((record, hops + 1))
        if self.database.has_location(fingerprint, location):
            return  # idempotent redelivery (multiple forwarders reach us)
        # Past the presence probe the record's own location is never among
        # the matches, and the store builds only the notify_limit lowest.
        matching = self.database.insert(record, self.notify_limit)[1]
        if not matching:
            return
        notice = MatchPayload(fingerprint, location)  # the same for every match
        notices = self._out_notices
        if notices is None:
            if not self._open_outbox():
                send = self.network.send
                me = self.identifier
                for match in matching:
                    other = match.location
                    send(me, location, protocol.MATCH, MatchPayload(fingerprint, other))
                    send(me, other, protocol.MATCH, notice)
                return
            notices = self._out_notices
        # Staged in the eager send order: (record's machine, other) pairs.
        # Past the presence probe no match is the record's own location.
        mine = notices.get(location)
        if mine is None:
            mine = notices[location] = []
        for match in matching:
            other = match.location
            mine.append(MatchPayload(fingerprint, other))
            bucket = notices.get(other)
            if bucket is None:
                notices[other] = [notice]
            else:
                bucket.append(notice)

    def _on_match(self, message: Message) -> None:
        self.matches.append(message.payload)

    def _on_match_batch(self, message: Message) -> None:
        notices = message.payload
        self.extra_received += len(notices) - 1
        self.matches.extend(notices)

    # ------------------------------------------------------------------
    # join protocol (Fig. 5)
    # ------------------------------------------------------------------

    def initiate_join(self, bootstrap: Iterable[int]) -> None:
        """Send a join message to each out-of-band-discovered extant leaf.

        If *bootstrap* is empty, this leaf starts a new singleton SALAD.
        """
        payload = JoinPayload(sender=self.identifier, new_leaf=self.identifier)
        for extant in bootstrap:
            self.send(extant, protocol.JOIN, payload)

    def _on_join(self, message: Message) -> None:
        """The Fig. 5 procedure for a join `<s, n>` arriving at leaf I."""
        payload: JoinPayload = message.payload
        s, n = payload.sender, payload.new_leaf
        if n == self.identifier:
            self.join_echoes += 1
            return  # my own join echoed back; nothing to do
        settles = self.network.settles
        if settles != self._seen_round:
            # A new join round: every flood this set remembers has drained.
            self._seen_round = settles
            self._seen_joins.clear()
        elif n in self._seen_joins:
            self.join_duplicates += 1
            return  # flood suppression; already forwarded and welcomed
        self._seen_joins.add(n)
        self.join_fresh += 1
        eff = self.effective_dimensions

        # Mask arithmetic: coordinate d of two identifiers differs iff their
        # XOR has a set bit among axis d's interleaved positions (Eq. 10 is
        # a bit permutation), so each delta computation is one XOR + D ANDs.
        masks = self._axis_masks
        n_diff = (n ^ self.identifier) & self._cell_mask
        delta_set = [d for d in range(eff) if n_diff & masks[d]]
        delta = len(delta_set)
        if s == n:
            # Join received directly from the new leaf: the sender's
            # dimensional alignment is considered lower than all others'.
            sender_delta = -1
        else:
            s_diff = (n ^ s) & self._cell_mask
            sender_delta = sum(1 for d in range(eff) if s_diff & masks[d])

        me = self.identifier
        send = self.network.send
        forward = JoinPayload(me, n)
        if sender_delta > delta:
            # Sender has higher dimensional alignment: move down one degree.
            if delta > 1:
                for d in delta_set:
                    if (d + 1) % eff in delta_set:
                        continue
                    for target in self._vector_members_key(d, n & masks[d]):
                        send(me, target, protocol.JOIN, forward)
            elif delta == 1:
                # I am vector-aligned: forward to every leaf in my vector.
                for d in delta_set:  # exactly one element
                    for target in self._axis_members(d):
                        send(me, target, protocol.JOIN, forward)
        elif sender_delta < delta:
            if delta < eff:
                # Forward *up* one degree of alignment: pick a random matching
                # axis and a random foreign coordinate along it.
                candidates = [d for d in range(eff) if d not in delta_set]
                d = self._rng.choice(candidates)
                width_d = coordinate_width(self.width, self.dimensions, d)
                coords = [c for c in range(1 << width_d) if c != self.coord(n, d)]
                if coords:
                    c = self._rng.choice(coords)
                    for target in self._vector_members(d, c):
                        send(me, target, protocol.JOIN, forward)
            elif delta > 1:
                # I have minimal alignment with n: initiate the batches, one
                # per mismatching dimension.
                for d in delta_set:
                    for target in self._vector_members_key(d, n & masks[d]):
                        send(me, target, protocol.JOIN, forward)
            else:
                # I'm vector-aligned and effective dimensionality is 1:
                # forward the join to everyone I know.
                for target in self.leaf_table:
                    send(me, target, protocol.JOIN, forward)
        # Equal alignment (sender_delta == delta) forwards nothing: the
        # sender's other recipients cover the remaining paths.
        if delta < 2:
            # I am vector-aligned (or cell-aligned) with the new leaf.
            send(me, n, protocol.WELCOME, None)

    def _on_welcome(self, message: Message) -> None:
        """Welcome from an extant leaf: add it, update estimate, acknowledge."""
        extant = message.sender
        if self.knows(extant):
            return
        if self.add_leaf(extant):
            self.network.send(self.identifier, extant, protocol.WELCOME_ACK, None)

    def _on_welcome_ack(self, message: Message) -> None:
        """Welcome-acknowledge: add the leaf and update the estimate; no reply."""
        self.add_leaf(message.sender)

    # ------------------------------------------------------------------
    # departure & refresh (section 4.5)
    # ------------------------------------------------------------------

    def depart_cleanly(self) -> None:
        """Send explicit departure messages to the whole leaf table, then leave."""
        for identifier in list(self.leaf_table):
            self.send(identifier, protocol.DEPARTURE)
        self.depart()

    def _on_departure(self, message: Message) -> None:
        self.remove_leaf(message.sender)

    def send_refreshes(self) -> None:
        """Send one periodic refresh round to every leaf-table entry."""
        for identifier in list(self.leaf_table):
            self.send(identifier, protocol.REFRESH)

    def _on_refresh(self, message: Message) -> None:
        if message.sender in self.leaf_table:
            self.leaf_table[message.sender] = self.network.scheduler.now
        # A refresh from an unknown but vector-aligned leaf re-introduces it.
        elif self.add_leaf(message.sender):
            pass

    def flush_stale_entries(self, timeout: float) -> int:
        """Drop leaf-table entries not refreshed within *timeout*; return count."""
        now = self.network.scheduler.now
        stale = [
            identifier
            for identifier, last_seen in self.leaf_table.items()
            if now - last_seen > timeout
        ]
        for identifier in stale:
            self.remove_leaf(identifier, recalculate=False)
        if stale:
            self._recalculate_width()
        return len(stale)

    # ------------------------------------------------------------------
    # cell-ID width recalculation (Fig. 6)
    # ------------------------------------------------------------------

    def _recalculate_width(self) -> None:
        """The Fig. 6 procedure, run whenever the leaf table changes."""
        if self._in_recalculate:
            return
        self.width_recalcs += 1
        if self._steady_lo <= len(self.leaf_table) + 1 < self._steady_hi:
            # Inside the steady band neither loop of the procedure would
            # take a step (repro.salad.width.steady_band); most
            # recalculations end here.
            return
        self._in_recalculate = True
        try:
            self._recalculate_width_inner()
        finally:
            self._in_recalculate = False

    def _recalculate_width_inner(self) -> None:
        d_count = self.dimensions
        table_with_self = len(self.leaf_table) + 1
        estimate = estimate_system_size(table_with_self, self.width, d_count)
        # Decreases use the attenuated target redundancy (hysteresis, Eq. 19).
        reduced = attenuated_redundancy(self.target_redundancy, self.damping)
        target = target_width(estimate, reduced)
        while target < self.width:
            old_width = self.width
            self.width -= 1
            self.width_changes += 1
            self._rebuild_index()
            self._request_newly_aligned(old_width)
            table_with_self = len(self.leaf_table) + 1
            estimate = estimate_system_size(table_with_self, self.width, d_count)
            target = target_width(estimate, reduced)

        target = target_width(estimate, self.target_redundancy)
        while target > self.width:
            # The stability check costs O(1): _next_width_survivors is the
            # incrementally maintained count of entries that stay
            # vector-aligned at W+1, so rejecting the tentative width (the
            # hysteresis zone, where every table change used to pay a full
            # rescan) touches no table entry at all.
            tentative_width = self.width + 1
            tentative_table = self._next_width_survivors + 1
            tentative_estimate = estimate_system_size(
                tentative_table, tentative_width, d_count
            )
            tentative_target = target_width(tentative_estimate, self.target_redundancy)
            if tentative_target < tentative_width:
                return  # the tentative width is unstable; stay put
            self.width = tentative_width
            self.width_changes += 1
            self._rebuild_index()  # deletes the entries that did not survive
            estimate = tentative_estimate
            target = tentative_target

    def _request_newly_aligned(self, old_width: int) -> None:
        """After a width decrease, learn the newly vector-aligned leaves.

        Folding merged my cell with its mirror along the fold axis; leaves
        that are now cell-aligned with me (but were not before) have exactly
        the newly vector-aligned leaves in their tables, so ask up to
        ceil(lambda) of them for their leaf tables (section 4.6).
        """
        lam = max(1, round(self.target_redundancy))
        newly_cell_aligned = [
            identifier
            for identifier in self.leaf_table
            if self.cell(identifier) == self.cell(self.identifier)
            and cell_id(identifier, old_width) != cell_id(self.identifier, old_width)
        ]
        for identifier in newly_cell_aligned[:lam]:
            self.send(identifier, protocol.LEAF_REQUEST)

    def _on_leaf_request(self, message: Message) -> None:
        identifiers = tuple(self.leaf_table)
        self.network.send(
            self.identifier, message.sender, protocol.LEAF_RESPONSE, identifiers
        )

    def _on_leaf_response(self, message: Message) -> None:
        added = False
        for identifier in message.payload:
            if identifier == self.identifier or self.knows(identifier):
                continue
            if self.add_leaf(identifier, recalculate=False):
                # Introduce myself so knowledge stays symmetric.
                self.network.send(
                    self.identifier, identifier, protocol.WELCOME_ACK, None
                )
                added = True
        if added:
            self._recalculate_width()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"<SaladLeaf {self.identifier:#x} W={self.width} "
            f"T={len(self.leaf_table)} DB={len(self.database)}>"
        )
