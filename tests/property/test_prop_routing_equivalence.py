"""Property test: the three record-routing paths of a leaf agree.

A leaf routes a record one of three ways:

- *reference*: a ``ReferenceLeaf`` (``tests/reference_engine.py``) -- the
  seed's per-axis coordinate scan, no caching, always through
  :meth:`SaladLeaf._process_batch`;
- *batch*: the next-hop cache driven by ``_process_batch`` (local
  initiation and RECORD_BATCH arrivals);
- *direct*: the next-hop cache driven by :meth:`SaladLeaf._on_record`, the
  live path of a single RECORD arriving off the wire, which skips the batch
  machinery.

Three leaves with the same identifier and config, one per path, are driven
through an identical interleaving of membership changes (which move the
width up and down and invalidate the cache) and record arrivals; after
every operation they must have sent the same messages in the same order,
and at the end hold the same records.  The two cached paths must also
agree on the hit/miss counters.  Arrivals draw hops from 0 past the 2*D
budget and locations that include the leaf itself, so budget exhaustion, a
self-located record returning over the network, and ``notify_limit``
truncation of MATCH fan-out are all inside the generated space; the
example-based tests below pin each of them explicitly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad import protocol
from repro.salad.leaf import _LOCAL, SaladLeaf
from repro.salad.records import SaladRecord
from repro.sim.events import EventScheduler
from repro.sim.network import Message, Network
from tests.reference_engine import ReferenceLeaf

SELF = 0xC0FFEE
#: Record locations: the leaf itself plus a few foreign machines, so one
#: fingerprint accumulates several copies and stores trigger MATCH fan-out.
LOCATIONS = (SELF, 0xA11CE, 0xB0B, 0xCAFE, 0xD00D, 0xE66)

# Far-flung identifiers (mostly misaligned once the width grows) mixed with
# near neighbours of the leaf, which stay vector-aligned and so build the
# wide tables whose records are forwarded instead of stored.
identifiers = st.one_of(
    st.integers(min_value=1, max_value=(1 << 24)),
    st.integers(min_value=0, max_value=63).map(lambda low: (SELF & ~63) | low),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), identifiers),
        st.tuples(st.just("remove"), identifiers),
        # An arriving record; the small content space makes repeats (cache
        # hits against a possibly-changed table, duplicate copies) common.
        st.tuples(
            st.just("route"),
            st.tuples(
                st.integers(min_value=0, max_value=30),  # content
                st.integers(min_value=0, max_value=7),  # hops, past 2*D for D <= 3
                st.sampled_from(LOCATIONS),
            ),
        ),
    ),
    min_size=1,
    max_size=80,
)


class RecordingNetwork(Network):
    """A network that also logs every send as (recipient, kind, payload)."""

    def __init__(self):
        super().__init__(EventScheduler())
        self.sent = []

    def send(self, sender, recipient, kind, payload):
        self.sent.append((recipient, kind, payload))
        super().send(sender, recipient, kind, payload)


def make_leaf(dimensions=2, notify_limit=None, reference=False):
    return (ReferenceLeaf if reference else SaladLeaf)(
        SELF,
        RecordingNetwork(),
        target_redundancy=2.0,
        dimensions=dimensions,
        notify_limit=notify_limit,
    )


def take_sends(leaf):
    sent, leaf.network.sent = leaf.network.sent, []
    return sent


def record_of(content, location):
    return SaladRecord(
        fingerprint=synthetic_fingerprint(1000 + content, content), location=location
    )


def via_batch(leaf, record, hops):
    leaf._process_batch([(record, hops)])
    return take_sends(leaf)


def via_wire(leaf, record, hops):
    """Deliver one RECORD message to the leaf's registered handler."""
    leaf.receive(Message(0xFEED, leaf.identifier, protocol.RECORD, (record, hops)))
    return take_sends(leaf)


def stored(leaf):
    return list(leaf.database.records())


class TestRoutingEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        operations,
        st.sampled_from((1, 2, 3)),
        st.sampled_from((None, 1, 2)),
    )
    def test_indexed_matches_reference_under_churn(
        self, ops, dimensions, notify_limit
    ):
        reference = make_leaf(dimensions, notify_limit, reference=True)
        batch = make_leaf(dimensions, notify_limit)
        direct = make_leaf(dimensions, notify_limit)
        leaves = (reference, batch, direct)
        for op, value in ops:
            if op == "add":
                assert len({leaf.add_leaf(value) for leaf in leaves}) == 1
            elif op == "remove":
                assert len({leaf.remove_leaf(value) for leaf in leaves}) == 1
            else:
                content, hops, location = value
                record = record_of(content, location)
                expected = via_batch(reference, record, hops)
                assert via_batch(batch, record, hops) == expected
                assert via_wire(direct, record, hops) == expected
                continue
            # Width (and thus every coordinate) must agree move for move,
            # as must whatever the width change itself sent.
            sends = [take_sends(leaf) for leaf in leaves]
            assert sends[0] == sends[1] == sends[2]
            assert reference.width == batch.width == direct.width
            assert set(reference.leaf_table) == set(batch.leaf_table)
            assert set(reference.leaf_table) == set(direct.leaf_table)
        assert stored(reference) == stored(batch) == stored(direct)
        assert (batch.next_hop_hits, batch.next_hop_misses) == (
            direct.next_hop_hits,
            direct.next_hop_misses,
        )
        # A reference-routing leaf takes the oracle path on the wire too.
        assert reference.next_hop_hits == reference.next_hop_misses == 0


class TestDirectPathCorners:
    """The corners the property covers by chance, pinned by construction."""

    def _twins(self, notify_limit=None, table=()):
        twins = (make_leaf(notify_limit=notify_limit), make_leaf(notify_limit=notify_limit))
        for leaf in twins:
            for identifier in table:
                leaf.add_leaf(identifier)
            take_sends(leaf)
        return twins

    def _foreign_record(self, leaf):
        """A record whose cell is not the leaf's but that it can forward."""
        for content in range(200):
            record = record_of(content, 0xA11CE)
            targets = leaf._compute_next_hop(record._rid)
            if targets is not _LOCAL and targets:
                return record
        raise AssertionError("no forwardable record in the content space")

    def test_hop_budget_exhaustion_sends_nothing(self):
        table = [SELF ^ bit for bit in (1, 2, 4, 8, 3, 5, 6, 9, 10, 12)]
        batch, direct = self._twins(table=table)
        assert direct.width > 0
        record = self._foreign_record(direct)
        budget = 2 * direct.dimensions
        assert via_wire(direct, record, budget - 1) == via_batch(batch, record, budget - 1) != []
        assert via_wire(direct, record, budget) == via_batch(batch, record, budget) == []
        assert stored(direct) == stored(batch) == []
        assert (direct.next_hop_hits, direct.next_hop_misses) == (1, 1)
        assert (batch.next_hop_hits, batch.next_hop_misses) == (1, 1)

    def test_own_record_returning_is_not_rebroadcast(self):
        batch, direct = self._twins(table=[SELF ^ (1 << 20), SELF ^ (1 << 21)])
        assert direct.width == 0 and len(direct._cellmates) == 2
        record = record_of(1, SELF)
        assert via_wire(direct, record, 1) == via_batch(batch, record, 1) == []
        assert stored(direct) == stored(batch) == [record]

    def test_hand_built_zero_hop_arrival_replicates_like_initiation(self):
        batch, direct = self._twins(table=[SELF ^ (1 << 20), SELF ^ (1 << 21)])
        record = record_of(1, SELF)
        sends = via_wire(direct, record, 0)
        assert sends == via_batch(batch, record, 0)
        assert [(kind, payload) for _, kind, payload in sends] == [
            (protocol.RECORD, (record, 1))
        ] * 2
        assert {recipient for recipient, _, _ in sends} == set(direct._cellmates)

    def test_notify_limit_truncates_match_fanout(self):
        batch, direct = self._twins(notify_limit=2)
        for location in LOCATIONS[1:5]:
            via_wire(direct, record_of(7, location), 1)
            via_batch(batch, record_of(7, location), 1)
        newcomer = record_of(7, LOCATIONS[5])
        sends = via_wire(direct, newcomer, 2)
        assert sends == via_batch(batch, newcomer, 2)
        # 4 existing copies, limit 2: two pairs of MATCH, not four.
        assert [kind for _, kind, _ in sends] == [protocol.MATCH] * 4
        assert stored(direct) == stored(batch)

