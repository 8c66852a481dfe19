"""Send order is the protocol's, not the set's.

Figs. 4 and 5 fix which leaves a record or a JOIN goes to; the leaf fixes
the order, ascending identifier, in its member accessors.  A leaf's index
groups can then be laid out any way at all without moving a send.  The
test builds the same SALAD twice, once with every index pre-grown with
throwaway identifiers and emptied -- the same members in differently laid
out dicts -- and compares every observable, the full ordered send log
included.  Under set-layout order the per-join recipient sets already
differ.
"""

import random
from collections import defaultdict

from repro.core.fingerprint import Fingerprint
from repro.salad.ids import coordinate_width, spread_coordinate
from repro.salad.leaf import SaladLeaf
from repro.salad.protocol import JOIN
from repro.salad.records import SaladRecord
from repro.salad.salad import IDENTIFIER_BITS, Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.tracer import NetworkTracer

LEAVES = 96
RECORDS_PER_LEAF = 4
CONTENT_POOL = 60

#: Throwaway identifiers are ``k << IDENTIFIER_BITS | j``: above the
#: identifier space, so no leaf has one, while j places them in the index.
THROWAWAY_PER_GROUP = 16


class PreGrownLeaf(SaladLeaf):
    """A leaf whose index is pre-grown with throwaway ids and emptied.

    Whenever the index is (re)built, the cellmates and every vector group a
    width allows are created, in descending key order, grown with throwaway
    identifiers and emptied again through the index's own add/remove path.
    The table is never changed; only the layout of the dicts holding it
    differs from a plain leaf's.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pre_grow()

    def _rebuild_index(self) -> None:
        super()._rebuild_index()
        self._pre_grow()

    def _pre_grow(self) -> None:
        me = self.identifier
        homes = [me]  # a cellmate of mine
        for axis, mask in enumerate(self._axis_masks):
            coordinates = 1 << coordinate_width(self.width, self.dimensions, axis)
            for coord in reversed(range(coordinates)):
                key = spread_coordinate(coord, self.dimensions, axis)
                if key != me & mask:
                    homes.append(me & ~mask | key)
        throwaway = [
            k << IDENTIFIER_BITS | home
            for home in homes
            for k in range(1, THROWAWAY_PER_GROUP + 1)
        ]
        for identifier in throwaway:
            assert self._index_add(identifier)
        for identifier in throwaway:
            self._index_remove(identifier)


def _records_for(identifiers):
    rng = random.Random(5)
    by_leaf = {}
    for identifier in identifiers:
        records = []
        for _ in range(RECORDS_PER_LEAF):
            content = rng.randrange(CONTENT_POOL)
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            records.append(SaladRecord(fingerprint=fingerprint, location=identifier))
        by_leaf[identifier] = records
    return by_leaf


def _run(leaf_class, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(Salad, "leaf_class", leaf_class)
        # Jitter draws from the network's RNG once per send, so a send moved
        # anywhere in a fan-out moves every delivery time after it.
        network = Network(
            EventScheduler(), latency=1.0, jitter=0.5, rng=random.Random(3)
        )
        tracer = NetworkTracer(network)
        salad = Salad(SaladConfig(dimensions=2, seed=7), network=network)
        salad.build(LEAVES)
        salad.insert_records(_records_for(salad.alive_identifiers()))
    assert all(type(leaf) is leaf_class for leaf in salad.leaves.values())
    recipients = defaultdict(set)
    for message in tracer.by_kind(JOIN):
        recipients[message.payload.new_leaf].add(message.recipient)
    return {
        "join_recipients": dict(recipients),
        "sends": [
            (message.sender, message.recipient, message.kind)
            for message in tracer.messages
        ],
        "stored_records": salad.stored_records(),
        "matches": salad.collected_matches(),
        "message_totals": salad.message_totals(),
        "leaf_tables": salad.leaf_table_sizes(),
        "widths": salad.width_distribution(),
        "counters": salad.message_counters(),
    }


class TestLayoutIndependence:
    def test_pre_grown_index_sets_change_no_send(self, monkeypatch):
        plain = _run(SaladLeaf, monkeypatch)
        pre_grown = _run(PreGrownLeaf, monkeypatch)
        for key in plain:
            assert pre_grown[key] == plain[key], key
