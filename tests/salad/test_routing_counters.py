"""The routing counters every RunReport carries, pinned on the golden trace.

``salad.routing.envelopes`` / ``envelope_records`` / ``batch_size`` and
``salad.records.arrivals`` / ``hops`` are always on: envelopes are read off
the network's per-kind send count, arrivals and hops are tallied in the
routing loops.  On the golden-trace workload (40 leaves, uncapped
notifications, lossless fabric) they must equal the values recorded when
they were an opt-in tally, and an independent recount from a wrapped
``Network.send``.
"""

import random
from collections import Counter

import pytest

from repro.core.fingerprint import Fingerprint
from repro.obs.registry import MetricsRegistry
from repro.salad import protocol
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from tests.reference_engine import ReferenceSalad

LEAVES = 40
RECORDS_PER_LEAF = 15
CONTENT_POOL = 120

#: Recorded with the opt-in tally on, before the counters were always on,
#: keyed by churn: (envelopes, envelope_records, arrivals, hops).
RECORDED = {
    False: (698, 4142, 3314, 6161),
    True: (722, 4194, 3449, 6386),
}
#: The batch_size histogram's (count, total, min, max, log buckets).
RECORDED_BATCH_SIZE = {
    False: (698, 4142.0, 2, 26, {2: 245, 3: 288, 4: 130, 5: 35}),
    True: (722, 4194.0, 2, 26, {2: 269, 3: 288, 4: 130, 5: 35}),
}


def _wave(salad, rng, per_leaf):
    by_leaf = {}
    for leaf in salad.alive_leaves():
        records = []
        for _ in range(per_leaf):
            content = rng.randrange(CONTENT_POOL)
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            records.append(SaladRecord(fingerprint=fingerprint, location=leaf.identifier))
        by_leaf[leaf.identifier] = records
    return by_leaf


def _drive(reference_leaves, churn):
    """The golden-trace workload, with every record send and wave recorded."""
    config = SaladConfig(dimensions=2, seed=11)
    network = Network(
        scheduler=EventScheduler(), latency=config.latency, rng=random.Random(123)
    )
    engine = ReferenceSalad if reference_leaves else Salad
    salad = engine(config, network=network)
    salad.build(LEAVES)
    sends = []
    original = salad.network.send

    def send(sender, recipient, kind, payload):
        if kind in (protocol.RECORD, protocol.RECORD_BATCH):
            sends.append((recipient, kind, payload))
        original(sender, recipient, kind, payload)

    salad.network.send = send
    waves = [_wave(salad, random.Random(5), RECORDS_PER_LEAF)]
    salad.insert_records(waves[0])
    if churn:
        for identifier in sorted(salad.alive_identifiers())[::4]:
            salad.leaves[identifier].depart_cleanly()
        salad.run()
        waves.append(_wave(salad, random.Random(17), 1))
        salad.insert_records(waves[-1])
    registry = salad.collect_metrics(MetricsRegistry())
    return salad, sends, waves, registry


def _recount(salad, sends, waves):
    """The counters, from the sends alone plus each leaf's final cell.

    Without churn no width changes after the build, so a record pair stops
    at a leaf (an arrival) exactly when the leaf's cell is the record's:
    every pair sent to such a leaf, and every record initiated on one at
    hop 0.
    """
    def local(leaf, record):
        return leaf.cell(record.routing_id) == leaf.cell(leaf.identifier)

    batch_sizes = Counter(
        len(payload) for _, kind, payload in sends if kind == protocol.RECORD_BATCH
    )
    pairs = [
        (recipient, pair)
        for recipient, kind, payload in sends
        for pair in (payload if kind == protocol.RECORD_BATCH else (payload,))
    ]
    pairs += [
        (identifier, (record, 0))
        for wave in waves
        for identifier, records in wave.items()
        for record in records
    ]
    arrived = [
        hops for recipient, (record, hops) in pairs
        if local(salad.leaves[recipient], record)
    ]
    return batch_sizes, len(arrived), sum(arrived)


@pytest.mark.parametrize("churn", [False, True])
@pytest.mark.parametrize("reference_leaves", [False, True])
def test_counters_equal_the_recorded_values(reference_leaves, churn):
    _, _, _, registry = _drive(reference_leaves, churn)
    totals = registry.counter_totals()
    assert (
        totals["salad.routing.envelopes"],
        totals["salad.routing.envelope_records"],
        totals["salad.records.arrivals"],
        totals["salad.records.hops"],
    ) == RECORDED[churn]
    histogram = registry.histogram("salad.routing.batch_size")
    assert (
        histogram.count, histogram.total, histogram.min, histogram.max, histogram.buckets
    ) == RECORDED_BATCH_SIZE[churn]


@pytest.mark.parametrize("reference_leaves", [False, True])
def test_counters_equal_a_recount_of_the_sends(reference_leaves):
    salad, sends, waves, registry = _drive(reference_leaves, churn=False)
    batch_sizes, arrivals, hops = _recount(salad, sends, waves)
    totals = registry.counter_totals()
    assert totals["salad.routing.envelopes"] == sum(batch_sizes.values())
    assert totals["salad.routing.envelope_records"] == sum(
        size * n for size, n in batch_sizes.items()
    )
    assert (totals["salad.records.arrivals"], totals["salad.records.hops"]) == (
        arrivals,
        hops,
    )
    harvested = Counter()
    for leaf in salad.leaves.values():
        harvested.update(leaf.batch_size_counts)
    assert harvested == batch_sizes


def test_envelope_counters_equal_a_recount_of_the_sends_under_churn():
    _, sends, _, registry = _drive(reference_leaves=False, churn=True)
    batches = [payload for _, kind, payload in sends if kind == protocol.RECORD_BATCH]
    totals = registry.counter_totals()
    assert totals["salad.routing.envelopes"] == len(batches)
    assert totals["salad.routing.envelope_records"] == sum(map(len, batches))
