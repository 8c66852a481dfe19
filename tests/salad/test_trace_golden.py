"""Causal tracing is a pure observer: golden identity + chain completeness.

Two claims pinned here.  First, sampling **never perturbs the simulated
message trace**: a traced run (any rate) reproduces every observable of the
untraced run byte-for-byte -- the sampler is a pure predicate on the
record's routing id and consumes no RNG.  Second, the traces themselves are
**causally complete**: a sampled record's timeline begins with its insert,
its ``route.hop`` events chain back to the inserting leaf, and every store
is followed by its flush.
"""

import random

import pytest

from repro.core.fingerprint import Fingerprint
from repro.obs import tracing
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import build_timelines
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig

LEAVES = 16
RECORDS_PER_LEAF = 6
CONTENT_POOL = 40

#: Per-process telemetry, excluded from identity comparison; ``sim.trace.*``
#: lives here by design -- a sampled run legitimately counts trace events.
INCIDENTAL_PREFIXES = ("sim.",)


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    tracing.deactivate()
    yield
    tracing.deactivate()


def _config(**overrides):
    return SaladConfig(dimensions=2, seed=11, detailed_metrics=True, **overrides)


def _records_for(identifiers, rng, per_leaf=RECORDS_PER_LEAF):
    by_leaf = {}
    for identifier in identifiers:
        records = []
        for _ in range(per_leaf):
            content = rng.randrange(CONTENT_POOL)
            fingerprint = Fingerprint(
                size=1024 + content, content_digest=content.to_bytes(20, "big")
            )
            records.append(SaladRecord(fingerprint=fingerprint, location=identifier))
        by_leaf[identifier] = records
    return by_leaf


def _observe(sim):
    registry = MetricsRegistry()
    sim.collect_metrics(registry)
    return {
        "stored_records": sim.stored_records(),
        "matches": sim.collected_matches(),
        "message_totals": sim.message_totals(),
        "leaf_tables": sim.leaf_table_sizes(),
        "widths": sim.width_distribution(),
        "counters": sim.message_counters(),
        "total_records": sim.total_stored_records(),
        "metric_counters": {
            name: value
            for name, value in registry.counter_totals().items()
            if not name.startswith(INCIDENTAL_PREFIXES)
        },
    }


def _drive(sim):
    try:
        sim.build(LEAVES)
        sim.insert_records(_records_for(sim.alive_identifiers(), random.Random(5)))
        return _observe(sim)
    finally:
        sim.shutdown()


@pytest.fixture(scope="module")
def untraced_single():
    tracing.deactivate()
    observed = _drive(Salad(_config(trace_sample_rate=0.0)))
    tracing.deactivate()
    return observed


class TestSamplingNeverPerturbs:
    """Golden identity: every observable, traced vs. untraced."""

    @pytest.mark.parametrize("rate", [0.05, 1.0])
    def test_traced_single_process_is_identical(self, rate, untraced_single):
        observed = _drive(Salad(_config(trace_sample_rate=rate)))
        assert observed == untraced_single

    def test_trace_counters_live_outside_the_identity_namespace(self):
        # sim.trace.* is per-process incidental state: present in sampled
        # runs, absent otherwise, and excluded from golden comparisons.
        registry = MetricsRegistry()
        sim = Salad(_config(trace_sample_rate=1.0))
        try:
            sim.build(8)
            sim.insert_records(
                _records_for(sim.alive_identifiers(), random.Random(5), per_leaf=2)
            )
            sim.collect_metrics(registry)
        finally:
            sim.shutdown()
        totals = registry.counter_totals()
        assert totals.get("sim.trace.records_sampled", 0) > 0
        assert totals.get("sim.trace.events_recorded", 0) > 0


class TestCausalChains:
    @pytest.fixture(scope="class")
    def events(self):
        tracing.deactivate()
        _drive(Salad(_config(trace_sample_rate=1.0)))
        events = tracing.take_events()
        tracing.deactivate()
        return events

    def test_every_timeline_begins_with_insert(self, events):
        timelines = build_timelines(events)
        assert timelines
        for entries in timelines.values():
            assert entries[0]["kind"] == "insert"

    def test_route_hops_chain_from_the_inserting_leaf(self, events):
        # A first hop leaves the inserting leaf; a later hop leaves a leaf
        # that itself received the record one hop earlier.
        hops_seen = 0
        for entries in build_timelines(events).values():
            reached = {0: {entries[0]["machine"]}}
            for event in entries:
                if event["kind"] != "route.hop":
                    continue
                hops_seen += 1
                assert event["sender"] in reached[event["hops"] - 1]
                reached.setdefault(event["hops"], set()).add(event["machine"])
        assert hops_seen

    def test_stores_are_flushed(self, events):
        # insert_records settles and flushes: every store is followed, on
        # the same leaf and in the same timeline, by its store.flush.
        stores = 0
        for entries in build_timelines(events).values():
            for index, event in enumerate(entries):
                if event["kind"] != "store":
                    continue
                stores += 1
                assert any(
                    later["kind"] == "store.flush"
                    and later["machine"] == event["machine"]
                    for later in entries[index + 1 :]
                )
        assert stores
