"""Message tracing and protocol-invariant checks over real SALAD runs."""

import random
from collections import Counter

import pytest

from repro.core.fingerprint import synthetic_fingerprint
from repro.obs.registry import MetricsRegistry
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from repro.sim.tracer import NetworkTracer


@pytest.fixture(scope="module")
def traced_salad():
    salad = Salad(SaladConfig(target_redundancy=2.5, dimensions=2, seed=51))
    tracer = NetworkTracer(salad.network)
    salad.build(60)
    rng = random.Random(1)
    leaves = salad.alive_leaves()
    batches = {}
    for i in range(300):
        leaf = rng.choice(leaves)
        record = SaladRecord(synthetic_fingerprint(4096 + i, i), leaf.identifier)
        batches.setdefault(leaf.identifier, []).append(record)
    salad.insert_records(batches)
    return salad, tracer


class TestTracing:
    def test_all_kinds_recorded(self, traced_salad):
        _, tracer = traced_salad
        kinds = Counter(message.kind for message in tracer.messages)
        assert kinds.get("join", 0) > 0
        assert kinds.get("welcome", 0) > 0
        assert kinds.get("record", 0) > 0

    def test_trace_matches_network_totals(self, traced_salad):
        salad, tracer = traced_salad
        assert len(tracer.messages) == salad.network.messages_sent


class TestInvariants:
    def test_record_hop_bound_holds(self, traced_salad):
        salad, tracer = traced_salad
        assert tracer.check_record_hop_bound(salad.config.dimensions) == []

    def test_join_suppression_holds(self, traced_salad):
        _, tracer = traced_salad
        assert tracer.check_join_suppression() == []

    def test_traffic_conservation_holds(self, traced_salad):
        _, tracer = traced_salad
        assert tracer.check_traffic_conservation() == []

    def test_record_progress_under_uniform_widths(self):
        """Force every leaf to one width: forwarding must make progress."""
        salad = Salad(SaladConfig(target_redundancy=2.5, dimensions=2, seed=53))
        salad.build(50)
        target = max(
            salad.width_distribution(), key=lambda w: salad.width_distribution()[w]
        )
        for leaf in salad.alive_leaves():
            leaf.width = target
            leaf._rebuild_index()
        tracer = NetworkTracer(salad.network)
        rng = random.Random(2)
        leaves = salad.alive_leaves()
        batches = {}
        for i in range(200):
            leaf = rng.choice(leaves)
            record = SaladRecord(
                synthetic_fingerprint(2048 + i, 900_000 + i), leaf.identifier
            )
            batches.setdefault(leaf.identifier, []).append(record)
        salad.insert_records(batches)
        assert tracer.check_record_progress(salad.leaves) == []
        assert tracer.check_record_hop_bound(2) == []


class TestHarvest:
    """feed_registry counts a check as run only when it ran."""

    @staticmethod
    def _progress_counters(salad, tracer):
        registry = MetricsRegistry()
        tracer.feed_registry(registry, salad.leaves, salad.config.dimensions)
        totals = registry.counter_totals()
        return {
            name: totals.get(f"sim.invariants.{name}{{check=progress}}")
            for name in ("violations", "skipped")
        }

    def test_progress_under_divergent_widths_is_reported_skipped(self, traced_salad):
        salad, tracer = traced_salad
        assert len(salad.width_distribution()) > 1
        assert tracer.check_record_progress(salad.leaves) is None
        assert self._progress_counters(salad, tracer) == {"violations": None, "skipped": 1}

    def test_progress_under_uniform_widths_is_reported_run(self):
        salad = Salad(SaladConfig(target_redundancy=2.5, dimensions=2, seed=53))
        tracer = NetworkTracer(salad.network)
        salad.build(1)
        assert self._progress_counters(salad, tracer) == {"violations": 0, "skipped": None}
