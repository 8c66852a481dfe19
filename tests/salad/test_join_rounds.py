"""Join-flood suppression with per-round forgetting.

A leaf remembers the joins it has seen only until the engine's next settle
has drained the network (``Network.settles``): no JOIN of an earlier flood
can still be in flight then, so forgetting changes no decision.  These tests
pin that on a fabric where floods are messy -- jittered delivery and 5 %
loss -- against a network whose settle count never moves, which is the
never-forget behaviour leaves had before rounds existed.
"""

import random
from collections import defaultdict

from repro.obs.registry import MetricsRegistry
from repro.salad.protocol import JOIN
from repro.salad.salad import Salad, SaladConfig
from repro.sim.events import EventScheduler
from repro.sim.network import Network
from repro.sim.tracer import NetworkTracer

LEAVES = 128


class NeverForgettingNetwork(Network):
    """A network whose settle count is pinned at 0: no join is forgotten."""

    @property
    def settles(self) -> int:
        return 0

    @settles.setter
    def settles(self, value: int) -> None:
        pass


def _lossy_salad(network_class):
    network = network_class(
        EventScheduler(),
        latency=1.0,
        jitter=0.5,
        loss_probability=0.05,
        rng=random.Random(3),
    )
    tracer = NetworkTracer(network)
    return Salad(SaladConfig(seed=7), network=network), tracer


def _join_observables(salad, tracer):
    recipients = defaultdict(set)
    for message in tracer.by_kind(JOIN):
        recipients[message.payload.new_leaf].add(message.recipient)
    counters = tuple(
        sum(getattr(leaf, name) for leaf in salad.leaves.values())
        for name in ("join_fresh", "join_duplicates", "join_echoes")
    )
    return dict(recipients), counters


def _seen_resident(salad) -> int:
    return sum(len(leaf._seen_joins) for leaf in salad.leaves.values())


class TestLossyBuild:
    def test_rounds_change_no_join_decision(self):
        forgetting, forgetting_trace = _lossy_salad(Network)
        forgetting.build(LEAVES)
        keeping, keeping_trace = _lossy_salad(NeverForgettingNetwork)
        keeping.build(LEAVES)

        recipients, counters = _join_observables(forgetting, forgetting_trace)
        assert (recipients, counters) == _join_observables(keeping, keeping_trace)
        # The seeded build's (fresh, duplicates, echoes): duplicates do
        # arrive inside floods, and every one of them is still suppressed.
        assert counters == (2215, 4705, 0)
        assert forgetting_trace.check_join_suppression() == []
        # ...while the forgetting engine holds a fraction of the entries.
        assert _seen_resident(keeping) == counters[0]
        assert _seen_resident(forgetting) < LEAVES

    def test_seen_joins_bounded_after_each_settled_join(self):
        salad, _ = _lossy_salad(Network)
        salad.add_leaf()
        while salad.alive_count() < LEAVES:
            salad.add_leaf()
            assert _seen_resident(salad) <= salad.alive_count()

    def test_harvest_reports_seen_resident(self):
        salad, _ = _lossy_salad(Network)
        salad.build(32)
        registry = salad.collect_metrics(MetricsRegistry())
        gauge = registry.gauge("salad.join.seen_resident")
        assert gauge.value == _seen_resident(salad) <= salad.alive_count()


def test_bare_network_run_keeps_the_round():
    """Only the engine's settles open a round; Network.run alone does not."""
    salad = Salad(SaladConfig(seed=1))
    salad.build(4)
    settles = salad.network.settles
    salad.network.run()
    assert salad.network.settles == settles
    salad.run()
    assert salad.network.settles == settles + 1
