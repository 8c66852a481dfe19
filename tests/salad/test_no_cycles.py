"""The engine builds no reference cycles.

``EventScheduler.run`` drains with CPython's cyclic collector paused
(``tests/sim/test_events.py::TestCollectorPolicy``).  That is only free of
cost while everything a drain allocates -- messages, payloads, routing
tuples, leaf-table and store entries -- is reclaimed by reference counting
alone.  This test pins the fact: a whole membership-and-insert scenario run
with the collector *off* leaves nothing for a full collection to find.  A
future handler that links objects into a cycle (a payload that points back
at its message, a callback closed over its own holder) fails here instead
of growing the resident set of every long drain.
"""

import gc
import random

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig


def _wave(salad, rng, per_leaf=4, contents=60):
    """Records for every alive leaf, from a small (duplicate-rich) content space."""
    return {
        identifier: [
            SaladRecord(
                fingerprint=synthetic_fingerprint(1000 + content, content),
                location=identifier,
            )
            for content in rng.sample(range(contents), per_leaf)
        ]
        for identifier in salad.alive_identifiers()
    }


def _scenario():
    rng = random.Random(5)
    salad = Salad(SaladConfig(dimensions=2, target_redundancy=2.0, seed=3, notify_limit=4))
    salad.build(64)
    salad.insert_records(_wave(salad, rng))
    for identifier in rng.sample(salad.alive_identifiers(), 8):
        salad.depart_leaf(identifier)
    for _ in range(8):
        salad.add_leaf()
    salad.crash_fraction(0.1, rng)
    salad.insert_records(_wave(salad, rng))
    return salad


def test_membership_and_insert_scenario_leaves_no_cyclic_garbage():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        salad = _scenario()
        sent, delivered, dropped = salad.message_counters()
        assert sent == delivered + dropped and dropped > 0  # the crash bit
        assert salad.collected_matches()  # stores and MATCH fan-out ran
        # The live engine is itself cyclic (leaf <-> network, handlers bound
        # to their leaf) and stays referenced here; what must be zero is the
        # *unreachable* garbage the scenario left behind.
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
