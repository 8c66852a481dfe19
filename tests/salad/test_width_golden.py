"""Golden identity of amortized width maintenance vs. the scan oracle.

The leaf replaces the full leaf-table rescan of the Fig. 6 growth check
with an incrementally maintained survivor count (updated on every index
add/remove), and a committed increase drops the non-survivors in the
index rebuild at the new width.  The claim is *trace identity*, not
statistical equivalence: a ``ScanWidthLeaf`` (``tests/reference_engine.py``)
finds the dropped entries by scanning first (the seed behavior, counted by
``survivor_scans``); the shipped amortized path must produce bit-identical
stored records, duplicate matches, per-machine message totals, and telemetry
-- the only permitted difference is the ``salad.routing.survivor_scans``
counter itself (the whole point: it pins to zero).
"""

import random

import pytest

from repro.core.fingerprint import Fingerprint
from repro.obs.registry import MetricsRegistry
from repro.salad.records import SaladRecord
from repro.salad.salad import Salad, SaladConfig
from tests.reference_engine import ScanWidthSalad

LEAVES = 24
RECORDS_PER_LEAF = 10
CONTENT_POOL = 60

#: Per-process incidental telemetry, plus the one counter that legitimately
#: differs between the amortized path and the reference oracle.
EXCLUDED_PREFIXES = ("sim.",)
SCAN_COUNTER = "salad.routing.survivor_scans"


def _config(**overrides):
    base = dict(dimensions=2, seed=11)
    base.update(overrides)
    return SaladConfig(**base)


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


def _drive(sim):
    """Growth, insert, clean departures, and a second insert wave.

    Departures shrink leaf tables, so the run commits width changes in both
    directions -- exactly the events whose dropped-set derivation differs
    between the rebuild at the new width and the reference rescan.
    """
    try:
        sim.build(LEAVES)
        sim.insert_records(_records_for(sim.alive_identifiers(), random.Random(5)))
        for identifier in sorted(sim.alive_identifiers())[::4]:
            sim.depart_leaf(identifier, settle=False)
        sim.run()
        sim.insert_records(
            _records_for(sim.alive_identifiers(), random.Random(17), per_leaf=1)
        )
        registry = MetricsRegistry()
        sim.collect_metrics(registry)
        counters = registry.counter_totals()
        return {
            "stored_records": sim.stored_records(),
            "matches": sim.collected_matches(),
            "message_totals": sim.message_totals(),
            "leaf_tables": sim.leaf_table_sizes(),
            "widths": sim.width_distribution(),
            "counters": {
                name: value
                for name, value in counters.items()
                if not name.startswith(EXCLUDED_PREFIXES) and name != SCAN_COUNTER
            },
            "survivor_scans": counters.get(SCAN_COUNTER, 0),
            "width_changes": counters.get("salad.width.changes", 0),
        }
    finally:
        sim.shutdown()


@pytest.fixture(scope="module")
def amortized_single():
    return _drive(Salad(_config()))


@pytest.fixture(scope="module")
def reference_single():
    return _drive(ScanWidthSalad(_config()))


def _assert_trace_identical(left, right):
    for key in (
        "stored_records",
        "matches",
        "message_totals",
        "leaf_tables",
        "widths",
        "counters",
    ):
        assert left[key] == right[key], f"width paths diverge on {key}"


class TestAmortizedWidthGolden:
    def test_amortized_matches_reference_single_process(
        self, amortized_single, reference_single
    ):
        _assert_trace_identical(amortized_single, reference_single)

    def test_amortized_path_never_scans(self, amortized_single, reference_single):
        # The workload commits width changes; the oracle scans once per
        # commit, the amortized path never does.
        assert amortized_single["width_changes"] > 0
        assert amortized_single["survivor_scans"] == 0
        assert reference_single["survivor_scans"] > 0
        assert (
            reference_single["survivor_scans"]
            <= reference_single["width_changes"]
        )

