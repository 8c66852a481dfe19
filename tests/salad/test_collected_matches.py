"""``Salad.collected_matches`` is a view over the leaves' notices, not a copy."""

import random
import tracemalloc
from types import SimpleNamespace

from repro.core.fingerprint import synthetic_fingerprint
from repro.salad.records import SaladRecord
from repro.salad.salad import CollectedMatches, Salad, SaladConfig


def copied_matches(salad):
    """The list ``collected_matches`` used to build: every pair, copied."""
    out = []
    for leaf in salad.leaves.values():
        for match in leaf.matches:
            out.append((leaf.identifier, match))
    return out


def _records(identifiers, rng, per_leaf=4, contents=40):
    return {
        identifier: [
            SaladRecord(synthetic_fingerprint(4096, rng.randrange(contents)), identifier)
            for _ in range(per_leaf)
        ]
        for identifier in identifiers
    }


def _salad_with_matches():
    salad = Salad(SaladConfig(seed=5))
    salad.build(48)
    salad.insert_records(_records(salad.alive_identifiers(), random.Random(9)))
    return salad


class TestView:
    def test_same_pairs_in_the_same_order_as_the_copy(self):
        salad = _salad_with_matches()
        expected = copied_matches(salad)
        assert expected  # the run produced notices
        view = salad.collected_matches()
        assert list(view) == expected
        assert len(view) == len(expected)
        assert view == expected and view == tuple(expected)
        assert view == salad.collected_matches()
        assert list(view) == expected  # re-iterable
        assert view != expected[:-1]
        assert view != expected[::-1]

    def test_snapshot_excludes_later_notices(self):
        salad = _salad_with_matches()
        view = salad.collected_matches()
        before = list(view)
        salad.insert_records(_records(salad.alive_identifiers(), random.Random(10)))
        after = salad.collected_matches()
        assert len(after) > len(before)
        assert list(view) == before and len(view) == len(before)

    def test_empty_view_is_falsy(self):
        salad = Salad(SaladConfig(seed=1))
        salad.build(4)
        view = salad.collected_matches()
        assert not view and len(view) == 0 and view == []


def test_iteration_allocates_constant_memory():
    notices = 100_000
    leaves = [
        SimpleNamespace(identifier=i, matches=[object() for _ in range(notices // 10)])
        for i in range(10)
    ]
    view = CollectedMatches(leaves)
    assert len(view) == notices
    tracemalloc.start()
    try:
        seen = 0
        for _ in view:
            seen += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == notices
    # A copied list of 10^5 pairs costs ~6 MB; the view holds one pair.
    assert peak < 16 * 1024
